//! Layer-step benchmark: one fused training step (forward + backward +
//! optimizer) for an MLP and a 2-layer GIN, comparing the allocating
//! API against the `_into`/scratch hot path, and a per-graph corpus
//! epoch against the block-diagonally batched one, plus forward and
//! backward of a GNN-101 vertex model per aggregator.
//!
//! Run with `cargo bench -p gel-bench --bench layers [-- --smoke]`.
//! `--smoke` shrinks the iteration counts for CI and *asserts* two
//! contracts: the steady-state buffer-allocation counter stays at zero
//! across a `Dense` and a `Gnn101Conv` training step, and the
//! block-diagonally batched epoch (timed as a min over rounds, pinned
//! to four threads) is no slower than the per-graph epoch.

use gel_experiments::bench::min_secs_per_iter;
use gel_gnn::{
    train_graph_model, train_graph_model_batched, Gnn101Conv, GnnAgg, GraphModel, VertexModel,
};
use gel_graph::random::erdos_renyi;
use gel_graph::{families, BatchedGraphs, Graph};
use gel_tensor::{
    Activation, Adam, Dense, Init, Loss, Matrix, Mlp, Optimizer, Parameterized, Scratch, Sgd,
    BUFFER_ALLOCS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn report(name: &str, allocating: f64, into: f64) {
    println!(
        "{name:<40} allocating {:>9.2} µs   _into {:>9.2} µs   speedup {:>5.2}x",
        allocating * 1e6,
        into * 1e6,
        allocating / into.max(1e-12)
    );
}

/// One MLP training step, allocating vs `_into`.
fn bench_mlp(iters: u32) {
    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let x = Matrix::from_fn(64, 16, |i, j| ((i * 31 + j * 7) % 13) as f64 * 0.1 - 0.6);
    let target = Matrix::from_fn(64, 8, |i, j| ((i + j) % 2) as f64);

    let mut model =
        Mlp::new(&[16, 32, 8], Activation::ReLU, Activation::Identity, Init::He, &mut rng);
    let mut opt = Sgd::new(0.01);
    let alloc = min_secs_per_iter(1, iters, || {
        model.zero_grads();
        let pred = model.forward(&x);
        let (_, grad) = Loss::Mse.eval(&pred, &target);
        let _ = model.backward(&grad);
        opt.step(&mut model);
    });

    let mut model =
        Mlp::new(&[16, 32, 8], Activation::ReLU, Activation::Identity, Init::He, &mut rng);
    let mut opt = Sgd::new(0.01);
    let mut scratch = Scratch::new();
    let (mut pred, mut grad, mut grad_in) =
        (Matrix::default(), Matrix::default(), Matrix::default());
    let into = min_secs_per_iter(1, iters, || {
        model.zero_grads();
        model.forward_into(&x, &mut scratch, &mut pred);
        let _ = Loss::Mse.eval_into(&pred, &target, &mut grad);
        model.backward_into(&grad, &mut scratch, &mut grad_in);
        opt.step(&mut model);
    });
    report("mlp_16x32x8_step (64 rows)", alloc, into);
}

/// One 2-layer-GIN training epoch over a corpus, per-graph vs batched.
/// Returns the batched speedup (per-graph time over batched time),
/// each side timed as a min over rounds.
fn bench_gin_corpus(iters: u32) -> f64 {
    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let data: Vec<(Graph, Vec<f64>)> = (4..24)
        .flat_map(|k| [(families::star(k), vec![1.0]), (families::cycle(k), vec![0.0])])
        .collect();
    let batch = BatchedGraphs::pack(data.iter().map(|(g, _)| g));
    let targets = Matrix::from_vec(data.len(), 1, data.iter().map(|(_, t)| t[0]).collect());
    let rounds = 3;

    let mut model = GraphModel::gin(1, 16, 2, 1, Activation::Identity, &mut rng);
    let mut opt = Adam::new(0.01);
    let per_graph = min_secs_per_iter(rounds, iters, || {
        let _ = train_graph_model(&mut model, &data, Loss::BceWithLogits, &mut opt, 1);
    });

    let mut model = GraphModel::gin(1, 16, 2, 1, Activation::Identity, &mut rng);
    let mut opt = Adam::new(0.01);
    let batched = min_secs_per_iter(rounds, iters, || {
        let _ = train_graph_model_batched(
            &mut model,
            &batch,
            &targets,
            Loss::BceWithLogits,
            &mut opt,
            1,
        );
    });
    let speedup = per_graph / batched.max(1e-12);
    println!(
        "{:<40} per-graph {:>10.2} µs   batched {:>8.2} µs   speedup {:>5.2}x",
        "gin_2layer_epoch (40 graphs)",
        per_graph * 1e6,
        batched * 1e6,
        speedup
    );
    speedup
}

/// Forward + backward of a 4-layer GNN-101 vertex model per
/// aggregator (the sum/mean/max ablation of DESIGN.md §6, behind E11
/// and the L2/L3 encoders).
fn bench_aggregators(iters: u32) {
    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    for n in [50usize, 200] {
        let g = erdos_renyi(n, 10.0 / n as f64, &mut rng);
        for agg in [GnnAgg::Sum, GnnAgg::Mean, GnnAgg::Max] {
            let mut model = VertexModel::gnn101(1, 32, 3, 4, agg, &mut rng);
            let secs = min_secs_per_iter(1, iters, || {
                model.zero_grads();
                let y = model.forward(&g);
                model.backward(&g, &Matrix::filled(y.rows(), y.cols(), 1.0));
            });
            println!(
                "{:<40} {:>9.2} µs",
                format!("vertex_model_fwd_bwd {agg:?} (n={n})"),
                secs * 1e6
            );
        }
    }
}

/// Steady-state allocation counter across a `Dense` training step;
/// must be zero after warm-up.
fn dense_steady_state_allocs(warm: u32, steps: u32) -> u64 {
    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let x = Matrix::from_fn(32, 8, |i, j| ((i * 13 + j * 5) % 7) as f64 * 0.2 - 0.5);
    let mut layer = Dense::new(8, 8, Activation::Tanh, Init::Xavier, &mut rng);
    let mut opt = Sgd::new(0.01);
    let mut scratch = Scratch::new();
    let (mut out, mut grad, mut grad_in) =
        (Matrix::default(), Matrix::default(), Matrix::default());
    let mut base = 0u64;
    for step in 0..warm + steps {
        if step == warm {
            base = BUFFER_ALLOCS.get();
        }
        layer.zero_grads();
        layer.forward_into(&x, &mut out);
        grad.ensure_shape(out.rows(), out.cols());
        grad.fill(1.0);
        layer.backward_into(&grad, &mut scratch, &mut grad_in);
        opt.step(&mut layer);
    }
    BUFFER_ALLOCS.get() - base
}

/// Steady-state allocation counter across a `Gnn101Conv` training
/// step; must be zero after warm-up.
fn gnn101_steady_state_allocs(warm: u32, steps: u32) -> u64 {
    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let g = families::cycle(48);
    let x = Matrix::from_fn(48, 4, |i, j| ((i * 17 + j * 3) % 11) as f64 * 0.1 - 0.4);
    let mut conv = Gnn101Conv::new(4, 4, Activation::Tanh, GnnAgg::Sum, &mut rng);
    let mut opt = Sgd::new(0.01);
    let mut scratch = Scratch::new();
    let (mut out, mut grad, mut grad_in) =
        (Matrix::default(), Matrix::default(), Matrix::default());
    let mut base = 0u64;
    for step in 0..warm + steps {
        if step == warm {
            base = BUFFER_ALLOCS.get();
        }
        conv.zero_grads();
        conv.forward_into(&g, &x, &mut scratch, &mut out);
        grad.ensure_shape(out.rows(), out.cols());
        grad.fill(1.0);
        conv.backward_into(&g, &grad, &mut scratch, &mut grad_in);
        opt.step(&mut conv);
    }
    BUFFER_ALLOCS.get() - base
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 5 } else { 200 };

    bench_mlp(iters);
    bench_aggregators(iters);
    // The batched-vs-per-graph comparison runs pinned to four threads —
    // the configuration the batching claim is made for — so the number
    // is comparable across machines and the smoke assertion below is
    // meaningful.
    rayon::set_num_threads(4);
    let batched_speedup = bench_gin_corpus(iters);
    rayon::set_num_threads(0);

    let dense_allocs = dense_steady_state_allocs(3, 20);
    let gnn_allocs = gnn101_steady_state_allocs(3, 20);
    println!("dense_steady_state_allocs  = {dense_allocs} (over 20 steps)");
    println!("gnn101_steady_state_allocs = {gnn_allocs} (over 20 steps)");
    if smoke {
        assert_eq!(dense_allocs, 0, "Dense training step allocated in steady state");
        assert_eq!(gnn_allocs, 0, "Gnn101Conv training step allocated in steady state");
        assert!(
            batched_speedup >= 1.0,
            "block-diagonal batching regressed below the per-graph baseline \
             (speedup {batched_speedup:.2}x at 4 threads)"
        );
        println!("smoke OK: steady-state training steps are allocation-free");
    }
}
