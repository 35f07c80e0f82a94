//! Block-diagonal batching equivalence: a corpus packed with
//! `BatchedGraphs` must produce, row for row, *bit-identical* outputs
//! to running each graph through the model on its own — for every
//! aggregator, both readouts, and at every thread count. This is the
//! soundness contract that lets the experiment runners batch freely.

use gel_gnn::{GnnAgg, GraphModel, Readout};
use gel_graph::{families, BatchedGraphs, Graph};
use gel_tensor::{Activation, Adam, Loss, Matrix, Optimizer, Parameterized, Scratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// `BUFFER_ALLOCS` is process-global: the allocation test's delta only
/// holds if no other test in this binary allocates meanwhile.
static LOCK: Mutex<()> = Mutex::new(());

/// Holds [`LOCK`] for one test. Counts wait in the calling thread's
/// gel-obs shard until it flushes, and a test thread exits only after
/// its guards drop, so the guard publishes them before it releases the
/// lock: the next test's `before` reading then already includes them.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        gel_obs::flush_thread();
    }
}

fn serial() -> Serial {
    Serial { _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()) }
}

/// A small corpus with mixed sizes and shapes (star, cycle, path,
/// complete) so segment offsets are irregular.
fn corpus() -> Vec<Graph> {
    vec![
        families::star(5),
        families::cycle(6),
        families::path(4),
        families::complete(5),
        families::cycle(3),
        families::star(9),
    ]
}

fn models() -> Vec<(String, GraphModel)> {
    let mut out = Vec::new();
    for agg in [GnnAgg::Sum, GnnAgg::Mean, GnnAgg::Max] {
        for readout in [Readout::Sum, Readout::Mean] {
            let mut rng = StdRng::seed_from_u64(0xBA7C4);
            out.push((
                format!("gnn101 {agg:?}/{readout:?}"),
                GraphModel::gnn101(1, 7, 2, 3, agg, readout, &mut rng),
            ));
        }
    }
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    out.push(("gin".into(), GraphModel::gin(1, 7, 2, 3, Activation::Identity, &mut rng)));
    out
}

#[test]
fn batched_forward_matches_per_graph_row_for_row() {
    let _serial = serial();
    let graphs = corpus();
    let batch = BatchedGraphs::pack(&graphs);
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        for (name, mut model) in models() {
            let batched = model.forward_batched(&batch);
            assert_eq!(batched.shape(), (graphs.len(), 3));
            for (i, g) in graphs.iter().enumerate() {
                let single = model.forward(g);
                assert_eq!(
                    batched.row(i),
                    single.row(0),
                    "{name}: graph {i} diverges at {threads} thread(s)"
                );
            }
        }
    }
    rayon::set_num_threads(0);
}

#[test]
fn batched_infer_matches_per_graph_row_for_row() {
    let _serial = serial();
    let graphs = corpus();
    let batch = BatchedGraphs::pack(&graphs);
    let mut scratch = Scratch::new();
    let mut out = Matrix::default();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        for (name, model) in models() {
            model.infer_batched_into(&batch, &mut scratch, &mut out);
            for (i, g) in graphs.iter().enumerate() {
                let single = model.infer(g);
                assert_eq!(
                    out.row(i),
                    single.row(0),
                    "{name}: graph {i} diverges at {threads} thread(s)"
                );
            }
        }
    }
    rayon::set_num_threads(0);
}

/// Steady-state batched training steps allocate nothing: all buffers
/// (scratch pool, layer caches, Adam moments) are sized during warm-up
/// and reused thereafter.
#[test]
fn batched_training_step_is_allocation_free_in_steady_state() {
    let _serial = serial();
    let graphs = corpus();
    let batch = BatchedGraphs::pack(&graphs);
    let targets =
        Matrix::from_vec(graphs.len(), 1, (0..graphs.len()).map(|i| (i % 2) as f64).collect());
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let mut model = GraphModel::gnn101(1, 8, 2, 1, GnnAgg::Sum, Readout::Sum, &mut rng);
    let mut opt = Adam::new(0.01);
    let (mut pred, mut grad) = (Matrix::default(), Matrix::default());
    let (warm, steps) = (3u32, 10u32);
    let mut base = 0u64;
    for step in 0..warm + steps {
        if step == warm {
            base = gel_tensor::BUFFER_ALLOCS.get();
        }
        model.zero_grads();
        model.forward_batched_into(&batch, &mut pred);
        let _ = Loss::BceWithLogits.eval_into(&pred, &targets, &mut grad);
        model.backward_batched(&batch, &grad);
        opt.step(&mut model);
    }
    assert_eq!(
        gel_tensor::BUFFER_ALLOCS.get() - base,
        0,
        "batched training step allocated in steady state"
    );
}
