//! Compiled-evaluator benchmarks: the WL-simulation kernels behind
//! E4/E9 evaluated through a persistent [`EvalEngine`], the
//! guard-fast-path ablation of DESIGN.md §6, and the random-probe
//! plan-rebuild path.
//!
//! Run with `cargo bench -p gel-bench --bench eval [-- --smoke]`.
//! `--smoke` shrinks the iteration counts for CI and *asserts* the
//! engine's zero-allocation contract: steady-state evaluations of a
//! fixed expression shape must not grow the slab-allocation counter
//! (`gel_lang::eval_slab_allocs`) at all — the plan, every
//! intermediate slab and the output table are reused.

use std::time::Instant;

use gel_graph::random::erdos_renyi;
use gel_lang::ast::build;
use gel_lang::ast::Expr;
use gel_lang::eval::EvalOptions;
use gel_lang::plan::EvalEngine;
use gel_lang::random_expr::{random_gel_graph, RandomExprConfig};
use gel_lang::wl_sim::{cr_expr, cr_graph_expr, k_wl_graph_expr};
use gel_lang::{Agg, Func};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The GEL₃ sum-product probe of the density sweep: the global
/// triangle count `Σ_{x1,x2,x3} E(x1,x2)·E(x2,x3)·E(x1,x3)`, whose
/// dense evaluation sweeps all `n³` cells while the sparse path runs
/// FAQ-style elimination over the `O(nnz)` edge lists.
fn triangle_probe() -> Expr {
    build::agg_over(
        Agg::Sum,
        vec![1, 2, 3],
        build::apply(
            Func::Mul { arity: 3, dim: 1 },
            vec![build::edge(1, 2), build::edge(2, 3), build::edge(1, 3)],
        ),
        None,
    )
}

/// The cyclic GEL₄ probes of the wco sweep: a closed sum over the
/// indicator product of a shape's edges.
fn cyclic_probe(atoms: Vec<Expr>) -> Expr {
    let arity = atoms.len();
    build::agg_over(
        Agg::Sum,
        vec![1, 2, 3, 4],
        build::apply(Func::Mul { arity, dim: 1 }, atoms),
        None,
    )
}

/// Global 4-cycle count — induced width 2, the canonical case where a
/// binary join plan materializes quadratically more intermediate
/// tuples than the output holds.
fn cycle4_probe() -> Expr {
    cyclic_probe(vec![build::edge(1, 2), build::edge(2, 3), build::edge(3, 4), build::edge(1, 4)])
}

/// Global 4-clique count — all six edge atoms, the AGM-bound poster
/// child.
fn clique4_probe() -> Expr {
    cyclic_probe(vec![
        build::edge(1, 2),
        build::edge(1, 3),
        build::edge(1, 4),
        build::edge(2, 3),
        build::edge(2, 4),
        build::edge(3, 4),
    ])
}

/// The skewed wco gate instance: vertex 0 fans into a block of "mid"
/// vertices, every mid fans into a shared "leaf" block, and a few
/// leaves close back into a few mids. The binary plan's wedge
/// intermediate is `mids × leaves` sized regardless of how few cycles
/// close; the generic join's work tracks the homomorphism count.
fn hub_graph(n: usize) -> gel_graph::Graph {
    let mids = 1u32..=(n as u32 / 3);
    let leaves = (n as u32 / 3 + 1)..=(n as u32 - 2);
    let mut b = gel_graph::GraphBuilder::new(n);
    for m in mids.clone() {
        b.add_arc(0, m);
        for l in leaves.clone() {
            b.add_arc(m, l);
        }
    }
    for (i, l) in leaves.enumerate() {
        if i % 20 == 0 {
            for m in mids.clone().step_by(11) {
                b.add_arc(l, m);
            }
        }
    }
    b.build()
}

fn secs_per_iter(iters: u32, mut f: impl FnMut()) -> f64 {
    // One untimed warm-up call: the first eval lowers the plan and
    // sizes every slab; steady state is what we are measuring.
    f();
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() / f64::from(iters)
}

fn report(name: &str, secs: f64) {
    println!("{name:<40} {:>10.2} µs/iter", secs * 1e6);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 3 } else { 50 };

    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let g = erdos_renyi(24, 0.2, &mut rng);

    // E4 kernel: the CR-simulating readout, repeatedly evaluated
    // through one engine (plan cache hit, zero allocations).
    let e4 = cr_graph_expr(g.label_dim(), 6);
    let mut eng = EvalEngine::new();
    report(
        "cr_graph_expr_r6 (n=24)",
        secs_per_iter(iters, || {
            let _ = eng.eval(&e4, &g);
        }),
    );

    // E9 kernel: the 2-WL-simulating readout (n³ tables).
    let g12 = erdos_renyi(12, 0.3, &mut rng);
    let e9 = k_wl_graph_expr(2, g12.label_dim(), 4);
    let mut eng = EvalEngine::new();
    report(
        "k_wl_graph_expr_k2_r4 (n=12)",
        secs_per_iter(iters, || {
            let _ = eng.eval(&e9, &g12);
        }),
    );

    // DESIGN.md §6 ablation: neighbour-list aggregation vs the dense
    // n² scan on the same MPNN-shaped expression.
    let vertex = cr_expr(g.label_dim(), 4);
    for (name, fast) in [("cr_expr_r4_sparse_guard", true), ("cr_expr_r4_dense_guard", false)] {
        let mut eng = EvalEngine::with_options(EvalOptions {
            guard_fast_path: fast,
            ..EvalOptions::default()
        });
        report(
            name,
            secs_per_iter(iters, || {
                let _ = eng.eval(&vertex, &g);
            }),
        );
    }

    // Random-probe path (E9's falsification half): every expression is
    // distinct, so each eval lowers a fresh plan; the slab pool still
    // recycles the tables.
    let cfg = RandomExprConfig::default();
    let mut eng = EvalEngine::new();
    let mut probe_rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    report(
        "random_gel3_probe (n=12, fresh plan)",
        secs_per_iter(iters, || {
            let e = random_gel_graph(&cfg, 3, &mut probe_rng);
            let _ = eng.eval(&e, &g12);
        }),
    );

    // Table-density sweep (DESIGN.md §7): the GEL₃ triangle probe at a
    // grid of sizes × edge densities, dense engine vs forced-sparse.
    // The crossover size per density is where the O(nnz) elimination
    // path overtakes the O(n³) dense sweep.
    let probe = triangle_probe();
    let sizes: &[usize] = if smoke { &[12, 16] } else { &[16, 32, 48, 64] };
    let densities: &[f64] = if smoke { &[0.1] } else { &[0.02, 0.1, 0.3] };
    println!("\ntable-density sweep: triangle probe (GEL_3), dense vs sparse");
    for &p in densities {
        let mut crossover: Option<usize> = None;
        for &n in sizes {
            let mut grng = StdRng::seed_from_u64(gel_bench::BENCH_SEED ^ n as u64);
            let gs = erdos_renyi(n, p, &mut grng);
            let mut dense_eng =
                EvalEngine::with_options(EvalOptions { sparse: false, ..EvalOptions::default() });
            let dense_s = secs_per_iter(iters, || {
                let _ = dense_eng.eval(&probe, &gs);
            });
            let mut sparse_eng = EvalEngine::with_options(EvalOptions {
                sparse_min_cells: 0,
                ..EvalOptions::default()
            });
            let sparse_s = secs_per_iter(iters, || {
                let _ = sparse_eng.eval(&probe, &gs);
            });
            if crossover.is_none() && sparse_s < dense_s {
                crossover = Some(n);
            }
            println!(
                "  n={n:<3} p={p:<5} dense {:>9.2} µs  sparse {:>9.2} µs  speedup {:>6.2}x",
                dense_s * 1e6,
                sparse_s * 1e6,
                dense_s / sparse_s,
            );
        }
        match crossover {
            Some(n) => println!("  p={p:<5} sparse overtakes dense at n={n}"),
            None => println!("  p={p:<5} dense stays ahead over the swept sizes"),
        }
    }

    // Worst-case-optimal join sweep (DESIGN.md §12): cyclic probes
    // through the JoinWco kernel vs the binary merge-join plan
    // (`wco: false` ablation), both forced sparse. Two instance
    // families, because they answer different questions:
    //
    //  * Erdős–Rényi at p = 0.02 — on unskewed sparse graphs the
    //    elimination intermediates (wedge lists) are the same size as
    //    the join output, so BOTH plans are output-bound and the ratio
    //    hovers near 1× at small n, growing slowly with n. This is the
    //    honest baseline picture, printed but not gated.
    //  * The hub graph — a root fanning into mids, mids fanning into a
    //    shared leaf block, a handful of leaves closing back. Binary
    //    elimination must materialize the mids×leaves wedge table no
    //    matter how few cycles close; the generic join's work tracks
    //    the actual homomorphism count (AGM-bound behaviour), so the
    //    structural speedup is large and stable. This point carries
    //    the ≥ 5× smoke gate.
    println!("\nwco sweep: cyclic probes, generic join vs binary join plan");
    let time_pair = |probe: &Expr, gs: &gel_graph::Graph| {
        let mut wco_eng =
            EvalEngine::with_options(EvalOptions { sparse_min_cells: 0, ..EvalOptions::default() });
        let wco_s = secs_per_iter(iters, || {
            let _ = wco_eng.eval(probe, gs);
        });
        let mut binary_eng = EvalEngine::with_options(EvalOptions {
            sparse_min_cells: 0,
            wco: false,
            ..EvalOptions::default()
        });
        let binary_s = secs_per_iter(iters, || {
            let _ = binary_eng.eval(probe, gs);
        });
        (wco_s, binary_s)
    };
    for (pname, probe) in [("cycle4", cycle4_probe()), ("clique4", clique4_probe())] {
        for n in [32usize, 64] {
            let mut grng = StdRng::seed_from_u64(gel_bench::BENCH_SEED ^ n as u64);
            let gs = erdos_renyi(n, 0.02, &mut grng);
            let (wco_s, binary_s) = time_pair(&probe, &gs);
            println!(
                "  {pname:<8} n={n:<3} p=0.02 binary {:>9.2} µs  wco {:>9.2} µs  speedup {:>6.2}x",
                binary_s * 1e6,
                wco_s * 1e6,
                binary_s / wco_s,
            );
        }
    }
    let hub = hub_graph(64);
    let (wco_s, binary_s) = time_pair(&cycle4_probe(), &hub);
    let hub_speedup = binary_s / wco_s;
    println!(
        "  cycle4   hub n=64   binary {:>9.2} µs  wco {:>9.2} µs  speedup {:>6.2}x",
        binary_s * 1e6,
        wco_s * 1e6,
        hub_speedup,
    );
    if smoke {
        assert!(
            hub_speedup >= 5.0,
            "JoinWco on the 4-cycle probe over the n=64 hub graph is only \
             {hub_speedup:.2}x over the binary join plan (gate: >= 5x)"
        );
        println!("smoke OK: wco join >= 5x over binary plan on the hub 4-cycle probe");
    }

    // Zero-allocation gate: after the sizing call, evaluating the same
    // expression shape must take every slab from the engine's pool.
    let mut eng = EvalEngine::new();
    let _ = eng.eval(&e4, &g);
    let base = gel_lang::eval_slab_allocs();
    let steps = 20;
    for _ in 0..steps {
        let _ = eng.eval(&e4, &g);
    }
    let steady = gel_lang::eval_slab_allocs() - base;
    println!("eval_steady_state_slab_allocs = {steady} (over {steps} evals)");
    if smoke {
        assert_eq!(steady, 0, "steady-state GEL evaluation allocated a slab");
        println!("smoke OK: steady-state GEL evaluations are allocation-free");
    }

    // The same gate for the warmed *sparse* path: coordinate lists,
    // join scratch and the elimination arena all recycle — a steady
    // forced-sparse evaluation touches neither pool.
    let mut grng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let gs = erdos_renyi(32, 0.1, &mut grng);
    let mut eng =
        EvalEngine::with_options(EvalOptions { sparse_min_cells: 0, ..EvalOptions::default() });
    let _ = eng.eval(&probe, &gs);
    let _ = eng.eval(&probe, &gs); // second call grows every scratch to steady size
    let base = gel_lang::eval_slab_allocs();
    for _ in 0..steps {
        let _ = eng.eval(&probe, &gs);
    }
    let sparse_steady = gel_lang::eval_slab_allocs() - base;
    println!("eval_sparse_steady_state_allocs = {sparse_steady} (over {steps} evals)");
    if smoke {
        assert_eq!(sparse_steady, 0, "steady-state sparse evaluation allocated a buffer");
        println!("smoke OK: steady-state sparse evaluations are allocation-free");
    }

    // And for the warmed wco + sparse-*output* path: the generic-join
    // kernel runs out of its scratch, and the root table's coordinate
    // and value buffers round-trip through the engine's pools instead
    // of being reallocated per call.
    let mut grng = StdRng::seed_from_u64(gel_bench::BENCH_SEED ^ 0x5702);
    let gs = erdos_renyi(64, 0.02, &mut grng);
    let per_pair = build::agg_over(
        Agg::Sum,
        vec![2, 3],
        build::apply(
            Func::Mul { arity: 4, dim: 1 },
            vec![build::edge(1, 2), build::edge(2, 3), build::edge(3, 4), build::edge(1, 4)],
        ),
        None,
    );
    let mut eng = EvalEngine::with_options(EvalOptions {
        sparse_min_cells: 0,
        sparse_output: true,
        ..EvalOptions::default()
    });
    let _ = eng.eval(&per_pair, &gs);
    let _ = eng.eval(&per_pair, &gs);
    let base = gel_lang::eval_slab_allocs();
    for _ in 0..steps {
        let t = eng.eval(&per_pair, &gs);
        debug_assert!(t.is_sparse());
    }
    let wco_steady = gel_lang::eval_slab_allocs() - base;
    println!("eval_wco_sparse_output_steady_state_allocs = {wco_steady} (over {steps} evals)");
    if smoke {
        assert_eq!(wco_steady, 0, "steady-state wco/sparse-output evaluation allocated");
        println!("smoke OK: steady-state wco + sparse-output evaluations are allocation-free");
    }
}
