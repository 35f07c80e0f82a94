//! Compiled-evaluator benchmarks: the WL-simulation kernels behind
//! E4/E9 evaluated through a persistent [`EvalEngine`] (each row
//! followed by its per-kind census: executions and time per eval of
//! every plan-node kind), the guard-fast-path ablation of DESIGN.md
//! §6, the random-probe plan-rebuild path, and the table-density and
//! wco sweeps (`gel_experiments::bench`, shared with `all
//! --bench-json`; each checks its two legs bit-identical).
//!
//! Run with `cargo bench -p gel-bench --bench eval [-- --smoke]`.
//! `--smoke` shrinks the iteration counts for CI and *asserts* the
//! engine's zero-allocation contract: steady-state evaluations of a
//! fixed expression shape must not grow the slab-allocation counter
//! (`gel_lang::eval_slab_allocs`) at all — the plan, every
//! intermediate slab and the output table are reused (checked on the
//! CR readout and the n = 48 2-WL readout). It also asserts the
//! generic join is at least 5× the binary plan on the hub 4-cycle
//! probe, and that each served sum-product read of the census totals
//! the same as its hand-written CSR loop.

use gel_experiments::bench::{self, min_secs_per_iter};
use gel_graph::random::erdos_renyi;
use gel_lang::ast::build;
use gel_lang::eval::EvalOptions;
use gel_lang::plan::EvalEngine;
use gel_lang::random_expr::{random_gel_graph, RandomExprConfig};
use gel_lang::wl_sim::{cr_expr, cr_graph_expr, k_wl_graph_expr};
use gel_lang::{Agg, Func};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn report(name: &str, secs: f64) {
    println!("{name:<40} {:>10.2} µs/iter", secs * 1e6);
}

/// Times `f` as [`min_secs_per_iter`] does and prints the row, then its
/// per-kind census: executions and time per call of each plan-node
/// kind (the `eval.kind.<Kind>.calls` / `.ns` counters).
fn census_row(name: &str, rounds: u32, iters: u32, f: impl FnMut()) {
    let before = gel_obs::snapshot();
    report(name, min_secs_per_iter(rounds, iters, f));
    let delta = gel_obs::snapshot().since(&before);
    let per = f64::from(1 + rounds * iters);
    let kinds: Vec<String> = (delta.counters.iter())
        .filter_map(|(key, &calls)| {
            let kind = key.strip_prefix("eval.kind.")?.strip_suffix(".calls")?;
            let ns = delta.counter(&format!("eval.kind.{kind}.ns")) as f64;
            let calls = calls as f64 / per;
            (calls > 0.0).then(|| format!("{kind} {calls:.1}x {:.1} µs", ns / 1e3 / per))
        })
        .collect();
    println!("    mean per eval: {}", kinds.join(" | "));
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 3 } else { 50 };
    // Best of several rounds outside smoke, so one slow round (a
    // scheduler hiccup) cannot set a row; smoke keeps one round.
    let rounds = if smoke { 1 } else { 5 };

    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let g = erdos_renyi(24, 0.2, &mut rng);

    // E4 kernel: the CR-simulating readout, repeatedly evaluated
    // through one engine (plan cache hit, zero allocations).
    let e4 = cr_graph_expr(g.label_dim(), 6);
    let mut eng = EvalEngine::new();
    census_row("cr_graph_expr_r6 (n=24)", rounds, iters, || {
        let _ = eng.eval(&e4, &g);
    });

    // E9 kernel: the 2-WL-simulating readout (n³ tables).
    let g12 = erdos_renyi(12, 0.3, &mut rng);
    let e9 = k_wl_graph_expr(2, g12.label_dim(), 4);
    let mut eng = EvalEngine::new();
    census_row("k_wl_graph_expr_k2_r4 (n=12)", rounds, iters, || {
        let _ = eng.eval(&e9, &g12);
    });

    // The served 2-WL readout at n = 48: 110,592-cell `Apply` nodes.
    let g48 = erdos_renyi(48, 0.1, &mut rng);
    let e48 = k_wl_graph_expr(2, g48.label_dim(), 1);
    let mut eng = EvalEngine::new();
    census_row("k_wl_graph_expr_k2_r1 (n=48)", rounds, iters.min(20), || {
        let _ = eng.eval(&e48, &g48);
    });

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
            min_secs_per_iter(rounds, iters, || {
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
    census_row("random_gel3_probe (n=12, fresh plan)", rounds, iters, || {
        let e = random_gel_graph(&cfg, 3, &mut probe_rng);
        let _ = eng.eval(&e, &g12);
    });

    // Table-density sweep (DESIGN.md §7): the GEL₃ triangle probe at a
    // grid of sizes × edge densities, dense engine vs forced-sparse.
    // The crossover size per density is where the O(nnz) elimination
    // path overtakes the O(n³) dense sweep.
    let (sizes, densities): (&[usize], &[f64]) =
        if smoke { (&[12, 16], &[0.1]) } else { (&[16, 32, 48, 64], &[0.02, 0.1, 0.3]) };
    let sweep = bench::density_sweep(sizes, densities, rounds, iters);
    println!("\ntable-density sweep: triangle probe (GEL_3), dense vs sparse");
    for &(p, crossover) in &sweep.crossover {
        for r in sweep.rows.iter().filter(|r| r.density == p) {
            println!(
                "  n={:<3} p={p:<5} dense {:>9.2} µs  sparse {:>9.2} µs  speedup {:>6.2}x",
                r.n,
                r.dense_s * 1e6,
                r.sparse_s * 1e6,
                r.speedup(),
            );
        }
        match crossover {
            Some(n) => println!("  p={p:<5} sparse overtakes dense at n={n}"),
            None => println!("  p={p:<5} dense stays ahead over the swept sizes"),
        }
    }

    // Worst-case-optimal join sweep (DESIGN.md §12): cyclic probes
    // through the generic join vs the binary merge-join plan on
    // Erdős–Rényi instances (the output-bound baseline, printed but
    // not gated) and the hub graph, whose structural speedup carries
    // the ≥ 5× smoke gate.
    println!("\nwco sweep: cyclic probes, generic join vs binary join plan");
    let sweep = bench::wco_sweep(rounds, iters);
    for r in &sweep.rows {
        let graph = if r.graph == "er" {
            format!("n={:<3} p=0.02", r.n)
        } else {
            format!("hub n={:<3}", r.n)
        };
        println!(
            "  {:<8} {graph:<10} binary {:>9.2} µs  wco {:>9.2} µs  speedup {:>6.2}x",
            r.probe,
            r.binary_s * 1e6,
            r.wco_s * 1e6,
            r.speedup(),
        );
    }
    let hub_speedup = sweep.hub_speedup();
    if smoke {
        assert!(
            hub_speedup >= 5.0,
            "The multiway join on the 4-cycle probe over the n=64 hub graph is only \
             {hub_speedup:.2}x over the binary join plan (gate: >= 5x)"
        );
        println!("smoke OK: wco join >= 5x over binary plan on the hub 4-cycle probe");
    }

    // The query server's sum-product reads, each beside a hand-written
    // loop over sorted CSR neighbour slices computing the same entries.
    // Smoke checks the totals agree; the times are reported, not gated.
    println!("\ncensus reads: served sum-products, engine vs CSR loop");
    for r in bench::census_reads(rounds, if smoke { 1 } else { 10 }) {
        println!(
            "  {:<32} engine {:>9.2} µs  loop {:>9.2} µs  ratio {:>5.2}x  total {}",
            r.name,
            r.engine_s * 1e6,
            r.loop_s * 1e6,
            r.ratio(),
            r.engine_total,
        );
        if smoke {
            assert_eq!(r.engine_total, r.loop_total, "{}: engine and loop totals differ", r.name);
        }
    }
    if smoke {
        println!("smoke OK: every census read's engine total equals its CSR loop's");
    }

    // Zero-allocation gate: after the sizing call, evaluating the same
    // expression shape must take every slab from the engine's pool —
    // for the CR readout and for the n = 48 2-WL readout, whose
    // `Concat`s fold into their `Hash` consumers.
    let steps = 20;
    for (name, e, g) in [("cr_graph_expr_r6", &e4, &g), ("k_wl_graph_expr_k2_r1", &e48, &g48)] {
        let mut eng = EvalEngine::new();
        let _ = eng.eval(e, g);
        let base = gel_lang::eval_slab_allocs();
        for _ in 0..steps {
            let _ = eng.eval(e, g);
        }
        let steady = gel_lang::eval_slab_allocs() - base;
        println!("eval_steady_state_slab_allocs {name} = {steady} (over {steps} evals)");
        if smoke {
            assert_eq!(steady, 0, "steady-state GEL evaluation of {name} allocated a slab");
        }
    }
    if smoke {
        println!("smoke OK: steady-state GEL evaluations are allocation-free");
    }

    // The same gate for the warmed *sparse* path: coordinate lists,
    // join scratch and the elimination arena all recycle — a steady
    // forced-sparse evaluation touches neither pool.
    let mut grng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let gs = erdos_renyi(32, 0.1, &mut grng);
    let mut eng =
        EvalEngine::with_options(EvalOptions { sparse_min_cells: 0, ..EvalOptions::default() });
    let probe = bench::triangle_probe();
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
