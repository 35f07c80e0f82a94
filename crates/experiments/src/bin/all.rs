//! Runs the complete experiment suite and prints every table —
//! regenerates the data recorded in EXPERIMENTS.md.
//!
//! Usage:
//! `cargo run --release -p gel-experiments --bin all [--full] [--bench-json <path>]`
//!
//! * `--full` adds the 40-vertex CFI(K4) pair to the corpus.
//! * `--bench-json <path>` additionally re-runs the suite pinned to one
//!   thread — instrumented, one experiment at a time, gel-obs state
//!   reset between experiments — and writes a machine-readable report
//!   (`"schema_version": 9`): wall-clock per experiment, serial vs
//!   parallel suite times, and a fixed-key per-experiment `metrics`
//!   object (kernel/refinement span seconds, WL-cache hit rate, buffer
//!   allocations, dispatch decisions) plus suite-wide `obs` totals
//!   (including the WL engine's round count, canonical-renaming
//!   seconds, scratch-allocation rate, and the compiled GEL
//!   evaluator's span seconds, slab-allocations-per-eval rate,
//!   plan-node count, sparse-path seconds/nonzeros, and dense-fallback
//!   count) and a `density_sweep` object (the GEL₃ triangle probe on an
//!   n × edge-density grid, dense engine vs forced-sparse, with the
//!   per-density crossover size) and a `kernels` object (blocked SIMD
//!   matmul GFLOP/s vs the ikj oracle with the `simd_speedup` ratio,
//!   and the fused CSR gather vs the per-neighbour loop) and a `wco`
//!   object (the worst-case-optimal generic-join sweep of DESIGN.md
//!   §12: cyclic GEL₄ probes through the leapfrog kernel vs the binary
//!   merge-join plan on Erdős–Rényi and skewed hub instances, with the
//!   kernel's always-on join/seek counters) and a `serve`
//!   object (the `gel-serve` loopback load scenario: 8 concurrent
//!   clients over the E4/E9 expression set, cold, warm, and
//!   EvalBatch-framed batched latency quantiles/throughput and
//!   plan-cache counters) and an `ingest`
//!   object (the gel-store substrate: R-MAT edges streamed through the
//!   WAL into an out-of-core CSR segment with edges/s and the peak
//!   ingest buffer, plus the incremental-vs-full recolour comparison)
//!   — the file recorded as `BENCH_parallel.json`. Its key set is guarded by the
//!   `schema_check` bin in CI. The top-level `wl_cache` object and the
//!   `obs.wl_cache_*` mirror derive from the *same* instrumented-leg
//!   counters, so they always agree. Tables printed to stdout are
//!   identical with and without the flag, and identical at every thread
//!   count. With the crate's `obs` feature off (build with
//!   `--no-default-features`) only the span-time metrics read zero;
//!   counters and the schema are unchanged.

use std::time::Instant;

use gel_experiments::bench::{self, min_secs_per_iter};
use gel_experiments::report::json_escape;

/// Fixed-key per-experiment metrics object for the bench JSON, from one
/// experiment's gel-obs delta. The key set is part of the schema
/// (checked by the `schema_check` bin), so it never depends on which
/// metrics happened to fire — absent metrics read as zero. With the
/// `obs` feature off the span seconds read zero.
fn metrics_json(serial_wall_s: f64, m: &gel_obs::Snapshot) -> String {
    let hits = m.counter("wl.cache.hits");
    let misses = m.counter("wl.cache.misses");
    let lookups = hits + misses;
    format!(
        "{{\"serial_wall_s\": {:.6}, \"kernel_s\": {:.6}, \"wl_refine_s\": {:.6}, \
         \"gnn_forward_s\": {:.6}, \"gnn_backward_s\": {:.6}, \"gnn_infer_s\": {:.6}, \
         \"wl_cache_hits\": {}, \"wl_cache_misses\": {}, \"wl_cache_hit_rate\": {:.4}, \
         \"buffer_allocs\": {}, \"dispatch_parallel\": {}, \"dispatch_serial\": {}}}",
        serial_wall_s,
        m.leaf_span_total("tensor.").secs,
        m.leaf_span_total("wl.refine").secs,
        m.leaf_span_total("gnn.forward").secs,
        m.leaf_span_total("gnn.backward").secs,
        m.leaf_span_total("gnn.infer").secs,
        hits,
        misses,
        if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 },
        m.counter("tensor.buffer_allocs"),
        m.counter("tensor.dispatch.parallel") + m.counter("rayon.dispatch.parallel"),
        m.counter("tensor.dispatch.serial") + m.counter("rayon.dispatch.serial"),
    )
}

/// Measures the zero-allocation hot path: steady-state buffer
/// allocations per batched training step, and wall-clock for the same
/// training workload run per-graph vs block-diagonally batched.
/// Returns `(allocs_per_step, unbatched_s, batched_s)`.
///
/// Runs pinned to one thread: this is a controlled apples-to-apples
/// measurement of the batching/allocation effect, not of thread
/// scaling (which `suite_parallel_s`/`suite_serial_s` cover). The
/// caller records the pin in the JSON as `"hot_path_threads": 1`.
fn hot_path_bench() -> (f64, f64, f64) {
    use gel_gnn::{train_graph_model, GnnAgg, GraphModel, Readout};
    use gel_graph::{families, BatchedGraphs, Graph};
    use gel_tensor::{Adam, Loss, Matrix, Optimizer, Parameterized};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // A small synthetic classification corpus: stars vs cycles.
    let data: Vec<(Graph, Vec<f64>)> = (4..24)
        .flat_map(|k| [(families::star(k), vec![1.0]), (families::cycle(k), vec![0.0])])
        .collect();
    let batch = BatchedGraphs::pack(data.iter().map(|(g, _)| g));
    let targets = Matrix::from_vec(data.len(), 1, data.iter().map(|(_, t)| t[0]).collect());
    let epochs = 60;
    let model = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        GraphModel::gnn101(1, 16, 3, 1, GnnAgg::Sum, Readout::Sum, &mut rng)
    };

    // Steady-state allocation count: warm up (first epochs size every
    // persistent buffer and Adam's moments), then take the counter
    // delta over the remaining steps.
    let mut m = model(0xA1);
    let mut opt = Adam::new(0.01);
    let (mut pred, mut grad) = (Matrix::default(), Matrix::default());
    let (warm, steps) = (3u32, 20u32);
    let mut base = 0u64;
    for step in 0..warm + steps {
        if step == warm {
            base = gel_tensor::BUFFER_ALLOCS.get();
        }
        m.zero_grads();
        m.forward_batched_into(&batch, &mut pred);
        let _ = Loss::BceWithLogits.eval_into(&pred, &targets, &mut grad);
        m.backward_batched(&batch, &grad);
        opt.step(&mut m);
    }
    let allocs_per_step = (gel_tensor::BUFFER_ALLOCS.get() - base) as f64 / f64::from(steps);

    // Batched vs per-graph wall clock on the same workload, each as the
    // minimum over 4 rounds, every round training a fresh model.
    let unbatched_s = min_secs_per_iter(4, 1, || {
        let (mut m, mut opt) = (model(0xB2), Adam::new(0.01));
        let _ = train_graph_model(&mut m, &data, Loss::BceWithLogits, &mut opt, epochs);
    });
    let batched_s = min_secs_per_iter(4, 1, || {
        let (mut m, mut opt) = (model(0xB2), Adam::new(0.01));
        let _ = gel_gnn::train_graph_model_batched(
            &mut m,
            &batch,
            &targets,
            Loss::BceWithLogits,
            &mut opt,
            epochs,
        );
    });

    (allocs_per_step, unbatched_s, batched_s)
}

/// The `density_sweep` object: [`bench::density_sweep`] on the full
/// grid, one row per grid point plus the per-density crossover size
/// (`null` when dense stays ahead). The caller pins one thread.
fn density_sweep_json() -> String {
    let sweep = bench::density_sweep(&[16, 32, 48, 64], &[0.02, 0.1, 0.3], 3, 8);
    let rows: Vec<String> = sweep
        .rows
        .iter()
        .map(|r| {
            format!(
                "      {{\"n\": {}, \"density\": {}, \"dense_s\": {:.9}, \
                 \"sparse_s\": {:.9}, \"speedup\": {:.3}}}",
                r.n,
                r.density,
                r.dense_s,
                r.sparse_s,
                r.speedup(),
            )
        })
        .collect();
    let crossovers: Vec<String> = sweep
        .crossover
        .iter()
        .map(|(p, n)| {
            format!(
                "      {{\"density\": {p}, \"crossover_n\": {}}}",
                n.map_or_else(|| "null".to_string(), |n| n.to_string()),
            )
        })
        .collect();
    format!(
        "{{\"threads\": 1, \"probe\": \"triangle_gel3\",\n    \"rows\": [\n{}\n    ],\n    \
         \"crossover\": [\n{}\n    ]}}",
        rows.join(",\n"),
        crossovers.join(",\n"),
    )
}

/// The `kernels` object: [`bench::matmul`] at 128³ and
/// [`bench::gather`] on a 2048-vertex graph. The caller pins one
/// thread: these compare kernel codegen, not thread scaling.
fn kernels_json() -> String {
    let mm = bench::matmul(128, 3, 16);
    let gather = bench::gather(2048, 8.0, 32, 3, 16);
    format!(
        "{{\"threads\": 1, \"matmul_n\": {}, \"blocked_gflops\": {:.3}, \
         \"oracle_gflops\": {:.3}, \"simd_speedup\": {:.3}, \"gather_fused_s\": {:.9}, \
         \"gather_naive_s\": {:.9}, \"gather_speedup\": {:.3}}}",
        mm.n,
        mm.blocked_gflops(),
        mm.oracle_gflops(),
        mm.simd_speedup(),
        gather.fused_s,
        gather.naive_s,
        gather.speedup(),
    )
}

/// The `wco` object: [`bench::wco_sweep`], its hub point's speedup
/// and the kernel's join/seek counters over the sweep. The caller pins
/// one thread.
fn wco_json() -> String {
    let sweep = bench::wco_sweep(3, 8);
    let rows: Vec<String> = sweep
        .rows
        .iter()
        .map(|r| {
            format!(
                "      {{\"probe\": \"{}\", \"graph\": \"{}\", \"n\": {}, \
                 \"binary_s\": {:.9}, \"wco_s\": {:.9}, \"speedup\": {:.3}}}",
                r.probe,
                r.graph,
                r.n,
                r.binary_s,
                r.wco_s,
                r.speedup(),
            )
        })
        .collect();
    format!(
        "{{\"threads\": 1,\n    \"rows\": [\n{}\n    ],\n    \
         \"hub_speedup\": {:.3}, \"wco_joins\": {}, \"wco_seeks\": {}}}",
        rows.join(",\n"),
        sweep.hub_speedup(),
        sweep.joins,
        sweep.seeks,
    )
}

/// The `serve` object: [`bench::serve_load`] at 16 requests per
/// client — latency quantiles, throughput and plan-cache counters.
fn serve_json() -> String {
    let s = bench::serve_load(16);
    let (cold, warm, batched) = (&s.cold, &s.warm, &s.batched);
    format!(
        "{{\"clients\": {}, \"requests\": {}, \
         \"cold_p50_us\": {:.1}, \"cold_p99_us\": {:.1}, \"cold_rps\": {:.1}, \
         \"warm_p50_us\": {:.1}, \"warm_p99_us\": {:.1}, \"warm_rps\": {:.1}, \
         \"warm_hit_rate\": {:.4}, \"warm_plan_builds\": {}, \
         \"batched_p50_us\": {:.1}, \"batched_p99_us\": {:.1}, \"batched_rps\": {:.1}, \
         \"batched_plan_builds\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \"plans\": {}}}",
        s.clients,
        cold.requests + warm.requests + batched.requests,
        cold.p50_us,
        cold.p99_us,
        cold.throughput_rps,
        warm.p50_us,
        warm.p99_us,
        warm.throughput_rps,
        warm.hit_rate(),
        warm.plan_builds,
        batched.p50_us,
        batched.p99_us,
        batched.throughput_rps,
        batched.plan_builds,
        s.stats.cache_hits,
        s.stats.cache_misses,
        s.stats.evictions,
        s.stats.plans,
    )
}

/// The `ingest` object: [`bench::ingest`] at reduced scale (2^16
/// vertices, 2^19 edges streamed, ~1M arcs).
fn ingest_json() -> String {
    let (scale, edges) = (16u32, 1u64 << 19);
    let r = bench::ingest(scale, edges);
    format!(
        "{{\"scale\": {scale}, \"edges\": {edges}, \"arcs\": {}, \"ingest_s\": {:.6}, \
         \"edges_per_s\": {:.0}, \"passes\": {}, \"peak_buffer_bytes\": {}, \
         \"chunk_budget_bytes\": {}, \"full_recolor_s\": {:.6}, \
         \"incr_recolor_s\": {:.9}, \"incr_speedup\": {:.1}, \"incr_matches_full\": true}}",
        r.stats.meta.num_arcs,
        r.ingest_s,
        r.edges_per_s(),
        r.stats.passes,
        r.stats.peak_buffer_bytes,
        r.chunk_budget_bytes,
        r.full_recolor_s,
        r.incr_recolor_s,
        r.incr_speedup(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let bench_json = args.iter().position(|a| a == "--bench-json").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("error: --bench-json requires a path argument");
            std::process::exit(2);
        })
    });

    let corpus =
        if full { gel_experiments::full_corpus() } else { gel_experiments::light_corpus() };

    // When benching, run one untimed warm-up pass so neither timed leg
    // pays first-run costs (allocator, page cache), then time the
    // serial leg. The serial leg is the instrumented one: experiments
    // run one at a time there, so each gel-obs delta is attributable to
    // exactly one experiment (the parallel leg would interleave them).
    let serial = bench_json.as_ref().map(|_| {
        gel_wl::clear_cache();
        let _ = gel_experiments::run_all(full);
        let _ = gel_experiments::e10_recipe::lattice_figure(&corpus);

        rayon::set_num_threads(1);
        gel_wl::clear_cache();
        let t = Instant::now();
        let instrumented = gel_experiments::run_all_instrumented(full);
        let _ = gel_experiments::e10_recipe::lattice_figure(&corpus);
        let s = t.elapsed().as_secs_f64();
        rayon::set_num_threads(0);
        (s, instrumented)
    });

    // Time the default (parallel) schedule: suite + lattice figure,
    // printing excluded. The serial leg times the same scope.
    gel_wl::clear_cache();
    let t0 = Instant::now();
    let timed = gel_experiments::run_all_timed(full);
    let t_lat = Instant::now();
    let lattice = gel_experiments::e10_recipe::lattice_figure(&corpus);
    let lattice_s = t_lat.elapsed().as_secs_f64();
    let suite_parallel_s = t0.elapsed().as_secs_f64();

    let mut failed = 0;
    for (r, _) in &timed {
        println!("{}", r.render());
        if !r.passed() {
            failed += 1;
        }
    }

    println!("## F1 — separation-power lattice (slide 25), measured on the corpus\n");
    println!("{}", lattice.render());

    if let Some(path) = bench_json {
        let (suite_serial_s, instrumented) = serial.expect("serial leg ran above");
        let threads = rayon::current_num_threads();
        rayon::set_num_threads(1);
        let (allocs_per_step, unbatched_s, batched_s) = hot_path_bench();
        let density_sweep = density_sweep_json();
        let kernels = kernels_json();
        let wco = wco_json();
        rayon::set_num_threads(0);
        let serve = serve_json();
        let ingest = ingest_json();

        // Suite-wide gel-obs totals: fold the per-experiment deltas.
        let mut totals = gel_obs::Snapshot::default();
        for (_, _, m) in &instrumented {
            totals.absorb(m);
        }
        let obs_hits = totals.counter("wl.cache.hits");
        let obs_misses = totals.counter("wl.cache.misses");
        let obs_evictions = totals.counter("wl.cache.evictions");

        let mut out = String::from("{\n");
        out.push_str("  \"schema_version\": 9,\n");
        out.push_str(&format!("  \"obs_enabled\": {},\n", cfg!(feature = "obs")));
        out.push_str(&format!("  \"threads\": {threads},\n"));
        out.push_str(&format!("  \"full_corpus\": {full},\n"));
        out.push_str(&format!("  \"suite_parallel_s\": {suite_parallel_s:.6},\n"));
        out.push_str(&format!("  \"suite_serial_s\": {suite_serial_s:.6},\n"));
        out.push_str(&format!(
            "  \"suite_speedup\": {:.3},\n",
            suite_serial_s / suite_parallel_s.max(1e-12)
        ));
        out.push_str(&format!("  \"lattice_figure_s\": {lattice_s:.6},\n"));
        out.push_str("  \"hot_path_threads\": 1,\n");
        out.push_str(&format!("  \"allocs_per_step\": {allocs_per_step:.3},\n"));
        out.push_str(&format!("  \"unbatched_suite_s\": {unbatched_s:.6},\n"));
        out.push_str(&format!("  \"batched_suite_s\": {batched_s:.6},\n"));
        out.push_str(&format!(
            "  \"batched_speedup\": {:.3},\n",
            unbatched_s / batched_s.max(1e-12)
        ));
        out.push_str(&format!("  \"density_sweep\": {density_sweep},\n"));
        out.push_str(&format!("  \"kernels\": {kernels},\n"));
        out.push_str(&format!("  \"wco\": {wco},\n"));
        out.push_str(&format!("  \"serve\": {serve},\n"));
        out.push_str(&format!("  \"ingest\": {ingest},\n"));
        // Both cache views derive from the same instrumented-leg
        // counters (one counting site in gel-wl's cache), so they can
        // never disagree; PR 3's report read the top-level pair from
        // the shared post-parallel-leg cache instead and the two
        // measurement scopes drifted apart.
        out.push_str(&format!(
            "  \"wl_cache\": {{\"hits\": {obs_hits}, \"misses\": {obs_misses}, \
             \"evictions\": {obs_evictions}}},\n",
        ));
        let wl_rounds = totals.counter("wl.refine.rounds");
        out.push_str(&format!(
            "  \"obs\": {{\"wl_cache_hits\": {}, \"wl_cache_misses\": {}, \
             \"wl_cache_evictions\": {obs_evictions}, \
             \"wl_cache_hit_rate\": {:.4}, \"buffer_allocs\": {}, \"scratch_takes\": {}, \
             \"scratch_pool_peak\": {:.0}, \"kernel_s\": {:.6}, \"wl_refine_s\": {:.6}, \
             \"kwl_rounds\": {}, \"kwl_renames_s\": {:.6}, \"wl_allocs_per_round\": {:.3}, \
             \"wl_init_allocs\": {}, \
             \"eval_s\": {:.6}, \"eval_allocs_per_probe\": {:.3}, \"eval_plan_nodes\": {}, \
             \"eval_sparse_s\": {:.6}, \"eval_sparse_nnz\": {}, \"eval_dense_fallbacks\": {}, \
             \"eval_wco_joins\": {}, \"eval_wco_seeks\": {}, \
             \"dispatch_parallel\": {}, \"dispatch_serial\": {}}},\n",
            obs_hits,
            obs_misses,
            if obs_hits + obs_misses > 0 {
                obs_hits as f64 / (obs_hits + obs_misses) as f64
            } else {
                0.0
            },
            totals.counter("tensor.buffer_allocs"),
            totals.counter("tensor.scratch.takes"),
            totals.gauge("tensor.scratch.pool_peak").max(0.0),
            totals.leaf_span_total("tensor.").secs,
            totals.leaf_span_total("wl.refine").secs,
            wl_rounds,
            totals.leaf_span_total("wl.rename").secs,
            totals.counter("wl.scratch.allocs") as f64 / wl_rounds.max(1) as f64,
            totals.counter("wl.scratch.init_allocs"),
            totals.leaf_span_total("eval.").secs,
            totals.counter("eval.slab.allocs") as f64 / totals.counter("eval.calls").max(1) as f64,
            totals.counter("eval.plan.nodes"),
            totals.leaf_span_total("sparse.").secs,
            totals.counter("eval.sparse.nnz"),
            totals.counter("eval.sparse.fallbacks"),
            totals.counter("eval.wco.joins"),
            totals.counter("eval.wco.seeks"),
            totals.counter("tensor.dispatch.parallel") + totals.counter("rayon.dispatch.parallel"),
            totals.counter("tensor.dispatch.serial") + totals.counter("rayon.dispatch.serial"),
        ));
        out.push_str("  \"experiments\": [\n");
        assert_eq!(instrumented.len(), timed.len(), "both legs run the same schedule");
        for (i, ((r, secs), (_, serial_secs, delta))) in timed.iter().zip(&instrumented).enumerate()
        {
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"wall_s\": {:.6}, \"passed\": {}, \"claim\": \"{}\",\n     \"metrics\": {}}}{}\n",
                r.id,
                secs,
                r.passed(),
                json_escape(r.claim),
                metrics_json(*serial_secs, delta),
                if i + 1 < timed.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        match std::fs::write(&path, out) {
            Ok(()) => println!("wrote benchmark JSON to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }

    println!("=== {} experiments, {} failed ===", timed.len(), failed);
    if failed > 0 {
        std::process::exit(1);
    }
}
