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

    // Batched vs per-graph wall clock on the same workload. Each side
    // is timed as the minimum over several rounds (fresh model and
    // optimizer per round, first round discarded as warm-up): a single
    // timed shot is at the mercy of one scheduler hiccup, which is
    // exactly what produced the spurious `batched_speedup < 1` readings
    // this key used to show.
    let rounds = 4;
    let mut unbatched_s = f64::INFINITY;
    for round in 0..=rounds {
        let mut m = model(0xB2);
        let mut opt = Adam::new(0.01);
        let t = Instant::now();
        let _ = train_graph_model(&mut m, &data, Loss::BceWithLogits, &mut opt, epochs);
        if round > 0 {
            unbatched_s = unbatched_s.min(t.elapsed().as_secs_f64());
        }
    }

    let mut batched_s = f64::INFINITY;
    for round in 0..=rounds {
        let mut m = model(0xB2);
        let mut opt = Adam::new(0.01);
        let t = Instant::now();
        let _ = gel_gnn::train_graph_model_batched(
            &mut m,
            &batch,
            &targets,
            Loss::BceWithLogits,
            &mut opt,
            epochs,
        );
        if round > 0 {
            batched_s = batched_s.min(t.elapsed().as_secs_f64());
        }
    }

    (allocs_per_step, unbatched_s, batched_s)
}

/// One timed configuration, as the minimum over `rounds` rounds of
/// `iters` evaluations each (first round discarded as warm-up, same
/// rationale as `hot_path_bench`).
fn min_secs_per_iter(rounds: u32, iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for round in 0..=rounds {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if round > 0 {
            best = best.min(t.elapsed().as_secs_f64() / f64::from(iters));
        }
    }
    best
}

/// Table-density sweep (DESIGN.md §7): the GEL₃ triangle probe
/// `Σ_{x1,x2,x3} E(x1,x2)·E(x2,x3)·E(x1,x3)` on an n × edge-density
/// grid, dense engine vs forced-sparse elimination, each as
/// min-over-rounds. Returns the `density_sweep` JSON object: one row
/// per grid point plus the per-density crossover size (the first swept
/// n where sparse beats dense; `null` when dense stays ahead).
///
/// Runs pinned to one thread (the caller pins, and the object records
/// it as `"threads": 1`): the sparse kernels are serial by design, so
/// this compares the representations rather than thread scaling.
fn density_sweep_json() -> String {
    use gel_graph::random::erdos_renyi;
    use gel_lang::ast::build;
    use gel_lang::{Agg, EvalEngine, EvalOptions, Func};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let probe = build::agg_over(
        Agg::Sum,
        vec![1, 2, 3],
        build::apply(
            Func::Mul { arity: 3, dim: 1 },
            vec![build::edge(1, 2), build::edge(2, 3), build::edge(1, 3)],
        ),
        None,
    );

    let sizes: [usize; 4] = [16, 32, 48, 64];
    let densities: [f64; 3] = [0.02, 0.1, 0.3];
    let mut rows = String::new();
    let mut crossovers = String::new();
    for (di, &p) in densities.iter().enumerate() {
        let mut crossover: Option<usize> = None;
        for (si, &n) in sizes.iter().enumerate() {
            let mut grng = StdRng::seed_from_u64(0x5EED ^ n as u64);
            let g = erdos_renyi(n, p, &mut grng);
            let mut dense_eng =
                EvalEngine::with_options(EvalOptions { sparse: false, ..EvalOptions::default() });
            let dense_s = min_secs_per_iter(3, 8, || {
                let _ = dense_eng.eval(&probe, &g);
            });
            let mut sparse_eng = EvalEngine::with_options(EvalOptions {
                sparse_min_cells: 0,
                ..EvalOptions::default()
            });
            let sparse_s = min_secs_per_iter(3, 8, || {
                let _ = sparse_eng.eval(&probe, &g);
            });
            if crossover.is_none() && sparse_s < dense_s {
                crossover = Some(n);
            }
            rows.push_str(&format!(
                "      {{\"n\": {n}, \"density\": {p}, \"dense_s\": {dense_s:.9}, \
                 \"sparse_s\": {sparse_s:.9}, \"speedup\": {:.3}}}{}\n",
                dense_s / sparse_s.max(1e-12),
                if di + 1 < densities.len() || si + 1 < sizes.len() { "," } else { "" },
            ));
        }
        crossovers.push_str(&format!(
            "      {{\"density\": {p}, \"crossover_n\": {}}}{}\n",
            crossover.map_or_else(|| "null".to_string(), |n| n.to_string()),
            if di + 1 < densities.len() { "," } else { "" },
        ));
    }
    format!(
        "{{\"threads\": 1, \"probe\": \"triangle_gel3\",\n    \"rows\": [\n{rows}    ],\n    \
         \"crossover\": [\n{crossovers}    ]}}"
    )
}

/// Inner-kernel microbench for the bench JSON (`"kernels"` object):
/// the blocked SIMD matmul vs the PR 6 ikj oracle (GFLOP/s and the
/// `simd_speedup` ratio, same measurement as `--bench kernels`) and
/// the fused CSR gather vs the per-neighbour axpy loop. Runs pinned to
/// one thread (the caller pins): these compare kernel codegen, not
/// thread scaling.
fn kernels_json() -> String {
    use gel_graph::random::erdos_renyi;
    use gel_tensor::{kernels, Matrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let n = 128usize;
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 61) as f64 * 0.25 - 7.0);
    let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 41) % 53) as f64 * 0.125 - 3.0);
    let mut out = Matrix::zeros(n, n);
    let blocked_s = min_secs_per_iter(3, 16, || a.matmul_into(&b, &mut out));
    let oracle_s = min_secs_per_iter(3, 16, || kernels::matmul_ikj_into(&a, &b, &mut out));
    let flops = 2.0 * (n * n * n) as f64;

    let (gn, cols, deg) = (2048usize, 32usize, 8.0);
    let mut grng = StdRng::seed_from_u64(0xBE7C);
    let g = erdos_renyi(gn, deg / gn as f64, &mut grng);
    let x = Matrix::from_fn(gn, cols, |i, j| ((i * 7 + j) % 97) as f64 * 0.03 - 1.4);
    let mut fused = Matrix::zeros(gn, cols);
    let fused_s = min_secs_per_iter(3, 16, || gel_gnn::agg::sum_forward_into(&g, &x, &mut fused));
    let mut naive = Matrix::zeros(gn, cols);
    let naive_s = min_secs_per_iter(3, 16, || {
        for v in g.vertices() {
            let row = naive.row_mut(v as usize);
            row.fill(0.0);
            for &u in g.out_neighbors(v) {
                for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                    *o += xv;
                }
            }
        }
    });
    assert_eq!(fused, naive, "fused gather must stay bit-identical to the axpy loop");

    format!(
        "{{\"threads\": 1, \"matmul_n\": {n}, \"blocked_gflops\": {:.3}, \
         \"oracle_gflops\": {:.3}, \"simd_speedup\": {:.3}, \"gather_fused_s\": {:.9}, \
         \"gather_naive_s\": {:.9}, \"gather_speedup\": {:.3}}}",
        flops / blocked_s.max(1e-12) / 1e9,
        flops / oracle_s.max(1e-12) / 1e9,
        oracle_s / blocked_s.max(1e-12),
        fused_s,
        naive_s,
        naive_s / fused_s.max(1e-12),
    )
}

/// Worst-case-optimal join bench for the bench JSON (`"wco"` object):
/// the `--bench eval` wco sweep — cyclic GEL₄ probes through the
/// generic (leapfrog) join kernel vs the binary merge-join plan
/// (`wco: false` ablation), both forced sparse. The Erdős–Rényi points
/// are the unskewed baseline where both plans are output-bound and the
/// ratio hovers near 1×; the hub instance is the structural case the
/// kernel exists for (binary elimination materializes the mids×leaves
/// wedge table no matter how few cycles close), recorded separately as
/// `hub_speedup`. Also records the kernel's join/seek counters over
/// the sweep. Runs pinned to one thread (the caller
/// pins): the sparse kernels are serial by design.
fn wco_json() -> String {
    use gel_graph::random::erdos_renyi;
    use gel_lang::ast::build;
    use gel_lang::{Agg, EvalEngine, EvalOptions, Expr, Func};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let cyclic = |atoms: Vec<Expr>| {
        let arity = atoms.len();
        build::agg_over(
            Agg::Sum,
            vec![1, 2, 3, 4],
            build::apply(Func::Mul { arity, dim: 1 }, atoms),
            None,
        )
    };
    let cycle4 =
        cyclic(vec![build::edge(1, 2), build::edge(2, 3), build::edge(3, 4), build::edge(1, 4)]);
    let clique4 = cyclic(vec![
        build::edge(1, 2),
        build::edge(1, 3),
        build::edge(1, 4),
        build::edge(2, 3),
        build::edge(2, 4),
        build::edge(3, 4),
    ]);

    // The skewed gate instance of `--bench eval`: vertex 0 fans into a
    // mid block, every mid fans into a shared leaf block, and a few
    // leaves close back into a few mids.
    let hub = {
        let n = 64usize;
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
    };

    let time_pair = |probe: &Expr, gs: &gel_graph::Graph| {
        let mut wco_eng =
            EvalEngine::with_options(EvalOptions { sparse_min_cells: 0, ..EvalOptions::default() });
        let wco_s = min_secs_per_iter(3, 8, || {
            let _ = wco_eng.eval(probe, gs);
        });
        let mut binary_eng = EvalEngine::with_options(EvalOptions {
            sparse_min_cells: 0,
            wco: false,
            ..EvalOptions::default()
        });
        let binary_s = min_secs_per_iter(3, 8, || {
            let _ = binary_eng.eval(probe, gs);
        });
        (wco_s, binary_s)
    };

    let before = gel_obs::snapshot();
    let mut rows = String::new();
    for (pname, probe) in [("cycle4", &cycle4), ("clique4", &clique4)] {
        for n in [32usize, 64] {
            let mut grng = StdRng::seed_from_u64(0x5EED ^ n as u64);
            let gs = erdos_renyi(n, 0.02, &mut grng);
            let (wco_s, binary_s) = time_pair(probe, &gs);
            rows.push_str(&format!(
                "      {{\"probe\": \"{pname}\", \"graph\": \"er\", \"n\": {n}, \
                 \"binary_s\": {binary_s:.9}, \"wco_s\": {wco_s:.9}, \"speedup\": {:.3}}},\n",
                binary_s / wco_s.max(1e-12),
            ));
        }
    }
    let (hub_wco_s, hub_binary_s) = time_pair(&cycle4, &hub);
    let hub_speedup = hub_binary_s / hub_wco_s.max(1e-12);
    rows.push_str(&format!(
        "      {{\"probe\": \"cycle4\", \"graph\": \"hub\", \"n\": 64, \
         \"binary_s\": {hub_binary_s:.9}, \"wco_s\": {hub_wco_s:.9}, \
         \"speedup\": {hub_speedup:.3}}}\n",
    ));
    let sweep = gel_obs::snapshot().since(&before);
    let joins = sweep.counter("eval.wco.joins");
    let seeks = sweep.counter("eval.wco.seeks");
    format!(
        "{{\"threads\": 1,\n    \"rows\": [\n{rows}    ],\n    \
         \"hub_speedup\": {hub_speedup:.3}, \"wco_joins\": {joins}, \"wco_seeks\": {seeks}}}"
    )
}

/// Serving-layer bench for the bench JSON (`"serve"` object): the
/// `gel-serve` loopback load scenario of `--bench serve` — 8
/// concurrent clients round-robining the E4/E9 expression set against
/// one server, cold, warm, then the same warm workload shipped as
/// `EvalBatch` frames. Reports latency quantiles, throughput, and
/// plan-cache behaviour; asserts neither the warm nor the batched
/// phase re-lowers anything (the same gates as the bench's `--smoke`
/// mode).
fn serve_json() -> String {
    use gel_graph::random::{erdos_renyi, with_random_real_labels};
    use gel_lang::wl_sim::{cr_graph_expr, k_wl_graph_expr};
    use gel_serve::{run_load, run_load_batched, LoadConfig, ServeOptions, Server};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let clients = 8usize;
    let label_dim = 2usize;
    let mut rng = StdRng::seed_from_u64(0xBE5E);
    let g = erdos_renyi(24, 0.2, &mut rng);
    let g = with_random_real_labels(&g, label_dim, &mut rng);
    let exprs = vec![cr_graph_expr(label_dim, 6), k_wl_graph_expr(2, label_dim, 2)];

    let server = Server::bind(ServeOptions {
        max_inflight: clients,
        plan_cache_cap: 16,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    server.register_graph("bench", g).expect("register");
    let cfg = LoadConfig { clients, requests_per_client: 16, graph: "bench", exprs: &exprs };

    let cold = run_load(&server, &cfg).expect("cold serve load");
    let warm = run_load(&server, &cfg).expect("warm serve load");
    assert_eq!(
        cold.plan_builds,
        exprs.len() as u64,
        "cold serve phase must lower one plan per expression"
    );
    assert_eq!(warm.plan_builds, 0, "warm serve phase must not re-lower plans");
    let batched = run_load_batched(&server, &cfg, exprs.len()).expect("batched serve load");
    assert_eq!(batched.plan_builds, 0, "batched serve phase must not re-lower plans");
    let stats = server.stats();
    server.shutdown();

    format!(
        "{{\"clients\": {clients}, \"requests\": {}, \
         \"cold_p50_us\": {:.1}, \"cold_p99_us\": {:.1}, \"cold_rps\": {:.1}, \
         \"warm_p50_us\": {:.1}, \"warm_p99_us\": {:.1}, \"warm_rps\": {:.1}, \
         \"warm_hit_rate\": {:.4}, \"warm_plan_builds\": {}, \
         \"batched_p50_us\": {:.1}, \"batched_p99_us\": {:.1}, \"batched_rps\": {:.1}, \
         \"batched_plan_builds\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \"plans\": {}}}",
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
        stats.cache_hits,
        stats.cache_misses,
        stats.evictions,
        stats.plans,
    )
}

/// Store-substrate bench for the bench JSON (`"ingest"` object): the
/// same measurement as `--bench ingest` at reduced scale — stream an
/// R-MAT edge set through the write-ahead log into an out-of-core CSR
/// segment (edges/s, peak ingest buffer vs budget), then compare the
/// incremental colour-refinement engine's single-edge repair against a
/// from-scratch recolour of the same edited graph, asserting the
/// partitions agree.
fn ingest_json() -> String {
    use gel_graph::random::rmat_edges;
    use gel_store::{IngestOptions, Store, Wal};
    use gel_wl::IncrementalColoring;

    let scale = 16u32; // 65 536 vertices
    let edges: u64 = 1 << 19; // 524 288 edges streamed, ~1M arcs
    let dir = std::env::temp_dir().join(format!("gel-ingest-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open ingest store");
    let wal_path = dir.join("rmat.wal");

    let opts = IngestOptions::default();
    let t = Instant::now();
    let mut wal = Wal::create(&wal_path).expect("create wal");
    wal.append_meta(1u64 << scale, 1).expect("append meta");
    let mut batch = Vec::with_capacity(4096);
    for (u, v) in rmat_edges(scale, edges, 0xD1CE) {
        batch.push((u, v));
        if batch.len() == 4096 {
            wal.append_edges(&batch).expect("append edges");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        wal.append_edges(&batch).expect("append edges");
    }
    wal.commit().expect("commit wal");
    let stats = store.ingest_wal("rmat", &wal_path, opts).expect("build segment");
    let ingest_s = t.elapsed().as_secs_f64();

    let g = store.open_graph("rmat").expect("open segment");
    // Frontier edit: the two highest-id minimum-degree vertices — the
    // streaming-append locality case the incremental index exists for
    // (a hub edit genuinely recolours most of a skewed graph and falls
    // back to a rebuild; `--bench ingest` reports that case).
    let n32 = g.num_vertices() as u32;
    let degrees: Vec<usize> = (0..n32).map(|v| g.out_degree(v)).collect();
    let min_deg = *degrees.iter().min().expect("non-empty graph");
    let mut frontier = (0..n32).rev().filter(|&v| degrees[v as usize] == min_deg);
    let eu = frontier.next().expect("a min-degree vertex");
    let ev = frontier
        .find(|&v| !g.out_neighbors(eu).contains(&v))
        .expect("two non-adjacent min-degree vertices");

    // Full recolour of the edited graph, from scratch.
    let mut edited = gel_graph::DynGraph::from_graph(&g);
    edited.insert_edge(eu, ev);
    let t = Instant::now();
    let fresh = IncrementalColoring::from_dyn(edited);
    let full_s = t.elapsed().as_secs_f64();

    // Incremental: repair the stable trace after the same edit.
    let mut incr = IncrementalColoring::new(&g);
    let t = Instant::now();
    incr.insert_edge(eu, ev);
    let incr_s = t.elapsed().as_secs_f64();
    let matches = incr.stable_coloring() == fresh.stable_coloring();
    assert!(matches, "incremental recolour diverged from the from-scratch recolour");

    let _ = std::fs::remove_dir_all(&dir);
    format!(
        "{{\"scale\": {scale}, \"edges\": {edges}, \"arcs\": {}, \"ingest_s\": {ingest_s:.6}, \
         \"edges_per_s\": {:.0}, \"passes\": {}, \"peak_buffer_bytes\": {}, \
         \"chunk_budget_bytes\": {}, \"full_recolor_s\": {full_s:.6}, \
         \"incr_recolor_s\": {incr_s:.9}, \"incr_speedup\": {:.1}, \"incr_matches_full\": {matches}}}",
        stats.meta.num_arcs,
        edges as f64 / ingest_s.max(1e-12),
        stats.passes,
        stats.peak_buffer_bytes,
        opts.chunk_budget_bytes,
        full_s / incr_s.max(1e-12),
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
