//! # e2e — one end-to-end benchmark for gelib
//!
//! Four workloads, each run in its own process by `run.py`, which
//! builds this package twice: without features for the end-to-end
//! metrics, and with `obs` (gel-obs spans and counters compiled in) for
//! the per-layer metrics of a traced run.
//!
//! ```text
//! python3 bench-e2e/run.py --workload <name> --seed 190 --seconds 20 --trace 0   # end to end
//! python3 bench-e2e/run.py --workload <name> --seed 190 --seconds 20 --trace 1   # per layer
//! python3 bench-e2e/run.py                          # every workload, untraced
//! python3 bench-e2e/run.py --compare A.jsonl B.jsonl
//! ```
//!
//! The load comes from one process with two client threads and two
//! connections, matching the two cores it was tuned on; `run.py` sets
//! `RAYON_NUM_THREADS=2`. The seed (default 190) picks graph instances,
//! request order, random probes and the edit stream; sizes, fractions,
//! rankings and rates are constants of this package.
//!
//! ## Workloads and why each was chosen
//!
//! * `suite` — `gel_experiments::run_all_timed(true)`: all 19 theorem
//!   experiments on the full corpus including CFI(K4), in the parallel
//!   schedule a researcher runs, repeated with the WL colouring cache
//!   cleared before each pass. It is what a researcher waits for: k-WL
//!   refinement, tensor and GNN training and dense GEL evaluation do the
//!   work; serve and store are bypassed. An operation is one
//!   experiment.
//! * `serve_wl` — reads only, on deep-shared WL-simulation DAGs (ER
//!   n=24 p=0.2 and ER n=48 p=0.1, label dim 2; `cr_graph_expr(2,r)`
//!   r=2..6, `cr_expr(2,r)` r=2..4 and `k_wl_graph_expr(2,2,1)`: 18 plan
//!   keys under the default cache capacity of 32), with Zipf(1)
//!   popularity whose rank 1 is `cr_graph_expr(2,6)` on n=24. The cache
//!   fits and eval takes microseconds, so wire decode and the request
//!   preflight do the work. An operation is one request.
//! * `serve_gel` — reads and writes on sum-product plans with a working
//!   set larger than the plan cache: triangle and 4-clique counts on ER
//!   and skewed R-MAT graphs, per-pair 4-cycles as a 2 MB dense table
//!   and as a sparse-output table, fresh random GEL_3 probes, surface
//!   syntax requests and graph replacements (see [`mixes::serve_gel`]).
//!   Execution, lowering, the sparse and wco kernels, cache eviction,
//!   the parser and registry writes do the work. An operation is one
//!   request.
//! * `ingest` — the store's write path and incremental colour
//!   refinement: 2^21 R-MAT edges at scale 19 through the WAL into a CSR
//!   segment (the WAL and arc set exceed the 8 MiB chunk budget), then
//!   the segment is opened and coloured, then single-edge edits that
//!   continue the R-MAT stream, plus two hub edits. Nearly every such
//!   edit cascades into the rebuild fallback (see [`ingest`]). Commit
//!   flushes to the OS without fsync, which is the store's own policy.
//!   An operation is one edit; throughput counts ingested edges.
//!
//! Each serve workload runs a closed loop (each connection sends its
//! next request when the last one returns) for a third of the run,
//! giving throughput, then an open loop at a fixed rate for the rest,
//! giving latency timed from each request's scheduled send. The rates
//! ([`mixes::SERVE_WL_RATE_RPS`], [`mixes::SERVE_GEL_RATE_RPS`]) are
//! constants, set once to a third of the closed-loop throughput.
//!
//! ## End-to-end metrics (untraced build, `--trace 0`)
//!
//! Every workload reports every metric; each is printed with the number
//! of samples behind it.
//!
//! * `setup_s` — median of several set-ups: server bind, graph
//!   registration over the wire and a plan-cache warm-up for the serve
//!   workloads; `full_corpus()` for `suite`; `open_graph` plus
//!   `IncrementalColoring::new` for `ingest`. Oracle answers are
//!   computed outside it.
//! * `throughput_per_s` — closed-loop requests answered per second of
//!   the closed phase; experiments/s at the median pass wall for
//!   `suite`; edges/s, the median over repetitions, for `ingest`.
//! * `latency_p50_ms`, `latency_p90_ms` — open-loop request latency,
//!   pass wall for `suite`, stream-edit latency for `ingest`. Failed
//!   requests count as misses. p90 is the highest percentile with ten
//!   samples beyond it in the serve runs only: a 20 s `ingest` run holds
//!   about 36 edits of about a third of a second each, and a `suite` run
//!   about five passes, so there it is nearly the maximum.
//! * `peak_rss_mb` — `VmHWM` of the workload process.
//!
//! Every failure is counted in `failed`, and any failure exits non-zero:
//! served answers are compared bit for bit (an FNV-64 hash of the `f64`
//! bits) with an in-process `EvalEngine`; every experiment must pass;
//! the ingested segment must hold the streamed arcs, and incremental
//! colourings must equal fresh ones.
//!
//! ## Per-layer metrics (`--trace 1`) and what each should move
//!
//! | layer metric | end-to-end metric / workload |
//! |---|---|
//! | `serve.proto.decode_request_us`, `core.preflight_us`, `core.preflight_share`, `core.dag_hash_us` | `latency_p50_ms`, `throughput_per_s` / serve_wl |
//! | `serve.proto.encode_response_us`, `serve.client.encode_us`, `serve.client.decode_us`, `core.parse_us`, `core.eval_warm_us` | `latency_p50_ms` / serve_gel |
//! | `serve.wait_us` | `latency_p90_ms` / serve_* |
//! | `serve.cache.hit_rate`, `serve.cache.evictions`, `core.eval_cold_us`, `core.*_per_req`, `core.dense_fallbacks` | `throughput_per_s` / serve_gel |
//! | `serve.registry.register_us`, `serve.write_p50_ms` | `latency_p90_ms` / serve_gel |
//! | `bench.send_lag_ms_p99` | must stay well below `latency_p90_ms` / serve_* |
//! | `core.eval_s`, `wl.refine_s`, `wl.refine_rounds`, `wl.cache_hit_rate`, `tensor.*`, `gnn.*`, `suite.*` | `throughput_per_s` / suite |
//! | `wl.incr_build_s`, `store.segment_open_s` | `setup_s` / ingest |
//! | `wl.incr_fallbacks` | `latency_p90_ms` / ingest |
//! | `store.wal_append_s`, `store.segment_build_s`, `store.passes`, `store.bytes_written_per_edge` | `throughput_per_s` / ingest |
//! | `store.peak_buffer_bytes` | `peak_rss_mb` / ingest |
//! | `bench.trace_coverage` | checks the layers add up: the share of traced time they cover |
//!
//! Layer times are self times of the benchmark's own spans (see
//! [`trace`]), as means per call; the suite's come from the gel-obs
//! spans of one serial `run_all_instrumented(true)` pass. A server
//! thread cannot be timed from outside, so a traced serve run replays
//! every request it sent, in send order and single-threaded, through
//! the public calls the handler makes; `serve.wait_us` is each client
//! read minus its replayed server time, paired by request id (an
//! estimate: if the host runs slower during the replay than during the
//! load, it reads low or even negative).
//! `bench.send_lag_ms_p99` is how late the open-loop generator sent a
//! request whose connection was free. Spans are written to
//! `trace/<workload>.jsonl` under the working directory.

mod ingest;
mod mixes;
mod serve;
mod stats;
mod suite;
mod trace;

use std::io::Write;
use std::time::Instant;

use trace::Span;

/// Default workload seed.
pub const BENCH_SEED: u64 = 190;

/// End-to-end metrics and their units; `BENCHMARK.json` lists the same.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units; a workload that does not touch a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.proto.decode_request_us", "us"),
    ("serve.proto.encode_response_us", "us"),
    ("serve.client.encode_us", "us"),
    ("serve.client.decode_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.registry.register_us", "us"),
    ("serve.write_p50_ms", "ms"),
    ("bench.send_lag_ms_p99", "ms"),
    ("bench.trace_coverage", "ratio"),
    ("core.preflight_us", "us"),
    ("core.preflight_share", "ratio"),
    ("core.dag_hash_us", "us"),
    ("core.parse_us", "us"),
    ("core.eval_cold_us", "us"),
    ("core.eval_warm_us", "us"),
    ("core.plan_builds_per_req", "count/req"),
    ("core.slab_allocs_per_req", "count/req"),
    ("core.sparse_nnz_per_req", "count/req"),
    ("core.dense_fallbacks", "count"),
    ("core.wco_seeks_per_req", "count/req"),
    ("core.eval_s", "s"),
    ("wl.refine_s", "s"),
    ("wl.refine_rounds", "count"),
    ("wl.cache_hit_rate", "ratio"),
    ("wl.incr_build_s", "s"),
    ("wl.incr_fallbacks", "count"),
    ("tensor.kernel_s", "s"),
    ("tensor.buffer_allocs", "count"),
    ("gnn.forward_s", "s"),
    ("gnn.backward_s", "s"),
    ("store.wal_append_s", "s"),
    ("store.segment_build_s", "s"),
    ("store.passes", "count"),
    ("store.bytes_written_per_edge", "B/edge"),
    ("store.segment_open_s", "s"),
    ("store.peak_buffer_bytes", "B"),
    ("suite.E5_s", "s"),
    ("suite.E8_s", "s"),
    ("suite.E9_s", "s"),
    ("suite.E10_s", "s"),
    ("suite.E15_s", "s"),
    ("suite.L1_s", "s"),
    ("suite.other_s", "s"),
    ("suite.serial_s", "s"),
    ("suite.max_experiment_s", "s"),
];

/// How one workload run is shaped.
pub struct Config {
    pub seed: u64,
    /// Measured seconds (set-up and oracle computation excluded).
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every input so a workload finishes in seconds.
    pub smoke: bool,
    /// Shared origin of every span timestamp.
    pub epoch: Instant,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metric, value and the sample count behind it.
    pub e2e: Vec<(&'static str, f64, usize)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Span lists, one per tracer (traced runs only).
    pub spans: Vec<Vec<Span>>,
    /// Human-readable lines printed after the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.push((name, value, samples));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Records how much of the traced roots' time layer spans cover:
    /// `(share, roots under 90%, roots)`, as [`trace::coverage`] gives.
    pub fn coverage(&mut self, (share, thin, roots): (f64, usize, usize)) {
        self.layer("bench.trace_coverage", share);
        self.notes.push(format!(
            "layer spans cover {share:.4} of traced time; {thin} of {roots} roots under 90%"
        ));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

const USAGE: &str = "usage: e2e --workload <suite|serve_wl|serve_gel|ingest> [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke] [--json PATH]";

fn main() {
    let mut workload = None;
    let mut json = None;
    let mut cfg = Config {
        seed: BENCH_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        epoch: Instant::now(),
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value\n{USAGE}");
                std::process::exit(2)
            })
        };
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => cfg.seed = parse(&value("--seed")),
            "--seconds" => cfg.seconds = parse(&value("--seconds")),
            "--json" => json = Some(value("--json")),
            "--smoke" => cfg.smoke = true,
            // `--trace 0|1`, or a bare `--trace` meaning 1.
            "--trace" => {
                cfg.trace = args.peek().map_or(true, |v| v != "0");
                if matches!(args.peek().map(String::as_str), Some("0" | "1")) {
                    args.next();
                }
            }
            _ => {
                eprintln!("unknown argument {a:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(workload) = workload else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        eprintln!("--seconds must be positive");
        std::process::exit(2);
    }
    let mut report = match workload.as_str() {
        "suite" => suite::run(&cfg),
        "serve_wl" => serve::run(&cfg, &mixes::serve_wl(&cfg)),
        "serve_gel" => serve::run(&cfg, &mixes::serve_gel(&cfg)),
        "ingest" => ingest::run(&cfg),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    report.e2e("peak_rss_mb", stats::peak_rss_mb(), 1);
    if cfg.trace {
        // A layer the workload does not touch reads 0.
        let measured = std::mem::take(&mut report.layers);
        report.layers = PER_LAYER
            .iter()
            .map(|&(name, _)| {
                (name, measured.iter().find(|&&(n, _)| n == name).map_or(0.0, |&(_, v)| v))
            })
            .collect();
    }
    let correct = report.failed == 0 && report.attempted > 0;

    let mut out = std::io::stdout().lock();
    for &(name, value, n) in &report.e2e {
        let _ = writeln!(out, "{workload:<10} {name:<32} {value:>14.6} {:<6} n={n}", unit(name));
    }
    for &(name, value) in &report.layers {
        let _ = writeln!(out, "{workload:<10} {name:<32} {value:>14.6} {}", unit(name));
    }
    for note in &report.notes {
        let _ = writeln!(out, "{workload:<10} {note}");
    }
    let _ = writeln!(out, "{workload:<10} attempted {} failed {}", report.attempted, report.failed);
    if cfg.trace {
        let path = std::path::Path::new("trace").join(format!("{workload}.jsonl"));
        let lists: Vec<&[Span]> = report.spans.iter().map(Vec::as_slice).collect();
        match trace::write_jsonl(&path, &lists) {
            Ok(()) => {
                let n: usize = lists.iter().map(|l| l.len()).sum();
                let _ = writeln!(out, "{workload:<10} wrote {n} spans to {}", path.display());
            }
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = json {
        if let Err(e) = append_record(&path, &workload, &cfg, correct, &report) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
    }
    let metrics: Vec<String> = if cfg.trace {
        report.layers.clone()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, _)| {
                let found = report.e2e.iter().find(|&&(n, _, _)| n == name);
                (name, found.unwrap_or_else(|| panic!("{workload} measured no {name}")).1)
            })
            .collect()
    }
    .into_iter()
    .map(|(name, v)| format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", num(v), unit(name)))
    .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    let _ = out.flush();
    std::process::exit(if correct { 0 } else { 1 });
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse {s:?}\n{USAGE}");
        std::process::exit(2)
    })
}

fn unit(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|&&(n, _)| n == name).map_or("?", |&(_, u)| u)
}

/// A JSON number with every digit; non-finite values (a latency of a
/// failed request) become the largest finite one.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

/// Appends one JSON line with every metric of the run, for `run.py`'s
/// `--compare` and its tracing-overhead report.
fn append_record(
    path: &str,
    workload: &str,
    cfg: &Config,
    correct: bool,
    r: &Report,
) -> std::io::Result<()> {
    let fields = |kv: &mut dyn Iterator<Item = (&str, f64)>| {
        kv.map(|(k, v)| format!("\"{k}\": {}", num(v))).collect::<Vec<_>>().join(", ")
    };
    let line = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"e2e\": {{{}}}, \"layers\": {{{}}}}}\n",
        cfg.seed,
        num(cfg.seconds),
        cfg.trace,
        cfg.smoke,
        r.attempted,
        r.failed,
        fields(&mut r.e2e.iter().map(|&(k, v, _)| (k, v))),
        fields(&mut r.layers.iter().map(|&(k, v)| (k, v))),
    );
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::OpenOptions::new().create(true).append(true).open(path)?.write_all(line.as_bytes())
}
