//! The `suite` workload: the full theorem-experiment suite, as a
//! researcher runs it.

use std::hint::black_box;
use std::time::Instant;

use gel_obs::Snapshot;

use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Config, Report};

/// Experiments in one pass of `run_all`.
const EXPERIMENTS: usize = 19;
/// Corpus builds timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Experiments itemised in the per-layer metrics; the rest are
/// `suite.other_s`.
const NAMED: &[(&str, &str)] = &[
    ("E5", "suite.E5_s"),
    ("E8", "suite.E8_s"),
    ("E9", "suite.E9_s"),
    ("E10", "suite.E10_s"),
    ("E15", "suite.E15_s"),
    ("L1", "suite.L1_s"),
];

pub fn run(cfg: &Config) -> Report {
    // The smoke size drops the 40-vertex CFI(K4) pair.
    let full = !cfg.smoke;
    let mut r = Report::default();

    let mut setup = Samples::default();
    for _ in 0..SETUPS {
        let t = Instant::now();
        black_box(if full {
            gel_experiments::full_corpus()
        } else {
            gel_experiments::light_corpus()
        });
        setup.push(t.elapsed().as_secs_f64());
    }
    r.e2e("setup_s", setup.median(), setup.len());

    let mut tr = Tracer::new(cfg.trace, cfg.epoch);
    let mut pass_ms = Samples::default();
    let start = Instant::now();
    while pass_ms.len() == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        // A researcher's run starts with an empty WL colouring cache;
        // a warm one would hide most of the refinement work.
        gel_wl::cache::clear_cache();
        tr.set_trace(pass_ms.len() as u64 + 1);
        let t = Instant::now();
        let timed = tr.span("suite.pass", |_| gel_experiments::run_all_timed(full));
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        check_pass(&mut r, timed.iter().map(|(res, _)| (res.id, res.passed())));
    }
    // Latency is the wall of a whole pass, what a researcher waits for.
    // Percentiles of single experiments' walls would each fall between
    // two experiments of different lengths and jump when host speed
    // reorders them: over ten seeds their quartile spread was 29-34%,
    // against 10-22% for the median pass wall.
    let passes = pass_ms.len();
    r.e2e("throughput_per_s", EXPERIMENTS as f64 * 1e3 / pass_ms.median(), passes);
    r.e2e("latency_p50_ms", pass_ms.median(), passes);
    r.e2e("latency_p90_ms", pass_ms.quantile(0.90), passes);

    if cfg.trace {
        layers(&mut r, &mut tr, full, passes as u64 + 1, setup.median());
    }
    r.spans.push(tr.spans().to_vec());
    r
}

fn check_pass<'a>(r: &mut Report, verdicts: impl ExactSizeIterator<Item = (&'a str, bool)>) {
    let complete = verdicts.len() == EXPERIMENTS;
    for (id, passed) in verdicts {
        if !passed {
            eprintln!("suite: experiment {id} failed");
        }
        r.check(passed);
    }
    if !complete {
        eprintln!("suite: a pass did not run all {EXPERIMENTS} experiments");
        r.check(false);
    }
}

/// One serial, instrumented pass: per-experiment walls and the gel-obs
/// delta of each experiment, summed into layer times.
fn layers(r: &mut Report, tr: &mut Tracer, full: bool, trace_id: u64, corpus_s: f64) {
    gel_wl::cache::clear_cache();
    tr.set_trace(trace_id);
    let t = Instant::now();
    let runs = tr.span("suite.serial", |_| gel_experiments::run_all_instrumented(full));
    let serial_s = t.elapsed().as_secs_f64();
    check_pass(r, runs.iter().map(|(res, _, _)| (res.id, res.passed())));

    let mut obs = Snapshot::default();
    for (_, _, delta) in &runs {
        obs.absorb(delta);
    }
    let secs_of =
        |id: &str| runs.iter().filter(|(res, _, _)| res.id == id).map(|(_, s, _)| s).sum();
    let summed: f64 = runs.iter().map(|(_, s, _)| s).sum();
    let mut named = 0.0;
    for &(id, metric) in NAMED {
        let s: f64 = secs_of(id);
        named += s;
        r.layer(metric, s);
    }
    r.layer("suite.other_s", summed - named);
    r.layer("suite.serial_s", serial_s);
    r.layer("suite.max_experiment_s", runs.iter().map(|(_, s, _)| *s).fold(0.0, f64::max));
    // The experiments' own walls against the wall of the serial pass;
    // what they leave uncovered is the corpus build the pass starts
    // with, which this run also times on its own as set-up.
    let share = summed / serial_s;
    r.coverage((share, usize::from(share < 0.9), 1));
    r.notes.push(format!(
        "serial pass {serial_s:.3} s, experiments {summed:.3} s, uncovered {:.3} s \
         (the corpus build; set-up median {corpus_s:.3} s)",
        serial_s - summed
    ));

    let hits = obs.counter("wl.cache.hits") as f64;
    let misses = obs.counter("wl.cache.misses") as f64;
    r.layer("core.eval_s", self_secs(&obs, "eval.") + self_secs(&obs, "sparse."));
    r.layer("wl.refine_s", self_secs(&obs, "wl."));
    r.layer("wl.refine_rounds", obs.counter("wl.refine.rounds") as f64);
    r.layer("wl.cache_hit_rate", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 });
    r.layer("tensor.kernel_s", self_secs(&obs, "tensor."));
    r.layer("tensor.buffer_allocs", obs.counter("tensor.buffer_allocs") as f64);
    r.layer("gnn.forward_s", self_secs(&obs, "gnn.forward"));
    r.layer("gnn.backward_s", self_secs(&obs, "gnn.backward"));
}

/// Self seconds of every gel-obs span path whose leaf name starts with
/// `prefix`: its time minus that of its direct children.
fn self_secs(obs: &Snapshot, prefix: &str) -> f64 {
    let leaf = |p: &str| p.rsplit('/').next().unwrap_or(p).to_string();
    obs.spans
        .iter()
        .filter(|(path, _)| leaf(path).starts_with(prefix))
        .map(|(path, stat)| {
            let children: f64 = obs
                .spans
                .iter()
                .filter(|(c, _)| {
                    c.strip_prefix(path.as_str())
                        .and_then(|rest| rest.strip_prefix('/'))
                        .is_some_and(|rest| !rest.contains('/'))
                })
                .map(|(_, s)| s.secs)
                .sum();
            (stat.secs - children).max(0.0)
        })
        .sum()
}
