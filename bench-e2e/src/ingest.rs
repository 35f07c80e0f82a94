//! The `ingest` workload: R-MAT edges through the WAL into a CSR
//! segment, the segment opened and coloured, then single-edge edits
//! repaired incrementally.
//!
//! The edits continue the ingested R-MAT stream, so they touch vertices
//! in the degree mix the store ingests. On the scale-19 graph about half
//! the vertices are isolated and the rest form one skewed component:
//! an edit between two isolated vertices repairs in microseconds, but
//! an edit touching the component, even at a degree-1 vertex, recolours
//! more than n/64 vertices within a few rounds and takes the rebuild
//! fallback (seed 190, 2 cores: 218 of 222 edits between random
//! vertices of degrees 0–1, 1–1, 0–(2..4), (2..4)–(2..4) and
//! 0–(5..16) fell back, median 0.32–0.39 s per class, while 80 edits
//! between isolated vertices took 3–5 µs). Fewer than 4% of the
//! stream's new edges have an isolated endpoint, so nearly every edit
//! is a fallback.

use std::path::Path;
use std::time::Instant;

use gel_graph::random::rmat_edges;
use gel_graph::Graph;
use gel_store::{IngestOptions, IngestStats, Store, Wal};
use gel_wl::IncrementalColoring;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Samples;
use crate::trace::{coverage, self_by_name, Tracer};
use crate::{Config, Report};

/// Edges per WAL append.
const BATCH: usize = 4096;
/// Repetitions at least, whatever the run length; set-up time is their
/// median.
const MIN_REPS: usize = 5;
/// Edits per repetition, each an insert and then its removal: with
/// nearly every edit a rebuild, a repetition's edits take about as
/// long as its ingest.
const PAIRS_PER_REP: usize = 3;

pub fn run(cfg: &Config) -> Report {
    let (scale, num_edges) = if cfg.smoke { (14, 1 << 16) } else { (19, 1 << 21) };
    let n = 1usize << scale;
    // Generated before any timing; the store sees only these edges.
    let edges: Vec<(u32, u32)> = rmat_edges(scale, num_edges, cfg.seed).collect();
    let expected_arcs = distinct_arcs(&edges);

    let dir = std::env::temp_dir().join(format!("gel-e2e-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open store under the temp dir");
    let wal_path = dir.join("rmat.wal");

    let mut r = Report::default();
    let mut tr = Tracer::new(cfg.trace, cfg.epoch);
    let (mut rates, mut setup) = (Samples::default(), Samples::default());
    let (mut edit_ms, mut hub_ms) = (Samples::default(), Samples::default());
    let (mut passes, mut peak_buffer, mut bytes_written) = (Samples::default(), 0u64, 0u64);
    let mut fallbacks = 0;
    let start = Instant::now();
    while setup.len() < MIN_REPS || start.elapsed().as_secs_f64() < cfg.seconds {
        let first = setup.len() == 0;
        tr.set_trace(setup.len() as u64 + 1);
        let (stats, ingest_s, g, mut coloring, setup_s) = tr.span("ingest.rep", |tr| {
            let t = Instant::now();
            let stats = ingest(tr, &store, &wal_path, scale, &edges);
            let ingest_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let g =
                tr.span("store.segment_open", |_| store.open_graph("rmat")).expect("open segment");
            let coloring = tr.span("wl.incr_build", |_| IncrementalColoring::new(&g));
            (stats, ingest_s, g, coloring, t.elapsed().as_secs_f64())
        });
        rates.push(num_edges as f64 / ingest_s);
        setup.push(setup_s);
        passes.push(f64::from(stats.passes));
        peak_buffer = peak_buffer.max(stats.peak_buffer_bytes);
        let file_len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        bytes_written = file_len(&wal_path) + file_len(&store.segment_path("rmat").expect("name"));
        let _ = std::fs::remove_file(&wal_path);
        let meta = stats.meta;
        let ok = meta.n == n
            && meta.symmetric
            && meta.num_arcs == expected_arcs
            && g.num_vertices() == n
            && g.num_arcs() == expected_arcs;
        if !ok {
            eprintln!("ingest: segment {meta:?} does not hold the {expected_arcs} arcs streamed");
        }
        r.check(ok);

        // Edits on every repetition's colouring, so the latencies sample
        // as many fresh memory layouts as there are repetitions.
        let fallbacks_before = coloring.stats().full_fallbacks;
        let baseline = coloring.stable_coloring();
        let edit_seed = cfg.seed ^ (0xED17 << 32) ^ setup.len() as u64;
        let edits = edit_stream(&g, scale, edit_seed, PAIRS_PER_REP);
        // The hub edits run once, timed apart: a few samples of the
        // slowest repair would otherwise decide the latency tail.
        let hubs = if first { hub_edits(&g, edit_seed) } else { Vec::new() };
        for (i, &(u, v)) in edits.iter().chain(&hubs).enumerate() {
            let lat = if i < edits.len() { &mut edit_ms } else { &mut hub_ms };
            let t = Instant::now();
            let inserted = tr.span("wl.incr_insert", |_| coloring.insert_edge(u, v));
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            if first && i == 0 {
                let fresh = IncrementalColoring::from_dyn(coloring.graph().clone());
                let same = fresh.stable_coloring() == coloring.stable_coloring();
                if !same {
                    eprintln!(
                        "ingest: incremental colouring differs from a fresh one after ({u},{v})"
                    );
                }
                r.check(same);
            }
            let t = Instant::now();
            let removed = tr.span("wl.incr_remove", |_| coloring.remove_edge(u, v));
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            r.check(inserted && removed);
        }
        let undone = coloring.stable_coloring() == baseline;
        if !undone {
            eprintln!("ingest: undoing every edit did not restore the colouring");
        }
        r.check(undone);
        fallbacks += coloring.stats().full_fallbacks - fallbacks_before;
    }
    let _ = std::fs::remove_dir_all(&dir);
    r.e2e("setup_s", setup.median(), setup.len());
    r.e2e("throughput_per_s", rates.median(), rates.len());
    r.e2e("latency_p50_ms", edit_ms.median(), edit_ms.len());
    r.e2e("latency_p90_ms", edit_ms.quantile(0.90), edit_ms.len());
    r.notes.push(format!(
        "{} stream edits and {} hub edits (median {:.3} ms); {fallbacks} rebuild fallbacks",
        edit_ms.len(),
        hub_ms.len(),
        hub_ms.median()
    ));

    if cfg.trace {
        let spans = tr.spans();
        let by = self_by_name(spans);
        let per_rep = |names: &[&str]| -> f64 {
            let ns: u64 = names.iter().filter_map(|k| by.get(k)).map(|&(_, ns)| ns).sum();
            ns as f64 * 1e-9 / setup.len() as f64
        };
        r.layer(
            "store.wal_append_s",
            per_rep(&["store.wal_create", "store.wal_append", "store.wal_commit"]),
        );
        r.layer("store.segment_build_s", per_rep(&["store.segment_build"]));
        r.layer("store.segment_open_s", per_rep(&["store.segment_open"]));
        r.layer("wl.incr_build_s", per_rep(&["wl.incr_build"]));
        r.layer("store.passes", passes.mean());
        r.layer("store.bytes_written_per_edge", bytes_written as f64 / num_edges as f64);
        r.layer("store.peak_buffer_bytes", peak_buffer as f64);
        r.layer("wl.incr_fallbacks", fallbacks as f64);
        r.coverage(coverage(spans, "ingest.rep"));
    }
    r.spans.push(tr.spans().to_vec());
    r
}

/// One repetition of the write path: log every edge, commit, build the
/// segment.
fn ingest(
    tr: &mut Tracer,
    store: &Store,
    wal_path: &Path,
    scale: u32,
    edges: &[(u32, u32)],
) -> IngestStats {
    let mut wal = tr.span("store.wal_create", |_| Wal::create(wal_path)).expect("create wal");
    tr.span("store.wal_append", |_| -> std::io::Result<()> {
        wal.append_meta(1u64 << scale, 1)?;
        for batch in edges.chunks(BATCH) {
            wal.append_edges(batch)?;
        }
        Ok(())
    })
    .expect("append to wal");
    tr.span("store.wal_commit", |_| wal.commit()).expect("commit wal");
    tr.span("store.segment_build", |_| store.ingest_wal("rmat", wal_path, IngestOptions::default()))
        .expect("build segment")
}

/// Directed arcs the segment must hold: both directions of every
/// edge, a self-loop once, duplicates dropped.
fn distinct_arcs(edges: &[(u32, u32)]) -> usize {
    let mut arcs: Vec<u64> = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in edges {
        arcs.push(u64::from(u) << 32 | u64::from(v));
        arcs.push(u64::from(v) << 32 | u64::from(u));
    }
    arcs.sort_unstable();
    arcs.dedup();
    arcs.len()
}

/// `pairs` new edges, each to be inserted and then removed: the next
/// edges of an R-MAT stream like the ingested one (same scale and
/// quadrant weights, another seed), skipping self-loops and edges the
/// graph has, so the edits touch vertices in the degree mix the store
/// ingests.
fn edit_stream(g: &Graph, scale: u32, seed: u64, pairs: usize) -> Vec<(u32, u32)> {
    rmat_edges(scale, u64::MAX, seed)
        .filter(|&(u, v)| u != v && !g.has_edge(u, v))
        .take(pairs)
        .collect()
}

/// Two new edges at the highest-degree vertex, whose repair cascades
/// into the rebuild fallback.
fn hub_edits(g: &Graph, seed: u64) -> Vec<(u32, u32)> {
    let hub = g.vertices().max_by_key(|&v| g.out_degree(v)).expect("non-empty graph");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(2);
    while out.len() < 2 {
        let v = rng.gen_range(0..g.num_vertices() as u32);
        if v != hub && !g.has_edge(hub, v) && !out.contains(&(hub, v)) {
            out.push((hub, v));
        }
    }
    out
}
