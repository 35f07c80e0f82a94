//! Million-edge substrate benchmark: streaming R-MAT ingest through
//! the `gel-store` write-ahead log into an out-of-core CSR segment,
//! plus the incremental colour-refinement comparison.
//!
//! Run with `cargo bench -p gel-bench --bench ingest [-- --smoke]`.
//! Both modes stream over a million edges; `--smoke` uses the smaller
//! graph. Every run *asserts* the substrate contracts (the first three
//! in `gel_experiments::bench::ingest`, shared with `all --bench-json`):
//!
//! * **Bounded memory** — the builder's buffer high-water mark stays
//!   within the chunk budget plus `O(n)` bookkeeping, independent of
//!   the edge count (`gel_store::IngestStats::peak_buffer_bytes` is
//!   measured, not trusted);
//! * **Fidelity** — the segment round-trips: header statistics match
//!   the streamed edge set, and the loaded graph passes its CSR
//!   invariants (checked by `Graph::from_raw_parts` on every load);
//! * **Incremental = full** — after a single-edge edit, the patched
//!   round trace induces exactly the partition a from-scratch
//!   recolour computes, at 1 and at 4 threads;
//! * **Incremental is worth it** — a frontier edit (the streaming
//!   append the index exists for) repairs at least 5× faster than the
//!   from-scratch recolour. A hub edit genuinely recolours most of the
//!   graph, so it is reported informationally and must instead trip
//!   the global-cascade fallback (repair cost capped at ≈ one rebuild).

use gel_experiments::bench;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Both legs stream > 1M edges; the full run doubles everything.
    let (scale, edges) = if smoke { (17u32, 1u64 << 20) } else { (19u32, 1u64 << 21) };
    let r = bench::ingest(scale, edges);
    println!(
        "ingest rmat s{scale:<2}  {edges:>9} edges  {:>9} arcs  {:>6.2} s  {:>12.0} edges/s",
        r.stats.meta.num_arcs,
        r.ingest_s,
        r.edges_per_s()
    );
    println!(
        "  passes {:<3} peak buffer {:>9} B  (chunk budget {} B + O(n) bookkeeping, n = {})",
        r.stats.passes,
        r.stats.peak_buffer_bytes,
        r.chunk_budget_bytes,
        1u64 << scale
    );
    let speedup = r.incr_speedup();
    let (eu, ev) = r.frontier;
    println!(
        "recolor       full {:>9.4} s   frontier edit ({eu},{ev}) {:>12.6} s   speedup {:>8.1}x",
        r.full_recolor_s, r.incr_recolor_s, speedup
    );
    let (hub, hv) = r.hub;
    println!(
        "              hub edit ({hub},{hv}) deg {:<6} {:>12.6} s  (global cascade -> rebuild fallback)",
        r.hub_degree, r.hub_recolor_s
    );
    assert!(
        speedup >= 5.0,
        "incremental repair must beat a from-scratch recolour 5x on a \
         frontier edit (got {speedup:.1}x)"
    );
    assert!(r.full_fallbacks >= 1, "a hub edit at this scale must trip the cascade fallback");
    if smoke {
        println!(
            "ingest smoke gates passed: {edges} edges streamed in bounded memory, \
             incremental == full at 1/4 threads, {speedup:.0}x frontier repair speedup"
        );
    }
}
