//! Server load benchmark: N concurrent clients driving `gel-serve`
//! over loopback TCP, reporting latency quantiles, throughput, and
//! plan-cache behaviour.
//!
//! Run with `cargo bench -p gel-bench --bench serve [-- --smoke]`.
//! `--smoke` shrinks the request counts for CI. Every run *asserts*
//! the serving-layer contracts (in
//! `gel_experiments::bench::serve_load`, shared with `all --bench-json`):
//!
//! * a warm plan cache serves every request without re-lowering —
//!   the [`gel_lang::eval_plan_builds`] delta over the warm phase is
//!   exactly 0;
//! * the cold phase lowers exactly one plan per distinct expression;
//! * every request completes (admission capacity covers the fleet).

use gel_experiments::bench;
use gel_serve::LoadReport;

fn report(name: &str, r: &LoadReport) {
    println!(
        "{name:<28} {:>7} req {:>9.1} req/s   p50 {:>8.1} µs   p99 {:>8.1} µs   hit {:>5.1}%",
        r.requests,
        r.throughput_rps,
        r.p50_us,
        r.p99_us,
        r.hit_rate() * 100.0
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Cold: every distinct expression lowers its plan exactly once, no
    // matter how many clients race to submit it. Warm: the cache is
    // populated; no request may re-lower. Batched: the warm workload as
    // EvalBatch frames, so wire and dispatch overhead amortize across
    // the batch. `serve_load` asserts all three gates.
    let s = bench::serve_load(if smoke { 8 } else { 64 });
    report(&format!("serve cold ({} clients)", s.clients), &s.cold);
    report(&format!("serve warm ({} clients)", s.clients), &s.warm);
    report("serve warm batched", &s.batched);
    println!(
        "{:<28} {:>7} plans   {} hits / {} misses / {} evictions",
        "cache", s.stats.plans, s.stats.cache_hits, s.stats.cache_misses, s.stats.evictions
    );
    if smoke {
        println!("serve smoke gates passed: warm cache re-lowered 0 plans (incl. batched)");
    }
}
