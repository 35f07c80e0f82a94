//! Server load benchmark: N concurrent clients driving `gel-serve`
//! over loopback TCP, reporting latency quantiles, throughput, and
//! plan-cache behaviour.
//!
//! Run with `cargo bench -p gel-bench --bench serve [-- --smoke]`.
//! `--smoke` shrinks the request counts for CI and *asserts* the
//! serving-layer contracts:
//!
//! * a warm plan cache serves every request without re-lowering —
//!   the [`gel_lang::eval_plan_builds`] delta over the warm phase is
//!   exactly 0;
//! * the cold phase lowers exactly one plan per distinct expression;
//! * every request completes (admission capacity covers the fleet).

use gel_graph::random::{erdos_renyi, with_random_real_labels};
use gel_lang::wl_sim::{cr_graph_expr, k_wl_graph_expr};
use gel_lang::Expr;
use gel_serve::{run_load, run_load_batched, LoadConfig, LoadReport, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CLIENTS: usize = 8;
const LABEL_DIM: usize = 2;

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
    let requests_per_client = if smoke { 8 } else { 64 };

    let mut rng = StdRng::seed_from_u64(gel_bench::BENCH_SEED);
    let g = erdos_renyi(24, 0.2, &mut rng);
    let g = with_random_real_labels(&g, LABEL_DIM, &mut rng);

    // The E4/E9 expression set — deep-shared WL-simulation DAGs, the
    // serving workload the plan cache exists for.
    let exprs: Vec<Expr> = vec![cr_graph_expr(LABEL_DIM, 6), k_wl_graph_expr(2, LABEL_DIM, 2)];

    let server = Server::bind(ServeOptions {
        max_inflight: CLIENTS,
        plan_cache_cap: 16,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    server.register_graph("bench", g).expect("register");

    let cfg = LoadConfig { clients: CLIENTS, requests_per_client, graph: "bench", exprs: &exprs };

    // Cold: every distinct expression lowers its plan exactly once,
    // no matter how many clients race to submit it.
    let cold = run_load(&server, &cfg).expect("cold load run");
    report("serve cold (8 clients)", &cold);

    // Warm: the cache is populated; no request may re-lower.
    let warm = run_load(&server, &cfg).expect("warm load run");
    report("serve warm (8 clients)", &warm);

    let expected = (CLIENTS * requests_per_client) as u64;
    assert_eq!(cold.requests, expected, "cold phase dropped requests");
    assert_eq!(warm.requests, expected, "warm phase dropped requests");
    assert_eq!(
        cold.plan_builds,
        exprs.len() as u64,
        "cold phase must lower exactly one plan per expression"
    );
    assert_eq!(warm.plan_builds, 0, "warm-cache requests must not allocate new plans");
    assert_eq!(warm.cache_misses, 0, "warm phase must be all hits");

    // Batched: the same warm workload shipped as EvalBatch frames —
    // every round-trip carries the full expression set, so the wire
    // and dispatch overhead amortizes across the batch. The cache is
    // already warm, so batching must not re-lower either.
    let batch = exprs.len();
    let batched = run_load_batched(&server, &cfg, batch).expect("batched load run");
    report("serve warm batched", &batched);
    assert_eq!(
        batched.requests,
        (CLIENTS * requests_per_client) as u64,
        "batched phase dropped round-trips"
    );
    assert_eq!(batched.plan_builds, 0, "batched warm requests must not allocate new plans");
    assert_eq!(batched.cache_misses, 0, "batched warm phase must be all hits");

    let stats = server.stats();
    println!(
        "{:<28} {:>7} plans   {} hits / {} misses / {} evictions",
        "cache", stats.plans, stats.cache_hits, stats.cache_misses, stats.evictions
    );
    server.shutdown();

    if smoke {
        println!("serve smoke gates passed: warm cache re-lowered 0 plans (incl. batched)");
    }
}
