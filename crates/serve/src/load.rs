//! A loopback load generator for [`crate::Server`] — the measurement
//! half of `gel-bench --bench serve` and of the experiment runner's
//! `serve` section.
//!
//! Drives `clients` concurrent connections, each issuing
//! `requests_per_client` eval requests round-robin over a fixed
//! expression set, and reports latency quantiles, throughput, and
//! plan-cache behaviour over the run. Latencies are measured
//! per-request around the full frame round-trip (encode → TCP →
//! decode), which is what a real caller experiences.

use std::time::Instant;

use gel_lang::Expr;

use crate::client::{Client, ClientError};
use crate::server::Server;

/// Load-run shape.
pub struct LoadConfig<'a> {
    /// Concurrent client connections.
    pub clients: usize,
    /// Eval requests each client issues.
    pub requests_per_client: usize,
    /// Registered graph every request targets.
    pub graph: &'a str,
    /// Expressions cycled round-robin; client `c`'s request `i` uses
    /// expression `(c + i) % exprs.len()`, so every client touches
    /// every expression and the interleave of distinct plan keys is
    /// maximal.
    pub exprs: &'a [Expr],
}

/// What a load run measured.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Requests completed (all of them — a failed request aborts the
    /// run with an error instead).
    pub requests: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Plan-cache hits over the run (server-side delta).
    pub cache_hits: u64,
    /// Plan-cache misses over the run (server-side delta).
    pub cache_misses: u64,
    /// Plan lowerings over the run ([`gel_lang::eval_plan_builds`]
    /// delta): 0 on a warm cache — the smoke gate's assertion.
    pub plan_builds: u64,
}

impl LoadReport {
    /// Hit fraction of cache lookups (1.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Runs one load scenario against `server` over loopback TCP.
///
/// Blocks until every client finishes. Any transport or server error
/// on any connection fails the whole run — a load test that silently
/// drops failed requests reports fiction.
pub fn run_load(server: &Server, cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    drive(server, cfg, |client, c, i| {
        let expr = &cfg.exprs[(c + i) % cfg.exprs.len()];
        let t0 = Instant::now();
        client.eval(cfg.graph, expr)?;
        Ok(t0.elapsed().as_nanos() as u64)
    })
}

/// Like [`run_load`], but each request is one `EvalBatch` frame
/// carrying `batch` expressions (round-robin over `cfg.exprs`, offset
/// per client like [`run_load`]), so the per-round-trip framing and
/// scheduling overhead amortizes across the batch. `requests` in the
/// report counts *batch* round-trips; multiply by `batch` for
/// per-expression throughput.
pub fn run_load_batched(
    server: &Server,
    cfg: &LoadConfig,
    batch: usize,
) -> Result<LoadReport, ClientError> {
    assert!(batch > 0);
    drive(server, cfg, |client, c, i| {
        let exprs: Vec<Expr> =
            (0..batch).map(|j| cfg.exprs[(c + i * batch + j) % cfg.exprs.len()].clone()).collect();
        let t0 = Instant::now();
        let tables = client.eval_batch(cfg.graph, &exprs)?;
        debug_assert_eq!(tables.len(), batch);
        Ok(t0.elapsed().as_nanos() as u64)
    })
}

/// The loop both runners share: connects every client, then has client
/// `c` issue `request(client, c, i)` for each of its requests `i` on its
/// own thread. `request` sends one round-trip and returns the
/// nanoseconds it timed, so building the request stays off the clock.
fn drive(
    server: &Server,
    cfg: &LoadConfig,
    request: impl Fn(&mut Client, usize, usize) -> Result<u64, ClientError> + Sync,
) -> Result<LoadReport, ClientError> {
    assert!(cfg.clients > 0 && cfg.requests_per_client > 0 && !cfg.exprs.is_empty());
    let addr = server.local_addr();
    let stats_before = server.stats();
    let builds_before = gel_lang::eval_plan_builds();

    // Connect everyone first so the measured window contains only
    // request traffic, then fan out.
    let mut conns = Vec::with_capacity(cfg.clients);
    for _ in 0..cfg.clients {
        conns.push(Client::connect(addr)?);
    }

    let started = Instant::now();
    let request = &request;
    let results: Vec<Result<Vec<u64>, ClientError>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                s.spawn(move || -> Result<Vec<u64>, ClientError> {
                    (0..cfg.requests_per_client).map(|i| request(&mut client, c, i)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect()
    });
    let wall_secs = started.elapsed().as_secs_f64();

    let mut lat_ns = Vec::with_capacity(cfg.clients * cfg.requests_per_client);
    for r in results {
        lat_ns.extend(r?);
    }
    lat_ns.sort_unstable();
    let q = |frac: f64| -> f64 {
        let idx = ((lat_ns.len() - 1) as f64 * frac).round() as usize;
        lat_ns[idx] as f64 / 1_000.0
    };

    let stats_after = server.stats();
    Ok(LoadReport {
        requests: lat_ns.len() as u64,
        wall_secs,
        p50_us: q(0.50),
        p99_us: q(0.99),
        throughput_rps: lat_ns.len() as f64 / wall_secs,
        cache_hits: stats_after.cache_hits - stats_before.cache_hits,
        cache_misses: stats_after.cache_misses - stats_before.cache_misses,
        plan_builds: gel_lang::eval_plan_builds().saturating_sub(builds_before),
    })
}
