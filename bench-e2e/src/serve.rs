//! Load generation for the served workloads, and the single-threaded
//! replay that attributes server time to layers in a traced run.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gel_graph::Graph;
use gel_lang::{check_against_graph, expr_dag_hash, parse, EvalOptions, Expr};
use gel_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    FrameRead,
};
use gel_serve::{Checkout, PlanCache, PlanKey, Request, Response, ServeOptions, Server};

use crate::mixes::{wide, Expect, Item, Mix, CLOSED_SHARE};
use crate::stats::{dense_hash, sparse_hash, Samples};
use crate::trace::{coverage, self_by_name, Span, Tracer};
use crate::{Config, Report};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One client connection, driven through the same proto calls
/// `gel_serve::Client::call` makes.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        Conn { reader, writer: BufWriter::new(stream), wbuf: Vec::new(), rbuf: Vec::new() }
    }

    fn call(&mut self, tr: &mut Tracer, req: &Request) -> Result<Response, String> {
        tr.span("serve.client.request", |tr| {
            tr.span("serve.client.encode", |_| encode_request(req, &mut self.wbuf));
            tr.span("serve.client.write", |_| write_frame(&mut self.writer, &self.wbuf))
                .map_err(|e| format!("write: {e}"))?;
            match tr.span("serve.client.read", |_| read_frame(&mut self.reader, &mut self.rbuf)) {
                Ok(FrameRead::Frame) => {}
                Ok(FrameRead::Eof) => return Err("server closed the connection".into()),
                Ok(FrameRead::Malformed(e)) => return Err(format!("malformed frame: {e}")),
                Err(e) => return Err(format!("read: {e}")),
            }
            tr.span("serve.client.decode", |_| decode_response(&self.rbuf))
                .map_err(|e| e.to_string())
        })
    }
}

/// True when `resp` is the answer `expect` describes, bit for bit.
fn answered(resp: &Response, expect: Expect) -> bool {
    match (resp, expect) {
        (Response::Table { n, dim, data, .. }, Expect::Dense(h)) => {
            dense_hash(*n as usize, *dim as usize, data) == h
        }
        (Response::TableSparse { n, dim, coords, values, .. }, Expect::Sparse(h)) => {
            sparse_hash(*n as usize, *dim as usize, coords, values) == h
        }
        (Response::Registered { n, arcs }, Expect::Registered { n: en, arcs: ea }) => {
            (*n, *arcs) == (en, ea)
        }
        _ => false,
    }
}

/// A request as one connection saw it.
struct Sent {
    id: u64,
    send_ns: u64,
    item: Item,
}

/// What one connection measured in one phase.
#[derive(Default)]
struct ConnRun {
    ok: u64,
    failed: u64,
    /// Open loop: ms from scheduled send to response, failures as +inf.
    lat_ms: Samples,
    /// Open loop: ms the send ran behind its schedule.
    lag_ms: Samples,
    /// Open loop: latency of graph registrations.
    write_ms: Samples,
    /// Closed loop: seconds into the phase at which each correct answer
    /// arrived.
    done_s: Vec<f64>,
    sent: Vec<Sent>,
}

impl ConnRun {
    /// Sends one item, checks the answer; returns false if the
    /// connection is unusable.
    fn send(&mut self, conn: &mut Conn, tr: &mut Tracer, mix: &Mix, id: u64, item: Item) -> bool {
        tr.set_trace(id);
        let send_ns = tr.now_ns();
        self.sent.push(Sent { id, send_ns, item });
        let res = conn.call(tr, &mix.pool[item.req]);
        let ok = match &res {
            Ok(resp) => answered(resp, item.expect),
            Err(_) => false,
        };
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
            eprintln!(
                "request {id} ({:?}): wrong or failed answer: {:?}",
                item.expect,
                res.as_ref().err()
            );
        }
        res.is_ok()
    }
}

pub fn run(cfg: &Config, mix: &Mix) -> Report {
    let mut r = Report::default();

    // Set-up as a client sees it: bind, register every graph over the
    // wire, and send the warm-up requests.
    let registrations: Vec<Request> = mix
        .graphs
        .iter()
        .map(|(name, graph)| Request::RegisterGraph { name: name.clone(), graph: graph.clone() })
        .collect();
    let mut setup = Samples::default();
    let mut server = None;
    let mut off = Tracer::new(false, cfg.epoch);
    let threads = thread_count();
    for _ in 0..SETUPS {
        // A server frees its caches on its connection threads as they
        // exit; wait for them, so no teardown overlaps a timed set-up.
        drop(server.take());
        wait_for_threads(threads);
        let t = Instant::now();
        let s = Server::bind(ServeOptions::default()).expect("bind a loopback port");
        let mut conn = Conn::connect(s.local_addr());
        for req in &registrations {
            let ok = conn
                .call(&mut off, req)
                .is_ok_and(|resp| matches!(resp, Response::Registered { .. }));
            r.check(ok);
        }
        for &req in &mix.warm {
            let ok = conn.call(&mut off, &mix.pool[req]).is_ok_and(|resp| {
                matches!(resp, Response::Table { .. } | Response::TableSparse { .. })
            });
            r.check(ok);
        }
        setup.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    r.e2e("setup_s", setup.median(), setup.len());

    let mut conns = [Conn::connect(server.local_addr()), Conn::connect(server.local_addr())];
    let mut tracers = [Tracer::new(cfg.trace, cfg.epoch), Tracer::new(cfg.trace, cfg.epoch)];
    let stats0 = server.stats();
    let counters0 = core_counters();

    // Closed loop: each connection sends its next request as soon as
    // the last one returns, until the phase ends.
    let closed_s = CLOSED_SHARE * cfg.seconds;
    let start = Instant::now();
    let closed = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, (conn, tr))| {
                let list = &mix.closed[c];
                s.spawn(move || {
                    let mut run = ConnRun::default();
                    let mut i = 0usize;
                    while !list.is_empty() && start.elapsed().as_secs_f64() < closed_s {
                        let id = 1 << 40 | (c as u64) << 32 | i as u64;
                        let ok = run.ok;
                        let usable = run.send(conn, tr, mix, id, list[i % list.len()]);
                        if run.ok > ok {
                            run.done_s.push(start.elapsed().as_secs_f64());
                        }
                        if !usable {
                            break;
                        }
                        i += 1;
                    }
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });

    // Open loop: request i is due at t0 + i / rate on its connection,
    // whether or not earlier ones have returned; latency counts from
    // the due time, so a stall also delays every request behind it.
    let t0 = Instant::now() + Duration::from_millis(5);
    let open = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, (conn, tr))| {
                s.spawn(move || {
                    let mut run = ConnRun::default();
                    for (i, &item) in mix.open.iter().enumerate().filter(|(_, it)| it.conn == c) {
                        let due = t0 + Duration::from_secs_f64(i as f64 / mix.rate_rps);
                        // The generator's own lateness: time past the
                        // due time, or past the moment the connection
                        // came free if the previous request was still
                        // out (that wait is in the latency already).
                        let free = Instant::now();
                        if let Some(wait) = due.checked_duration_since(free) {
                            std::thread::sleep(wait);
                        }
                        let lag = Instant::now().duration_since(due.max(free));
                        run.lag_ms.push(lag.as_secs_f64() * 1e3);
                        let failed = run.failed;
                        let usable = run.send(conn, tr, mix, 2 << 40 | i as u64, item);
                        let lat = due.elapsed().as_secs_f64() * 1e3;
                        let lat = if run.failed > failed { f64::INFINITY } else { lat };
                        run.lat_ms.push(lat);
                        if matches!(mix.pool[item.req], Request::RegisterGraph { .. }) {
                            run.write_ms.push(lat);
                        }
                        if !usable {
                            break;
                        }
                    }
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    let stats1 = server.stats();
    let counters1 = core_counters();

    let mut lat = Samples::default();
    let mut lag = Samples::default();
    let mut writes = Samples::default();
    let mut sent = Vec::new();
    let mut done_s = Vec::new();
    for run in closed.into_iter().chain(open) {
        r.attempted += run.ok + run.failed;
        r.failed += run.failed;
        done_s.extend(run.done_s);
        lat.extend(&run.lat_ms);
        lag.extend(&run.lag_ms);
        writes.extend(&run.write_ms);
        sent.extend(run.sent);
    }
    let open_n = mix.open.len() as u64;
    if lat.len() as u64 != open_n {
        eprintln!("open loop: {} of {open_n} requests sent", lat.len());
        r.failed += open_n - lat.len() as u64;
    }
    let done = done_s.iter().filter(|&&t| t <= closed_s).count();
    r.e2e("throughput_per_s", done as f64 / closed_s, done);
    r.e2e("latency_p50_ms", lat.median(), lat.len());
    r.e2e("latency_p90_ms", lat.quantile(0.90), lat.len());

    if cfg.trace {
        let requests = sent.len().max(1) as f64;
        let hits = (stats1.cache_hits - stats0.cache_hits) as f64;
        let misses = (stats1.cache_misses - stats0.cache_misses) as f64;
        r.layer(
            "serve.cache.hit_rate",
            if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        );
        r.layer("serve.cache.evictions", (stats1.evictions - stats0.evictions) as f64);
        let per_req = |i: usize| (counters1[i] - counters0[i]) as f64 / requests;
        r.layer("core.plan_builds_per_req", per_req(0));
        r.layer("core.slab_allocs_per_req", per_req(1));
        r.layer("core.sparse_nnz_per_req", per_req(2));
        r.layer("core.dense_fallbacks", (counters1[3] - counters0[3]) as f64);
        r.layer("core.wco_seeks_per_req", per_req(4));
        r.layer("bench.send_lag_ms_p99", lag.quantile(0.99));
        r.layer("serve.write_p50_ms", if writes.len() > 0 { writes.median() } else { 0.0 });

        sent.sort_by_key(|s| s.send_ns);
        let mut replayer = Tracer::new(true, cfg.epoch);
        let replay_ok = replay(mix, &sent, &mut replayer);
        if !replay_ok {
            eprintln!("replay: an answer differed from the oracle");
            r.check(false);
        }
        let client: Vec<Span> = tracers.iter().flat_map(|t| t.spans().iter().copied()).collect();
        replay_layers(&mut r, &client, replayer.spans());
        r.spans.push(replayer.spans().to_vec());
    }
    for tr in &tracers {
        r.spans.push(tr.spans().to_vec());
    }
    drop(conns);
    server.shutdown();
    r
}

/// Threads of this process.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Waits, up to a second, until the process is back to `threads`
/// threads.
fn wait_for_threads(threads: usize) {
    let deadline = Instant::now() + Duration::from_secs(1);
    while thread_count() > threads && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The always-on engine counters: plan builds, slab allocations,
/// sparse nonzeros, dense fallbacks and wco seeks.
fn core_counters() -> [u64; 5] {
    [
        gel_lang::eval_plan_builds(),
        gel_lang::eval_slab_allocs(),
        gel_lang::eval_sparse_nnz(),
        gel_lang::eval_dense_fallbacks(),
        gel_lang::eval_wco_seeks(),
    ]
}

/// Server state as the replay sees it: the same graphs, caches of the
/// same capacity and options, and a server instance whose registry
/// takes the writes.
struct Replay {
    /// The server's result-size cap.
    cap: usize,
    graphs: HashMap<String, Arc<Graph>>,
    cache: PlanCache,
    sparse: PlanCache,
    registry: Server,
    out: Vec<u8>,
}

/// Re-runs every sent request single-threaded, in send order, through
/// the calls the server's handler makes; returns whether every answer
/// matched its oracle.
fn replay(mix: &Mix, sent: &[Sent], tr: &mut Tracer) -> bool {
    let opts = ServeOptions::default();
    let registry = Server::bind(opts).expect("bind a loopback port");
    for (name, g) in &mix.graphs {
        registry.register_graph(name, g.clone()).expect("registry has room");
    }
    let mut st = Replay {
        cap: opts.max_result_cells,
        graphs: mix.graphs.iter().map(|(n, g)| (n.clone(), Arc::new(g.clone()))).collect(),
        cache: PlanCache::new(opts.plan_cache_cap, opts.eval_opts),
        sparse: PlanCache::new(
            opts.plan_cache_cap,
            EvalOptions { sparse_output: true, ..opts.eval_opts },
        ),
        registry,
        out: Vec::new(),
    };
    let mut frame = Vec::new();
    let mut off = Tracer::new(false, Instant::now());
    for &req in &mix.warm {
        encode_request(&mix.pool[req], &mut frame);
        handle(&mut st, &mut off, &frame);
    }
    let mut all_ok = true;
    for s in sent {
        encode_request(&mix.pool[s.item.req], &mut frame);
        tr.set_trace(s.id);
        let resp = tr.span("serve.request", |tr| handle(&mut st, tr, &frame));
        all_ok &= answered(&resp, s.item.expect);
        if let Request::RegisterGraph { name, graph } = &mix.pool[s.item.req] {
            st.graphs.insert(name.clone(), Arc::new(graph.clone()));
        }
    }
    st.registry.shutdown();
    all_ok
}

/// One request, as `gel_serve::server` handles it: decode, parse or
/// register, preflight, cache checkout, eval, put back, encode.
fn handle(st: &mut Replay, tr: &mut Tracer, frame: &[u8]) -> Response {
    let req = tr
        .span("serve.proto.decode_request", |_| decode_request(frame))
        .expect("own frames decode");
    let resp = match req {
        Request::Eval { graph, expr } => eval(st, tr, &graph, &expr),
        Request::EvalText { graph, text } => {
            let expr = tr.span("core.parse", |_| parse(&text)).expect("mix text parses");
            eval(st, tr, &graph, &expr)
        }
        Request::RegisterGraph { name, graph } => {
            let (n, arcs) = (graph.num_vertices() as u32, graph.num_arcs() as u64);
            tr.span("serve.registry.register", |_| st.registry.register_graph(&name, graph))
                .expect("registry has room");
            Response::Registered { n, arcs }
        }
        other => unreachable!("mixes send no {other:?}"),
    };
    let out = &mut st.out;
    tr.span("serve.proto.encode_response", |_| encode_response(&resp, out));
    resp
}

fn eval(st: &mut Replay, tr: &mut Tracer, graph: &str, expr: &Expr) -> Response {
    let g = Arc::clone(&st.graphs[graph]);
    let n = g.num_vertices();
    let cap = st.cap;
    // `server::preflight`: the graph check, then validation and free
    // variables, which decide the result size.
    let sparse_out = tr.span("core.preflight", |_| {
        check_against_graph(expr, &g).expect("mix expressions fit their graphs");
        wide(expr, n, cap)
    });
    let key = PlanKey {
        dag_hash: tr.span("core.dag_hash", |_| expr_dag_hash(expr)),
        n,
        label_dim: g.label_dim(),
    };
    let cache = if sparse_out { &st.sparse } else { &st.cache };
    let (mut engine, name) = match tr.span("serve.cache.checkout", |_| cache.checkout(key)) {
        Checkout::Hit(e) => (e, "core.eval_warm"),
        Checkout::Miss(e) => (e, "core.eval_cold"),
    };
    let resp = tr.span(name, |tr| {
        if sparse_out {
            let t = engine.try_eval_capped(expr, &g, cap).expect("wide mix results stay sparse");
            tr.span("serve.respond.build", |_| Response::TableSparse {
                vars: t.vars().to_vec(),
                dim: t.dim() as u32,
                n: n as u32,
                coords: t.sparse_coords().expect("sparse").iter().map(|&c| c as u64).collect(),
                values: t.data().to_vec(),
            })
        } else {
            let t = engine.eval(expr, &g);
            tr.span("serve.respond.build", |_| Response::Table {
                vars: t.vars().to_vec(),
                dim: t.dim() as u32,
                n: n as u32,
                data: t.data().to_vec(),
            })
        }
    });
    tr.span("serve.cache.put_back", |_| cache.put_back(key, engine));
    resp
}

/// Layer metrics from the client spans and the replayed server spans.
fn replay_layers(r: &mut Report, client: &[Span], server: &[Span]) {
    let by = self_by_name(server);
    let mean_us = |name: &str| by.get(name).map_or(0.0, |&(n, ns)| ns as f64 / n as f64 / 1e3);
    for (metric, span) in [
        ("serve.proto.decode_request_us", "serve.proto.decode_request"),
        ("serve.proto.encode_response_us", "serve.proto.encode_response"),
        ("serve.registry.register_us", "serve.registry.register"),
        ("core.preflight_us", "core.preflight"),
        ("core.dag_hash_us", "core.dag_hash"),
        ("core.parse_us", "core.parse"),
        ("core.eval_cold_us", "core.eval_cold"),
        ("core.eval_warm_us", "core.eval_warm"),
    ] {
        r.layer(metric, mean_us(span));
    }
    let server_ns: HashMap<u64, u64> =
        server.iter().filter(|s| s.parent == 0).map(|s| (s.trace, s.dur_ns())).collect();
    let total: u64 = server_ns.values().sum();
    let preflight = by.get("core.preflight").map_or(0, |&(_, ns)| ns);
    r.layer("core.preflight_share", preflight as f64 / total.max(1) as f64);

    let cby = self_by_name(client);
    let cmean_us = |name: &str| cby.get(name).map_or(0.0, |&(n, ns)| ns as f64 / n as f64 / 1e3);
    r.layer("serve.client.encode_us", cmean_us("serve.client.encode"));
    r.layer("serve.client.decode_us", cmean_us("serve.client.decode"));
    // Client read time minus the same request's server time: what the
    // request spent queued and in transport.
    let mut wait = Samples::default();
    for s in client.iter().filter(|s| s.name == "serve.client.read") {
        if let Some(&ns) = server_ns.get(&s.trace) {
            wait.push((s.dur_ns() as f64 - ns as f64) / 1e3);
        }
    }
    r.layer("serve.wait_us", wait.mean());
    r.coverage(coverage(server, "serve.request"));
}
