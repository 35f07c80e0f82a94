//! The GEL query server: a blocking, thread-per-connection TCP
//! service speaking the [`crate::proto`] frame protocol.
//!
//! ## Threading model
//!
//! One acceptor thread; one handler thread per connection. Handler
//! threads share an [`Arc`] of the server state: the corpus registry
//! (a `RwLock`ed name → graph map), the [`PlanCache`], and the
//! admission counters. Blocking threads were chosen over an async
//! runtime deliberately — the workspace carries no async dependency,
//! request handling is CPU-bound (an eval dominates any scheduling
//! overhead), and determinism is easier to reason about when a request
//! runs start-to-finish on one thread.
//!
//! ## Determinism contract
//!
//! Response payloads are a pure function of the request and the
//! registered graph: tables carry exact `f64` bit patterns from the
//! engine, and contain no timings, sequence numbers, or cache state
//! (hit/miss depends on request interleaving, so surfacing it in an
//! eval response would break byte-identity; it is available out of
//! band via [`Request::Stats`]). Consequently the bytes of an eval
//! response are identical across server thread counts and across
//! client interleavings — `tests/serve_e2e.rs` asserts this against a
//! direct in-process [`EvalEngine`] run.
//!
//! ## Failure containment
//!
//! Payload-level problems (bad tag, failed parse, ill-typed
//! expression, unknown graph) produce a typed [`Response::Error`]
//! frame and the connection stays open. Only *framing*-level
//! corruption (a length header outside bounds, a half-written frame)
//! closes the connection, because the stream position is no longer
//! trustworthy — and even then the server sends a final protocol-error
//! frame first. Admission control rejects work beyond
//! [`ServeOptions::max_inflight`] with a clean `Busy` error instead of
//! queueing unboundedly.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

use gel_graph::Graph;
use gel_lang::{analyze, check_against_graph, expr_dag_hash, parse, EvalOptions};

use crate::cache::{Checkout, PlanCache, PlanKey};
use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, ErrorCode, FrameRead, Request,
    Response, StatsReply, TableData, WireTable,
};

static OBS_REQUESTS: gel_obs::Counter = gel_obs::Counter::new("serve.requests");
static OBS_REJECTED: gel_obs::Counter = gel_obs::Counter::new("serve.rejected");
static OBS_ERRORS: gel_obs::Counter = gel_obs::Counter::new("serve.errors");
static OBS_STORE_LOADS: gel_obs::Counter = gel_obs::Counter::new("serve.store.loads");

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Most eval requests allowed in flight at once; further evals are
    /// rejected with [`ErrorCode::Busy`].
    pub max_inflight: usize,
    /// Capacity of the shared engine cache (LRU beyond this): every
    /// engine counts, whatever the shape of its results.
    pub plan_cache_cap: usize,
    /// Most graphs the corpus registry will hold.
    pub max_graphs: usize,
    /// Largest embedding table (in `f64` cells) a single eval may
    /// produce; larger requests get [`ErrorCode::TooLarge`].
    pub max_result_cells: usize,
    /// Evaluator options for every cached engine; the server forces
    /// [`EvalOptions::sparse_output`] on, so a sparse root reaches it
    /// sparse.
    pub eval_opts: EvalOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_inflight: 8,
            plan_cache_cap: 32,
            max_graphs: 64,
            max_result_cells: crate::proto::MAX_FRAME_LEN / 8,
            eval_opts: EvalOptions::default(),
        }
    }
}

/// Shared state behind every connection handler.
struct Shared {
    opts: ServeOptions,
    graphs: RwLock<HashMap<String, Arc<Graph>>>,
    /// Every engine, built with `sparse_output` forced on. Whether a
    /// request is wide (its dense result exceeds
    /// [`ServeOptions::max_result_cells`]) follows from the expression
    /// and the graph shape, so from its [`PlanKey`]: one key space
    /// serves both result shapes.
    cache: PlanCache,
    inflight: AtomicUsize,
    requests: AtomicU64,
    rejected: AtomicU64,
    /// Optional on-disk corpus ([`gel_store::Store`]): eval requests
    /// naming a graph absent from the in-memory registry fall back to
    /// opening its segment and registering it, so clients address
    /// million-edge corpora by name without pushing them over the wire.
    store: RwLock<Option<gel_store::Store>>,
    shutdown: AtomicBool,
}

/// A running server. Dropping the handle shuts the acceptor down;
/// open connections drain on their own threads.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:0` (an OS-assigned loopback port) and starts
    /// accepting. Use [`Server::local_addr`] to reach it.
    pub fn bind(opts: ServeOptions) -> std::io::Result<Server> {
        Self::bind_addr("127.0.0.1:0", opts)
    }

    /// Binds an explicit address.
    pub fn bind_addr(addr: &str, opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            opts,
            graphs: RwLock::new(HashMap::new()),
            cache: PlanCache::new(
                opts.plan_cache_cap,
                EvalOptions { sparse_output: true, ..opts.eval_opts },
            ),
            inflight: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            store: RwLock::new(None),
            shutdown: AtomicBool::new(false),
        });
        let accept_state = Arc::clone(&shared);
        let acceptor =
            std::thread::Builder::new().name("gel-serve-accept".into()).spawn(move || {
                for conn in listener.incoming() {
                    if accept_state.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let state = Arc::clone(&accept_state);
                    let _ = std::thread::Builder::new()
                        .name("gel-serve-conn".into())
                        .spawn(move || handle_connection(state, stream));
                }
            })?;
        Ok(Server { shared, addr: local, acceptor: Some(acceptor) })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a graph directly (no client round-trip) — convenient
    /// for embedding the server in benchmarks and tests. Subject to
    /// the same registry capacity as the wire path.
    pub fn register_graph(&self, name: &str, g: Graph) -> Result<(), Response> {
        register(&self.shared, name.to_string(), g).map(|_| ())
    }

    /// Attaches an on-disk [`gel_store::Store`] as the fallback corpus:
    /// an eval naming a graph the registry does not hold is answered by
    /// opening `<name>.seg` from the store and registering the result
    /// (counted under `serve.store.loads`; subject to the registry
    /// capacity like any other registration). Replaces any previously
    /// attached store.
    pub fn attach_store(&self, store: gel_store::Store) {
        *self.shared.store.write().unwrap_or_else(|e| e.into_inner()) = Some(store);
    }

    /// A point-in-time statistics frame, identical to what a
    /// [`Request::Stats`] round-trip returns.
    pub fn stats(&self) -> StatsReply {
        stats(&self.shared)
    }

    /// Stops accepting connections and joins the acceptor thread.
    /// Connections already open keep draining on their own threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self
            .shared
            .shutdown
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_connection(state: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let peer = stream.peer_addr().ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    // Reused across requests: the steady-state loop allocates only
    // what response construction itself needs.
    let mut frame = Vec::new();
    let mut out = Vec::new();
    let _ = peer; // diagnostic only; no logging subsystem by design
    loop {
        let payload_ok = match read_frame(&mut reader, &mut frame) {
            Ok(FrameRead::Frame) => true,
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Malformed(e)) => {
                // Stream desynchronized: report once, then close.
                OBS_ERRORS.incr();
                encode_response(
                    &Response::Error { code: ErrorCode::Protocol, msg: e.msg },
                    &mut out,
                );
                let _ = write_frame(&mut writer, &out);
                return;
            }
            Err(_) => return,
        };
        debug_assert!(payload_ok);
        let resp = {
            let _sp = gel_obs::span("serve.request");
            handle_request(&state, &frame)
        };
        // Publish this request's counts before the client can see the
        // response: the connection thread lives as long as the client,
        // so its shard would otherwise flush only at disconnect.
        gel_obs::flush_thread();
        encode_response(&resp, &mut out);
        if write_frame(&mut writer, &out).is_err() {
            return;
        }
    }
}

fn err(code: ErrorCode, msg: impl Into<String>) -> Response {
    OBS_ERRORS.incr();
    Response::Error { code, msg: msg.into() }
}

fn handle_request(state: &Arc<Shared>, payload: &[u8]) -> Response {
    let req = match decode_request(payload) {
        Ok(r) => r,
        Err(e) => return err(ErrorCode::Protocol, e.msg),
    };
    let resp = match req {
        Request::Ping => Response::Pong,
        Request::RegisterGraph { name, graph } => match register(state, name, graph) {
            Ok(resp) => resp,
            Err(resp) => resp,
        },
        Request::UnregisterGraph { name } => {
            let removed =
                state.graphs.write().unwrap_or_else(|e| e.into_inner()).remove(&name).is_some();
            if removed {
                Response::Unregistered
            } else {
                err(ErrorCode::UnknownGraph, format!("no graph named {name:?}"))
            }
        }
        Request::ListGraphs => {
            let mut names: Vec<String> =
                state.graphs.read().unwrap_or_else(|e| e.into_inner()).keys().cloned().collect();
            names.sort_unstable();
            Response::Graphs { names }
        }
        Request::Eval { graph, expr } => eval_on(state, &graph, expr),
        Request::EvalText { graph, text } => match parse(&text) {
            Ok(expr) => eval_on(state, &graph, expr),
            Err(e) => err(ErrorCode::Parse, e.to_string()),
        },
        Request::EvalBatch { graph, exprs } => match eval_tables(state, &graph, &exprs) {
            Ok(tables) => Response::Tables { tables },
            Err(resp) => resp,
        },
        Request::Analyze { expr } => match expr.validate() {
            Ok(_) => Response::Report { text: analyze(&expr).to_string() },
            Err(e) => err(ErrorCode::Analyze, e.to_string()),
        },
        Request::Stats => Response::Stats(stats(state)),
    };
    let busy = matches!(&resp, Response::Error { code: ErrorCode::Busy, .. });
    if busy {
        state.rejected.fetch_add(1, Ordering::Relaxed);
        OBS_REJECTED.incr();
    } else {
        state.requests.fetch_add(1, Ordering::Relaxed);
        OBS_REQUESTS.incr();
    }
    resp
}

fn register(state: &Arc<Shared>, name: String, graph: Graph) -> Result<Response, Response> {
    let mut graphs = state.graphs.write().unwrap_or_else(|e| e.into_inner());
    if !graphs.contains_key(&name) && graphs.len() >= state.opts.max_graphs {
        return Err(err(
            ErrorCode::RegistryFull,
            format!("registry holds {} graphs (capacity)", graphs.len()),
        ));
    }
    let n = graph.num_vertices() as u32;
    let arcs = graph.num_arcs() as u64;
    graphs.insert(name, Arc::new(graph));
    Ok(Response::Registered { n, arcs })
}

fn stats(state: &Arc<Shared>) -> StatsReply {
    StatsReply {
        graphs: state.graphs.read().unwrap_or_else(|e| e.into_inner()).len() as u64,
        plans: state.cache.len() as u64,
        cache_hits: state.cache.hits(),
        cache_misses: state.cache.misses(),
        evictions: state.cache.evictions(),
        requests: state.requests.load(Ordering::Relaxed),
        rejected: state.rejected.load(Ordering::Relaxed),
    }
}

/// An RAII decrement for the in-flight admission counter.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Registry lookup with store fallback: a name the in-memory registry
/// does not hold is loaded from the attached [`gel_store::Store`] (if
/// any) and registered, subject to the same capacity as a wire
/// registration. The segment read happens outside the registry lock;
/// two racing loaders both read but the second insert wins harmlessly
/// (segments are immutable, so both hold the same graph).
fn resolve_graph(state: &Arc<Shared>, name: &str) -> Result<Arc<Graph>, Response> {
    if let Some(g) = state.graphs.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Ok(Arc::clone(g));
    }
    let store = state.store.read().unwrap_or_else(|e| e.into_inner()).clone();
    if let Some(store) = store {
        if store.contains(name) {
            let g = store.open_graph(name).map_err(|e| {
                err(ErrorCode::UnknownGraph, format!("store segment {name:?} unreadable: {e}"))
            })?;
            register(state, name.to_string(), g)?;
            OBS_STORE_LOADS.incr();
            let g = state
                .graphs
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .get(name)
                .cloned()
                .expect("just registered");
            return Ok(g);
        }
    }
    Err(err(ErrorCode::UnknownGraph, format!("no graph named {name:?}")))
}

/// Static checks before any engine work: typed errors instead of
/// evaluator panics, and the result-size admission decision. Returns
/// whether the result is *wide*: its dense form exceeds
/// [`ServeOptions::max_result_cells`], so it ships sparse if it ships
/// at all. A result whose flat cell index cannot even be represented is
/// rejected here, since no engine could plan it. Every check memoizes
/// at `Expr::Shared` boundaries, so a deeply shared DAG costs its
/// distinct nodes here, not its unfolding, before [`admit`] is ever
/// reached.
fn preflight(state: &Arc<Shared>, g: &Graph, expr: &gel_lang::Expr) -> Result<bool, Response> {
    let dim = check_against_graph(expr, g).map_err(|e| err(ErrorCode::Analyze, e.to_string()))?;
    let n = g.num_vertices();
    let p = expr.free_vars().len() as u32;
    // A shared DAG can reach any dimension below `usize::MAX`, and an
    // expression may have up to 255 free variables, so the cell count
    // can exceed even `u128`.
    match (n as u128).checked_pow(p).and_then(|c| c.checked_mul(dim as u128)) {
        Some(cells) if cells <= state.opts.max_result_cells as u128 => Ok(false),
        Some(cells) if usize::try_from(cells).is_ok() => Ok(true),
        _ => Err(err(
            ErrorCode::TooLarge,
            format!("result would hold {n}^{p} × {dim} cells, beyond any sparse representation"),
        )),
    }
}

/// Admission control: bounded in-flight evals, clean rejection. The
/// returned guard decrements the counter on drop.
fn admit(state: &Arc<Shared>) -> Result<InflightGuard<'_>, Response> {
    let prev = state.inflight.fetch_add(1, Ordering::AcqRel);
    let guard = InflightGuard(&state.inflight);
    if prev >= state.opts.max_inflight {
        return Err(err(
            ErrorCode::Busy,
            format!("{} evals in flight (capacity)", state.opts.max_inflight),
        ));
    }
    Ok(guard)
}

/// Evaluates one pre-flighted expression on `g` through the engine
/// cache under a dense-slab cap of [`ServeOptions::max_result_cells`]:
/// a plan that needs a bigger dense slab, result or intermediate, is
/// rejected with `TooLarge` before that slab is ever allocated. The
/// engines keep a sparse root sparse. A wide result ships its nonzeros
/// if they fit the cap; a narrow one ships dense, a sparse root
/// scattered over `+0.0` exactly as the engine's own densify would.
fn run_eval(
    state: &Arc<Shared>,
    g: &Graph,
    expr: &gel_lang::Expr,
    wide: bool,
) -> Result<WireTable, Response> {
    let n = g.num_vertices();
    let key = PlanKey { dag_hash: expr_dag_hash(expr), n, label_dim: g.label_dim() };
    let cap = state.opts.max_result_cells;
    let mut engine = match state.cache.checkout(key) {
        Checkout::Hit(e) | Checkout::Miss(e) => e,
    };
    let out = match engine.try_eval_capped(expr, g, cap) {
        Ok(table) => {
            let (dim, values) = (table.dim(), table.data());
            let data = match table.sparse_coords() {
                None => Ok(TableData::Dense(values.to_vec())),
                // Coordinates cost one u64 each on the wire, so the
                // admitted payload is still bounded by the result cap.
                Some(coords) if wide && coords.len() * (dim + 1) <= cap => Ok(TableData::Sparse {
                    coords: coords.iter().map(|&c| c as u64).collect(),
                    values: values.to_vec(),
                }),
                Some(coords) if wide => Err(err(
                    ErrorCode::TooLarge,
                    format!("result holds {} stored cells, cap {cap}", coords.len()),
                )),
                Some(coords) => {
                    let mut data = vec![0.0; table.num_cells() * dim];
                    for (i, &c) in coords.iter().enumerate() {
                        data[c * dim..(c + 1) * dim]
                            .copy_from_slice(&values[i * dim..(i + 1) * dim]);
                    }
                    Ok(TableData::Dense(data))
                }
            };
            data.map(|data| WireTable {
                vars: table.vars().to_vec(),
                dim: dim as u32,
                n: n as u32,
                data,
            })
        }
        Err(e) => Err(err(ErrorCode::TooLarge, e.to_string())),
    };
    state.cache.put_back(key, engine);
    out
}

fn eval_on(state: &Arc<Shared>, graph_name: &str, expr: gel_lang::Expr) -> Response {
    match eval_tables(state, graph_name, std::slice::from_ref(&expr)) {
        Ok(mut tables) => {
            let WireTable { vars, dim, n, data } = tables.pop().expect("one table per expression");
            match data {
                TableData::Dense(data) => Response::Table { vars, dim, n, data },
                TableData::Sparse { coords, values } => {
                    Response::TableSparse { vars, dim, n, coords, values }
                }
            }
        }
        Err(resp) => resp,
    }
}

/// Every eval request, one expression or a batch: the graph resolves
/// once, every expression pre-flights before any engine work,
/// admission charges the request as a single in-flight unit, and the
/// first failure aborts with its typed error (no partial result
/// frames).
fn eval_tables(
    state: &Arc<Shared>,
    graph_name: &str,
    exprs: &[gel_lang::Expr],
) -> Result<Vec<WireTable>, Response> {
    let g = resolve_graph(state, graph_name)?;
    let wide = exprs.iter().map(|e| preflight(state, &g, e)).collect::<Result<Vec<bool>, _>>()?;
    let _guard = admit(state)?;
    let mut tables = Vec::with_capacity(exprs.len());
    // The cap bounds each table alone; the reply is one frame, so the
    // *sum* of stored cells must respect it too.
    let mut total_cells = 0usize;
    for (expr, &wide) in exprs.iter().zip(&wide) {
        let t = run_eval(state, &g, expr, wide)?;
        total_cells += match &t.data {
            TableData::Dense(d) => d.len(),
            TableData::Sparse { coords, values } => coords.len() + values.len(),
        };
        if total_cells > state.opts.max_result_cells {
            return Err(err(
                ErrorCode::TooLarge,
                format!(
                    "batch results hold over {total_cells} cells, cap {}",
                    state.opts.max_result_cells
                ),
            ));
        }
        tables.push(t);
    }
    Ok(tables)
}
