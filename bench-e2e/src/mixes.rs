//! The two served request mixes, generated from the seed, with the
//! answer every request must get.

use std::collections::HashMap;

use gel_graph::random::{erdos_renyi, rmat_edges, with_random_real_labels};
use gel_graph::{Graph, GraphBuilder};
use gel_lang::random_expr::{random_gel_graph, RandomExprConfig};
use gel_lang::wl_sim::{cr_expr, cr_graph_expr, k_wl_graph_expr};
use gel_lang::{build, parse, Agg, EvalEngine, EvalOptions, Expr, Func};
use gel_serve::{Request, ServeOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::stats::{dense_hash, sparse_hash};
use crate::Config;

/// What a correct server answers, by hash of the exact `f64` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Dense(u64),
    Sparse(u64),
    Registered { n: u32, arcs: u64 },
}

/// One request to send: an index into [`Mix::pool`], the connection
/// that sends it and the answer it must get.
#[derive(Debug, Clone, Copy)]
pub struct Item {
    pub req: usize,
    pub conn: usize,
    pub expect: Expect,
}

pub struct Mix {
    /// Graphs registered at set-up.
    pub graphs: Vec<(String, Graph)>,
    /// Every distinct request; items refer to them by index.
    pub pool: Vec<Request>,
    /// Requests sent once at set-up, to warm the plan cache.
    pub warm: Vec<usize>,
    /// Closed-loop requests, one list per connection, sent in order and
    /// from the start again if the list runs out.
    pub closed: [Vec<Item>; 2],
    /// Open-loop requests in schedule order, one every `1 / rate_rps` s.
    pub open: Vec<Item>,
    pub rate_rps: f64,
}

/// Open-loop rates, set once to a third of the closed-loop throughput at
/// seed 190 on a 2-core x86-64 VM (210 and 530 req/s), and never
/// derived at run time. That VM's own speed drifts by up to a third
/// over minutes, so at half the throughput a slow spell pushes the load
/// near saturation: serve_gel at 265 req/s gave a 55% quartile spread
/// of the p50 over ten seeds, against 16% at 175 req/s.
pub const SERVE_WL_RATE_RPS: f64 = 70.0;
pub const SERVE_GEL_RATE_RPS: f64 = 175.0;

/// Share of a serve run spent in the closed loop; the open loop gets
/// the rest.
pub const CLOSED_SHARE: f64 = 1.0 / 3.0;
/// Closed-loop requests generated, as a multiple of what the measured
/// closed-loop throughput sends in the phase; a connection that runs
/// out starts its list again.
const CLOSED_MARGIN: f64 = 1.5;
/// The measured closed-loop throughput the rates derive from, which
/// sizes the closed-loop request lists.
const SERVE_WL_CLOSED_RPS: f64 = 210.0;
const SERVE_GEL_CLOSED_RPS: f64 = 530.0;

/// A request drawn from a mix: its pool index and whether it must go
/// over connection 0 (writes and the reads that must see them).
type Draw = (usize, bool);

/// A block of request kinds, kind `k` `counts[k]` times. Mixes are drawn
/// block by block, each shuffled, so every run sends the same
/// proportions and the seed changes only their order.
fn block(counts: &[usize]) -> Vec<usize> {
    counts.iter().enumerate().flat_map(|(kind, &c)| std::iter::repeat(kind).take(c)).collect()
}

struct Gen {
    pool: Vec<Request>,
    graphs: HashMap<String, Graph>,
    /// Answers of requests whose graph never changes.
    memo: HashMap<usize, Expect>,
    /// The graph name whose registrations the pinned requests replace.
    mutable: Option<&'static str>,
}

impl Gen {
    fn new(graphs: &[(String, Graph)], pool: Vec<Request>, mutable: Option<&'static str>) -> Gen {
        Gen { pool, graphs: graphs.iter().cloned().collect(), memo: HashMap::new(), mutable }
    }

    /// The answer to `pool[req]` given every registration before it.
    fn answer(&mut self, req: usize) -> Expect {
        if let Some(&e) = self.memo.get(&req) {
            return e;
        }
        let (e, graph) = match &self.pool[req] {
            Request::RegisterGraph { name, graph } => {
                self.graphs.insert(name.clone(), graph.clone());
                let e = Expect::Registered {
                    n: graph.num_vertices() as u32,
                    arcs: graph.num_arcs() as u64,
                };
                (e, name.as_str())
            }
            Request::Eval { graph, expr } => {
                (table_answer(expr, &self.graphs[graph]), graph.as_str())
            }
            Request::EvalText { graph, text } => {
                let expr = parse(text).expect("mix text parses");
                (table_answer(&expr, &self.graphs[graph]), graph.as_str())
            }
            other => unreachable!("mixes send no {other:?}"),
        };
        if Some(graph) != self.mutable {
            self.memo.insert(req, e);
        }
        e
    }

    /// Assigns connections (pinned draws to 0, the rest to the shorter
    /// side) and answers, in draw order.
    fn items(&mut self, draws: &[Draw]) -> Vec<Item> {
        let mut per_conn = [0usize; 2];
        draws
            .iter()
            .map(|&(req, pinned)| {
                let conn = if pinned || per_conn[0] <= per_conn[1] { 0 } else { 1 };
                per_conn[conn] += 1;
                Item { req, conn, expect: self.answer(req) }
            })
            .collect()
    }
}

/// Whether the dense result of `expr` on an `n`-vertex graph exceeds
/// `cap` cells, which sends a request to the sparse-output engine: the
/// decision `gel_serve::server`'s preflight makes.
pub fn wide(expr: &Expr, n: usize, cap: usize) -> bool {
    let dim = expr.validate().expect("mix expressions are well typed");
    (n as u128).pow(expr.free_vars().len() as u32) * dim as u128 > cap as u128
}

/// The server's answer computed in-process: the same engine options
/// and the same dense-or-sparse decision as the request handler.
fn table_answer(expr: &Expr, g: &Graph) -> Expect {
    let cap = ServeOptions::default().max_result_cells;
    let n = g.num_vertices();
    if !wide(expr, n, cap) {
        let t = EvalEngine::new().eval_owned(expr, g);
        return Expect::Dense(dense_hash(n, t.dim(), t.data()));
    }
    let mut engine =
        EvalEngine::with_options(EvalOptions { sparse_output: true, ..EvalOptions::default() });
    let t =
        engine.try_eval_capped(expr, g, cap).expect("wide mix results stay sparse under the cap");
    let coords: Vec<u64> =
        t.sparse_coords().expect("wide result is sparse").iter().map(|&c| c as u64).collect();
    Expect::Sparse(sparse_hash(n, t.dim(), &coords, t.data()))
}

/// Builds the closed and open request lists: each starts with
/// `prologue`, then takes kinds from shuffled copies of `kinds` and
/// turns each into a request with `draw`.
#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &Config,
    mut gen: Gen,
    graphs: Vec<(String, Graph)>,
    warm: Vec<usize>,
    (closed_rps, rate_rps): (f64, f64),
    mut rng: StdRng,
    mut kinds: Vec<usize>,
    mut draw: impl FnMut(&mut Vec<Request>, &mut StdRng, usize) -> Draw,
    prologue: &[Draw],
) -> Mix {
    let closed_s = CLOSED_SHARE * cfg.seconds;
    let open_s = cfg.seconds - closed_s;
    let mut seq = |len: usize, gen: &mut Gen| -> Vec<Draw> {
        let mut v = prologue.to_vec();
        while v.len() < len {
            kinds.shuffle(&mut rng);
            for &kind in &kinds {
                v.push(draw(&mut gen.pool, &mut rng, kind));
            }
        }
        v.truncate(len);
        v
    };
    let closed_draws = seq((CLOSED_MARGIN * closed_rps * closed_s).ceil() as usize, &mut gen);
    let closed_items = gen.items(&closed_draws);
    let open_draws = seq((rate_rps * open_s).ceil().max(1.0) as usize, &mut gen);
    let open = gen.items(&open_draws);
    let mut closed = [Vec::new(), Vec::new()];
    for it in closed_items {
        closed[it.conn].push(it);
    }
    Mix { graphs, pool: gen.pool, warm, closed, open, rate_rps }
}

fn eval(graph: &str, expr: Expr) -> Request {
    Request::Eval { graph: graph.to_string(), expr }
}

/// Reads on deep-shared WL-simulation DAGs; the plan cache holds every
/// key, so decode and preflight dominate.
pub fn serve_wl(cfg: &Config) -> Mix {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut labelled = |n, p| {
        let g = erdos_renyi(n, p, &mut rng);
        with_random_real_labels(&g, 2, &mut rng)
    };
    let graphs =
        vec![("wl24".to_string(), labelled(24, 0.2)), ("wl48".to_string(), labelled(48, 0.1))];
    let mut shapes: Vec<Expr> = (2..=6).rev().map(|r| cr_graph_expr(2, r)).collect();
    shapes.extend((2..=4).rev().map(|r| cr_expr(2, r)));
    shapes.push(k_wl_graph_expr(2, 2, 1));
    // Popularity rank = pool index: rank 1 is cr_graph_expr(2,6) on
    // n=24, so both connections share one hot key.
    let pool: Vec<Request> = shapes
        .iter()
        .flat_map(|e| graphs.iter().map(move |(name, _)| eval(name, e.clone())))
        .collect();
    let keys = pool.len();
    // Zipf(1): rank k is drawn in proportion to 1/k, about 100 per block.
    let harmonic: f64 = (1..=keys).map(|k| 1.0 / k as f64).sum();
    let counts: Vec<usize> =
        (1..=keys).map(|k| (100.0 / (k as f64 * harmonic)).round() as usize).collect();
    let gen = Gen::new(&graphs, pool, None);
    let draw = |_: &mut Vec<Request>, _: &mut StdRng, key: usize| (key, false);
    let warm = (0..keys).collect();
    let rates = (SERVE_WL_CLOSED_RPS, SERVE_WL_RATE_RPS);
    finish(cfg, gen, graphs, warm, rates, rng, block(&counts), draw, &[])
}

/// `Σ_{over}` of the product of `E(a,b)` atoms.
fn sum_product(over: Vec<u8>, atoms: &[(u8, u8)]) -> Expr {
    let factors = atoms.iter().map(|&(a, b)| build::edge(a, b)).collect();
    build::agg_over(
        Agg::Sum,
        over,
        build::apply(Func::Mul { arity: atoms.len(), dim: 1 }, factors),
        None,
    )
}

const TRIANGLE: &[(u8, u8)] = &[(1, 2), (2, 3), (1, 3)];
const CLIQUE4: &[(u8, u8)] = &[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)];
const CYCLE4: &[(u8, u8)] = &[(1, 2), (2, 3), (3, 4), (1, 4)];
const TRIANGLE_TEXT: &str = "sum_{x2,x3}(mul(E(x1,x2),E(x2,x3),E(x1,x3)))";
const CLIQUE4_TEXT: &str =
    "sum_{x2,x3,x4}(mul(E(x1,x2),E(x1,x3),E(x1,x4),E(x2,x3),E(x2,x4),E(x3,x4)))";

/// Versions of the replaced graph `upd`.
const UPD_VERSIONS: usize = 8;

/// Reads and writes on sum-product plans with a working set larger
/// than the plan cache. The mix:
///
/// * 20% per-vertex triangle counts (GEL_3) and 10% per-vertex 4-clique
///   counts (GEL_4, a wco join), alternating between ER n=512 p=0.01
///   and a skewed R-MAT scale-9 graph of as many edges;
/// * 10% per-pair 4-cycle counts on the ER graph, a 262,144-cell dense
///   table and a 2 MB response, and 5% on ER n=2048 p=0.0025, whose
///   dense form exceeds the result cap, so it takes the sparse-output
///   engine and returns a `TableSparse` frame;
/// * 35% random GEL_3 probes on a labelled ER n=16, each a fresh plan
///   key;
/// * 10% the triangle and clique shapes as `EvalText`;
/// * 5% `RegisterGraph` writes replacing `upd` (ER n=256 p=0.02, eight
///   versions in turn) and 5% triangle counts on `upd`; both go over
///   connection 0, so each answer is determined.
pub fn serve_gel(cfg: &Config) -> Mix {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let er = erdos_renyi(512, 0.01, &mut rng);
    // R-MAT with about as many edges as the ER graph, but skewed.
    let mut b = GraphBuilder::new(512);
    for (u, v) in rmat_edges(9, er.num_edges_undirected() as u64, rng.gen()) {
        b.add_edge(u, v);
    }
    let rmat = b.build();
    let big = erdos_renyi(2048, 0.0025, &mut rng);
    let lab = with_random_real_labels(&erdos_renyi(16, 0.3, &mut rng), 2, &mut rng);
    let upd: Vec<Graph> = (0..UPD_VERSIONS).map(|_| erdos_renyi(256, 0.02, &mut rng)).collect();
    let graphs: Vec<(String, Graph)> = vec![
        ("er".to_string(), er),
        ("rmat".to_string(), rmat),
        ("big".to_string(), big),
        ("lab".to_string(), lab),
        ("upd".to_string(), upd[0].clone()),
    ];

    let tri = sum_product(vec![2, 3], TRIANGLE);
    let clique = sum_product(vec![2, 3, 4], CLIQUE4);
    let cycle = sum_product(vec![2, 3], CYCLE4);
    for (text, built) in [(TRIANGLE_TEXT, &tri), (CLIQUE4_TEXT, &clique)] {
        let parsed = parse(text).expect("mix text parses");
        assert_eq!(gel_lang::expr_dag_hash(&parsed), gel_lang::expr_dag_hash(built), "{text}");
    }
    let text =
        |graph: &str, text: &str| Request::EvalText { graph: graph.into(), text: text.into() };
    let mut pool = vec![
        eval("er", tri.clone()),     // 0
        eval("rmat", tri.clone()),   // 1
        eval("er", clique.clone()),  // 2
        eval("rmat", clique),        // 3
        eval("er", cycle.clone()),   // 4: 262,144-cell dense table
        eval("big", cycle),          // 5: over the dense cap, sparse output
        text("er", TRIANGLE_TEXT),   // 6
        text("rmat", CLIQUE4_TEXT),  // 7
        text("rmat", TRIANGLE_TEXT), // 8
        text("er", CLIQUE4_TEXT),    // 9
        eval("upd", tri),            // 10
    ];
    let first_upd = pool.len();
    pool.extend(upd.into_iter().map(|graph| Request::RegisterGraph { name: "upd".into(), graph }));

    let probe_cfg = RandomExprConfig { label_dim: 2, ..RandomExprConfig::default() };
    let mut turns = [0usize; 4];
    let mut turn = move |which: usize, of: usize| {
        turns[which] += 1;
        turns[which] % of
    };
    // In twentieths: triangles, cliques, dense 4-cycles, sparse 4-cycles,
    // probes, text, writes, reads of `upd`.
    let kinds = block(&[4, 2, 2, 1, 7, 2, 1, 1]);
    let draw = move |pool: &mut Vec<Request>, rng: &mut StdRng, kind: usize| -> Draw {
        match kind {
            0 => (turn(0, 2), false),
            1 => (2 + turn(1, 2), false),
            2 => (4, false),
            3 => (5, false),
            4 => {
                pool.push(eval("lab", random_gel_graph(&probe_cfg, 3, rng)));
                (pool.len() - 1, false)
            }
            5 => (6 + turn(2, 4), false),
            6 => (first_upd + turn(3, UPD_VERSIONS), true),
            _ => (10, true),
        }
    };
    let gen = Gen::new(&graphs, pool, Some("upd"));
    // Every list starts from upd's first version, so each connection's
    // answers hold wherever the previous phase stopped.
    let rates = (SERVE_GEL_CLOSED_RPS, SERVE_GEL_RATE_RPS);
    // Set-up primes the cache with every fixed read, as a deployment
    // would before taking traffic.
    let warm = (0..first_upd).collect();
    finish(cfg, gen, graphs, warm, rates, rng, kinds, draw, &[(first_upd, true)])
}
