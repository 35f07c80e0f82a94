//! End-to-end server determinism: eight concurrent clients submitting
//! the E4/E9 expression set over loopback TCP receive responses
//! *byte-identical* to a direct in-process [`EvalEngine`] run — at
//! every server-side rayon thread count.
//!
//! This is the serving determinism contract: the wire carries exact
//! `f64` bit patterns and no timing- or interleaving-dependent state,
//! the engine's parallel kernels use fixed-shape reductions, and the
//! plan cache hands each request a warmed engine whose result cannot
//! depend on which connection warmed it.

use gel_graph::random::{erdos_renyi, with_random_real_labels};
use gel_graph::Graph;
use gel_lang::wl_sim::{cr_graph_expr, k_wl_graph_expr};
use gel_lang::{EvalEngine, Expr};
use gel_serve::{Client, ServeOptions, Server, TableData};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 6;
const LABEL_DIM: usize = 2;

fn corpus_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(0xE2E);
    let g = erdos_renyi(14, 0.3, &mut rng);
    with_random_real_labels(&g, LABEL_DIM, &mut rng)
}

/// The expression set: E4 (colour refinement, 6 rounds) and E9
/// (folklore 2-WL, 4 rounds) — the deep-shared DAGs that stress both
/// the wire codec and the plan cache.
fn expression_set() -> Vec<Expr> {
    vec![cr_graph_expr(LABEL_DIM, 6), k_wl_graph_expr(2, LABEL_DIM, 4)]
}

/// A response reduced to comparable bits: (vars, dim, cell bit patterns).
type TableBits = (Vec<u8>, u32, Vec<u64>);

/// Reference answer bits, straight from an engine (no server).
fn direct_baseline(g: &Graph, exprs: &[Expr]) -> Vec<TableBits> {
    exprs
        .iter()
        .map(|e| {
            let mut engine = EvalEngine::new();
            let t = engine.eval(e, g);
            (t.vars().to_vec(), t.dim() as u32, t.data().iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

/// Runs the full client fleet against a fresh server; returns the
/// response bits of every request, indexed by expression.
fn serve_fleet(g: &Graph, exprs: &[Expr]) -> Vec<Vec<TableBits>> {
    let server = Server::bind(ServeOptions {
        max_inflight: CLIENTS,
        plan_cache_cap: 8,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    server.register_graph("corpus", g.clone()).expect("register");
    let addr = server.local_addr();

    let mut per_expr: Vec<Vec<TableBits>> = vec![Vec::new(); exprs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut got = Vec::new();
                    for i in 0..REQUESTS_PER_CLIENT {
                        let which = (c + i) % exprs.len();
                        let (vars, dim, n, data) =
                            client.eval("corpus", &exprs[which]).expect("eval");
                        assert_eq!(n as usize, g.num_vertices());
                        let bits = data.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
                        got.push((which, (vars, dim, bits)));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (which, resp) in h.join().expect("client thread") {
                per_expr[which].push(resp);
            }
        }
    });
    server.shutdown();
    per_expr
}

#[test]
fn concurrent_responses_match_direct_engine_bit_for_bit() {
    let g = corpus_graph();
    let exprs = expression_set();
    let baseline = direct_baseline(&g, &exprs);

    // The server's evaluation parallelism must not leak into response
    // bytes: run the whole fleet at 1 and at 4 rayon threads.
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let per_expr = serve_fleet(&g, &exprs);
        rayon::set_num_threads(0);

        for (which, responses) in per_expr.iter().enumerate() {
            assert_eq!(
                responses.len(),
                CLIENTS * REQUESTS_PER_CLIENT / exprs.len(),
                "every request must be answered"
            );
            for resp in responses {
                assert_eq!(
                    resp, &baseline[which],
                    "expression {which} at {threads} server threads diverged from direct eval"
                );
            }
        }
    }
}

/// The same fleet twice in a row (warm cache the second time) returns
/// the same bytes — warmth is invisible to the client.
#[test]
fn warm_and_cold_responses_are_identical() {
    let g = corpus_graph();
    let exprs = expression_set();
    let server = Server::bind(ServeOptions::default()).expect("bind");
    server.register_graph("corpus", g.clone()).expect("register");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for e in &exprs {
        let cold = client.eval("corpus", e).expect("cold eval");
        let warm = client.eval("corpus", e).expect("warm eval");
        let cold_bits: Vec<u64> = cold.3.iter().map(|v| v.to_bits()).collect();
        let warm_bits: Vec<u64> = warm.3.iter().map(|v| v.to_bits()).collect();
        assert_eq!((cold.0, cold.1, cold.2), (warm.0.clone(), warm.1, warm.2));
        assert_eq!(cold_bits, warm_bits);
    }
    let stats = server.stats();
    assert_eq!(stats.cache_misses, exprs.len() as u64);
    assert_eq!(stats.cache_hits, exprs.len() as u64);
    server.shutdown();
}

/// Error containment end to end: bad text, unknown graphs, and
/// protocol garbage produce typed error frames and the connection
/// keeps working afterwards.
#[test]
fn errors_do_not_kill_the_connection() {
    let server = Server::bind(ServeOptions::default()).expect("bind");
    server.register_graph("g", corpus_graph()).expect("register");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Parse error.
    let err = client.eval_text("g", "sum_{(((").unwrap_err();
    assert!(matches!(
        err,
        gel_serve::ClientError::Server { code: gel_serve::ErrorCode::Parse, .. }
    ));

    // Unknown graph.
    let err = client.eval_text("nope", "lab0(x1)").unwrap_err();
    assert!(matches!(
        err,
        gel_serve::ClientError::Server { code: gel_serve::ErrorCode::UnknownGraph, .. }
    ));

    // Analyze error (label index out of range for dim-2 labels).
    let err = client.eval_text("g", "lab9(x1)").unwrap_err();
    assert!(matches!(
        err,
        gel_serve::ClientError::Server { code: gel_serve::ErrorCode::Analyze, .. }
    ));

    // The connection survived all of it.
    client.ping().expect("connection must stay open after typed errors");
    let (vars, dim, n, _) = client.eval_text("g", "lab0(x1)").expect("still serving");
    assert_eq!((vars, dim, n as usize), (vec![1u8], 1, 14));
    server.shutdown();
}

/// A batched round-trip returns, per expression, bytes identical to
/// the singleton eval path — and counts as one request.
#[test]
fn batched_eval_matches_singletons_bit_for_bit() {
    let g = corpus_graph();
    let exprs = expression_set();
    let server = Server::bind(ServeOptions::default()).expect("bind");
    server.register_graph("corpus", g.clone()).expect("register");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let singles: Vec<_> =
        exprs.iter().map(|e| client.eval("corpus", e).expect("single eval")).collect();
    let requests_before = server.stats().requests;
    let batch = client.eval_batch("corpus", &exprs).expect("batch eval");
    assert_eq!(server.stats().requests - requests_before, 1, "a batch is one request");
    assert_eq!(batch.len(), exprs.len());
    for (wt, (vars, dim, n, data)) in batch.iter().zip(&singles) {
        assert_eq!((&wt.vars, wt.dim, wt.n), (vars, *dim, *n));
        let TableData::Dense(bdata) = &wt.data else {
            panic!("small results must come back dense")
        };
        let single_bits: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        let batch_bits: Vec<u64> = bdata.iter().map(|v| v.to_bits()).collect();
        assert_eq!(batch_bits, single_bits, "batched eval diverged from singleton");
    }
    server.shutdown();
}

/// Sparse admission: a query whose *dense* result exceeds
/// `max_result_cells` but whose plan stays sparse end to end is now
/// answered with a sparse table (bit-identical to an uncapped direct
/// engine run) instead of `TooLarge` — while a genuinely dense wide
/// query is still rejected. The admitted shapes are the edge atom, the
/// sparse product `E(x1,x2) · lab0(x1)` (`MulSparse`) and the
/// eliminated sum-product `sum_{x3}(E(x1,x2) · E(x2,x3))`; on an
/// undirected graph each has one entry per arc.
#[test]
fn wide_sparse_results_are_admitted_dense_ones_rejected() {
    use gel_lang::build::{add2, agg_over, edge, lab, mul2};
    use gel_lang::Agg;
    let mut rng = StdRng::seed_from_u64(0x51DE);
    let g = with_random_real_labels(&erdos_renyi(80, 0.05, &mut rng), LABEL_DIM, &mut rng);
    // Dense result: 80² = 6400 cells; cap far below it.
    let server = Server::bind(ServeOptions { max_result_cells: 5000, ..ServeOptions::default() })
        .expect("bind");
    server.register_graph("g", g.clone()).expect("register");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let two_path = agg_over(Agg::Sum, vec![3], mul2(edge(1, 2), edge(2, 3)), None);
    for e in [edge(1, 2), mul2(edge(1, 2), lab(0, 1)), two_path] {
        let wt = client.eval_table("g", &e).expect("sparse-admissible eval");
        let TableData::Sparse { coords, values } = &wt.data else {
            panic!("wide low-nnz result must ship sparse: {e}")
        };
        // Bit-identical to an uncapped direct engine run.
        let mut engine = EvalEngine::new();
        let want = engine.eval(&e, &g);
        assert_eq!(coords.len(), g.num_arcs());
        for (&c, v) in coords.iter().zip(values) {
            assert_eq!(v.to_bits(), want.data()[c as usize].to_bits());
        }
        assert_eq!(
            values.iter().filter(|&&v| v != 0.0).count(),
            want.data().iter().filter(|&&v| v != 0.0).count()
        );
        // Warm replay: same bytes, served from the sparse engine cache.
        let wt2 = client.eval_table("g", &e).expect("warm sparse eval");
        assert_eq!(wt2, wt);
    }

    // A wide query that genuinely needs a dense table keeps the old
    // TooLarge rejection. So do wide sum-products whose output does not
    // fit: the eliminated `sum_{x4}(E(x1,x2)·E(x3,x4))` may hold m·n
    // entries and is refused at plan time; the joined 3-star
    // `sum_{x4}(E(x1,x4)·E(x2,x4)·E(x3,x4))` is refused by the join
    // itself once its list passes the cap.
    let dense_wide = add2(lab(0, 1), lab(0, 2));
    let spread = agg_over(Agg::Sum, vec![4], mul2(edge(1, 2), edge(3, 4)), None);
    let star = agg_over(Agg::Sum, vec![4], mul2(mul2(edge(1, 4), edge(2, 4)), edge(3, 4)), None);
    for (e, why) in
        [(dense_wide, "dense table"), (spread, "entries (cap 5000)"), (star, "5001 entries")]
    {
        let err = client.eval_table("g", &e).unwrap_err();
        assert!(
            matches!(
                &err,
                gel_serve::ClientError::Server { code: gel_serve::ErrorCode::TooLarge, msg }
                    if msg.contains(why)
            ),
            "{e}: {err:?}"
        );
        // And the connection is still healthy.
        client.ping().expect("connection survives TooLarge");
    }
    server.shutdown();
}

/// A narrow request (small result) is evaluated under the same
/// dense-slab cap as a wide one: the closed
/// `sum_{x1,x2,x3}(add(E(x1,x2), E(x2,x3)))` has one result cell but
/// plans an `n^3` dense `Apply` slab, so it is `TooLarge` and the
/// connection survives. An unguarded `mean_{x2} E(x1,x2)` on a graph
/// whose `n^2` exceeds the cap is still answered, bit-identical to the
/// dense engine: its plan eliminates over the sparse edge atom.
#[test]
fn narrow_requests_evaluate_under_the_cap() {
    use gel_lang::build::{add2, agg_over, edge};
    use gel_lang::{Agg, EvalOptions};
    let mut rng = StdRng::seed_from_u64(0xCA9);
    let server = Server::bind(ServeOptions { max_result_cells: 10_000, ..ServeOptions::default() })
        .expect("bind");
    server.register_graph("n40", erdos_renyi(40, 0.1, &mut rng)).expect("register");
    let g120 = erdos_renyi(120, 0.05, &mut rng);
    server.register_graph("n120", g120.clone()).expect("register");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let slab = agg_over(Agg::Sum, vec![1, 2, 3], add2(edge(1, 2), edge(2, 3)), None);
    let err = client.eval_table("n40", &slab).unwrap_err();
    assert!(
        matches!(
            &err,
            gel_serve::ClientError::Server { code: gel_serve::ErrorCode::TooLarge, msg }
                if msg.contains("64000 cells, cap 10000")
        ),
        "{err:?}"
    );
    client.ping().expect("connection survives an over-cap narrow plan");

    let mean = agg_over(Agg::Mean, vec![2], edge(1, 2), None);
    let wt = client.eval_table("n120", &mean).expect("elimination fits the cap");
    let TableData::Dense(data) = &wt.data else { panic!("narrow results come back dense") };
    let mut dense = EvalEngine::with_options(EvalOptions {
        sparse_min_cells: usize::MAX,
        ..Default::default()
    });
    let want: Vec<u64> = dense.eval(&mean, &g120).data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(data.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(), want);
    server.shutdown();
}

/// A sum-product whose variable elimination is too wide to key — the
/// closed 12-clique count on 50 vertices joins 12 variables, and 50^12
/// cell ids overflow — is a `TooLarge` error, for a narrow and a wide
/// result alike, and the connection survives. So is a dense product
/// whose own table overflows, every time it is sent: a refused plan
/// hands its engine back to the cache.
#[test]
fn too_wide_eliminations_are_rejected() {
    use gel_lang::build::{agg_over, apply, edge, lab};
    use gel_lang::{Agg, Func};
    let atoms: Vec<Expr> = (1..=12).flat_map(|a| (a + 1..=12).map(move |b| edge(a, b))).collect();
    let clique = apply(Func::Mul { arity: atoms.len(), dim: 1 }, atoms);
    let k12 = agg_over(Agg::Sum, (1..=12).collect(), clique.clone(), None);
    let per_vertex = agg_over(Agg::Sum, (2..=12).collect(), clique, None);
    // The per-vertex count's 50 cells exceed this cap, so it takes
    // the sparse-output engine.
    let server = Server::bind(ServeOptions { max_result_cells: 10, ..ServeOptions::default() })
        .expect("bind");
    server.register_graph("c50", gel_graph::families::cycle(50)).expect("register");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for e in [&k12, &per_vertex] {
        let err = client.eval_table("c50", e).unwrap_err();
        assert!(
            matches!(
                &err,
                gel_serve::ClientError::Server { code: gel_serve::ErrorCode::TooLarge, msg }
                    if msg.contains("12-variable intermediate table over 50 vertices")
            ),
            "{err:?}"
        );
        client.ping().expect("connection survives a too-wide plan");
    }
    // Σ_{x2..x16} Π lab0(x_i) over 16 variables: 16^16 = 2^64 cells.
    let labels: Vec<Expr> = (1..=16).map(|v| lab(0, v)).collect();
    let product = agg_over(
        Agg::Sum,
        (2..=16).collect(),
        apply(Func::Mul { arity: labels.len(), dim: 1 }, labels),
        None,
    );
    server.register_graph("c16", gel_graph::families::cycle(16)).expect("register");
    for _ in 0..2 {
        let err = client.eval_table("c16", &product).unwrap_err();
        assert!(
            matches!(
                &err,
                gel_serve::ClientError::Server { code: gel_serve::ErrorCode::TooLarge, .. }
            ),
            "{err:?}"
        );
        client.ping().expect("connection survives an overflowing table");
    }
    server.shutdown();
}
