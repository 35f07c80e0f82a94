//! The measurements recorded in `BENCH_parallel.json`, each written
//! once. `all --bench-json` formats them as JSON; the gated
//! `cargo bench -p gel-bench --bench {eval,kernels,serve,ingest}` mains
//! print them and assert their `--smoke` gates. Inputs are parameters
//! where the two callers differ (sizes, rounds, iterations); seeds are
//! fixed here, so both callers time the same instances.
//!
//! Each sweep also checks its answers: the two legs it compares must
//! produce bit-identical tables at every grid point.

use std::time::Instant;

use gel_graph::families::path;
use gel_graph::random::{erdos_renyi, random_regular, rmat_edges, with_random_real_labels};
use gel_graph::{DynGraph, Graph, GraphBuilder};
use gel_lang::ast::build;
use gel_lang::wl_sim::{cr_graph_expr, k_wl_graph_expr};
use gel_lang::{Agg, EmbeddingTable, EvalEngine, EvalOptions, Expr, Func};
use gel_serve::{
    run_load, run_load_batched, LoadConfig, LoadReport, ServeOptions, Server, StatsReply,
};
use gel_store::{IngestOptions, IngestStats, Store, Wal};
use gel_tensor::kernels::matmul_ikj_into;
use gel_tensor::{Activation, Matrix};
use gel_wl::IncrementalColoring;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seconds per call of `f`: one untimed call (first-use sizing, plan
/// lowering), then the minimum over `rounds` timed rounds of `iters`
/// calls each. The minimum is robust against one-off scheduler
/// hiccups, which a single timed window is not.
pub fn min_secs_per_iter(rounds: u32, iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / f64::from(iters));
    }
    best
}

/// Panics unless `a` and `b` have the same shape and bit-identical
/// cells (`==` on `f64` would let `-0.0` pass for `+0.0`).
fn assert_same_bits(a: &EmbeddingTable, b: &EmbeddingTable, what: &str) {
    let bits = |t: &EmbeddingTable| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert!(
        a.vars() == b.vars() && a.dim() == b.dim() && bits(a) == bits(b),
        "{what}: the two legs disagree"
    );
}

/// The GEL₃ sum-product probe of the density sweep: the global
/// triangle count `Σ_{x1,x2,x3} E(x1,x2)·E(x2,x3)·E(x1,x3)`, whose
/// dense evaluation sweeps all `n³` cells while the sparse path runs
/// FAQ-style elimination over the `O(nnz)` edge lists.
pub fn triangle_probe() -> Expr {
    build::agg_over(
        Agg::Sum,
        vec![1, 2, 3],
        build::apply(
            Func::Mul { arity: 3, dim: 1 },
            vec![build::edge(1, 2), build::edge(2, 3), build::edge(1, 3)],
        ),
        None,
    )
}

/// One grid point of [`density_sweep`].
pub struct DensityRow {
    /// Vertices.
    pub n: usize,
    /// Erdős–Rényi edge probability.
    pub density: f64,
    /// Seconds per dense evaluation.
    pub dense_s: f64,
    /// Seconds per forced-sparse evaluation.
    pub sparse_s: f64,
}

impl DensityRow {
    /// Dense time over sparse time.
    pub fn speedup(&self) -> f64 {
        self.dense_s / self.sparse_s.max(1e-12)
    }
}

/// Result of [`density_sweep`].
pub struct DensitySweep {
    /// One row per (density, n), densities outermost.
    pub rows: Vec<DensityRow>,
    /// Per density, the first swept n where sparse beats dense
    /// (`None` when dense stays ahead).
    pub crossover: Vec<(f64, Option<usize>)>,
}

/// Table-density sweep (DESIGN.md §7): the [`triangle_probe`] on an
/// n × edge-density grid, the dense engine (`sparse_min_cells:
/// usize::MAX`) vs forced-sparse elimination (`sparse_min_cells: 0`).
/// The sparse kernels are serial by design, so callers pin one thread
/// to compare the representations rather than thread scaling.
pub fn density_sweep(sizes: &[usize], densities: &[f64], rounds: u32, iters: u32) -> DensitySweep {
    let probe = triangle_probe();
    let mut sweep = DensitySweep { rows: Vec::new(), crossover: Vec::new() };
    for &p in densities {
        let mut crossover = None;
        for &n in sizes {
            let g = erdos_renyi(n, p, &mut StdRng::seed_from_u64(0x5EED ^ n as u64));
            let mut dense = EvalEngine::with_options(EvalOptions {
                sparse_min_cells: usize::MAX,
                ..EvalOptions::default()
            });
            let mut sparse = EvalEngine::with_options(EvalOptions {
                sparse_min_cells: 0,
                ..EvalOptions::default()
            });
            let dense_s = min_secs_per_iter(rounds, iters, || {
                dense.eval(&probe, &g);
            });
            let sparse_s = min_secs_per_iter(rounds, iters, || {
                sparse.eval(&probe, &g);
            });
            assert_same_bits(
                dense.eval(&probe, &g),
                sparse.eval(&probe, &g),
                &format!("density sweep n={n} p={p}"),
            );
            if crossover.is_none() && sparse_s < dense_s {
                crossover = Some(n);
            }
            sweep.rows.push(DensityRow { n, density: p, dense_s, sparse_s });
        }
        sweep.crossover.push((p, crossover));
    }
    sweep
}

/// A closed sum over the indicator product of a shape's edges.
fn cyclic_probe(atoms: Vec<Expr>) -> Expr {
    let arity = atoms.len();
    build::agg_over(
        Agg::Sum,
        vec![1, 2, 3, 4],
        build::apply(Func::Mul { arity, dim: 1 }, atoms),
        None,
    )
}

/// Global 4-cycle count — induced width 2, the canonical case where a
/// binary join plan materializes quadratically more intermediate
/// tuples than the output holds.
fn cycle4_probe() -> Expr {
    cyclic_probe(vec![build::edge(1, 2), build::edge(2, 3), build::edge(3, 4), build::edge(1, 4)])
}

/// Global 4-clique count — all six edge atoms, the AGM-bound poster
/// child.
fn clique4_probe() -> Expr {
    cyclic_probe(vec![
        build::edge(1, 2),
        build::edge(1, 3),
        build::edge(1, 4),
        build::edge(2, 3),
        build::edge(2, 4),
        build::edge(3, 4),
    ])
}

/// The skewed wco instance: vertex 0 fans into a block of "mid"
/// vertices, every mid fans into a shared "leaf" block, and a few
/// leaves close back into a few mids. The binary plan's wedge
/// intermediate is `mids × leaves` sized regardless of how few cycles
/// close; the generic join's work tracks the homomorphism count.
fn hub_graph(n: usize) -> Graph {
    let mids = 1u32..=(n as u32 / 3);
    let leaves = (n as u32 / 3 + 1)..=(n as u32 - 2);
    let mut b = GraphBuilder::new(n);
    for m in mids.clone() {
        b.add_arc(0, m);
        for l in leaves.clone() {
            b.add_arc(m, l);
        }
    }
    for (i, l) in leaves.enumerate() {
        if i % 20 == 0 {
            for m in mids.clone().step_by(11) {
                b.add_arc(l, m);
            }
        }
    }
    b.build()
}

/// One point of [`wco_sweep`].
pub struct WcoRow {
    /// `"cycle4"` or `"clique4"`.
    pub probe: &'static str,
    /// `"er"` (Erdős–Rényi at p = 0.02) or `"hub"`.
    pub graph: &'static str,
    /// Vertices.
    pub n: usize,
    /// Seconds per evaluation through the binary merge-join plan.
    pub binary_s: f64,
    /// Seconds per evaluation through the generic join.
    pub wco_s: f64,
}

impl WcoRow {
    /// Binary-plan time over generic-join time.
    pub fn speedup(&self) -> f64 {
        self.binary_s / self.wco_s.max(1e-12)
    }
}

/// Result of [`wco_sweep`].
pub struct WcoSweep {
    /// The Erdős–Rényi points, then the hub point last.
    pub rows: Vec<WcoRow>,
    /// `eval.wco.joins` over the sweep.
    pub joins: u64,
    /// `eval.wco.seeks` over the sweep.
    pub seeks: u64,
}

impl WcoSweep {
    /// The hub point's speedup — the structural case the kernel exists
    /// for.
    pub fn hub_speedup(&self) -> f64 {
        self.rows.last().expect("the sweep ends with the hub point").speedup()
    }
}

/// Worst-case-optimal join sweep (DESIGN.md §12): cyclic GEL₄ probes
/// through the generic join over the CSR vs the binary merge-join plan
/// (`wco: false`), both forced sparse. Two instance families answer
/// different questions:
///
///  * Erdős–Rényi at p = 0.02, n ∈ {32, 64} — on unskewed sparse
///    graphs the elimination intermediates are the size of the join
///    output, so both plans are output-bound and the ratio hovers
///    near 1×: the honest baseline.
///  * the hub graph at n = 64 — binary elimination materializes the
///    mids×leaves wedge table no matter how few cycles close, so the
///    structural speedup is large and stable.
///
/// Serial kernels: callers pin one thread.
pub fn wco_sweep(rounds: u32, iters: u32) -> WcoSweep {
    let time_pair = |probe: &Expr, g: &Graph, what: &str| {
        let mut wco =
            EvalEngine::with_options(EvalOptions { sparse_min_cells: 0, ..EvalOptions::default() });
        let mut binary = EvalEngine::with_options(EvalOptions {
            sparse_min_cells: 0,
            wco: false,
            ..EvalOptions::default()
        });
        let wco_s = min_secs_per_iter(rounds, iters, || {
            wco.eval(probe, g);
        });
        let binary_s = min_secs_per_iter(rounds, iters, || {
            binary.eval(probe, g);
        });
        assert_same_bits(wco.eval(probe, g), binary.eval(probe, g), what);
        (binary_s, wco_s)
    };

    let before = gel_obs::snapshot();
    let mut rows = Vec::new();
    for (probe, expr) in [("cycle4", cycle4_probe()), ("clique4", clique4_probe())] {
        for n in [32usize, 64] {
            let g = erdos_renyi(n, 0.02, &mut StdRng::seed_from_u64(0x5EED ^ n as u64));
            let (binary_s, wco_s) = time_pair(&expr, &g, &format!("wco sweep {probe} er n={n}"));
            rows.push(WcoRow { probe, graph: "er", n, binary_s, wco_s });
        }
    }
    let (binary_s, wco_s) = time_pair(&cycle4_probe(), &hub_graph(64), "wco sweep cycle4 hub");
    rows.push(WcoRow { probe: "cycle4", graph: "hub", n: 64, binary_s, wco_s });
    let sweep = gel_obs::snapshot().since(&before);
    WcoSweep {
        rows,
        joins: sweep.counter("eval.wco.joins"),
        seeks: sweep.counter("eval.wco.seeks"),
    }
}

/// One served sum-product read of [`census_reads`].
pub struct CensusRow {
    /// The read: shape and graph.
    pub name: &'static str,
    /// Seconds per warm engine evaluation, as the query server runs it.
    pub engine_s: f64,
    /// Seconds per run of the hand-written CSR loop.
    pub loop_s: f64,
    /// Sum of the engine's output entries.
    pub engine_total: f64,
    /// Sum of the loop's output entries.
    pub loop_total: f64,
}

impl CensusRow {
    /// Engine time over loop time.
    pub fn ratio(&self) -> f64 {
        self.engine_s / self.loop_s.max(1e-12)
    }
}

/// `Σ_{x2,x3} E(x1,x2)·E(x2,x3)·E(x1,x3)` per `x1`: a query server
/// read.
fn per_vertex_triangles() -> Expr {
    sum_product(vec![2, 3], &[(1, 2), (2, 3), (1, 3)])
}

/// Per-`x1` 4-cliques `Σ_{x2,x3,x4}` over all six arcs.
fn per_vertex_cliques() -> Expr {
    sum_product(vec![2, 3, 4], &[(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
}

/// Per-`(x1, x4)` 4-cycles `Σ_{x2,x3} E(x1,x2)·E(x2,x3)·E(x3,x4)·E(x1,x4)`.
fn per_pair_cycles() -> Expr {
    sum_product(vec![2, 3], &[(1, 2), (2, 3), (3, 4), (1, 4)])
}

fn sum_product(over: Vec<u8>, arcs: &[(u8, u8)]) -> Expr {
    let atoms = arcs.iter().map(|&(a, b)| build::edge(a, b)).collect();
    let mul = build::apply(Func::Mul { arity: arcs.len(), dim: 1 }, atoms);
    build::agg_over(Agg::Sum, over, mul, None)
}

/// `|a ∩ b|` of two sorted slices, by merge.
fn common(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => (i, j, c) = (i + 1, j + 1, c + 1),
        }
    }
    c
}

/// Hand-written CSR loops computing each read's output entries
/// `(cell, count)` into `out`, in cell order.
fn triangles_loop(g: &Graph, out: &mut Vec<(usize, f64)>) {
    for x1 in 0..g.num_vertices() as u32 {
        let n1 = g.out_neighbors(x1);
        let c: usize = n1.iter().map(|&x2| common(n1, g.out_neighbors(x2))).sum();
        if c > 0 {
            out.push((x1 as usize, c as f64));
        }
    }
}

fn cliques_loop(g: &Graph, out: &mut Vec<(usize, f64)>, c12: &mut Vec<u32>) {
    for x1 in 0..g.num_vertices() as u32 {
        let n1 = g.out_neighbors(x1);
        let mut c = 0;
        for &x2 in n1 {
            c12.clear();
            c12.extend(n1.iter().filter(|v| g.out_neighbors(x2).binary_search(v).is_ok()));
            c += c12.iter().map(|&x3| common(c12, g.out_neighbors(x3))).sum::<usize>();
        }
        if c > 0 {
            out.push((x1 as usize, c as f64));
        }
    }
}

fn cycles_loop(g: &Graph, out: &mut Vec<(usize, f64)>) {
    let n = g.num_vertices();
    for x1 in 0..n as u32 {
        let n1 = g.out_neighbors(x1);
        for &x4 in n1 {
            let into4 = g.in_neighbors(x4);
            let c: usize = n1.iter().map(|&x2| common(g.out_neighbors(x2), into4)).sum();
            if c > 0 {
                out.push((x1 as usize * n + x4 as usize, c as f64));
            }
        }
    }
}

/// The query server's sum-product reads (bench-e2e's `serve_gel` mix):
/// per-vertex triangles and 4-cliques on Erdős–Rényi(512, 0.01) and on
/// a scale-9 R-MAT with as many edges, and per-pair 4-cycles on the
/// Erdős–Rényi graph and on Erdős–Rényi(2048, 0.0025). Each read is
/// timed as the server runs it — a warm engine with sparse output under
/// the server's result cap — beside a hand-written loop over sorted CSR
/// neighbour slices that computes the same entries.
///
/// Serial kernels: callers pin one thread.
pub fn census_reads(rounds: u32, iters: u32) -> Vec<CensusRow> {
    let mut rng = StdRng::seed_from_u64(190);
    let er = erdos_renyi(512, 0.01, &mut rng);
    let mut b = GraphBuilder::new(512);
    for (u, v) in rmat_edges(9, er.num_edges_undirected() as u64, rng.gen()) {
        b.add_edge(u, v);
    }
    let rmat = b.build();
    let big = erdos_renyi(2048, 0.0025, &mut rng);
    type Loop = fn(&Graph, &mut Vec<(usize, f64)>, &mut Vec<u32>);
    let reads: [(&'static str, Expr, &Graph, Loop); 6] = [
        ("per-vertex triangles, ER(512)", per_vertex_triangles(), &er, |g, o, _| {
            triangles_loop(g, o)
        }),
        ("per-vertex triangles, R-MAT(9)", per_vertex_triangles(), &rmat, |g, o, _| {
            triangles_loop(g, o)
        }),
        ("per-vertex 4-cliques, ER(512)", per_vertex_cliques(), &er, cliques_loop),
        ("per-vertex 4-cliques, R-MAT(9)", per_vertex_cliques(), &rmat, cliques_loop),
        ("per-pair 4-cycles, ER(512)", per_pair_cycles(), &er, |g, o, _| cycles_loop(g, o)),
        ("per-pair 4-cycles, ER(2048)", per_pair_cycles(), &big, |g, o, _| cycles_loop(g, o)),
    ];
    let cap = ServeOptions::default().max_result_cells;
    let opts = EvalOptions { sparse_output: true, ..EvalOptions::default() };
    reads
        .into_iter()
        .map(|(name, e, g, run_loop)| {
            let mut eng = EvalEngine::with_options(opts);
            let engine_s = min_secs_per_iter(rounds, iters, || {
                eng.try_eval_capped(&e, g, cap).expect("a served read fits the cap");
            });
            let engine_total = eng.eval(&e, g).data().iter().fold(0.0, |t, v| t + v);
            let (mut out, mut buf) = (Vec::new(), Vec::new());
            let loop_s = min_secs_per_iter(rounds, iters, || {
                out.clear();
                run_loop(g, &mut out, &mut buf);
            });
            let loop_total = out.iter().fold(0.0, |t, &(_, c)| t + c);
            CensusRow { name, engine_s, loop_s, engine_total, loop_total }
        })
        .collect()
}

fn gflops(n: usize, secs: f64) -> f64 {
    2.0 * (n * n * n) as f64 / secs.max(1e-12) / 1e9
}

/// Deterministic `n × n` test operands.
fn operands(n: usize) -> (Matrix, Matrix) {
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 61) as f64 * 0.25 - 7.0);
    let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 41) % 53) as f64 * 0.125 - 3.0);
    (a, b)
}

/// Result of [`matmul`].
pub struct MatmulTiming {
    /// Matrix side.
    pub n: usize,
    /// Seconds per blocked (SIMD) matmul.
    pub blocked_s: f64,
    /// Seconds per ikj-oracle matmul.
    pub oracle_s: f64,
}

impl MatmulTiming {
    /// Blocked-kernel GFLOP/s.
    pub fn blocked_gflops(&self) -> f64 {
        gflops(self.n, self.blocked_s)
    }

    /// Oracle GFLOP/s.
    pub fn oracle_gflops(&self) -> f64 {
        gflops(self.n, self.oracle_s)
    }

    /// Oracle time over blocked time.
    pub fn simd_speedup(&self) -> f64 {
        self.oracle_s / self.blocked_s.max(1e-12)
    }
}

/// The register-blocked, cache-tiled square matmul of
/// `gel_tensor::kernels` against the ikj reference oracle
/// (`matmul_ikj_into`) at the current rayon width.
pub fn matmul(n: usize, rounds: u32, iters: u32) -> MatmulTiming {
    let (a, b) = operands(n);
    let mut out = Matrix::zeros(n, n);
    let blocked_s = min_secs_per_iter(rounds, iters, || a.matmul_into(&b, &mut out));
    let oracle_s = min_secs_per_iter(rounds, iters, || matmul_ikj_into(&a, &b, &mut out));
    MatmulTiming { n, blocked_s, oracle_s }
}

/// GFLOP/s of the transpose-fused and bias-activation-fused matmul
/// variants at side `n`: `(t_matmul, matmul_t, bias_act)`.
pub fn matmul_variants(n: usize, rounds: u32, iters: u32) -> (f64, f64, f64) {
    let (a, b) = operands(n);
    let bias = vec![0.125; n];
    let mut out = Matrix::zeros(n, n);
    let t = min_secs_per_iter(rounds, iters, || a.t_matmul_into(&b, &mut out));
    let tt = min_secs_per_iter(rounds, iters, || a.matmul_t_into(&b, &mut out));
    let fused = min_secs_per_iter(rounds, iters, || {
        a.matmul_bias_act_into(&b, &bias, Activation::ReLU, &mut out)
    });
    (gflops(n, t), gflops(n, tt), gflops(n, fused))
}

/// Result of [`gather`].
pub struct GatherTiming {
    /// Seconds per fused CSR gather.
    pub fused_s: f64,
    /// Seconds per per-neighbour axpy loop.
    pub naive_s: f64,
}

impl GatherTiming {
    /// Per-neighbour time over fused time.
    pub fn speedup(&self) -> f64 {
        self.naive_s / self.fused_s.max(1e-12)
    }
}

/// The per-neighbour axpy loop the fused gather replaced.
fn naive_gather(g: &Graph, x: &Matrix, out: &mut Matrix) {
    for v in g.vertices() {
        let row = out.row_mut(v as usize);
        row.fill(0.0);
        for &u in g.out_neighbors(v) {
            for (o, &xv) in row.iter_mut().zip(x.row(u as usize)) {
                *o += xv;
            }
        }
    }
}

/// The fused CSR neighbour-sum gather (`gel_gnn::agg::sum_forward_into`)
/// vs the per-neighbour loop, on an `n`-vertex Erdős–Rényi graph of
/// mean degree `deg` with `cols` feature columns. Asserts the two stay
/// bit-identical.
pub fn gather(n: usize, deg: f64, cols: usize, rounds: u32, iters: u32) -> GatherTiming {
    let g = erdos_renyi(n, deg / n as f64, &mut StdRng::seed_from_u64(0xBE7C));
    let x = Matrix::from_fn(n, cols, |i, j| ((i * 7 + j) % 97) as f64 * 0.03 - 1.4);
    let mut fused = Matrix::zeros(n, cols);
    let fused_s =
        min_secs_per_iter(rounds, iters, || gel_gnn::agg::sum_forward_into(&g, &x, &mut fused));
    let mut naive = Matrix::zeros(n, cols);
    let naive_s = min_secs_per_iter(rounds, iters, || naive_gather(&g, &x, &mut naive));
    assert_eq!(fused, naive, "fused gather must stay bit-identical to the axpy loop");
    GatherTiming { fused_s, naive_s }
}

/// Result of [`serve_load`].
pub struct ServeLoad {
    /// Concurrent clients per phase.
    pub clients: usize,
    /// First pass: every plan lowers once.
    pub cold: LoadReport,
    /// Second pass over a warm plan cache.
    pub warm: LoadReport,
    /// The warm workload shipped as `EvalBatch` frames.
    pub batched: LoadReport,
    /// Server statistics after the three phases.
    pub stats: StatsReply,
}

/// The `gel-serve` loopback load scenario: 8 concurrent clients
/// round-robin the E4/E9 expression set (deep-shared WL-simulation
/// DAGs) against one server — cold, warm, then the warm workload as
/// `EvalBatch` frames carrying the whole set. Asserts the serving
/// contracts: every request completes, the cold phase lowers exactly
/// one plan per expression, and neither warm phase re-lowers or
/// misses.
pub fn serve_load(requests_per_client: usize) -> ServeLoad {
    const CLIENTS: usize = 8;
    const LABEL_DIM: usize = 2;
    let mut rng = StdRng::seed_from_u64(0xBE5E);
    let g = erdos_renyi(24, 0.2, &mut rng);
    let g = with_random_real_labels(&g, LABEL_DIM, &mut rng);
    let exprs = vec![cr_graph_expr(LABEL_DIM, 6), k_wl_graph_expr(2, LABEL_DIM, 2)];

    let server = Server::bind(ServeOptions {
        max_inflight: CLIENTS,
        plan_cache_cap: 16,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    server.register_graph("bench", g).expect("register");
    let cfg = LoadConfig { clients: CLIENTS, requests_per_client, graph: "bench", exprs: &exprs };

    let cold = run_load(&server, &cfg).expect("cold load run");
    let warm = run_load(&server, &cfg).expect("warm load run");
    let batched = run_load_batched(&server, &cfg, exprs.len()).expect("batched load run");
    let stats = server.stats();
    server.shutdown();

    let expected = (CLIENTS * requests_per_client) as u64;
    for (phase, r) in [("cold", &cold), ("warm", &warm), ("batched", &batched)] {
        assert_eq!(r.requests, expected, "{phase} phase dropped requests");
    }
    assert_eq!(
        cold.plan_builds,
        exprs.len() as u64,
        "cold phase must lower exactly one plan per expression"
    );
    for (phase, r) in [("warm", &warm), ("batched", &batched)] {
        assert_eq!(r.plan_builds, 0, "{phase} requests must not allocate new plans");
        assert_eq!(r.cache_misses, 0, "{phase} phase must be all hits");
    }
    ServeLoad { clients: CLIENTS, cold, warm, batched, stats }
}

/// Result of [`ingest`].
pub struct IngestRun {
    /// R-MAT edges streamed.
    pub edges: u64,
    /// Streaming pipeline statistics (segment header, passes, peak
    /// buffer).
    pub stats: IngestStats,
    /// The builder's chunk budget.
    pub chunk_budget_bytes: usize,
    /// Seconds for generate → log → CSR segment.
    pub ingest_s: f64,
    /// The frontier edit `(u, v)`.
    pub frontier: (u32, u32),
    /// From-scratch recolour of the frontier-edited graph, min over 1
    /// and 4 threads.
    pub full_recolor_s: f64,
    /// Incremental repair after the frontier edit.
    pub incr_recolor_s: f64,
    /// The hub edit `(hub, v)`.
    pub hub: (u32, u32),
    /// Out-degree of the hub before the edit.
    pub hub_degree: usize,
    /// Incremental repair after the hub edit.
    pub hub_recolor_s: f64,
    /// Repair (finished as a rebuild) after one edit in the regular
    /// part of [`cascade_graph`], a real global partition change.
    pub cascade_recolor_s: f64,
}

impl IngestRun {
    /// Streamed edges per second.
    pub fn edges_per_s(&self) -> f64 {
        self.edges as f64 / self.ingest_s.max(1e-12)
    }

    /// From-scratch time over incremental time for the frontier edit.
    pub fn incr_speedup(&self) -> f64 {
        self.full_recolor_s / self.incr_recolor_s.max(1e-12)
    }

    /// From-scratch time over incremental time for the hub edit.
    pub fn hub_speedup(&self) -> f64 {
        self.full_recolor_s / self.hub_recolor_s.max(1e-12)
    }
}

/// A random 3-regular graph on 2000 vertices beside a 200-vertex path.
/// Colour refinement keeps the regular part one class at every round,
/// and the path stretches the trace to 101 rounds; an edit in the
/// regular part splits that class a little further each round until
/// the whole part is refined, so every later round re-reads all of it.
fn cascade_graph() -> DynGraph {
    let g = random_regular(2000, 3, &mut StdRng::seed_from_u64(11)).disjoint_union(&path(200));
    DynGraph::from_graph(&g)
}

/// The two highest-id minimum-degree vertices without self-loops that
/// are not adjacent — the sparse frontier of the R-MAT stream (its
/// skew leaves the top of the id space cold), where streamed edges
/// touching fresh vertices land.
fn frontier_pair(g: &DynGraph) -> (u32, u32) {
    let n = g.num_vertices() as u32;
    let min_deg = (0..n).map(|v| g.out_neighbors(v).len()).min().expect("non-empty graph");
    let mut picks = (0..n)
        .rev()
        .filter(|&v| g.out_neighbors(v).len() == min_deg)
        .filter(|&v| g.out_neighbors(v).iter().all(|&u| u != v));
    let u = picks.next().expect("at least one min-degree vertex");
    let v = picks
        .find(|&v| !g.out_neighbors(u).contains(&v))
        .expect("two non-adjacent min-degree vertices");
    (u, v)
}

/// Fresh stable colouring of `g` (the from-scratch baseline), timed.
fn full_recolor(g: &DynGraph) -> (IncrementalColoring, f64) {
    let t = Instant::now();
    let c = IncrementalColoring::from_dyn(g.clone());
    (c, t.elapsed().as_secs_f64())
}

/// The gel-store substrate: stream `edges` R-MAT edges (vertex ids in
/// `0..2^scale`) through the write-ahead log into an out-of-core CSR
/// segment, then compare the incremental colour-refinement index's
/// single-edge repair against a from-scratch recolour — first a
/// frontier edit (the streaming-append case the index exists for),
/// then an edit at the hottest hub. The hub is a singleton class
/// before and after its edit, so the repair renames it in place and
/// stays local. Last, one edit of [`cascade_graph`], whose partition
/// change really is global, must take the rebuild fallback. Asserts
/// the contracts:
///
/// * bounded memory — the builder's buffer high-water mark stays
///   within the chunk budget plus `O(n)` bookkeeping (≤ 40 B/vertex),
///   never `O(m)`;
/// * fidelity — the segment header matches the streamed edge set, and
///   the graph passes its CSR invariants on load;
/// * incremental = full — every repaired partition equals a
///   from-scratch recolour, which is itself identical at 1 and 4
///   threads, and removing the frontier edge restores the original;
/// * global cascades rebuild — the [`cascade_graph`] edit takes the
///   fallback.
pub fn ingest(scale: u32, edges: u64) -> IngestRun {
    let n = 1u64 << scale;
    let dir = std::env::temp_dir().join(format!("gel-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open store");
    let wal_path = dir.join("rmat.wal");
    let opts = IngestOptions::default();

    let t = Instant::now();
    let mut wal = Wal::create(&wal_path).expect("create wal");
    wal.append_meta(n, 1).expect("append meta");
    let mut batch = Vec::with_capacity(4096);
    for (u, v) in rmat_edges(scale, edges, 0xD1CE) {
        batch.push((u, v));
        if batch.len() == 4096 {
            wal.append_edges(&batch).expect("append edges");
            batch.clear();
        }
    }
    if !batch.is_empty() {
        wal.append_edges(&batch).expect("append edges");
    }
    wal.commit().expect("commit wal");
    let stats = store.ingest_wal("rmat", &wal_path, opts).expect("build segment");
    let ingest_s = t.elapsed().as_secs_f64();

    let bound = opts.chunk_budget_bytes as u64 + 40 * n;
    assert!(
        stats.peak_buffer_bytes <= bound,
        "ingest peak {} exceeds budget+bookkeeping bound {bound}",
        stats.peak_buffer_bytes
    );
    let meta = store.meta("rmat").expect("segment header");
    assert_eq!(meta.n as u64, n);
    assert!(meta.symmetric, "edge streaming produces a symmetric graph");
    assert!(meta.num_arcs as u64 <= 2 * edges, "dedup can only shrink the arc set");
    let g = store.open_graph("rmat").expect("open segment");
    let _ = std::fs::remove_dir_all(&dir);
    let dyng = DynGraph::from_graph(&g);

    let (eu, ev) = frontier_pair(&dyng);
    let mut edited = dyng.clone();
    edited.insert_edge(eu, ev);
    let mut fresh = Vec::new();
    let mut full_recolor_s = f64::INFINITY;
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let (c, secs) = full_recolor(&edited);
        rayon::set_num_threads(0);
        full_recolor_s = full_recolor_s.min(secs);
        fresh.push(c.stable_coloring());
    }
    assert_eq!(fresh[0], fresh[1], "fresh recolour differs between 1 and 4 threads");

    let mut incr = IncrementalColoring::from_dyn(dyng.clone());
    let t = Instant::now();
    incr.insert_edge(eu, ev);
    let incr_recolor_s = t.elapsed().as_secs_f64();
    assert_eq!(
        incr.stable_coloring(),
        fresh[0],
        "incremental recolour diverged from the from-scratch recolour"
    );
    let baseline = IncrementalColoring::new(&g).stable_coloring();
    incr.remove_edge(eu, ev);
    assert_eq!(incr.stable_coloring(), baseline, "remove must undo insert");

    let hub = (0..n as u32).max_by_key(|&v| dyng.out_neighbors(v).len()).expect("non-empty graph");
    let mut hub_edited = dyng.clone();
    hub_edited.insert_edge(hub, ev);
    let (hub_fresh, _) = full_recolor(&hub_edited);
    let t = Instant::now();
    assert!(incr.insert_edge(hub, ev), "hub edge must be new");
    let hub_recolor_s = t.elapsed().as_secs_f64();
    assert_eq!(
        incr.stable_coloring(),
        hub_fresh.stable_coloring(),
        "hub-edit recolour diverged from the from-scratch recolour"
    );

    let mut cascade = IncrementalColoring::from_dyn(cascade_graph());
    let t = Instant::now();
    assert!(cascade.insert_edge(0, 1999), "(0, 1999) must be a new edge");
    let cascade_recolor_s = t.elapsed().as_secs_f64();
    assert_eq!(cascade.stats().full_fallbacks, 1, "the cascade edit must fall back");
    assert_eq!(
        cascade.stable_coloring(),
        full_recolor(cascade.graph()).0.stable_coloring(),
        "cascade recolour diverged from the from-scratch recolour"
    );

    IngestRun {
        edges,
        stats,
        chunk_budget_bytes: opts.chunk_budget_bytes,
        ingest_s,
        frontier: (eu, ev),
        full_recolor_s,
        incr_recolor_s,
        hub: (hub, ev),
        hub_degree: dyng.out_neighbors(hub).len(),
        hub_recolor_s,
        cascade_recolor_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helper_makes_one_untimed_call_then_rounds_of_iters() {
        let mut calls = 0u32;
        let secs = min_secs_per_iter(3, 4, || calls += 1);
        assert_eq!(calls, 1 + 3 * 4);
        assert!(secs.is_finite() && secs >= 0.0);
    }

    /// Both sweeps compare their two legs bit for bit at every point
    /// (a disagreement panics); here on a small density grid and the
    /// full wco grid, one timed call each.
    #[test]
    fn sweeps_cover_their_grids_and_agree_across_legs() {
        let d = density_sweep(&[8, 12], &[0.1, 0.3], 1, 1);
        assert_eq!(d.rows.len(), 4);
        assert_eq!(d.crossover.iter().map(|c| c.0).collect::<Vec<_>>(), vec![0.1, 0.3]);
        let w = wco_sweep(1, 1);
        let points: Vec<_> = w.rows.iter().map(|r| (r.probe, r.graph, r.n)).collect();
        assert_eq!(
            points,
            vec![
                ("cycle4", "er", 32),
                ("cycle4", "er", 64),
                ("clique4", "er", 32),
                ("clique4", "er", 64),
                ("cycle4", "hub", 64),
            ]
        );
        assert!(w.joins > 0 && w.seeks > 0, "the generic join ran");
    }
}
