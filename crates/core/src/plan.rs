//! Compiled evaluation of `GEL(Ω,Θ)` expressions: lowering to a flat
//! plan of stride-addressed slab kernels.
//!
//! The original evaluator (kept as the test oracle in
//! `eval::oracle`) walked the expression tree per *cell*: every table
//! entry re-derived its flat index through [`EmbeddingTable::cell_env`]
//! and every shared subtree went through an `Rc<RefCell<HashMap>>`
//! memo. [`EvalEngine`] instead *compiles* the expression once:
//!
//! * **Plan lowering.** The tree is flattened into a DAG of plan
//!   nodes in children-first order, deduplicated by
//!   [`Expr::structural_hash`] — the same key the old memo used, so
//!   the architecture compilers' massive subtree sharing collapses
//!   identically. Executing the plan is a single in-order sweep.
//! * **Stride layout.** Each node owns a contiguous `f64` slab in the
//!   row-major layout of [`EmbeddingTable`] (variables ascending, last
//!   variable fastest). For every kernel input, the lowering
//!   precomputes one stride per *output* odometer digit — the flat
//!   offset is maintained incrementally as the odometer advances, so
//!   the hot loops never touch a hash map or recompute `Σ vⱼ·n^…`.
//! * **Contraction order.** Dense aggregation streams the innermost
//!   aggregated axis contiguously and accumulates straight into the
//!   output cell, in exactly the serial element order of the oracle
//!   (`Sum`/`Mean` add in inner-odometer order, `Max`/`Min` copy-first
//!   then fold), so results are bit-identical, not just close. The
//!   MPNN edge-guard fast path survives compilation as the
//!   [`Kind::AggNbr`] kernel: CSR neighbour iteration for any number
//!   of free variables, still gated by the DESIGN.md §6
//!   `guard_fast_path` ablation flag.
//! * **Row kernels.** `Apply` computes a row of cells per call — one
//!   `Func::apply_row` kernel per function, same operations in the
//!   same order per cell as [`Func::apply`] — and reads a dense
//!   `Concat` argument through its own arguments, so that `Concat` is
//!   written only when something else reads it (DESIGN.md §13).
//! * **Sum-products.** A `Sum`, or an unguarded `Mean`, over a product
//!   of 0/1 edge/equality atoms is one plan node, [`Kind::SumProduct`],
//!   over its atoms. Its [`SumProductStrategy`] is variable
//!   elimination over the atoms' sparse lists or, on cyclic shapes,
//!   the worst-case-optimal join over the graph's CSR, which reads no
//!   atom list (so an atom only the join reads never runs) and stops
//!   under a cap once its output passes it. Both compute the exact
//!   integer sums into one sparse output; a
//!   `Mean` then divides them by `n^|over|`, the dense kernel's one
//!   division. The only other sparse kernel is [`Kind::MulSparse`], a
//!   scalar product with a sparse factor; every other consumer reads a
//!   sparse table through its dense slab (DESIGN.md §7).
//! * **Scratch reuse.** Slabs come from a best-fit pool owned by the
//!   engine; re-evaluating the same expression shape (E9 probes each
//!   random expression on both graphs of a pair) hits the cached plan
//!   and touches no allocator at all. Pool misses are counted by the
//!   `eval.slab.allocs` gel-obs counter ([`eval_slab_allocs`]).
//!
//! Outer-assignment loops of `Apply`/`Aggregate` parallelize over
//! contiguous output-cell ranges (`rayon::par_parts_mut`) once a node
//! exceeds [`PAR_MIN_WORK`]; each range replays the identical serial
//! per-cell order, so tables are bit-identical at any thread count —
//! the same discipline as the matmul and WL-renaming kernels.

use std::collections::HashMap;

use gel_graph::{Graph, Vertex};
use gel_tensor::kernels::{gather_sum_into, gather_sum_scalar};

use crate::ast::{memo_shared, shared_addr, CmpOp, Expr};
use crate::eval::EvalOptions;
use crate::func::{Agg, Func, RowArg, ROW_CELLS};
use crate::sparse::{
    contract_sum, join_multiply, CoordList, CsrJoin, JoinAtom, JoinScratch, MAX_JOIN_VARS,
    MAX_WCO_FACTORS,
};
use crate::table::{EmbeddingTable, Var};

/// Slab-pool misses (the `eval.slab.allocs` counter) since the last
/// [`gel_obs::reset`]. Steady-state evaluations of a cached plan
/// perform none: the CI smoke gate (`gel-bench --bench eval --
/// --smoke`) asserts the counter stays flat across repeated calls.
pub fn eval_slab_allocs() -> u64 {
    SLAB_ALLOCS.get()
}

/// Plan lowerings (the `eval.plan.builds` counter) since the last
/// [`gel_obs::reset`]: the number of times any [`EvalEngine`] actually
/// lowered an expression into a fresh plan (a cached-plan hit does not
/// count). The `gel-serve` plan cache and its `--bench serve` smoke
/// gate use the delta of this counter to prove that warm-cache
/// requests never re-lower.
pub fn eval_plan_builds() -> u64 {
    PLAN_BUILDS.get()
}

/// The hash key under which an expression's plan is cached: the
/// structural hash computed with pointer memoization at
/// [`Expr::Shared`] boundaries, so hashing a shared DAG is linear in
/// its distinct nodes (a plain [`Expr::structural_hash`] would unfold
/// it). Equal subtrees — shared or physically copied — collide to the
/// same key, exactly as inside [`EvalEngine`]; external plan caches
/// (the `gel-serve` server) key persistent engines by this value.
pub fn expr_dag_hash(expr: &Expr) -> u64 {
    let mut memo = HashMap::new();
    dag_hash(expr, &mut memo)
}

static SLAB_ALLOCS: gel_obs::Counter = gel_obs::Counter::new("eval.slab.allocs");
static CALLS: gel_obs::Counter = gel_obs::Counter::new("eval.calls");
static PLAN_BUILDS: gel_obs::Counter = gel_obs::Counter::new("eval.plan.builds");
static PLAN_NODES: gel_obs::Counter = gel_obs::Counter::new("eval.plan.nodes");

/// Entries emitted by sparse node representations (coordinate lists;
/// the `eval.sparse.nnz` counter) since the last [`gel_obs::reset`].
pub fn eval_sparse_nnz() -> u64 {
    SPARSE_NNZ.get()
}

/// Times a sparse node had to scatter its entries into a dense slab
/// because some consumer (or the root) reads the dense layout (the
/// `eval.sparse.fallbacks` counter), since the last
/// [`gel_obs::reset`]. A sum-product is always sparse, so one read
/// densely counts once per evaluation; beyond that, a steadily
/// climbing count signals a plan whose representation choices fight
/// each other.
pub fn eval_dense_fallbacks() -> u64 {
    DENSE_FALLBACKS.get()
}

static SPARSE_NNZ: gel_obs::Counter = gel_obs::Counter::new("eval.sparse.nnz");
static DENSE_FALLBACKS: gel_obs::Counter = gel_obs::Counter::new("eval.sparse.fallbacks");

/// Sorted neighbour-slice intersections performed across all CSR joins
/// (the join's intersection work — the quantity the AGM bound caps; the
/// `eval.wco.seeks` counter) since the last [`gel_obs::reset`].
pub fn eval_wco_seeks() -> u64 {
    WCO_SEEKS.get()
}

/// Worst-case-optimal multiway joins executed ([`Kind::SumProduct`]
/// runs with the [`SumProductStrategy::Join`] strategy).
static WCO_JOINS: gel_obs::Counter = gel_obs::Counter::new("eval.wco.joins");
static WCO_SEEKS: gel_obs::Counter = gel_obs::Counter::new("eval.wco.seeks");

/// The per-kind execution census: `eval.kind.<Kind>.calls` and
/// `eval.kind.<Kind>.ns`, one slot per [`Kind`] variant. `run_plan`
/// reads the clock once per node boundary and flushes once per
/// evaluation.
macro_rules! kind_census {
    ($($k:ident),*) => {
        static KIND_CALLS: [gel_obs::Counter; KINDS] =
            [$(gel_obs::Counter::new(concat!("eval.kind.", stringify!($k), ".calls"))),*];
        static KIND_NS: [gel_obs::Counter; KINDS] =
            [$(gel_obs::Counter::new(concat!("eval.kind.", stringify!($k), ".ns"))),*];
        impl Kind {
            fn census_slot(&self) -> usize {
                enum Slot { $($k),* }
                match self { $(Kind::$k { .. } => Slot::$k as usize),* }
            }
        }
    };
}
const KINDS: usize = 11;
kind_census!(
    Label, LabelVec, Edge, CmpEq, CmpNe, Const, Apply, AggDense, AggNbr, MulSparse, SumProduct
);

/// Scatters a sparse node's entries into its dense slab — the
/// representation fallback when a dense consumer needs the table.
/// Absent entries become `+0.0` (see DESIGN.md §7 on the `±0`/`NaN`
/// caveat of eliding semantically-zero cells).
fn densify(sp: &CoordList, out: &mut [f64]) {
    out.fill(0.0);
    let d = sp.dim();
    for (i, &c) in sp.coords().iter().enumerate() {
        out[c * d..(c + 1) * d].copy_from_slice(sp.value(i));
    }
    DENSE_FALLBACKS.incr();
}

fn note_slab_alloc(len: usize) {
    if len > 0 {
        SLAB_ALLOCS.incr();
    }
}

/// Why lowering refused a plan ([`EvalEngine::try_eval`],
/// [`EvalEngine::try_eval_capped`]). Raised before any storage is
/// allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// A node needs a dense slab longer than the caller's cap, so
    /// evaluating would allocate (and fill) more dense storage than the
    /// caller is willing to pay for.
    TooDense {
        /// Length (elements) of the offending dense slab.
        len: usize,
        /// The caller's cap.
        cap: usize,
    },
    /// Some plan node would index a table whose cells cannot be keyed:
    /// `n^vars` cell ids (or their `dim`-wide elements) past `usize`,
    /// or a variable elimination joining more than [`MAX_JOIN_VARS`]
    /// variables.
    TooWide {
        /// Variables of the widest intermediate table.
        vars: usize,
        /// Vertex count of the graph.
        n: usize,
    },
    /// An eliminated sum-product's output bound (its `est_nnz`)
    /// exceeds the caller's cap, or a joined sum-product's output list
    /// grew past it.
    TooManyEntries {
        /// Upper bound on the output's entries (for a join, the entries
        /// it held when it stopped).
        bound: usize,
        /// The caller's cap.
        cap: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::TooDense { len, cap } => {
                write!(f, "plan needs a dense table of {len} cells, cap {cap}")
            }
            PlanError::TooWide { vars, n } => write!(
                f,
                "plan needs a {vars}-variable intermediate table over {n} vertices, \
                 past the cell-id range"
            ),
            PlanError::TooManyEntries { bound, cap } => {
                write!(f, "plan's sum-product may emit up to {bound} entries (cap {cap})")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// The cap pre-pass: every dense slab a node will own, and every
/// eliminated sum-product's output bound, must fit under the cap. A
/// joined sum-product stops once its list passes the cap; other sparse
/// lists are bounded only by their callers' result checks (DESIGN.md
/// §10).
fn check_cap(nodes: &[Node], cap: Option<usize>) -> Result<(), PlanError> {
    let Some(cap) = cap else { return Ok(()) };
    for nd in nodes {
        if nd.needs_dense && nd.len > cap {
            return Err(PlanError::TooDense { len: nd.len, cap });
        }
        let eliminated = matches!(
            nd.kind,
            Kind::SumProduct { strategy: SumProductStrategy::Eliminate { .. }, .. }
        );
        if eliminated && nd.est_nnz > cap {
            return Err(PlanError::TooManyEntries { bound: nd.est_nnz, cap });
        }
    }
    Ok(())
}

/// Minimum kernel work (output elements × inner iterations) before an
/// outer-assignment loop is split across rayon threads; below it the
/// dispatch overhead dominates.
const PAR_MIN_WORK: usize = 1 << 14;

/// The most arguments an `Apply` reads through folded `Concat`s.
const MAX_FOLDED_ARGS: usize = 64;

/// Zero strides for the guard-less aggregation path (a digit may never
/// index past 255 distinct `u8` variables).
static ZERO_STRIDES: [usize; 256] = [0; 256];

/// Best-fit recycler for node buffers: `take_cap` prefers the smallest
/// pooled buffer whose capacity fits (the first of equals), so
/// repeated plans of the same shapes reach a zero-allocation steady
/// state. Slabs (`f64`) and coordinate lists (`usize`) pool apart;
/// misses in either feed the [`eval_slab_allocs`] counter, so the CI
/// smoke gate covers sparse buffers too.
struct Pool<T> {
    bufs: Vec<Vec<T>>,
}

type SlabPool = Pool<f64>;
type IdxPool = Pool<usize>;

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self { bufs: Vec::new() }
    }
}

impl<T> Pool<T> {
    /// An empty buffer of capacity at least `cap`, for growable
    /// (sparse) storage.
    fn take_cap(&mut self, cap: usize) -> Vec<T> {
        let best = self
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= cap)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let mut b = match best {
            Some(i) => self.bufs.swap_remove(i),
            None => {
                note_slab_alloc(cap);
                Vec::with_capacity(cap)
            }
        };
        b.clear();
        b
    }

    fn put(&mut self, b: Vec<T>) {
        if b.capacity() > 0 {
            self.bufs.push(b);
        }
    }
}

impl SlabPool {
    /// A zeroed slab of exactly `len` elements.
    fn take(&mut self, len: usize) -> Vec<f64> {
        let mut s = self.take_cap(len);
        s.resize(len, 0.0);
        s
    }
}

/// Per-input addressing of a kernel operand: `strides[j]` is the flat
/// element offset the operand's slab moves by when output odometer
/// digit `j` increments.
struct ArgSpec {
    node: usize,
    dim: usize,
    strides: Vec<usize>,
}

/// Aggregation operand: strides split between the outer (free) and
/// inner (aggregated) odometers.
struct AccSpec {
    node: usize,
    outer_strides: Vec<usize>,
    inner_strides: Vec<usize>,
}

/// What a plan node computes. Leaves (`Label`, `LabelVec`, `Edge`,
/// `CmpEq`, `CmpNe`, `Const`) fill a table from the graph; `Apply`,
/// `AggDense` and `AggNbr` are the dense kernels every expression can
/// take. The rest are sparse: `MulSparse` multiplies with a sparse
/// factor, and `SumProduct` evaluates a `Sum` or unguarded `Mean` over
/// a product of 0/1 indicator atoms.
enum Kind {
    Label {
        j: usize,
    },
    LabelVec,
    Edge {
        flip: bool,
    },
    CmpEq,
    CmpNe,
    Const {
        values: Vec<f64>,
    },
    Apply {
        func: Func,
        args: Vec<ArgSpec>,
        d_in: usize,
    },
    AggDense {
        agg: Agg,
        value: AccSpec,
        guard: Option<AccSpec>,
        over_len: usize,
        inner_cells: usize,
    },
    AggNbr {
        agg: Agg,
        value: AccSpec,
        x_pos: usize,
        y_stride: usize,
        outgoing: bool,
    },
    /// Scalar `Func::Mul` with at least one sparse operand: iterate the
    /// driver's entries (expanded over the output variables it does not
    /// bind), probe the remaining operands, emit a sparse product. The
    /// only kernel that keeps a wide product with a non-indicator factor
    /// (`E(x1, x2) · lab0(x1)`) sparse, so a capped evaluation can admit
    /// it.
    MulSparse {
        func: Func,
        args: Vec<MulArg>,
        driver: usize,
        /// Output digit index of each driver coordinate digit.
        driver_pos: Vec<usize>,
        /// Output digit indices the driver does not bind.
        expand_pos: Vec<usize>,
    },
    /// `Sum` or unguarded `Mean` over a pure product of edge/equality
    /// indicators, evaluated by `strategy` into a sparse output instead
    /// of a dense `n^k` sweep. Exact: 0/1 factors make every partial sum
    /// an integer, so reassociating the sum cannot change the float; a
    /// `Mean` then divides that sum once, as the dense kernel does.
    SumProduct {
        strategy: SumProductStrategy,
        /// Number of aggregated variables in no factor — each multiplies
        /// the (integer) result by `n`, exactly.
        free_over: u32,
        /// `Some(n^|over|)` for a `Mean`: the divisor of the exact sum.
        mean_div: Option<f64>,
    },
}

/// How a [`Kind::SumProduct`] contracts its factors.
enum SumProductStrategy {
    /// FAQ-style variable elimination in min-degree order (paper slide
    /// 70) over the factor nodes' sparse lists: join the factors
    /// holding each variable, sum it out.
    Eliminate { factors: Vec<usize>, factor_vars: Vec<Vec<Var>>, order: Vec<Var> },
    /// The worst-case-optimal join for *cyclic* products, run over the
    /// graph's CSR ([`CsrJoin`]): every factor is intersected per
    /// variable of one AGM-aware order (free variables ascending, then
    /// [`gel_graph::elim::wco_order_masked`]'s), so no binary-join
    /// intermediate can exceed the output size (triangles, k-cycles,
    /// k-cliques). It reads the graph handed to exec and no factor node.
    Join(CsrJoin),
}

/// One operand of [`Kind::MulSparse`], gathered in expression order so
/// the packed input row is identical to the dense `Apply` kernel's.
struct MulArg {
    node: usize,
    dim: usize,
    sparse: bool,
    strides: Vec<usize>,
}

struct Node {
    vars: Vec<Var>,
    dim: usize,
    len: usize,
    data: Vec<f64>,
    /// Sparse entries (when `sparse`); like `data`, allocation is
    /// deferred to the post-lowering representation pass.
    sp: CoordList,
    kind: Kind,
    /// The node emits a sparse (coordinate-list) representation.
    sparse: bool,
    /// Some consumer — or the root — reads the dense slab. A dense node
    /// without it (a folded `Concat`) gets no slab and never runs.
    needs_dense: bool,
    /// Some consumer reads the sparse entries.
    sparse_used: bool,
    /// Lowering-time nonzero estimate; sizes the pooled buffers. Exact
    /// for atoms, and a sound bound for a sum-product (`check_cap`
    /// relies on it); `MulSparse`'s may undershoot.
    est_nnz: usize,
}

/// Reused serial-path scratch (the parallel path gives each chunk its
/// own small locals instead of sharing these across threads).
#[derive(Default)]
struct ExecScratch {
    input: Vec<f64>,
    result: Vec<f64>,
    digits: Vec<usize>,
    inner_digits: Vec<usize>,
    bounds: Vec<usize>,
    /// Sorted-merge-join scratch shared by every sparse kernel.
    join: JoinScratch,
    /// Sum-product factor arena ([`Kind::SumProduct`]): one slot per
    /// factor, plus ping-pong lists for join/contract outputs. All
    /// capacities persist across evaluations, so the warmed path makes
    /// no allocations.
    arena: Vec<CoordList>,
    avars: Vec<Vec<Var>>,
    alive: Vec<bool>,
    with_v: Vec<usize>,
    tmp: CoordList,
    tmp_vars: Vec<Var>,
    tmp2: CoordList,
    tmp2_vars: Vec<Var>,
}

/// Plan-cache identity: the expression's DAG hash and the graph shape
/// (`n`, `label_dim`). An engine's [`EvalOptions`] are fixed at
/// [`EvalEngine::with_options`], so they need no place in the key.
type PlanCacheKey = (u64, usize, usize);

/// The compiled evaluation engine. Owns the lowered plan, every
/// intermediate slab, and the output table; repeated [`Self::eval`]
/// calls on the same expression/graph shape reuse all of them, making
/// steady-state evaluation allocation-free (see [`eval_slab_allocs`]).
///
/// The free functions [`crate::eval::eval`] / [`crate::eval::eval_with`]
/// build a throwaway engine per call; hot loops that evaluate many
/// expressions (the E4/E9 probe harnesses, benchmarks) hold one engine
/// per graph and call [`Self::eval`] for a borrowed result.
pub struct EvalEngine {
    opts: EvalOptions,
    n: usize,
    nodes: Vec<Node>,
    node_of: HashMap<u64, usize>,
    root: usize,
    cache_key: Option<PlanCacheKey>,
    /// The current plan's root emits (and the table keeps) a sparse
    /// coordinate list instead of the dense slab
    /// ([`EvalOptions::sparse_output`]).
    root_sparse: bool,
    root_table: EmbeddingTable,
    /// Set by lowering when an elimination cannot be keyed.
    too_wide: Option<PlanError>,
    pool: SlabPool,
    idx_pool: IdxPool,
    scratch: ExecScratch,
    /// Structural hashes of [`Expr::Shared`] nodes, keyed by `Arc`
    /// target address (`usize`, not a raw pointer, so the engine stays
    /// `Send` and can move between server worker threads). Refilled
    /// per call (addresses may be reused across expressions); keeps
    /// hashing a shared DAG linear in its distinct nodes. The map
    /// retains its capacity, so steady-state refills don't allocate.
    hash_memo: HashMap<usize, u64>,
}

impl Default for EvalEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalEngine {
    /// An engine with default [`EvalOptions`].
    pub fn new() -> Self {
        Self::with_options(EvalOptions::default())
    }

    /// An engine with explicit options (ablations).
    pub fn with_options(opts: EvalOptions) -> Self {
        Self {
            opts,
            n: 0,
            nodes: Vec::new(),
            node_of: HashMap::new(),
            root: 0,
            cache_key: None,
            root_sparse: false,
            root_table: EmbeddingTable::placeholder(),
            too_wide: None,
            pool: SlabPool::default(),
            idx_pool: IdxPool::default(),
            scratch: ExecScratch::default(),
            hash_memo: HashMap::new(),
        }
    }

    /// Number of nodes in the current plan (0 before the first call).
    /// Equal subtrees share a node, exactly as the old memo shared
    /// tables.
    pub fn plan_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Evaluates `expr` on `g`, returning a borrow of the engine-owned
    /// result table. Calling again with the same expression shape
    /// (same [`Expr::structural_hash`], vertex count and label
    /// dimension) reuses the cached plan and performs zero heap
    /// allocations.
    ///
    /// # Panics
    /// Panics on ill-typed expressions and out-of-range label atoms,
    /// like [`crate::eval::eval`] — run
    /// [`crate::eval::check_against_graph`] first for untrusted input —
    /// and on plans [`Self::try_eval`] rejects.
    pub fn eval(&mut self, expr: &Expr, g: &Graph) -> &EmbeddingTable {
        self.try_eval(expr, g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::eval`], but fails — before allocating any storage — when
    /// the plan's variable elimination needs a table too wide to key
    /// (a sum-product of induced width `w` joins `w + 1` variables).
    pub fn try_eval(&mut self, expr: &Expr, g: &Graph) -> Result<&EmbeddingTable, PlanError> {
        CALLS.incr();
        self.ensure_plan_capped(expr, g, None)?;
        self.run_plan(g, usize::MAX)
    }

    /// Like [`Self::eval`], but fails — *before* lowering allocates any
    /// storage — when some plan node needs a dense slab larger than
    /// `cap` elements, or an eliminated sum-product may emit more than
    /// `cap` entries. With [`EvalOptions::sparse_output`] set, plans
    /// whose root (and intermediates) stay sparse evaluate under a cap
    /// far below `n^width · dim`; the `gel-serve` layer uses this to
    /// admit large-n/low-nnz queries its dense size precheck rejects.
    /// Plans [`Self::try_eval`] rejects fail here too.
    pub fn try_eval_capped(
        &mut self,
        expr: &Expr,
        g: &Graph,
        cap: usize,
    ) -> Result<&EmbeddingTable, PlanError> {
        CALLS.incr();
        self.ensure_plan_capped(expr, g, Some(cap))?;
        self.run_plan(g, cap)
    }

    /// Executes the current plan (the exec sweep shared by [`Self::eval`]
    /// and [`Self::try_eval_capped`]). A joined sum-product whose list
    /// passes `cap` stops the sweep; the engine keeps every buffer, so
    /// the next call runs as if this one never had.
    fn run_plan(&mut self, g: &Graph, cap: usize) -> Result<&EmbeddingTable, PlanError> {
        let _sp = gel_obs::span("eval.exec");
        if !self.root_sparse {
            let root_len = self.nodes[self.root].len;
            let mut root_data = self.root_table.take_data();
            if root_data.len() != root_len {
                // The previous result was moved out by `eval_owned`.
                self.pool.put(root_data);
                root_data = self.pool.take(root_len);
            }
            self.nodes[self.root].data = root_data;
        }
        let mut census = [(0u64, 0u64); KINDS];
        let mut t0 = std::time::Instant::now();
        for i in 0..self.nodes.len() {
            if !self.nodes[i].needs_dense && !self.nodes[i].sparse_used {
                continue; // a `Concat` every consumer reads through
            }
            let mut data = std::mem::take(&mut self.nodes[i].data);
            let mut sp = std::mem::take(&mut self.nodes[i].sp);
            let run =
                exec_node(&self.nodes, i, &mut data, &mut sp, g, self.n, cap, &mut self.scratch);
            self.nodes[i].data = data;
            self.nodes[i].sp = sp;
            if let Err(e) = run {
                if !self.root_sparse {
                    self.root_table.set_data(std::mem::take(&mut self.nodes[self.root].data));
                }
                return Err(e);
            }
            let t1 = std::time::Instant::now();
            let slot = &mut census[self.nodes[i].kind.census_slot()];
            *slot = (slot.0 + 1, slot.1 + (t1 - t0).as_nanos() as u64);
            t0 = t1;
        }
        for (k, &(calls, ns)) in census.iter().enumerate() {
            KIND_CALLS[k].add(calls);
            KIND_NS[k].add(ns);
        }
        if self.root_sparse {
            // Copy the root's coordinate list into the table's
            // persistent buffers (capacities survive across calls, so
            // the warmed path allocates nothing).
            let rsp = &self.nodes[self.root].sp;
            let (mut coords, mut vals) = self.root_table.take_storage();
            coords.clear();
            vals.clear();
            coords.extend_from_slice(rsp.coords());
            vals.extend_from_slice(rsp.values());
            self.root_table.set_sparse(coords, vals);
        } else {
            self.root_table.set_data(std::mem::take(&mut self.nodes[self.root].data));
        }
        Ok(&self.root_table)
    }

    /// [`Self::eval`], but moves the result out of the engine. The
    /// next call re-acquires a root slab from the pool; use the
    /// borrowing variant on zero-allocation hot paths.
    pub fn eval_owned(&mut self, expr: &Expr, g: &Graph) -> EmbeddingTable {
        self.try_eval_owned(expr, g).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::eval_owned`], but fails on the plans [`Self::try_eval`]
    /// rejects.
    pub fn try_eval_owned(&mut self, expr: &Expr, g: &Graph) -> Result<EmbeddingTable, PlanError> {
        self.try_eval(expr, g)?;
        if self.root_table.is_sparse() {
            // Swap in an empty shell of the same shape so a later
            // cached-plan call still finds matching vars/dim.
            let shell = EmbeddingTable::from_sparse_parts(
                self.root_table.vars().to_vec(),
                self.root_table.dim(),
                self.n,
                Vec::new(),
                Vec::new(),
            );
            return Ok(std::mem::replace(&mut self.root_table, shell));
        }
        let vars = self.root_table.vars().to_vec();
        let dim = self.root_table.dim();
        let data = self.root_table.take_data();
        Ok(EmbeddingTable::from_parts(vars, dim, self.n, data))
    }

    /// Lowers a fresh plan unless the cached one already matches
    /// `(expr, g)`'s shape. Errors *before any storage is allocated*
    /// when an elimination is too wide to key or, given a `cap`, when
    /// some node needs a dense slab longer than it. On error the engine
    /// keeps no cached key — the half-lowered plan skeleton (no buffers
    /// attached) is recycled by the next lowering.
    fn ensure_plan_capped(
        &mut self,
        expr: &Expr,
        g: &Graph,
        cap: Option<usize>,
    ) -> Result<(), PlanError> {
        // Hash with a pointer memo at `Shared` boundaries — a naive
        // `structural_hash` would unfold the DAG.
        self.hash_memo.clear();
        let root_hash = dag_hash(expr, &mut self.hash_memo);
        let key = (root_hash, g.num_vertices(), g.label_dim());
        if self.cache_key == Some(key) {
            // The cap is not part of the cache key: re-verify it
            // against the cached plan's dense slabs (cheap — node
            // counts are small).
            return check_cap(&self.nodes, cap);
        }
        let _sp = gel_obs::span("eval.lower");
        self.cache_key = None;
        // Recycle every buffer of the outgoing plan before lowering.
        for node in self.nodes.drain(..) {
            self.pool.put(node.data);
            let (coords, vals) = node.sp.into_parts();
            self.idx_pool.put(coords);
            self.pool.put(vals);
        }
        let (rcoords, rdata) = self.root_table.take_storage();
        self.idx_pool.put(rcoords);
        self.pool.put(rdata);
        self.root_table = EmbeddingTable::placeholder();
        self.node_of.clear();
        self.n = g.num_vertices();
        self.too_wide = None;
        self.root = self.lower(expr, g).0;
        if let Some(e) = self.too_wide {
            return Err(e);
        }
        // Representation fixup. The root must exist densely — unless
        // `sparse_output` lets an already-sparse root skip the final
        // densify; a sparse atom nothing ever reads sparsely downgrades
        // to its (cheap) dense kernel instead of paying an
        // emit-then-scatter fallback.
        self.root_sparse = self.opts.sparse_output && self.nodes[self.root].sparse;
        if self.root_sparse {
            self.nodes[self.root].sparse_used = true;
        } else {
            self.nodes[self.root].needs_dense = true;
        }
        for i in 0..self.nodes.len() {
            let downgrade = {
                let nd = &self.nodes[i];
                nd.sparse && !nd.sparse_used && matches!(nd.kind, Kind::Edge { .. } | Kind::CmpEq)
            };
            if downgrade {
                self.nodes[i].sparse = false;
            }
        }
        // Dense-slab cap check *before* the deferred buffer allocation:
        // nothing has been allocated yet, so an error leaves only the
        // recyclable plan skeleton behind.
        check_cap(&self.nodes, cap)?;
        // Sparse lists reserve their bound, at most the cap (the bound
        // can dwarf the real output), and grow on demand.
        let reserve =
            |nd: &Node| nd.est_nnz.max(1).min(nd.len.max(1)).min(cap.unwrap_or(usize::MAX).max(1));
        for i in 0..self.nodes.len() {
            let (len, dim, sparse, needs_dense, entries) = {
                let nd = &self.nodes[i];
                (nd.len, nd.dim, nd.sparse, nd.needs_dense, reserve(nd))
            };
            if needs_dense {
                self.nodes[i].data = self.pool.take(len);
            }
            if sparse {
                let coords = self.idx_pool.take_cap(entries);
                let vals = self.pool.take_cap(entries * dim.max(1));
                self.nodes[i].sp = CoordList::with_buffers(dim, coords, vals);
            }
        }
        if self.root_sparse {
            let root = &self.nodes[self.root];
            let entries = reserve(root);
            let coords = self.idx_pool.take_cap(entries);
            let vals = self.pool.take_cap(entries * root.dim.max(1));
            self.root_table = EmbeddingTable::from_sparse_parts(
                root.vars.clone(),
                root.dim,
                self.n,
                coords,
                vals,
            );
        } else {
            let root = &mut self.nodes[self.root];
            let data = std::mem::take(&mut root.data);
            self.root_table = EmbeddingTable::from_parts(root.vars.clone(), root.dim, self.n, data);
        }
        // Size the shared serial-path scratch once per plan.
        let mut max_p = 0;
        let mut max_q = 0;
        for node in &self.nodes {
            max_p = max_p.max(node.vars.len());
            match &node.kind {
                Kind::AggDense { over_len, .. } => max_q = max_q.max(*over_len),
                Kind::MulSparse { driver_pos, .. } => max_q = max_q.max(driver_pos.len()),
                _ => {}
            }
        }
        self.scratch.digits.resize(max_p, 0);
        self.scratch.inner_digits.resize(max_q, 0);
        self.cache_key = Some(key);
        PLAN_BUILDS.incr();
        PLAN_NODES.add(self.nodes.len() as u64);
        Ok(())
    }

    /// Recursively lowers `expr`, returning its node index and its
    /// [`Expr::structural_hash`]. Nodes are pushed children-first, so
    /// an in-order sweep executes the DAG. The hash is folded bottom-up
    /// from child hashes during this same walk ([`Expr::hash_header`]):
    /// the WL-simulation expressions physically embed copies of each
    /// round, so calling `structural_hash` per visited node — as the
    /// old memoizing interpreter did — rehashes every subtree and costs
    /// quadratic time, which dominated end-to-end evaluation.
    fn lower(&mut self, expr: &Expr, g: &Graph) -> (usize, u64) {
        if let Expr::Shared(rc) = expr {
            // `ensure_plan` hashed the whole DAG, so this is a lookup;
            // a hash hit skips the subtree entirely — shared rounds
            // lower exactly once.
            let h = dag_hash(expr, &mut self.hash_memo);
            if let Some(&i) = self.node_of.get(&h) {
                return (i, h);
            }
            return self.lower(rc, g);
        }
        if let Expr::Aggregate { agg, over, value, guard } = expr {
            return self.lower_aggregate(
                g,
                *agg,
                over,
                value,
                guard.as_deref(),
                expr.hash_header(),
            );
        }
        if let Expr::Apply { func, args } = expr {
            let mut key = expr.hash_header();
            let arg_nodes: Vec<usize> = args
                .iter()
                .map(|a| {
                    let (i, h) = self.lower(a, g);
                    key = crate::ast::hash_mix(key, h);
                    i
                })
                .collect();
            if let Some(&i) = self.node_of.get(&key) {
                return (i, key);
            }
            let mut vars: Vec<Var> =
                arg_nodes.iter().flat_map(|&i| self.nodes[i].vars.iter().copied()).collect();
            vars.sort_unstable();
            vars.dedup();
            let d_in: usize = arg_nodes.iter().map(|&i| self.nodes[i].dim).sum();
            let d_out = func.out_dim(d_in).expect("ill-typed Apply");
            // Sparse product: a scalar Mul with sparse operands stays
            // sparse — the cheapest sparse operand to expand drives,
            // the rest are probed (dense gather or binary search).
            if matches!(func, Func::Mul { dim: 1, .. }) {
                // An overflow saturates here; `make_node` reports it.
                let cells = self.n.checked_pow(vars.len() as u32).unwrap_or(usize::MAX);
                // Driver choice: cheapest expansion bound, which for a
                // fixed output scope is the same ordering as lowest
                // factor density.
                let mut best: Option<(usize, usize)> = None;
                let mut density_product = 1.0f64;
                for (ai, &i) in arg_nodes.iter().enumerate() {
                    if !self.nodes[i].sparse {
                        // Dense factors are probed, not expanded; with
                        // no nnz statistic they count as density 1.
                        continue;
                    }
                    let missing = (vars.len() - self.nodes[i].vars.len()) as u32;
                    let bound =
                        self.n.saturating_pow(missing).saturating_mul(self.nodes[i].est_nnz);
                    density_product *= self.node_density(i);
                    if best.is_none_or(|(be, _)| bound < be) {
                        best = Some((bound, ai));
                    }
                }
                if let Some((bound, driver)) = best {
                    // Output-nnz estimate under factor independence:
                    // |out| ≈ cells · Π densᵢ. Each density comes from
                    // the factors' own statistics — for `Edge` leaves
                    // that is the graph's arc count (the same `m/n²`
                    // a store segment header reports without touching
                    // adjacency). The driver's expansion bound caps
                    // the estimate: the kernel can never emit more
                    // coordinates than the driver expands to.
                    let est = ((cells as f64) * density_product).ceil() as usize;
                    // Cyclic Mul chains make the independence product
                    // overshoot (it counts each shared variable's
                    // selectivity once per factor pair); the AGM
                    // fractional-cover bound over the sparse factors is
                    // a hard output cap, so take the minimum. Variables
                    // bound only by dense (probed) operands contribute
                    // a full factor `n` each.
                    let sparse_args = arg_nodes.iter().filter(|&&i| self.nodes[i].sparse);
                    let est = est.min(self.agm_nnz(
                        &vars,
                        sparse_args.map(|&i| (&self.nodes[i].vars[..], self.nodes[i].est_nnz)),
                    ));
                    let est = est.clamp(1, bound.max(1));
                    if self.sparse_ok(cells, est) {
                        for &i in &arg_nodes {
                            if self.nodes[i].sparse {
                                self.nodes[i].sparse_used = true;
                            } else {
                                self.nodes[i].needs_dense = true;
                            }
                        }
                        let specs: Vec<MulArg> = arg_nodes
                            .iter()
                            .map(|&i| MulArg {
                                node: i,
                                dim: self.nodes[i].dim,
                                sparse: self.nodes[i].sparse,
                                strides: strides_for(
                                    &self.nodes[i].vars,
                                    self.nodes[i].dim,
                                    &vars,
                                    self.n,
                                ),
                            })
                            .collect();
                        let dvars = &self.nodes[arg_nodes[driver]].vars;
                        let driver_pos: Vec<usize> = dvars
                            .iter()
                            .map(|v| vars.iter().position(|u| u == v).expect("driver var free"))
                            .collect();
                        let expand_pos: Vec<usize> =
                            (0..vars.len()).filter(|i| !dvars.contains(&vars[*i])).collect();
                        let mut node = self.make_node(
                            vars,
                            d_out,
                            Kind::MulSparse {
                                func: func.clone(),
                                args: specs,
                                driver,
                                driver_pos,
                                expand_pos,
                            },
                        );
                        node.sparse = true;
                        node.est_nnz = est;
                        return (self.push_node(node, key), key);
                    }
                }
            }
            // Every `Func` reads the concatenation of its arguments, so a
            // dense `Concat` argument is read through its own arguments:
            // the same bits, and no concatenated slab unless some other
            // consumer (or the root) reads it. Up to `MAX_FOLDED_ARGS`
            // inputs, so a doubling `Concat` DAG stays a linear plan.
            let mut inputs = Vec::with_capacity(arg_nodes.len());
            for (k, &i) in arg_nodes.iter().enumerate() {
                match &self.nodes[i].kind {
                    Kind::Apply { func: Func::Concat, args, .. }
                        if inputs.len() + args.len() + arg_nodes.len() - k - 1
                            <= MAX_FOLDED_ARGS =>
                    {
                        inputs.extend(args.iter().map(|a| a.node))
                    }
                    _ => inputs.push(i),
                }
            }
            for &i in &inputs {
                self.nodes[i].needs_dense = true;
            }
            let specs = inputs
                .iter()
                .map(|&i| ArgSpec {
                    node: i,
                    dim: self.nodes[i].dim,
                    strides: strides_for(&self.nodes[i].vars, self.nodes[i].dim, &vars, self.n),
                })
                .collect();
            let node =
                self.make_node(vars, d_out, Kind::Apply { func: func.clone(), args: specs, d_in });
            return (self.push_node(node, key), key);
        }
        // Leaves: the header is the full structural hash.
        let key = expr.hash_header();
        if let Some(&i) = self.node_of.get(&key) {
            return (i, key);
        }
        let node = match expr {
            Expr::Label { j, var } => {
                assert!(
                    *j < g.label_dim(),
                    "label component {j} out of range (dim {})",
                    g.label_dim()
                );
                self.make_node(vec![*var], 1, Kind::Label { j: *j })
            }
            Expr::LabelVec { var, dim } => {
                assert_eq!(
                    *dim,
                    g.label_dim(),
                    "LabelVec dimension does not match the graph's label dimension"
                );
                self.make_node(vec![*var], *dim, Kind::LabelVec)
            }
            Expr::Edge { from, to } => {
                let mut vars = vec![*from, *to];
                vars.sort_unstable();
                let flip = vars[0] != *from;
                let mut node = self.make_node(vars, 1, Kind::Edge { flip });
                node.est_nnz = g.num_arcs();
                node.sparse = self.sparse_ok(node.len, node.est_nnz);
                node
            }
            Expr::Cmp { a, op, b } => {
                let mut vars = vec![*a, *b];
                vars.sort_unstable();
                let kind = match op {
                    CmpOp::Eq => Kind::CmpEq,
                    CmpOp::Ne => Kind::CmpNe,
                };
                let mut node = self.make_node(vars, 1, kind);
                if matches!(op, CmpOp::Eq) {
                    // The diagonal: n of n² cells.
                    node.est_nnz = self.n;
                    node.sparse = self.sparse_ok(node.len, node.est_nnz);
                }
                node
            }
            Expr::Const { values } => {
                self.make_node(Vec::new(), values.len(), Kind::Const { values: values.clone() })
            }
            Expr::Apply { .. } | Expr::Aggregate { .. } | Expr::Shared(_) => {
                unreachable!("handled above")
            }
        };
        (self.push_node(node, key), key)
    }

    fn push_node(&mut self, node: Node, key: u64) -> usize {
        let i = self.nodes.len();
        self.nodes.push(node);
        self.node_of.insert(key, i);
        i
    }

    fn lower_aggregate(
        &mut self,
        g: &Graph,
        agg: Agg,
        over: &[Var],
        value: &Expr,
        guard: Option<&Expr>,
        header: u64,
    ) -> (usize, u64) {
        let n = self.n;

        // Fast path: single aggregation variable with an edge guard
        // anchored at a free variable — the MPNN neighbourhood shape
        // (DESIGN.md §6 ablation; same detection as the oracle).
        if self.opts.guard_fast_path && over.len() == 1 {
            if let Some(ge @ Expr::Edge { from, to }) = guard {
                let y = over[0];
                let anchor = if *to == y { Some((*from, true)) } else { None }.or(if *from == y {
                    Some((*to, false))
                } else {
                    None
                });
                if let Some((x, outgoing)) = anchor {
                    if x != y {
                        let (vi, vh) = self.lower(value, g);
                        self.nodes[vi].needs_dense = true;
                        // The guard is an `Edge` leaf, so its header is
                        // its full structural hash.
                        let key = crate::ast::hash_mix(
                            crate::ast::hash_mix(header, vh),
                            ge.hash_header(),
                        );
                        if let Some(&i) = self.node_of.get(&key) {
                            return (i, key);
                        }
                        let vnode = &self.nodes[vi];
                        let dim = vnode.dim;
                        let mut out_vars: Vec<Var> =
                            vnode.vars.iter().copied().filter(|&v| v != y).collect();
                        if !out_vars.contains(&x) {
                            out_vars.push(x);
                            out_vars.sort_unstable();
                        }
                        let value = AccSpec {
                            node: vi,
                            outer_strides: strides_for(&vnode.vars, dim, &out_vars, n),
                            inner_strides: Vec::new(),
                        };
                        let y_stride = strides_for(&vnode.vars, dim, &[y], n)[0];
                        let x_pos = out_vars.iter().position(|&v| v == x).expect("x is free");
                        let node = self.make_node(
                            out_vars,
                            dim,
                            Kind::AggNbr { agg, value, x_pos, y_stride, outgoing },
                        );
                        return (self.push_node(node, key), key);
                    }
                }
            }
        }

        // FAQ-style variable elimination: a `Sum` whose value (and
        // guard, if any) decomposes into a product of 0/1 edge/equality
        // indicators is a sum-product query — contract the aggregated
        // variables in min-degree order over sparse factors instead of
        // sweeping the dense `n^k` cross product (paper slide 70). An
        // unguarded `Mean` is the same sum divided by the dense
        // kernel's count, `n^|over|`; a guarded one counts the passing
        // cells instead, which no sum-product computes. An outer `None`
        // keeps the dense kernels (and their overflow check on
        // `n^|over|`).
        let mean_div = match (agg, guard) {
            (Agg::Mean, None) => n.checked_pow(over.len() as u32).map(|c| Some(c as f64)),
            (Agg::Sum, _) => Some(None),
            _ => None,
        };
        if let (Some(mean_div), false) = (mean_div, over.is_empty()) {
            let mut atoms: Vec<&Expr> = Vec::new();
            let seen = &mut HashMap::new();
            let ok = collect_indicator_atoms(value, &mut atoms, seen)
                && guard.is_none_or(|g0| collect_indicator_atoms(g0, &mut atoms, seen));
            if ok && !atoms.is_empty() {
                let mut all: Vec<Var> =
                    atoms.iter().flat_map(|a| atom_vars(a)).chain(over.iter().copied()).collect();
                all.sort_unstable();
                all.dedup();
                let cells = n.checked_pow(all.len() as u32).unwrap_or(usize::MAX);
                if cells >= self.opts.sparse_min_cells {
                    let vh = dag_hash(value, &mut self.hash_memo);
                    let mut key = crate::ast::hash_mix(header, vh);
                    if let Some(g0) = guard {
                        key = crate::ast::hash_mix(key, dag_hash(g0, &mut self.hash_memo));
                    }
                    if let Some(&i) = self.node_of.get(&key) {
                        return (i, key);
                    }
                    let mut factors = Vec::with_capacity(atoms.len());
                    let mut factor_vars = Vec::with_capacity(atoms.len());
                    for a in &atoms {
                        let (fi, _) = self.lower(a, g);
                        factors.push(fi);
                        factor_vars.push(self.nodes[fi].vars.clone());
                    }
                    let scopes: Vec<Vec<u32>> =
                        factor_vars.iter().map(|fv| scope_in(fv, &all)).collect();
                    let eliminable: Vec<bool> = all.iter().map(|v| over.contains(v)).collect();
                    let (order_ids, width) =
                        gel_graph::elim::min_degree_order_masked(all.len(), &scopes, &eliminable);
                    let in_factor = |v: &Var| factor_vars.iter().any(|fv| fv.contains(v));
                    let free_over =
                        all.iter().filter(|v| over.contains(v) && !in_factor(v)).count() as u32;
                    let out_vars: Vec<Var> =
                        all.iter().copied().filter(|v| !over.contains(v)).collect();
                    // Every output entry extends to a join tuple: the
                    // AGM bound over the factors' projections onto the
                    // free variables is a sound output bound (a path
                    // summed at one end: `m`, not the full join's `m²`).
                    let est = self.agm_nnz(
                        &out_vars,
                        factors
                            .iter()
                            .map(|&fi| (&self.nodes[fi].vars[..], self.nodes[fi].est_nnz)),
                    );
                    // Cyclic residual (induced width ≥ 2): binary
                    // merge-joins materialize intermediates that can
                    // exceed the output (triangles, 4-cycles,
                    // k-cliques), so take the worst-case-optimal
                    // multiway join instead — its work is capped by the
                    // AGM fractional-cover bound, about `m^ρ*`. Only
                    // while `ρ* ≤ w`, though: elimination is bounded by
                    // the order's width, and on long cycles (C5: ρ* =
                    // 2.5, C6: 3, both w = 2) the join would enumerate
                    // every walk. Free variables lead the order
                    // ascending so output entries emerge in dense
                    // layout order; aggregated variables follow in
                    // cheapest-incident-factor-first order.
                    let strategy = if self.opts.wco
                        && width >= 2
                        && factors.len() <= MAX_WCO_FACTORS
                        && fractional_cover_number(all.len(), &scopes) <= width as f64
                    {
                        let sizes: Vec<f64> =
                            factors.iter().map(|&fi| self.nodes[fi].est_nnz as f64).collect();
                        let elim_ids = gel_graph::elim::wco_order_masked(
                            all.len(),
                            &scopes,
                            &sizes,
                            &eliminable,
                        );
                        // Aggregated variables in no factor stay out of
                        // the join order — they are the exact
                        // `n^free_over` multiplier. The join reads the
                        // CSR, so its atoms build no list: nothing
                        // else reading them, they do not run.
                        let mut order: Vec<Var> = out_vars.clone();
                        order.extend(elim_ids.iter().map(|&i| all[i as usize]).filter(in_factor));
                        let join_atoms: Vec<JoinAtom> = atoms
                            .iter()
                            .map(|a| match atom_vars(a) {
                                [from, to] if matches!(a, Expr::Edge { .. }) => {
                                    JoinAtom::Arc { from, to }
                                }
                                [x, y] => JoinAtom::Eq(x, y),
                            })
                            .collect();
                        SumProductStrategy::Join(CsrJoin::new(&join_atoms, &order, out_vars.len()))
                    } else {
                        // Eliminating a variable joins it with its (at
                        // most `width`) neighbours.
                        if width >= MAX_JOIN_VARS || n.checked_pow(width as u32 + 1).is_none() {
                            self.too_wide.get_or_insert(PlanError::TooWide { vars: width + 1, n });
                        }
                        for &fi in &factors {
                            self.nodes[fi].sparse = true;
                            self.nodes[fi].sparse_used = true;
                        }
                        let order = order_ids.iter().map(|&i| all[i as usize]).collect();
                        SumProductStrategy::Eliminate { factors, factor_vars, order }
                    };
                    let out_cells = n.checked_pow(out_vars.len() as u32).unwrap_or(usize::MAX);
                    let mut node = self.make_node(
                        out_vars,
                        1,
                        Kind::SumProduct { strategy, free_over, mean_div },
                    );
                    node.sparse = true;
                    node.est_nnz = est.clamp(1, out_cells.max(1));
                    return (self.push_node(node, key), key);
                }
            }
        }

        let (vi, vh) = self.lower(value, g);
        let mut key = crate::ast::hash_mix(header, vh);
        let gi = guard.map(|ge| {
            let (i, h) = self.lower(ge, g);
            key = crate::ast::hash_mix(key, h);
            i
        });
        if let Some(&i) = self.node_of.get(&key) {
            return (i, key);
        }
        // Output variables: (value ∪ guard vars) \ over.
        let mut all: Vec<Var> = self.nodes[vi].vars.clone();
        if let Some(gi) = gi {
            all.extend_from_slice(&self.nodes[gi].vars);
        }
        all.sort_unstable();
        all.dedup();
        let out_vars: Vec<Var> = all.iter().copied().filter(|v| !over.contains(v)).collect();
        let over_sorted: Vec<Var> = {
            let mut o = over.to_vec();
            o.sort_unstable();
            o
        };
        let dim = self.nodes[vi].dim;

        self.nodes[vi].needs_dense = true;
        if let Some(gi) = gi {
            self.nodes[gi].needs_dense = true;
        }
        let value_spec = AccSpec {
            node: vi,
            outer_strides: strides_for(&self.nodes[vi].vars, dim, &out_vars, n),
            inner_strides: strides_for(&self.nodes[vi].vars, dim, &over_sorted, n),
        };
        let guard_spec = gi.map(|gi| AccSpec {
            node: gi,
            outer_strides: strides_for(&self.nodes[gi].vars, self.nodes[gi].dim, &out_vars, n),
            inner_strides: strides_for(&self.nodes[gi].vars, self.nodes[gi].dim, &over_sorted, n),
        });
        let inner_cells = self.checked_len(over_sorted.len(), 1).unwrap_or(0);
        assert!(over_sorted.len() <= ZERO_STRIDES.len(), "too many aggregated variables");
        let node = self.make_node(
            out_vars,
            dim,
            Kind::AggDense {
                agg,
                value: value_spec,
                guard: guard_spec,
                over_len: over_sorted.len(),
                inner_cells,
            },
        );
        (self.push_node(node, key), key)
    }

    /// `n^vars · dim`, the length of a table over `vars` variables; on
    /// overflow, records [`PlanError::TooWide`] (lowering then fails
    /// before any storage is allocated) and returns `None`.
    fn checked_len(&mut self, vars: usize, dim: usize) -> Option<usize> {
        let len = self.n.checked_pow(vars as u32).and_then(|c| c.checked_mul(dim));
        if len.is_none() {
            self.too_wide.get_or_insert(PlanError::TooWide { vars, n: self.n });
        }
        len
    }

    /// Builds a plan node with *deferred* storage: slabs and coordinate
    /// buffers are attached by the representation pass in
    /// [`Self::ensure_plan_capped`], once consumers have voted on
    /// `needs_dense` / `sparse_used`. A node too wide to key keeps no
    /// variables, so lowering its consumers computes no overflowing
    /// stride; the plan is refused with the recorded error once
    /// lowering ends.
    fn make_node(&mut self, mut vars: Vec<Var>, dim: usize, kind: Kind) -> Node {
        assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be strictly ascending");
        let len = self.checked_len(vars.len(), dim).unwrap_or_else(|| {
            vars.clear();
            dim
        });
        Node {
            vars,
            dim,
            len,
            data: Vec::new(),
            sp: CoordList::default(),
            kind,
            sparse: false,
            needs_dense: false,
            sparse_used: false,
            est_nnz: 0,
        }
    }

    /// The density/size heuristic (DESIGN.md §7): a node goes sparse
    /// only when its dense table is big enough for the kernels'
    /// constant factors to amortize AND the estimated nonzeros are at
    /// most a quarter of the cells. The estimate fed here is no longer
    /// the driver's loose `n^missing · nnz` expansion bound but the
    /// density-product estimate derived from graph statistics (arc
    /// count / density — what a store segment header exposes), so
    /// products of several sparse factors now qualify where the old
    /// bound pessimistically kept them dense. `sparse_min_cells == 0`
    /// forces sparse wherever representable — the property-test hook.
    fn sparse_ok(&self, cells: usize, est: usize) -> bool {
        self.opts.sparse_min_cells == 0
            || (cells >= self.opts.sparse_min_cells && est.saturating_mul(4) <= cells)
    }

    /// The AGM bound on the nonzeros of a table over `vars` each of
    /// whose entries extends to a join tuple of `tables` (variables,
    /// entry bound): every table projects onto `vars` with at most
    /// `min(entries, n^|projection|)` entries, and each variable no
    /// table constrains contributes a factor `n`.
    fn agm_nnz<'a>(&self, vars: &[Var], tables: impl Iterator<Item = (&'a [Var], usize)>) -> usize {
        let (mut scopes, mut log_sizes) = (Vec::new(), Vec::new());
        for (tv, entries) in tables {
            let scope: Vec<u32> = tv
                .iter()
                .filter_map(|v| vars.iter().position(|u| u == v))
                .map(|p| p as u32)
                .collect();
            if !scope.is_empty() {
                let cells = self.n.checked_pow(scope.len() as u32).unwrap_or(usize::MAX);
                log_sizes.push((entries.min(cells).max(1) as f64).ln());
                scopes.push(scope);
            }
        }
        let unbound =
            (0..vars.len() as u32).filter(|p| !scopes.iter().any(|s| s.contains(p))).count();
        let log_agm = gel_graph::elim::agm_cover_log_bound(vars.len(), &scopes, &log_sizes)
            + unbound as f64 * (self.n.max(1) as f64).ln();
        log_bound_to_count(log_agm)
    }

    /// `est_nnz / cells` for a node, clamped to `[0, 1]` (scalar
    /// tables only: `len == cells` when `dim == 1`).
    fn node_density(&self, i: usize) -> f64 {
        let nd = &self.nodes[i];
        let cells = (nd.len / nd.dim.max(1)).max(1);
        nd.est_nnz.min(cells) as f64 / cells as f64
    }
}

/// [`Expr::structural_hash`] with a pointer memo at [`Expr::Shared`]
/// boundaries: linear in the DAG's distinct nodes where the naive
/// recursion is linear in its (exponential) unfolding. Produces
/// identical values — `Shared` is transparent to the hash.
fn dag_hash(e: &Expr, memo: &mut HashMap<usize, u64>) -> u64 {
    match e {
        Expr::Shared(rc) => memo_shared(memo, |m| m, shared_addr(rc), |m| dag_hash(rc, m)),
        Expr::Apply { args, .. } => {
            let mut h = e.hash_header();
            for a in args {
                h = crate::ast::hash_mix(h, dag_hash(a, memo));
            }
            h
        }
        Expr::Aggregate { value, guard, .. } => {
            let mut h = crate::ast::hash_mix(e.hash_header(), dag_hash(value, memo));
            if let Some(g) = guard {
                h = crate::ast::hash_mix(h, dag_hash(g, memo));
            }
            h
        }
        _ => e.hash_header(),
    }
}

/// Collects the leaves of a product of 0/1 indicator atoms: edge atoms
/// and `=` comparisons, possibly nested under scalar `Func::Mul` and
/// `Shared`. Returns `false` (leaving `out` in an unspecified state)
/// when the expression contains anything else — the elimination path
/// only fires on pure sum-product queries, where 0/1 factors keep
/// every partial sum an exact integer. A shared node is entered once:
/// a 0/1 factor is idempotent under the product, so its repeats add
/// nothing, and a doubling DAG of products stays linear here.
fn collect_indicator_atoms<'a>(
    e: &'a Expr,
    out: &mut Vec<&'a Expr>,
    seen: &mut HashMap<usize, bool>,
) -> bool {
    match e {
        Expr::Shared(rc) => {
            memo_shared(seen, |m| m, shared_addr(rc), |m| collect_indicator_atoms(rc, out, m))
        }
        Expr::Edge { .. } | Expr::Cmp { op: CmpOp::Eq, .. } => {
            out.push(e);
            true
        }
        Expr::Apply { func: Func::Mul { dim: 1, .. }, args } => {
            args.iter().all(|a| collect_indicator_atoms(a, out, seen))
        }
        _ => false,
    }
}

/// The (≤ 2) variables of an indicator atom.
fn atom_vars(e: &Expr) -> [Var; 2] {
    match e {
        Expr::Edge { from, to } => [*from, *to],
        Expr::Cmp { a, b, .. } => [*a, *b],
        _ => unreachable!("not an indicator atom"),
    }
}

/// The positions of `sub`'s variables in `all` (a scope of
/// [`gel_graph::elim`]'s hypergraph functions).
fn scope_in(sub: &[Var], all: &[Var]) -> Vec<u32> {
    sub.iter().map(|v| all.iter().position(|u| u == v).expect("scope var in list") as u32).collect()
}

/// The fractional edge-cover number `ρ*` of a scope hypergraph
/// ([`gel_graph::elim::agm_cover_log_bound`] with unit sizes). Scopes
/// over the same variable set count once: `E(x, y)` and `E(y, x)` are
/// two factors but one hyperedge (scopes list their variables
/// ascending, like every table).
fn fractional_cover_number(num_vars: usize, scopes: &[Vec<u32>]) -> f64 {
    let mut edges = scopes.to_vec();
    edges.sort_unstable();
    edges.dedup();
    gel_graph::elim::agm_cover_log_bound(num_vars, &edges, &vec![1.0; edges.len()])
}

/// Converts a natural-log size bound
/// ([`gel_graph::elim::agm_cover_log_bound`]) to a saturating count.
fn log_bound_to_count(log_bound: f64) -> usize {
    if log_bound < (usize::MAX as f64 / 4.0).ln() {
        log_bound.exp().ceil() as usize
    } else {
        usize::MAX
    }
}

/// Strides of a child table (vars `child_vars`, cell width
/// `child_dim`) per digit of an odometer running over `digit_vars`:
/// the flat element offset the child moves by when that digit
/// increments (0 when the digit's variable is not free in the child).
fn strides_for(child_vars: &[Var], child_dim: usize, digit_vars: &[Var], n: usize) -> Vec<usize> {
    digit_vars
        .iter()
        .map(|v| match child_vars.iter().position(|cv| cv == v) {
            Some(pos) => child_dim * n.pow((child_vars.len() - 1 - pos) as u32),
            None => 0,
        })
        .collect()
}

/// Writes the base-`n` digits of `cell` (most significant first).
#[inline]
fn decompose(mut cell: usize, n: usize, digits: &mut [usize]) {
    for d in digits.iter_mut().rev() {
        *d = cell % n;
        cell /= n;
    }
    debug_assert_eq!(cell, 0);
}

#[inline]
fn dot(digits: &[usize], strides: &[usize]) -> usize {
    digits.iter().zip(strides).map(|(d, s)| d * s).sum()
}

/// Advances the output odometer by one cell, updating two incremental
/// offsets (`o1`/`o2`) by their per-digit strides. Must not be called
/// past the last cell of the range.
#[inline]
fn advance2(
    digits: &mut [usize],
    n: usize,
    s1: &[usize],
    o1: &mut usize,
    s2: &[usize],
    o2: &mut usize,
) {
    let mut j = digits.len();
    loop {
        debug_assert!(j > 0, "advanced past the last assignment");
        j -= 1;
        digits[j] += 1;
        if digits[j] < n {
            *o1 += s1[j];
            *o2 += s2[j];
            return;
        }
        digits[j] = 0;
        *o1 -= s1[j] * (n - 1);
        *o2 -= s2[j] * (n - 1);
    }
}

/// One [`crate::func::AggState::push`], inlined against the output
/// cell (which starts zeroed): identical fold order and operations,
/// so aggregates are bit-identical to the oracle's.
#[inline]
fn push_acc(agg: Agg, acc: &mut [f64], x: &[f64], count: usize) {
    match agg {
        Agg::Sum | Agg::Mean => {
            for (a, &v) in acc.iter_mut().zip(x) {
                *a += v;
            }
        }
        Agg::Max => {
            if count == 0 {
                acc.copy_from_slice(x);
            } else {
                for (a, &v) in acc.iter_mut().zip(x) {
                    *a = a.max(v);
                }
            }
        }
        Agg::Min => {
            if count == 0 {
                acc.copy_from_slice(x);
            } else {
                for (a, &v) in acc.iter_mut().zip(x) {
                    *a = a.min(v);
                }
            }
        }
    }
}

/// Runs a dense kernel, `kernel(part, start_cell, cells, digits, aux)`,
/// over all of `out`, the slab of `node`. Once its work (cells ×
/// `cell_work`) reaches [`PAR_MIN_WORK`] the cells split into
/// contiguous per-thread ranges (`rayon::par_parts_mut`), each with its
/// own odometer and `aux_len` auxiliary digits; otherwise one serial
/// call uses the shared scratch. Every range replays the serial
/// per-cell order, so the bits do not depend on the thread count.
fn for_chunks(
    out: &mut [f64],
    node: &Node,
    cell_work: usize,
    aux_len: usize,
    s: &mut ExecScratch,
    kernel: impl Fn(&mut [f64], usize, usize, &mut [usize], &mut [usize]) + Sync,
) {
    let (d, p) = (node.dim, node.vars.len());
    let total = out.len().checked_div(d).unwrap_or(0);
    let parts = rayon::current_num_threads().min(total);
    if total.saturating_mul(cell_work) < PAR_MIN_WORK || parts < 2 {
        return kernel(out, 0, total, &mut s.digits[..p], &mut s.inner_digits[..aux_len]);
    }
    s.bounds.clear();
    s.bounds.extend((0..=parts).map(|t| total * t / parts * d));
    let bounds = &s.bounds[..];
    rayon::par_parts_mut(out, bounds, |t, part| {
        let (mut digits, mut aux) = (vec![0; p], vec![0; aux_len]);
        kernel(part, bounds[t] / d, part.len() / d, &mut digits, &mut aux);
    });
}

#[allow(clippy::too_many_arguments)]
fn exec_node(
    nodes: &[Node],
    i: usize,
    out: &mut [f64],
    sp: &mut CoordList,
    g: &Graph,
    n: usize,
    cap: usize,
    scratch: &mut ExecScratch,
) -> Result<(), PlanError> {
    let node = &nodes[i];
    let d = node.dim;
    // The sparse kernels run serially — their cost is O(nnz), far below
    // the dense parallel threshold — so any thread count replays the
    // identical fold order for free. Each runs in a "sparse.exec" span:
    // nested under eval.exec, the leaf-time accounting attributes
    // sparse time to `sparse.*` instead.
    let _ss = node.sparse.then(|| gel_obs::span("sparse.exec"));
    match &node.kind {
        Kind::Label { j } => {
            for (v, o) in out.iter_mut().enumerate() {
                *o = g.label(v as Vertex)[*j];
            }
        }
        Kind::LabelVec => {
            for v in 0..n {
                out[v * d..(v + 1) * d].copy_from_slice(g.label(v as Vertex));
            }
        }
        Kind::Edge { flip } if node.sparse => {
            sp.reset(1);
            for (u, v) in g.arcs() {
                let (a, b) = if *flip { (v, u) } else { (u, v) };
                sp.push1(a as usize * n + b as usize, 1.0);
            }
            if *flip {
                // CSR iterates (u asc, v asc): already sorted unless
                // the variable order swaps the digits.
                sp.sort_entries(&mut scratch.join);
            }
        }
        Kind::Edge { flip } => {
            out.fill(0.0);
            for (u, v) in g.arcs() {
                let (a, b) = if *flip { (v, u) } else { (u, v) };
                out[a as usize * n + b as usize] = 1.0;
            }
        }
        Kind::CmpEq if node.sparse => {
            sp.reset(1);
            for v in 0..n {
                sp.push1(v * n + v, 1.0);
            }
        }
        // Only the diagonal differs from the constant fill, so neither
        // comparison kernel visits all n² cells cell-by-cell.
        Kind::CmpEq => {
            out.fill(0.0);
            for v in 0..n {
                out[v * n + v] = 1.0;
            }
        }
        Kind::CmpNe => {
            out.fill(1.0);
            for v in 0..n {
                out[v * n + v] = 0.0;
            }
        }
        Kind::Const { values } => out.copy_from_slice(values),
        Kind::Apply { func, args, d_in } => {
            for_chunks(out, node, d_in + d, 0, scratch, |part, start, cells, digits, _| {
                run_apply(nodes, func, args, part, start, cells, n, d, digits)
            });
        }
        Kind::AggDense { agg, value, guard, over_len, inner_cells } => {
            let w = inner_cells.saturating_mul(d.max(1));
            for_chunks(out, node, w, *over_len, scratch, |part, c0, cells, digits, inner| {
                let (v, g0, ic) = (value, guard.as_ref(), *inner_cells);
                run_agg_dense(nodes, *agg, v, g0, part, c0, cells, n, d, ic, digits, inner)
            });
        }
        Kind::AggNbr { agg, value, x_pos, y_stride, outgoing } => {
            let cell_work = (g.num_arcs() / n.max(1) + 1).saturating_mul(d.max(1));
            for_chunks(out, node, cell_work, 0, scratch, |part, start, cells, digits, _| {
                let (x, y, dir) = (*x_pos, *y_stride, *outgoing);
                run_agg_nbr(nodes, g, *agg, value, x, y, dir, part, start, cells, n, d, digits)
            });
        }
        Kind::MulSparse { func, args, driver, driver_pos, expand_pos } => {
            sp.reset(d);
            let p = node.vars.len();
            let dl = driver_pos.len();
            run_mul_sparse(
                nodes,
                func,
                args,
                *driver,
                driver_pos,
                expand_pos,
                sp,
                n,
                &mut scratch.input,
                &mut scratch.result,
                &mut scratch.digits[..p],
                &mut scratch.inner_digits[..dl],
                &mut scratch.join,
            );
        }
        Kind::SumProduct { strategy, free_over, mean_div } => {
            run_sum_product(nodes, strategy, *free_over, *mean_div, sp, g, cap, scratch)?;
        }
    }
    if node.sparse {
        SPARSE_NNZ.add(sp.len() as u64);
        if node.needs_dense {
            densify(sp, out);
        }
    }
    Ok(())
}

/// The `Apply` kernel over a contiguous output-cell range, a row at a
/// time: a row is a run of at most [`ROW_CELLS`] cells along the
/// innermost output digit, in which every argument's offset advances by
/// one fixed stride (its innermost-digit stride), so one
/// [`Func::apply_row`] call computes the whole run. The range may start
/// or end mid-row (a parallel chunk); cells keep the oracle's
/// `for_each_assignment` order.
#[allow(clippy::too_many_arguments)]
fn run_apply(
    nodes: &[Node],
    func: &Func,
    args: &[ArgSpec],
    out: &mut [f64],
    start_cell: usize,
    cells: usize,
    n: usize,
    d: usize,
    digits: &mut [usize],
) {
    if cells == 0 {
        return;
    }
    decompose(start_cell, n, digits);
    let p = digits.len();
    let mut done = 0;
    loop {
        let run = if p == 0 { 1 } else { n - digits[p - 1] }.min(cells - done).min(ROW_CELLS);
        let row = args.iter().map(|arg| RowArg {
            data: &nodes[arg.node].data,
            off: dot(digits, &arg.strides),
            stride: arg.strides.last().copied().unwrap_or(0),
            dim: arg.dim,
        });
        func.apply_row(row, run, &mut out[done * d..(done + run) * d]);
        done += run;
        if done == cells {
            return;
        }
        // Step the odometer `run` cells along the row, carrying out of it.
        digits[p - 1] += run;
        for j in (1..p).rev() {
            if digits[j] < n {
                break;
            }
            digits[j] = 0;
            digits[j - 1] += 1;
        }
    }
}

/// The dense aggregation kernel: for every output assignment, stream
/// the inner odometer over the aggregated variables and fold passing
/// value cells straight into the (pre-zeroed) output cell.
#[allow(clippy::too_many_arguments)]
fn run_agg_dense(
    nodes: &[Node],
    agg: Agg,
    value: &AccSpec,
    guard: Option<&AccSpec>,
    out: &mut [f64],
    start_cell: usize,
    cells: usize,
    n: usize,
    d: usize,
    inner_cells: usize,
    digits: &mut [usize],
    inner_digits: &mut [usize],
) {
    if cells == 0 {
        return;
    }
    let q = inner_digits.len();
    let (guarded, g_node, g_outer, g_inner) = match guard {
        Some(gs) => (true, gs.node, &gs.outer_strides[..], &gs.inner_strides[..]),
        None => (false, value.node, &ZERO_STRIDES[..digits.len()], &ZERO_STRIDES[..q]),
    };
    let vdata = &nodes[value.node].data[..];
    let gdata = &nodes[g_node].data[..];
    decompose(start_cell, n, digits);
    let mut vbase = dot(digits, &value.outer_strides);
    let mut gbase = dot(digits, g_outer);
    for c in 0..cells {
        let cell = &mut out[c * d..(c + 1) * d];
        cell.fill(0.0);
        let mut count = 0usize;
        inner_digits.fill(0);
        let mut voff = vbase;
        let mut goff = gbase;
        for ic in 0..inner_cells {
            if !guarded || gdata[goff] != 0.0 {
                push_acc(agg, cell, &vdata[voff..voff + d], count);
                count += 1;
            }
            if ic + 1 < inner_cells {
                advance2(inner_digits, n, &value.inner_strides, &mut voff, g_inner, &mut goff);
            }
        }
        if agg == Agg::Mean && count > 0 {
            let cf = count as f64;
            for a in cell {
                *a /= cf;
            }
        }
        if c + 1 < cells {
            advance2(digits, n, &value.outer_strides, &mut vbase, g_outer, &mut gbase);
        }
    }
}

/// The CSR neighbour-list kernel for `agg_{y}(value | E(x, y))`: the
/// generalized edge-guard fast path — any number of free variables,
/// neighbour iteration in adjacency order, same accumulation
/// discipline as the dense kernel.
#[allow(clippy::too_many_arguments)]
fn run_agg_nbr(
    nodes: &[Node],
    g: &Graph,
    agg: Agg,
    value: &AccSpec,
    x_pos: usize,
    y_stride: usize,
    outgoing: bool,
    out: &mut [f64],
    start_cell: usize,
    cells: usize,
    n: usize,
    d: usize,
    digits: &mut [usize],
) {
    if cells == 0 {
        return;
    }
    let vdata = &nodes[value.node].data[..];
    let mut unused = 0usize;
    decompose(start_cell, n, digits);
    let mut vbase = dot(digits, &value.outer_strides);
    for c in 0..cells {
        let cell = &mut out[c * d..(c + 1) * d];
        let anchor = digits[x_pos] as Vertex;
        let nbrs = if outgoing { g.out_neighbors(anchor) } else { g.in_neighbors(anchor) };
        match agg {
            // Sum/Mean lower to the fused CSR gather: per-column folds
            // in adjacency order, bit-identical to the push_acc loop.
            Agg::Sum | Agg::Mean => {
                if d == 1 {
                    cell[0] = gather_sum_scalar(vdata, vbase, y_stride, nbrs);
                } else {
                    gather_sum_into(cell, vdata, vbase, y_stride, nbrs);
                }
                if agg == Agg::Mean && !nbrs.is_empty() {
                    let cf = nbrs.len() as f64;
                    for a in cell {
                        *a /= cf;
                    }
                }
            }
            Agg::Max | Agg::Min => {
                cell.fill(0.0);
                for (count, &w) in nbrs.iter().enumerate() {
                    let voff = vbase + w as usize * y_stride;
                    push_acc(agg, cell, &vdata[voff..voff + d], count);
                }
            }
        }
        if c + 1 < cells {
            advance2(
                digits,
                n,
                &value.outer_strides,
                &mut vbase,
                &ZERO_STRIDES[..digits.len()],
                &mut unused,
            );
        }
    }
}

/// The sparse product kernel: iterate the driver's entries, expand the
/// output digits the driver does not bind, gather the remaining
/// operands (dense gather or sparse binary search) into the same packed
/// input row as the dense `Apply` kernel, and emit the product entries.
/// Output coordinates are unique (driver coords are unique, the
/// expansion enumerates distinct completions), so the final sort needs
/// no dedup — and early-returns when the driver's digits lead the
/// output order.
#[allow(clippy::too_many_arguments)]
fn run_mul_sparse(
    nodes: &[Node],
    func: &Func,
    args: &[MulArg],
    driver: usize,
    driver_pos: &[usize],
    expand_pos: &[usize],
    sp_out: &mut CoordList,
    n: usize,
    input: &mut Vec<f64>,
    result: &mut Vec<f64>,
    digits: &mut [usize],
    ddigits: &mut [usize],
    join: &mut JoinScratch,
) {
    let dsp = &nodes[args[driver].node].sp;
    let combos = n.checked_pow(expand_pos.len() as u32).expect("table too large");
    for e in 0..dsp.len() {
        decompose(dsp.coords()[e], n, ddigits);
        let dval = dsp.value(e)[0];
        digits.fill(0);
        for (k, &pos) in driver_pos.iter().enumerate() {
            digits[pos] = ddigits[k];
        }
        for _ in 0..combos {
            let oc = digits.iter().fold(0, |acc, &dg| acc * n + dg);
            input.clear();
            for (ai, arg) in args.iter().enumerate() {
                if ai == driver {
                    input.push(dval);
                } else if arg.sparse {
                    input.push(nodes[arg.node].sp.probe1(dot(digits, &arg.strides)));
                } else {
                    let off = dot(digits, &arg.strides);
                    input.extend_from_slice(&nodes[arg.node].data[off..off + arg.dim]);
                }
            }
            func.apply(input, result);
            sp_out.push1(oc, result[0]);
            // Advance the expansion odometer (driver digits fixed).
            for (k, &pos) in expand_pos.iter().enumerate().rev() {
                digits[pos] += 1;
                if digits[pos] < n {
                    break;
                }
                digits[pos] = 0;
                debug_assert!(k > 0 || sp_out.len().is_multiple_of(combos));
            }
        }
    }
    sp_out.sort_entries(join);
}

/// The sum-product kernel (`Sum` or unguarded `Mean` over a product of
/// 0/1 indicator factors): contract the factors by `strategy` into
/// `sp_out` — elimination over copies of the factors' lists in the
/// scratch arena, the join over `g`'s CSR, stopping once its list
/// passes `cap` — then scale every (integer) sum by `n^free_over` for
/// aggregated variables no factor constrains and, for a `Mean`, divide
/// it by `mean_div` — the one division the dense kernel makes (absent
/// cells stay `+0.0`, as `0.0 / mean_div` would be). All arithmetic
/// before the division is on integers below 2^53, so the reassociated
/// sums are exact — bit-identical to the dense sweep. Arena and
/// join-scratch capacities persist across evaluations, so the warmed
/// path allocates nothing.
#[allow(clippy::too_many_arguments)]
fn run_sum_product(
    nodes: &[Node],
    strategy: &SumProductStrategy,
    free_over: u32,
    mean_div: Option<f64>,
    sp_out: &mut CoordList,
    g: &Graph,
    cap: usize,
    s: &mut ExecScratch,
) -> Result<(), PlanError> {
    match strategy {
        SumProductStrategy::Eliminate { factors, factor_vars, order } => {
            while s.arena.len() < factors.len() {
                s.arena.push(CoordList::default());
                s.avars.push(Vec::new());
            }
            for (slot, &fi) in factors.iter().enumerate() {
                s.arena[slot].copy_from_list(&nodes[fi].sp);
            }
            eliminate(factor_vars, order, sp_out, g.num_vertices(), s);
        }
        SumProductStrategy::Join(join) => {
            WCO_JOINS.incr();
            let intersections = join
                .run(g, cap, &mut s.join, sp_out)
                .map_err(|bound| PlanError::TooManyEntries { bound, cap })?;
            WCO_SEEKS.add(intersections);
        }
    }
    if free_over > 0 {
        let mult = (g.num_vertices() as f64).powi(free_over as i32);
        for v in sp_out.values_mut() {
            *v *= mult;
        }
    }
    if let Some(div) = mean_div {
        for v in sp_out.values_mut() {
            *v /= div;
        }
    }
    Ok(())
}

/// Variable elimination over the loaded factor arena: for each
/// variable of `order`, join all live factors containing it and
/// contract it out with [`contract_sum`]; finally join the survivors
/// into `out`. Variables in no live factor are skipped (the caller's
/// `n^free_over` multiplier).
fn eliminate(
    factor_vars: &[Vec<Var>],
    order: &[Var],
    out: &mut CoordList,
    n: usize,
    s: &mut ExecScratch,
) {
    let k = factor_vars.len();
    s.alive.clear();
    s.alive.resize(k, true);
    for (slot, fv) in factor_vars.iter().enumerate() {
        s.avars[slot].clear();
        s.avars[slot].extend_from_slice(fv);
    }
    for &v in order {
        s.with_v.clear();
        for i in 0..k {
            if s.alive[i] && s.avars[i].contains(&v) {
                s.with_v.push(i);
            }
        }
        let Some(&first) = s.with_v.first() else { continue };
        std::mem::swap(&mut s.tmp, &mut s.arena[first]);
        std::mem::swap(&mut s.tmp_vars, &mut s.avars[first]);
        for w in 1..s.with_v.len() {
            let j = s.with_v[w];
            join_multiply(
                &s.tmp,
                &s.tmp_vars,
                &s.arena[j],
                &s.avars[j],
                n,
                &mut s.join,
                &mut s.tmp2,
                &mut s.tmp2_vars,
            );
            std::mem::swap(&mut s.tmp, &mut s.tmp2);
            std::mem::swap(&mut s.tmp_vars, &mut s.tmp2_vars);
            s.alive[j] = false;
        }
        contract_sum(&s.tmp, &s.tmp_vars, v, n, &mut s.join, &mut s.arena[first]);
        s.avars[first].clear();
        let tv = std::mem::take(&mut s.tmp_vars);
        s.avars[first].extend(tv.iter().copied().filter(|&u| u != v));
        s.tmp_vars = tv;
    }
    // Join the surviving (fully contracted) factors.
    let mut acc: Option<usize> = None;
    for i in 0..k {
        if !s.alive[i] {
            continue;
        }
        match acc {
            None => acc = Some(i),
            Some(a) => {
                join_multiply(
                    &s.arena[a],
                    &s.avars[a],
                    &s.arena[i],
                    &s.avars[i],
                    n,
                    &mut s.join,
                    &mut s.tmp,
                    &mut s.tmp_vars,
                );
                std::mem::swap(&mut s.arena[a], &mut s.tmp);
                std::mem::swap(&mut s.avars[a], &mut s.tmp_vars);
                s.alive[i] = false;
            }
        }
    }
    let a = acc.expect("a sum-product has at least one factor");
    out.copy_from_list(&s.arena[a]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::eval::oracle::{oracle_eval, oracle_eval_with};
    use crate::random_expr::{random_gel_graph, RandomExprConfig};
    use gel_graph::families::cycle;
    use gel_graph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random *directed* labelled graph (arc (u,v) present does not
    /// imply (v,u)), so the engine's in/out-neighbour handling and the
    /// reversed-guard fast path both get exercised.
    fn random_graph(n: usize, label_dim: usize, rng: &mut StdRng) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n as Vertex {
            for v in 0..n as Vertex {
                if u != v && rng.gen_bool(0.3) {
                    b.add_arc(u, v);
                }
            }
        }
        let labels: Vec<f64> = (0..n * label_dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
        b.build().with_labels(labels, label_dim)
    }

    fn assert_engine_matches_oracle(e: &Expr, g: &Graph) {
        for fast in [true, false] {
            let opts = EvalOptions { guard_fast_path: fast, ..EvalOptions::default() };
            let want = oracle_eval_with(e, g, opts);
            let mut eng = EvalEngine::with_options(opts);
            assert_eq!(eng.eval(e, g), &want, "engine diverged (fast_path={fast}) on {e}");
            // A second call replays the cached plan; still identical.
            assert_eq!(eng.eval(e, g), &want, "cached plan diverged (fast_path={fast}) on {e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        // Random GEL_k expressions (k ∈ {2,3} ⇒ intermediate tables of
        // arity 0–3), all four aggregators, labelled directed graphs:
        // the engine must reproduce the oracle's tables bit-for-bit,
        // with the fast path both on and off.
        #[test]
        fn engine_matches_oracle_on_random_gel(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 3 + (seed % 5) as usize;
            let label_dim = 1 + (seed % 2) as usize;
            let g = random_graph(n, label_dim, &mut rng);
            let cfg = RandomExprConfig {
                label_dim,
                max_depth: 3,
                max_dim: 3,
                aggregators: vec![Agg::Sum, Agg::Mean, Agg::Max, Agg::Min],
            };
            let k = 2 + (seed % 2) as usize;
            let e = random_gel_graph(&cfg, k, &mut rng);
            for fast in [true, false] {
                let opts = EvalOptions { guard_fast_path: fast, ..EvalOptions::default() };
                let want = oracle_eval_with(&e, &g, opts);
                let mut eng = EvalEngine::with_options(opts);
                prop_assert_eq!(eng.eval(&e, &g), &want);
                prop_assert_eq!(eng.eval(&e, &g), &want);
            }
        }
    }

    #[test]
    fn engine_matches_oracle_on_handcrafted_shapes() {
        let labels: Vec<f64> = (0..14).map(|i| f64::from(i) * 0.5 - 3.0).collect();
        let g = cycle(7).with_labels(labels, 2);
        let exprs = vec![
            eq(1, 2),
            ne(1, 2),
            lab_vec(1, 2),
            hash(7, lab_vec(1, 2)),
            constant(vec![2.0, -1.0, 0.5]),
            agg_over(Agg::Min, vec![2], mul2(lab(0, 1), lab(1, 2)), Some(ne(1, 2))),
            agg_over(Agg::Max, vec![1, 2], add2(lab(0, 1), lab(0, 2)), None),
            agg_over(Agg::Sum, vec![2], lab_vec(1, 2), Some(eq(1, 2))),
            nbr_agg(Agg::Min, 1, 2, lab_vec(2, 2)),
            // Reversed guard: E(y, x) anchors the in-neighbour walk.
            agg_over(Agg::Mean, vec![2], lab(0, 2), Some(edge(2, 1))),
            global_agg(Agg::Mean, 1, nbr_agg(Agg::Sum, 1, 2, mul2(lab(0, 1), lab(0, 2)))),
            // Aggregated variable absent from the value: n copies of a cell.
            agg_over(Agg::Sum, vec![2], lab(1, 1), None),
        ];
        for e in exprs {
            assert_engine_matches_oracle(&e, &g);
        }
    }

    #[test]
    fn engine_matches_oracle_on_directed_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0xD15EA5E);
        let g = random_graph(8, 1, &mut rng);
        let exprs = vec![
            nbr_agg(Agg::Sum, 1, 2, lab(0, 2)),
            agg_over(Agg::Sum, vec![2], lab(0, 2), Some(edge(2, 1))),
            mul2(nbr_agg(Agg::Max, 1, 2, lab(0, 2)), nbr_agg(Agg::Min, 1, 2, lab(0, 2))),
        ];
        for e in exprs {
            assert_engine_matches_oracle(&e, &g);
        }
    }

    /// Exercises the parallel outer-assignment chunking of all three
    /// heavy kernels (Apply, dense Aggregate, neighbour Aggregate) on
    /// shapes big enough to cross [`PAR_MIN_WORK`], asserting
    /// bit-identical tables at 1 and 4 threads against the serial
    /// oracle.
    #[test]
    fn parallel_kernels_are_bit_identical() {
        let n = 40;
        let mut rng = StdRng::seed_from_u64(42);
        let g = random_graph(n, 1, &mut rng);
        let tri = apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        let exprs = vec![
            // Apply over n³ cells + dense aggregation over x3.
            agg_over(Agg::Sum, vec![3], tri, None),
            // Neighbour kernel with a 2-variable output table.
            nbr_agg(Agg::Sum, 1, 2, mul2(lab(0, 2), lab(0, 3))),
            // Mean keeps the count/divide discipline under chunking.
            agg_over(Agg::Mean, vec![3], add2(lab(0, 1), mul2(lab(0, 2), lab(0, 3))), None),
        ];
        for e in &exprs {
            let want = oracle_eval(e, &g);
            for threads in [1, 4] {
                rayon::set_num_threads(threads);
                let mut eng = EvalEngine::new();
                assert_eq!(eng.eval(e, &g), &want, "thread count {threads} changed {e}");
                rayon::set_num_threads(0);
            }
        }
    }

    /// A value no float kernel may round away: NaN, ±0, ±∞, a
    /// subnormal, or a plain number. The NaN is the one the hardware
    /// makes for ∞ − ∞, as every NaN the battery's arithmetic makes:
    /// Rust leaves unspecified which NaN a result carries when two NaNs
    /// with different bits meet (LLVM may commute an add), so inputs
    /// carry one NaN pattern and every NaN's bits stay comparable.
    fn special(rng: &mut StdRng) -> f64 {
        let nan = std::hint::black_box(f64::INFINITY) - f64::INFINITY;
        [nan, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -1e-310, 1.5, -2.25]
            [rng.gen_range(0..9usize)]
    }

    /// A graph on `n` vertices whose 2-wide labels are [`special`].
    fn special_graph(n: usize, rng: &mut StdRng) -> Graph {
        let g = random_graph(n, 1, rng);
        let labels = (0..2 * n).map(|_| special(rng)).collect();
        g.with_labels(labels, 2)
    }

    /// A random dense table over `vars` (0–3 variables, in any order
    /// of construction): a constant, labels, edge and comparison atoms,
    /// sums of labels, a `Concat`, or a copy with
    /// two variables swapped, so argument strides differ per digit.
    fn random_arg(vars: &[Var], rng: &mut StdRng) -> Expr {
        match (vars, rng.gen_range(0..4)) {
            ([], _) => constant((0..rng.gen_range(1..=3)).map(|_| special(rng)).collect()),
            ([v], 0) => lab(rng.gen_range(0..2), *v),
            ([v], _) => lab_vec(*v, 2),
            ([a, b, ..], 0) => {
                let pair = [edge(*a, *b), eq(*b, *a), ne(*a, *b)];
                pair[rng.gen_range(0..3usize)].clone()
            }
            ([a, b, ..], 1) => random_arg(&[*b, *a], rng).swap_vars(*a, *b),
            (_, 2) => apply(Func::Concat, vars.iter().map(|&v| random_arg(&[v], rng)).collect()),
            (_, _) => {
                let labs = vars.iter().map(|&v| lab(rng.gen_range(0..2), v)).collect();
                apply(Func::Add { arity: vars.len(), dim: 1 }, labs)
            }
        }
    }

    /// A random `Func` that accepts `d_in` input components, one of each
    /// variant by `pick`, with special values in its parameters.
    fn random_func(pick: usize, d_in: usize, rng: &mut StdRng) -> Func {
        match pick % 8 {
            0 => {
                let d_out = rng.gen_range(1..=3);
                let rows: Vec<Vec<f64>> =
                    (0..d_in).map(|_| (0..d_out).map(|_| special(rng)).collect()).collect();
                let rows: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
                let bias = (0..d_out).map(|_| special(rng)).collect();
                Func::Linear { weights: gel_tensor::Matrix::from_rows(&rows), bias }
            }
            1 => {
                use gel_tensor::Activation::*;
                let acts = [Identity, ReLU, Sigmoid, Tanh, Sign, Step, ClippedReLU];
                Func::Act(acts[rng.gen_range(0..acts.len())])
            }
            2 => Func::Concat,
            3 | 4 => {
                let divisors: Vec<usize> = (1..=d_in).filter(|&k| d_in.is_multiple_of(k)).collect();
                let dim = divisors[rng.gen_range(0..divisors.len())];
                let arity = d_in / dim;
                if pick % 8 == 3 {
                    Func::Add { arity, dim }
                } else {
                    Func::Mul { arity, dim }
                }
            }
            5 => Func::Scale(special(rng)),
            6 => {
                let start = rng.gen_range(0..d_in);
                Func::Proj { start, len: rng.gen_range(0..=d_in - start) }
            }
            _ => Func::Hash { seed: rng.gen() },
        }
    }

    fn assert_bits_match_oracle(e: &Expr, g: &Graph) {
        let want = bits(&oracle_eval(e, g));
        for threads in [1, 4] {
            rayon::set_num_threads(threads);
            let mut eng = EvalEngine::new();
            assert_eq!(bits(eng.eval(e, g)), want, "{threads} threads: {e}");
            assert_eq!(bits(eng.eval(e, g)), want, "cached plan, {threads} threads: {e}");
            rayon::set_num_threads(0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        // Every `Func` variant over arguments of 0–3 variables, swapped
        // variables and special values, bit for bit against the oracle,
        // alone and in the shapes `Concat` folding rewrites: a `Concat`
        // argument, a `Concat` two consumers read, a `Concat` the
        // aggregation also reads, and a `Concat` root.
        #[test]
        fn every_func_matches_oracle_bit_for_bit(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = special_graph(2 + (seed % 4) as usize, &mut rng);
            let all: [Var; 3] = [1, 2, 3];
            let arg = |rng: &mut StdRng| {
                let vars: Vec<Var> = all.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
                random_arg(&vars, rng)
            };
            let args: Vec<Expr> = (0..rng.gen_range(1..=3)).map(|_| arg(&mut rng)).collect();
            let cat = share(apply(Func::Concat, args.clone()));
            let other = arg(&mut rng);
            let d_in = |es: &[Expr]| es.iter().map(|e| e.validate().unwrap()).sum::<usize>();
            let pick = (seed / 7) as usize;
            let f = random_func(pick, d_in(&args), &mut rng);
            let f_cat = random_func(pick + 1, d_in(&[cat.clone(), other.clone()]), &mut rng);
            let h = hash(seed, cat.clone());
            let mut shapes = vec![
                apply(f, args.clone()),
                apply(f_cat, vec![cat.clone(), other]),
                apply(Func::Concat, vec![h.clone(), hash(seed + 1, cat.clone())]),
                apply(Func::Concat, vec![h, agg_over(Agg::Sum, vec![3], cat.clone(), None)]),
                apply(Func::Concat, args),
            ];
            shapes.retain(|e| e.validate().is_ok_and(|d| d > 0));
            for e in &shapes {
                assert_bits_match_oracle(e, &g);
            }
        }
    }

    /// Parallel `Apply` chunks that start mid-row, and rows longer than
    /// one [`ROW_CELLS`] run: bit for bit against the oracle at 1 and 4
    /// threads. At n = 27 over three variables the 4-way split falls 6
    /// cells into a row; at n = 70 every row takes two runs.
    #[test]
    fn apply_rows_split_mid_row_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0DD);
        for (n, vars) in [(27, vec![1, 2, 3]), (70, vec![1, 2])] {
            let g = special_graph(n, &mut rng);
            assert!(n.pow(vars.len() as u32) / 4 % n != 0);
            let wide = apply(Func::Concat, vars.iter().map(|&v| lab_vec(v, 2)).collect());
            let e = apply(Func::Concat, vec![hash(1, wide.clone()), relu(wide.swap_vars(1, 2))]);
            assert_bits_match_oracle(&e, &g);
        }
    }

    #[test]
    fn plan_dedups_shared_subtrees() {
        let g = cycle(5);
        let deg = nbr_agg(Agg::Sum, 1, 2, constant(vec![1.0]));
        let e = mul2(deg.clone(), deg);
        let mut eng = EvalEngine::new();
        eng.eval(&e, &g);
        // const → AggNbr (guard folded into the kernel) → mul: the
        // duplicated degree subtree lowers to a single shared node.
        assert_eq!(eng.plan_nodes(), 3);
    }

    #[test]
    fn owned_results_and_plan_reuse() {
        let g = cycle(6);
        let e = global_agg(Agg::Sum, 1, nbr_agg(Agg::Sum, 1, 2, constant(vec![1.0])));
        let mut eng = EvalEngine::new();
        let a = eng.eval_owned(&e, &g);
        let b = eng.eval_owned(&e, &g);
        assert_eq!(a, b);
        assert_eq!(a.value(), &[12.0]);
        // A different graph shape relowers the plan transparently.
        assert_eq!(eng.eval(&e, &cycle(7)).value(), &[14.0]);
        // And switching back works too (slabs recycle through the pool).
        assert_eq!(eng.eval(&e, &g).value(), &[12.0]);
    }

    /// Forced-sparse options: every representable node goes through the
    /// coordinate-list kernels regardless of size.
    fn forced_sparse(fast: bool) -> EvalOptions {
        EvalOptions { guard_fast_path: fast, sparse_min_cells: 0, ..EvalOptions::default() }
    }

    /// Forced-sparse evaluation must be *equal* to both the oracle and
    /// the dense engine (`assert_eq` tolerates the documented `±0.0`
    /// divergence of elided cells), twice (cached plan).
    fn assert_sparse_matches_dense(e: &Expr, g: &Graph, fast: bool) {
        let opts = forced_sparse(fast);
        let want = oracle_eval_with(e, g, opts);
        let mut dense = EvalEngine::with_options(EvalOptions {
            guard_fast_path: fast,
            sparse_min_cells: usize::MAX,
            ..EvalOptions::default()
        });
        assert_eq!(dense.eval(e, g), &want, "dense engine diverged on {e}");
        let mut eng = EvalEngine::with_options(opts);
        assert_eq!(eng.eval(e, g), &want, "sparse engine diverged on {e}");
        assert_eq!(eng.eval(e, g), &want, "cached sparse plan diverged on {e}");
    }

    /// Handcrafted shapes for the sparse paths, each checked on the
    /// dense engine and the forced-sparse one against the oracle: the
    /// FAQ elimination pass and the multiway join (pure indicator
    /// `Sum` and unguarded `Mean` sum-products, with and without free
    /// aggregated variables, equality atoms, and indicator guards),
    /// and the sparse product (`MulSparse`) densified into the dense
    /// aggregation kernel, as value or as guard. The `Mean` shapes must
    /// also match the dense engine bit for bit.
    #[test]
    fn sparse_kernels_match_dense_on_handcrafted_shapes() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let g = random_graph(9, 2, &mut rng);
        let tri = apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        let exprs = vec![
            // Elimination: triangles at a vertex, global triangle count.
            agg_over(Agg::Sum, vec![2, 3], tri.clone(), None),
            agg_over(Agg::Sum, vec![1, 2, 3], tri.clone(), None),
            // Elimination with an equality atom collapsing two variables.
            agg_over(
                Agg::Sum,
                vec![2, 3],
                apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), eq(2, 3), edge(3, 1)]),
                None,
            ),
            // Elimination with the guard as an extra indicator factor
            // (mutual-edge count at x1).
            agg_over(Agg::Sum, vec![2], edge(1, 2), Some(edge(2, 1))),
            // Elimination with a free aggregated variable (×n multiplier).
            agg_over(Agg::Sum, vec![2, 3], edge(1, 2), None),
            // MulSparse (edge × dense label), densified for AggDense.
            agg_over(Agg::Sum, vec![2], mul2(edge(1, 2), lab(0, 2)), None),
            agg_over(Agg::Mean, vec![2], mul2(edge(1, 2), lab(1, 2)), None),
            agg_over(Agg::Max, vec![2], mul2(edge(1, 2), lab(0, 2)), None),
            // A sparse (product) guard binding x2 — not an edge atom, so
            // the AggNbr fast path stays out.
            agg_over(Agg::Min, vec![2], lab(0, 2), Some(mul2(edge(1, 2), edge(2, 1)))),
            agg_over(Agg::Mean, vec![2], lab_vec(2, 2), Some(mul2(edge(1, 2), edge(2, 1)))),
        ];
        let means = vec![
            // Elimination: the mean out-degree of x1 …
            agg_over(Agg::Mean, vec![2], edge(1, 2), None),
            // … the closed triangle mean …
            agg_over(Agg::Mean, vec![1, 2, 3], tri.clone(), None),
            // … and x3 in no atom (×n, then ÷n²).
            agg_over(Agg::Mean, vec![2, 3], edge(1, 2), None),
            // Join: 4-cycles through x1 and x4.
            agg_over(
                Agg::Mean,
                vec![2, 3],
                apply(
                    Func::Mul { arity: 4, dim: 1 },
                    vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)],
                ),
                None,
            ),
        ];
        for e in exprs.iter().chain(&means) {
            for fast in [true, false] {
                assert_sparse_matches_dense(e, &g, fast);
            }
        }
        // Single-edge guard with the fast path ablated: the MPNN shape
        // on the dense aggregation kernel.
        let mpnn = agg_over(Agg::Sum, vec![2], lab(0, 2), Some(edge(1, 2)));
        assert_sparse_matches_dense(&mpnn, &g, false);
        let dense_opts = EvalOptions { sparse_min_cells: usize::MAX, ..EvalOptions::default() };
        for e in &means {
            let want = bits(EvalEngine::with_options(dense_opts).eval(e, &g));
            let got = bits(EvalEngine::with_options(forced_sparse(true)).eval(e, &g));
            assert_eq!(got, want, "elimination diverged in the bits on {e}");
        }
    }

    fn bits(t: &EmbeddingTable) -> Vec<u64> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// The elimination pass replaces the Apply + dense-aggregate pair
    /// with a single plan node over the (3) edge factors — a structural
    /// probe that the gate actually fires, for `Sum` and for an
    /// unguarded `Mean`.
    #[test]
    fn elimination_collapses_sum_product_plans() {
        let g = cycle(7);
        let tri = apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        for agg in [Agg::Sum, Agg::Mean] {
            let e = agg_over(agg, vec![1, 2, 3], tri.clone(), None);
            let mut eng = EvalEngine::with_options(forced_sparse(true));
            // 6 · #triangles(C7) = 0.
            assert_eq!(eng.eval(&e, &g).value(), &[0.0]);
            // 3 edge atoms + 1 sum-product node; the dense plan needs 5.
            assert_eq!(eng.plan_nodes(), 4, "{agg:?}");
            let mut dense = EvalEngine::with_options(EvalOptions {
                sparse_min_cells: usize::MAX,
                ..EvalOptions::default()
            });
            dense.eval(&e, &g);
            assert_eq!(dense.plan_nodes(), 5, "{agg:?}");
        }
    }

    /// `mean_{over} Π atoms`: one to five random edge or equality atoms
    /// over x1..x4 on an ER graph with 3 to 23 vertices, aggregating a
    /// random non-empty subset of x1..x5 (x5 is in no atom).
    fn random_mean_probe(seed: u64) -> (Graph, Expr) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..=23);
        let p = rng.gen_range(0.05..0.5);
        let g = gel_graph::random::erdos_renyi(n, p, &mut rng);
        let arity = rng.gen_range(1..=5);
        let atoms: Vec<Expr> = (0..arity)
            .map(|_| {
                let a: Var = rng.gen_range(1..=4);
                let b: Var = (a + rng.gen_range(0..3u8)) % 4 + 1;
                if rng.gen_bool(0.8) {
                    edge(a, b)
                } else {
                    eq(a, b)
                }
            })
            .collect();
        let mut over: Vec<Var> = (1..=5).filter(|_| rng.gen_bool(0.5)).collect();
        if over.is_empty() {
            over.push(rng.gen_range(1..=5));
        }
        let value = if arity == 1 {
            atoms.into_iter().next().unwrap()
        } else {
            apply(Func::Mul { arity, dim: 1 }, atoms)
        };
        (g, agg_over(Agg::Mean, over, value, None))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // An unguarded `Mean` over indicator atoms takes a sum-product
        // plan (forced sparse, and at default options once the
        // cross product reaches 4096 cells). Its table must equal the
        // pure dense engine's bit for bit: `assert_eq` on tables would
        // let a `-0.0` pass for `+0.0`.
        #[test]
        fn unguarded_mean_elimination_is_bit_identical_to_dense(seed in 0u64..1_000_000) {
            let (g, e) = random_mean_probe(seed);
            let dense = EvalOptions { sparse_min_cells: usize::MAX, ..EvalOptions::default() };
            let want = bits(EvalEngine::with_options(dense).eval(&e, &g));
            for opts in [forced_sparse(true), EvalOptions::default()] {
                let mut eng = EvalEngine::with_options(opts);
                prop_assert_eq!(&bits(eng.eval(&e, &g)), &want, "{}", e);
                prop_assert_eq!(&bits(eng.eval(&e, &g)), &want, "cached plan on {}", e);
            }
        }
    }

    /// The sparse kernels are serial, so thread count must not change a
    /// single bit, mirroring `parallel_kernels_are_bit_identical`.
    #[test]
    fn sparse_paths_bit_identical_across_threads() {
        let n = 40;
        let mut rng = StdRng::seed_from_u64(1729);
        let g = random_graph(n, 1, &mut rng);
        let tri = apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        let exprs = vec![
            agg_over(Agg::Sum, vec![2, 3], tri, None),
            agg_over(Agg::Sum, vec![2], mul2(edge(1, 2), lab(0, 2)), None),
            agg_over(Agg::Min, vec![2], lab(0, 2), Some(mul2(edge(1, 2), edge(2, 1)))),
        ];
        for e in &exprs {
            let want = oracle_eval(e, &g);
            for threads in [1, 4] {
                rayon::set_num_threads(threads);
                let mut eng = EvalEngine::with_options(forced_sparse(true));
                assert_eq!(eng.eval(e, &g), &want, "thread count {threads} changed {e}");
                rayon::set_num_threads(0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        // Forced-sparse evaluation of random GEL_k expressions equals
        // the oracle — the whole-plan version of the kernel-level
        // properties in `crate::sparse` (`assert_eq`, so the documented
        // `±0.0` elision caveat is tolerated; see DESIGN.md §7).
        #[test]
        fn sparse_engine_matches_oracle_on_random_gel(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 3 + (seed % 5) as usize;
            let label_dim = 1 + (seed % 2) as usize;
            let g = random_graph(n, label_dim, &mut rng);
            let cfg = RandomExprConfig {
                label_dim,
                max_depth: 3,
                max_dim: 3,
                aggregators: vec![Agg::Sum, Agg::Mean, Agg::Max, Agg::Min],
            };
            let k = 2 + (seed % 2) as usize;
            let e = random_gel_graph(&cfg, k, &mut rng);
            for fast in [true, false] {
                let opts = forced_sparse(fast);
                let want = oracle_eval_with(&e, &g, opts);
                let mut eng = EvalEngine::with_options(opts);
                prop_assert_eq!(eng.eval(&e, &g), &want);
                prop_assert_eq!(eng.eval(&e, &g), &want);
            }
        }
    }

    /// The cyclic probe family of the wco path: k-cycles, cliques, and
    /// chorded cycles as indicator products, aggregated over a chosen
    /// variable subset.
    fn cyclic_probe(atoms: Vec<Expr>, over: Vec<Var>) -> Expr {
        let arity = atoms.len();
        agg_over(Agg::Sum, over, apply(Func::Mul { arity, dim: 1 }, atoms), None)
    }

    /// Cyclic sum-products take the join strategy (counter delta ≥ 1 —
    /// other tests may run concurrently) while keeping the same compact
    /// plan shape as the elimination strategy, and the `wco`
    /// ablation restores the binary-join plan bit-identically.
    #[test]
    fn wco_gate_fires_on_cyclic_shapes() {
        let mut rng = StdRng::seed_from_u64(0xC4C4);
        let g = random_graph(10, 1, &mut rng);
        let c4 =
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![1, 2, 3, 4]);
        let want = oracle_eval(&c4, &g);
        let before = WCO_JOINS.get();
        let mut eng = EvalEngine::with_options(forced_sparse(true));
        assert_eq!(eng.eval(&c4, &g), &want);
        assert!(WCO_JOINS.get() > before, "cyclic probe did not take the wco path");
        // 4 edge atoms + 1 sum-product node, whichever the strategy.
        assert_eq!(eng.plan_nodes(), 5);
        let mut binary =
            EvalEngine::with_options(EvalOptions { wco: false, ..forced_sparse(true) });
        assert_eq!(binary.eval(&c4, &g), &want, "wco ablation diverged");
        assert_eq!(binary.plan_nodes(), 5);
        // Acyclic shapes stay on the elimination path.
        let path3 = cyclic_probe(vec![edge(1, 2), edge(2, 3)], vec![2, 3]);
        let before = WCO_JOINS.get();
        let mut eng = EvalEngine::with_options(forced_sparse(true));
        let seen = eng.eval(&path3, &g).data().to_vec();
        assert_eq!(WCO_JOINS.get(), before, "acyclic probe must stay on elimination");
        assert_eq!(seen, oracle_eval(&path3, &g).data());
    }

    /// The wco engine, the binary merge-join engine (`wco: false`) and
    /// the dense oracle agree bit-for-bit on cycles, cliques, chorded
    /// cycles and free-variable variants, at 1 and 4 threads.
    #[test]
    fn wco_matches_binary_join_and_oracle_on_probe_family() {
        let mut rng = StdRng::seed_from_u64(0xAC3D);
        let g = random_graph(12, 1, &mut rng);
        let probes = vec![
            // Triangle count (closed) and per-vertex triangle counts.
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(1, 3)], vec![1, 2, 3]),
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(1, 3)], vec![2, 3]),
            // 4-cycle, closed and with one / two free variables.
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![1, 2, 3, 4]),
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![2, 3, 4]),
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![2, 4]),
            // Chorded 4-cycle and the full 4-clique.
            cyclic_probe(
                vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4), edge(1, 3)],
                vec![1, 2, 3, 4],
            ),
            cyclic_probe(
                vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4), edge(1, 3), edge(2, 4)],
                vec![1, 2, 3, 4],
            ),
            // Cyclic core with a free aggregated variable (×n) and an
            // equality atom collapsing one cycle vertex.
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(1, 3)], vec![1, 2, 3, 5]),
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), eq(1, 4)], vec![1, 2, 3, 4]),
        ];
        for e in &probes {
            let want = oracle_eval(e, &g);
            for threads in [1, 4] {
                rayon::set_num_threads(threads);
                let mut wco = EvalEngine::with_options(forced_sparse(true));
                assert_eq!(wco.eval(e, &g), &want, "wco diverged at {threads} threads on {e}");
                assert_eq!(wco.eval(e, &g), &want, "cached wco plan diverged on {e}");
                let mut binary =
                    EvalEngine::with_options(EvalOptions { wco: false, ..forced_sparse(true) });
                assert_eq!(binary.eval(e, &g), &want, "binary join diverged on {e}");
                rayon::set_num_threads(0);
            }
        }
    }

    /// A random cyclic GEL_{2,3} sum-product on a random graph: cycle
    /// length 3–5 with random arc directions, optional chord, optional
    /// pendant edge, and a random (non-empty) aggregated subset.
    fn random_cyclic_probe(seed: u64) -> (Graph, Expr) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4 + (seed % 4) as usize;
        let g = random_graph(n, 1, &mut rng);
        let len = 3 + (seed % 3) as u8;
        let mut atoms = Vec::new();
        for i in 1..=len {
            let j = i % len + 1;
            let (a, b) = if (seed >> i) & 1 == 0 { (i, j) } else { (j, i) };
            atoms.push(edge(a, b));
        }
        let mut max_var = len;
        if len >= 4 && (seed >> 11) & 1 == 1 {
            atoms.push(edge(1, 3)); // chord
        }
        if (seed >> 12) & 1 == 1 {
            max_var = len + 1;
            atoms.push(edge(len, max_var)); // pendant
        }
        let mut over: Vec<Var> = (1..=max_var).filter(|v| (seed >> (16 + v)) & 1 == 1).collect();
        if over.is_empty() {
            over.push(1 + (seed % max_var as u64) as Var);
        }
        (g, cyclic_probe(atoms, over))
    }

    /// Whether the plan of `e` on `g` (forced sparse) has a
    /// [`Kind::SumProduct`] root with the join strategy, checked against
    /// the `eval.wco.joins` counter; otherwise the root must eliminate.
    fn plans_wco(e: &Expr, g: &Graph) -> bool {
        let before = WCO_JOINS.get();
        let mut eng = EvalEngine::with_options(forced_sparse(true));
        eng.eval(e, g);
        let Kind::SumProduct { strategy, .. } = &eng.nodes[eng.root].kind else {
            panic!("{e} did not lower to a sum-product")
        };
        let wco = matches!(strategy, SumProductStrategy::Join { .. });
        if wco {
            // Other tests may join concurrently: only a rise is certain.
            assert!(WCO_JOINS.get() > before, "join plan did not count a join for {e}");
        }
        wco
    }

    /// The `ρ* ≤ w` rule: triangles, 4-cycles and 4-cliques — closed,
    /// and the per-vertex triangle, per-vertex 4-clique and per-pair
    /// 4-cycle the query server is loaded with — take the multiway
    /// join; 5- and 6-cycles (`ρ* = 2.5, 3` against `w = 2`) take
    /// variable elimination.
    #[test]
    fn wco_only_when_cover_number_within_width() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let g = random_graph(10, 1, &mut rng);
        let cycle_atoms = |k: Var| (1..=k).map(|i| edge(i, i % k + 1)).collect::<Vec<_>>();
        let tri = vec![edge(1, 2), edge(2, 3), edge(1, 3)];
        let k4 = vec![edge(1, 2), edge(1, 3), edge(1, 4), edge(2, 3), edge(2, 4), edge(3, 4)];
        let c4 = vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)];
        for e in [
            cyclic_probe(tri.clone(), vec![1, 2, 3]),
            cyclic_probe(cycle_atoms(4), vec![1, 2, 3, 4]),
            cyclic_probe(k4.clone(), vec![1, 2, 3, 4]),
            cyclic_probe(tri, vec![2, 3]),
            cyclic_probe(k4, vec![2, 3, 4]),
            cyclic_probe(c4, vec![2, 3]),
        ] {
            assert!(plans_wco(&e, &g), "{e} must take the join");
        }
        for k in [5, 6] {
            let e = cyclic_probe(cycle_atoms(k), (1..=k).collect());
            assert!(!plans_wco(&e, &g), "C{k} must take elimination");
        }
    }

    /// The random cyclic family below reaches both plan kinds, so its
    /// bit-identity property exercises the multiway join and not only
    /// elimination.
    #[test]
    fn random_cyclic_probes_reach_both_plans() {
        let wco = (0..64u64).filter(|&seed| {
            let (g, e) = random_cyclic_probe(seed);
            plans_wco(&e, &g)
        });
        let wco = wco.count();
        assert!(wco > 0 && wco < 64, "{wco} of 64 random cyclic probes took the join");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // Random cyclic GEL_{2,3} sum-products (`random_cyclic_probe`;
        // some take the join, see `random_cyclic_probes_reach_both_plans`).
        // The wco engine, the binary merge-join engine and the dense
        // oracle must agree
        // bit-for-bit, serially and at 4 threads (the sparse kernels
        // are serial, so thread count must not change a single bit).
        #[test]
        fn wco_matches_binary_join_on_random_cyclic_gel(seed in 0u64..1_000_000) {
            let (g, e) = random_cyclic_probe(seed);
            let want = oracle_eval(&e, &g);
            for threads in [1, 4] {
                rayon::set_num_threads(threads);
                let mut wco = EvalEngine::with_options(forced_sparse(true));
                prop_assert_eq!(wco.eval(&e, &g), &want, "wco diverged on {}", e);
                let mut binary =
                    EvalEngine::with_options(EvalOptions { wco: false, ..forced_sparse(true) });
                prop_assert_eq!(binary.eval(&e, &g), &want, "binary join diverged on {}", e);
                rayon::set_num_threads(0);
            }
        }
    }

    /// Sparse output: with `sparse_output` on, a sparse root skips the
    /// final densify — the returned table is sparse, equal (as a
    /// function) to the dense result, replays from the cached plan, and
    /// round-trips through `eval_owned`. Both sum-product strategies
    /// have a sparse root.
    #[test]
    fn sparse_output_root_skips_densify() {
        let mut rng = StdRng::seed_from_u64(0x0B7);
        let g = random_graph(12, 1, &mut rng);
        for (i, e) in two_free_sum_products().into_iter().enumerate() {
            assert_eq!(plans_wco(&e, &g), i == 0, "{e} took the wrong strategy");
            let opts = EvalOptions { sparse_output: true, ..forced_sparse(true) };
            let want = oracle_eval(&e, &g);
            let mut eng = EvalEngine::with_options(opts);
            let t = eng.eval(&e, &g);
            assert!(t.is_sparse(), "root should stay sparse under sparse_output: {e}");
            assert!(t.nnz() <= t.num_cells());
            assert!(t.approx_eq(&want, 0.0), "sparse output diverged from the oracle: {e}");
            assert_eq!(t.to_dense(), want, "densified sparse output must be bit-identical");
            // Cached replay keeps the sparse representation and the values.
            let t2 = eng.eval(&e, &g);
            assert!(t2.is_sparse());
            assert!(t2.approx_eq(&want, 0.0));
            // eval_owned moves the sparse table out; the next borrowed
            // call still works (fresh buffers).
            let owned = eng.eval_owned(&e, &g);
            assert!(owned.is_sparse());
            assert_eq!(owned.to_dense(), want);
            assert!(eng.eval(&e, &g).approx_eq(&want, 0.0));
            // A dense root (defaults) is unaffected by the flag being off.
            let mut dense_eng = EvalEngine::with_options(forced_sparse(true));
            assert!(!dense_eng.eval(&e, &g).is_sparse());
        }
    }

    /// Sum-products with a 2-variable output table, one per strategy:
    /// the per-(x1,x4) count of paths x1→x2→x3→x4 closing a 4-cycle
    /// (cyclic, joined), and the per-arc (x1,x2) out-degree of x2
    /// (width 1, eliminated).
    fn two_free_sum_products() -> [Expr; 2] {
        [
            cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![2, 3]),
            cyclic_probe(vec![edge(1, 2), edge(2, 3)], vec![3]),
        ]
    }

    /// `try_eval_capped` admits plans whose slabs all stay sparse and
    /// rejects — before allocating — plans needing a dense slab over
    /// the cap, or an eliminated sum-product whose output bound is over
    /// it; the error names the offending size. Sparse buffers reserve
    /// at most the cap.
    #[test]
    fn try_eval_capped_gates_dense_slabs() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_graph(16, 1, &mut rng);
        let e = cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![3, 4]);
        let sparse_opts = EvalOptions { sparse_output: true, ..forced_sparse(true) };
        let mut eng = EvalEngine::with_options(sparse_opts);
        // All nodes sparse (atoms + sum-product root): a cap below the
        // n² output cells admits the plan while its entries fit.
        let want = oracle_eval(&e, &g);
        let nnz = want.data().iter().filter(|&&v| v != 0.0).count();
        assert!(nnz < 256, "the probe must leave room below n² cells");
        let t = eng.try_eval_capped(&e, &g, nnz).expect("fully sparse plan fits its entries");
        assert!(t.is_sparse());
        assert!(t.approx_eq(&want, 0.0));
        // Cached-plan revalidation: one entry fewer stops the join, and
        // the dense engine is rejected up front.
        let err = eng.try_eval_capped(&e, &g, nnz - 1).unwrap_err();
        assert_eq!(err, PlanError::TooManyEntries { bound: nnz, cap: nnz - 1 });
        let mut dense_eng = EvalEngine::with_options(EvalOptions {
            sparse_min_cells: usize::MAX,
            ..EvalOptions::default()
        });
        let err = dense_eng.try_eval_capped(&e, &g, 64).unwrap_err();
        assert!(
            matches!(err, PlanError::TooDense { len, cap: 64 } if len > 64),
            "error must carry the offending slab length: {err:?}"
        );
        // The engine recovers: an uncapped call evaluates normally.
        assert_eq!(dense_eng.eval(&e, &g), &want);

        // Eliminated sum-products: a path summed at one end holds at
        // most one entry per arc, so it fits a cap below its n² cells;
        // `sum_{x4}(E(x1,x2)·E(x3,x4))` may hold m·n entries and is
        // refused before anything is evaluated.
        let cap = 2 * g.num_arcs();
        let path = cyclic_probe(vec![edge(1, 2), edge(2, 3)], vec![3]);
        let t = eng.try_eval_capped(&path, &g, cap).expect("bounded by the arcs");
        assert!(t.approx_eq(&oracle_eval(&path, &g), 0.0));
        let wide = cyclic_probe(vec![edge(1, 2), edge(3, 4)], vec![4]);
        let err = eng.try_eval_capped(&wide, &g, cap).unwrap_err();
        assert!(
            matches!(err, PlanError::TooManyEntries { bound, cap: c } if bound > c && c == cap),
            "error must carry the output bound: {err:?}"
        );
        // A joined sum-product (the 3-star, bound n³) is admitted, but its
        // output list reserves no more than the cap.
        let star = cyclic_probe(vec![edge(1, 4), edge(2, 4), edge(3, 4)], vec![4]);
        let mut fresh = EvalEngine::with_options(sparse_opts);
        fresh.ensure_plan_capped(&star, &g, Some(8)).expect("joins are not bounded at plan time");
        let root = fresh.root;
        assert!(matches!(
            fresh.nodes[root].kind,
            Kind::SumProduct { strategy: SumProductStrategy::Join { .. }, .. }
        ));
        assert!(fresh.nodes[root].est_nnz > 8);
        let (coords, _) = std::mem::take(&mut fresh.nodes[root].sp).into_parts();
        assert!(coords.capacity() <= 8, "reserved {} entries", coords.capacity());
    }

    /// The 3-star `sum_{x4}(E(x1,x4)·E(x2,x4)·E(x3,x4))` on a 30%-dense
    /// 80-vertex graph joins to about 456,000 entries, far past a cap of
    /// 5,000 that its plan passes: the join stops with `TooManyEntries`.
    /// The same engine then answers the next requests — another shape,
    /// and the star under a cap it fits — bit for bit as fresh engines.
    #[test]
    fn joined_sum_product_stops_at_the_cap() {
        let g = gel_graph::random::erdos_renyi(80, 0.3, &mut StdRng::seed_from_u64(3));
        let star = cyclic_probe(vec![edge(1, 4), edge(2, 4), edge(3, 4)], vec![4]);
        let tri = cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(1, 3)], vec![2, 3]);
        let opts = EvalOptions { sparse_output: true, ..EvalOptions::default() };
        let mut eng = EvalEngine::with_options(opts);
        let err = eng.try_eval_capped(&star, &g, 5000).unwrap_err();
        assert_eq!(err, PlanError::TooManyEntries { bound: 5001, cap: 5000 });
        let sparse_bits = |t: &EmbeddingTable| {
            let coords = t.sparse_coords().expect("sparse root").to_vec();
            (coords, bits(t))
        };
        let fresh = |e: &Expr| sparse_bits(EvalEngine::with_options(opts).eval(e, &g));
        for e in [&tri, &star] {
            let got = sparse_bits(eng.try_eval_capped(e, &g, usize::MAX).expect("uncapped"));
            assert_eq!(got, fresh(e), "{e} after a refusal");
        }
        assert_eq!(eng.try_eval_capped(&star, &g, 5000).unwrap_err(), err);
        assert_eq!(sparse_bits(eng.eval(&tri, &g)), fresh(&tri));
    }

    /// The plan cache keys on `(dag_hash, n, label_dim)`, so a plan
    /// lowered on one graph runs on another of the same `n`: the join
    /// reads the graph it is handed, not the one it was lowered on.
    #[test]
    fn cached_join_plan_reads_the_graph_it_is_given() {
        let mut rng = StdRng::seed_from_u64(0x6A);
        let (g1, g2) = (random_graph(12, 1, &mut rng), random_graph(12, 1, &mut rng));
        let e = cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![2, 3]);
        assert!(plans_wco(&e, &g1));
        let (want1, want2) = (oracle_eval(&e, &g1), oracle_eval(&e, &g2));
        assert_ne!(want1, want2, "the two graphs must answer differently");
        let mut eng = EvalEngine::with_options(forced_sparse(true));
        assert_eq!(eng.eval(&e, &g1), &want1);
        let key = eng.cache_key;
        assert_eq!(eng.eval(&e, &g2), &want2);
        assert_eq!(eng.cache_key, key, "the second graph must reuse the plan");
        assert_eq!(eng.eval(&e, &g1), &want1);
    }

    /// A random directed graph on `n` vertices with asymmetric arcs,
    /// self-loops and, at these densities, isolated vertices.
    fn random_looped_graph(n: usize, rng: &mut StdRng) -> Graph {
        let p = rng.gen_range(0.02..0.4);
        let mut b = GraphBuilder::new(n);
        for u in 0..n as Vertex {
            for v in 0..n as Vertex {
                if rng.gen_bool(if u == v { 0.3 } else { p }) {
                    b.add_arc(u, v);
                }
            }
        }
        b.build()
    }

    /// A random cyclic indicator product on x1..xk (k = 3, or 4 below
    /// n = 64): a cycle with random arc directions, a chord on k = 4,
    /// a repeated and a flipped copy of random atoms, an optional
    /// equality; summed or averaged (unguarded) over all but the first
    /// `free` variables, plus x5, in no atom, one time in three.
    fn random_join_probe(n: usize, rng: &mut StdRng) -> Expr {
        let k: Var = if n >= 64 { 3 } else { rng.gen_range(3..=4) };
        let arc = |a: Var, b: Var, rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                edge(a, b)
            } else {
                edge(b, a)
            }
        };
        let mut atoms: Vec<Expr> = (1..=k).map(|i| arc(i, i % k + 1, rng)).collect();
        if k == 4 && rng.gen_bool(0.5) {
            atoms.push(arc(1, 3, rng));
        }
        if rng.gen_bool(0.5) {
            let copy = atoms[rng.gen_range(0..atoms.len())].clone();
            atoms.push(copy);
        }
        if rng.gen_bool(0.5) {
            if let Expr::Edge { from, to } = atoms[rng.gen_range(0..atoms.len())] {
                atoms.push(edge(to, from));
            }
        }
        if rng.gen_bool(0.3) {
            let a = rng.gen_range(1..=k);
            atoms.push(eq(a, a % k + 1));
        }
        let free = rng.gen_range(0..=k);
        let mut over: Vec<Var> = (free + 1..=k).collect();
        if over.is_empty() || rng.gen_bool(0.3) {
            over.push(5);
        }
        let agg = if rng.gen_bool(0.5) { Agg::Sum } else { Agg::Mean };
        let arity = atoms.len();
        agg_over(agg, over, apply(Func::Mul { arity, dim: 1 }, atoms), None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // The CSR join against the interpreter, bit for bit at 1 and 4
        // threads: random looped digraphs with n ∈ {1, 5, 17, 64},
        // random cyclic products with flipped, repeated and `=` atoms,
        // every free-prefix size, `Sum` and unguarded `Mean`.
        #[test]
        fn csr_join_matches_oracle_bit_for_bit(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = [1, 5, 17, 64][(seed % 4) as usize];
            let g = random_looped_graph(n, &mut rng);
            let e = random_join_probe(n, &mut rng);
            let want = bits(&oracle_eval(&e, &g));
            for threads in [1, 4] {
                rayon::set_num_threads(threads);
                let mut eng = EvalEngine::with_options(forced_sparse(true));
                prop_assert_eq!(&bits(eng.eval(&e, &g)), &want, "{} threads: {}", threads, &e);
                prop_assert_eq!(&bits(eng.eval(&e, &g)), &want, "cached, {} threads: {}", threads, &e);
                rayon::set_num_threads(0);
            }
        }
    }

    /// Most of [`random_join_probe`]'s shapes take the join, so the
    /// battery above tests it and not only elimination.
    #[test]
    fn random_join_probes_mostly_join() {
        let mut rng = StdRng::seed_from_u64(0x101);
        let joined = (0..64).filter(|_| {
            let g = random_looped_graph(17, &mut rng);
            plans_wco(&random_join_probe(17, &mut rng), &g)
        });
        let joined = joined.count();
        assert!(joined >= 32, "{joined} of 64 random join probes took the join");
    }

    /// The warmed sum-product + sparse-output path performs zero pool
    /// misses under either strategy: the slab-alloc counter must stay
    /// flat across repeated calls on a cached plan. Test threads that
    /// end flush their counts into the same global total, so a window
    /// may see another test's misses; a steady-state miss would repeat
    /// in every window, so one flat window of three suffices.
    #[test]
    fn sum_product_sparse_output_steady_state_allocs_zero() {
        let mut rng = StdRng::seed_from_u64(99);
        let g = random_graph(14, 1, &mut rng);
        for e in two_free_sum_products() {
            let opts = EvalOptions { sparse_output: true, ..forced_sparse(true) };
            let mut eng = EvalEngine::with_options(opts);
            for _ in 0..3 {
                eng.eval(&e, &g); // warm the plan, buffers and scratch
            }
            let flat = (0..3).any(|_| {
                let before = eval_slab_allocs();
                for _ in 0..10 {
                    eng.eval(&e, &g);
                }
                eval_slab_allocs() == before
            });
            assert!(flat, "warmed sparse-output path allocated: {e}");
        }
    }
}
