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
use crate::func::{Agg, Func};
use crate::sparse::{
    contract_sum, join_multiply, join_multiway, rekey_into, CoordList, JoinScratch, MAX_WCO_FACTORS,
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
/// [`gel_obs::reset`]. A steadily climbing count signals a plan whose
/// representation choices fight each other.
pub fn eval_dense_fallbacks() -> u64 {
    DENSE_FALLBACKS.get()
}

static SPARSE_NNZ: gel_obs::Counter = gel_obs::Counter::new("eval.sparse.nnz");
static DENSE_FALLBACKS: gel_obs::Counter = gel_obs::Counter::new("eval.sparse.fallbacks");

/// Leapfrog seeks performed across all wco joins (the kernel's
/// intersection work — the quantity the AGM bound caps; the
/// `eval.wco.seeks` counter) since the last [`gel_obs::reset`].
pub fn eval_wco_seeks() -> u64 {
    WCO_SEEKS.get()
}

/// Worst-case-optimal multiway joins executed ([`Kind::JoinWco`]
/// kernel invocations).
static WCO_JOINS: gel_obs::Counter = gel_obs::Counter::new("eval.wco.joins");
static WCO_SEEKS: gel_obs::Counter = gel_obs::Counter::new("eval.wco.seeks");

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

/// Error of [`EvalEngine::try_eval_capped`]: the lowered plan needs a
/// dense slab longer than the caller's cap, so evaluating it would
/// allocate (and fill) more dense storage than the caller is willing
/// to pay for. Raised before any storage is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanTooDense {
    /// Length (elements) of the offending dense slab.
    pub len: usize,
    /// The caller's cap.
    pub cap: usize,
}

impl std::fmt::Display for PlanTooDense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan needs a dense slab of {} elements (cap {})", self.len, self.cap)
    }
}

impl std::error::Error for PlanTooDense {}

/// The [`PlanTooDense`] pre-pass: every node that will own a dense slab
/// (dense representation, or sparse with a dense consumer) must fit
/// under the cap.
fn check_dense_cap(nodes: &[Node], cap: Option<usize>) -> Result<(), PlanTooDense> {
    let Some(cap) = cap else { return Ok(()) };
    for nd in nodes {
        if (!nd.sparse || nd.needs_dense) && nd.len > cap {
            return Err(PlanTooDense { len: nd.len, cap });
        }
    }
    Ok(())
}

/// Minimum kernel work (output elements × inner iterations) before an
/// outer-assignment loop is split across rayon threads; below it the
/// dispatch overhead dominates.
const PAR_MIN_WORK: usize = 1 << 14;

/// Zero strides for the guard-less aggregation path (a digit may never
/// index past 255 distinct `u8` variables).
static ZERO_STRIDES: [usize; 256] = [0; 256];

/// Best-fit recycler for node slabs: `take` prefers the smallest
/// pooled buffer whose capacity fits, so repeated plans of the same
/// shapes reach a zero-allocation steady state.
#[derive(Default)]
struct SlabPool {
    slabs: Vec<Vec<f64>>,
}

impl SlabPool {
    fn take(&mut self, len: usize) -> Vec<f64> {
        let mut best: Option<(usize, usize)> = None;
        for (i, s) in self.slabs.iter().enumerate() {
            let c = s.capacity();
            let tighter = match best {
                Some((_, bc)) => c < bc,
                None => true,
            };
            if c >= len && tighter {
                best = Some((i, c));
            }
        }
        let mut s = match best {
            Some((i, _)) => self.slabs.swap_remove(i),
            None => {
                note_slab_alloc(len);
                Vec::with_capacity(len)
            }
        };
        s.clear();
        s.resize(len, 0.0);
        s
    }

    /// Like [`Self::take`] but only guarantees *capacity*: the buffer
    /// comes back empty, for growable (sparse-value) storage.
    fn take_cap(&mut self, cap: usize) -> Vec<f64> {
        let mut best: Option<(usize, usize)> = None;
        for (i, s) in self.slabs.iter().enumerate() {
            let c = s.capacity();
            let tighter = match best {
                Some((_, bc)) => c < bc,
                None => true,
            };
            if c >= cap && tighter {
                best = Some((i, c));
            }
        }
        let mut s = match best {
            Some((i, _)) => self.slabs.swap_remove(i),
            None => {
                note_slab_alloc(cap);
                Vec::with_capacity(cap)
            }
        };
        s.clear();
        s
    }

    fn put(&mut self, s: Vec<f64>) {
        if s.capacity() > 0 {
            self.slabs.push(s);
        }
    }
}

/// The coordinate-buffer sibling of [`SlabPool`] (`Vec<usize>` instead
/// of `Vec<f64>`). Misses feed the same [`eval_slab_allocs`] counter,
/// so the CI smoke gate covers sparse buffers too.
#[derive(Default)]
struct IdxPool {
    bufs: Vec<Vec<usize>>,
}

impl IdxPool {
    fn take_cap(&mut self, cap: usize) -> Vec<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            let c = b.capacity();
            let tighter = match best {
                Some((_, bc)) => c < bc,
                None => true,
            };
            if c >= cap && tighter {
                best = Some((i, c));
            }
        }
        let mut b = match best {
            Some((i, _)) => self.bufs.swap_remove(i),
            None => {
                note_slab_alloc(cap);
                Vec::with_capacity(cap)
            }
        };
        b.clear();
        b
    }

    fn put(&mut self, b: Vec<usize>) {
        if b.capacity() > 0 {
            self.bufs.push(b);
        }
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
    /// bind), probe the remaining operands, emit a sparse product.
    MulSparse {
        func: Func,
        args: Vec<MulArg>,
        driver: usize,
        /// Output digit index of each driver coordinate digit.
        driver_pos: Vec<usize>,
        /// Output digit indices the driver does not bind.
        expand_pos: Vec<usize>,
    },
    /// Unguarded `Sum`/`Mean` whose value is sparse and binds every
    /// aggregated variable: one streaming pass over the entries.
    AggSparseValue {
        agg: Agg,
        value: usize,
        /// Per value-coordinate digit: output-coordinate stride (0 for
        /// aggregated digits).
        keep_strides: Vec<usize>,
        inner_cells: usize,
    },
    /// Aggregation gated by a sparse scalar guard that binds every
    /// aggregated variable: per output cell, a binary-searched run of
    /// guard entries replaces the dense inner odometer.
    AggSparseGuard {
        agg: Agg,
        value: AccSpec,
        guard: usize,
        /// Guard-entry re-key strides into `(output part, aggregated
        /// part)` mixed radix.
        gkey_strides: Vec<usize>,
        gkey_identity: bool,
        /// Per output digit: contribution to the key's output part.
        gkey_outer: Vec<usize>,
        /// `n^|over|` — the width of one output cell's key range.
        over_pow: usize,
        over_len: usize,
    },
    /// `Sum` over a pure product of edge/equality indicators: FAQ-style
    /// variable elimination in min-degree order (paper slide 70)
    /// instead of a dense `n^k` sweep. Exact: 0/1 factors make every
    /// partial sum an integer, so reassociating the sum cannot change
    /// the float.
    AggElim {
        factors: Vec<usize>,
        factor_vars: Vec<Vec<Var>>,
        order: Vec<Var>,
        /// Number of aggregated variables in no factor — each multiplies
        /// the (integer) result by `n`, exactly.
        free_over: u32,
    },
    /// `Sum` over a *cyclic* product of 0/1 indicators: the
    /// worst-case-optimal multiway join
    /// ([`crate::sparse::join_multiway`]) intersects every factor per
    /// variable of a shared AGM-aware order instead of materializing
    /// binary-join intermediates that can exceed the output size
    /// (triangles, k-cycles, k-cliques). Emits a sparse output —
    /// free variables lead the order ascending, so entries emerge in
    /// dense layout order.
    JoinWco {
        factors: Vec<usize>,
        factor_vars: Vec<Vec<Var>>,
        /// Free variables (ascending) then eliminated variables in the
        /// AGM-aware order from [`gel_graph::elim::wco_order_masked`].
        order: Vec<Var>,
        /// Length of the free prefix of `order`.
        n_free: usize,
        /// Aggregated variables in no factor (each multiplies by `n`).
        free_over: u32,
    },
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
    /// Some consumer — or the root — reads the dense slab.
    needs_dense: bool,
    /// Some consumer reads the sparse entries.
    sparse_used: bool,
    /// Lowering-time nonzero estimate; sizes the pooled buffers.
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
    offsets: Vec<usize>,
    bounds: Vec<usize>,
    /// Sorted-merge-join scratch shared by every sparse kernel.
    join: JoinScratch,
    /// Re-keyed guard entries of [`Kind::AggSparseGuard`].
    gkeys: Vec<(usize, u32)>,
    /// Variable-elimination factor arena ([`Kind::AggElim`]): one slot
    /// per factor, plus ping-pong lists for join/contract outputs. All
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

/// Plan-cache identity: the expression's DAG hash, the graph shape
/// (`n`, `label_dim`), and every lowering-relevant [`EvalOptions`]
/// field (`guard_fast_path`, `sparse_min_cells`, `wco`,
/// `sparse_output`) — a cached plan is reusable only when all match.
type PlanCacheKey = (u64, usize, usize, bool, usize, bool, bool);

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
    /// [`crate::eval::check_against_graph`] first for untrusted input.
    pub fn eval(&mut self, expr: &Expr, g: &Graph) -> &EmbeddingTable {
        CALLS.incr();
        self.ensure_plan(expr, g);
        self.run_plan(g)
    }

    /// Like [`Self::eval`], but fails — *before* lowering allocates any
    /// storage — when some plan node needs a dense slab larger than
    /// `cap` elements. With [`EvalOptions::sparse_output`] set, plans
    /// whose root (and intermediates) stay sparse evaluate under a cap
    /// far below `n^width · dim`; the `gel-serve` layer uses this to
    /// admit large-n/low-nnz queries its dense size precheck rejects.
    pub fn try_eval_capped(
        &mut self,
        expr: &Expr,
        g: &Graph,
        cap: usize,
    ) -> Result<&EmbeddingTable, PlanTooDense> {
        CALLS.incr();
        self.ensure_plan_capped(expr, g, Some(cap))?;
        Ok(self.run_plan(g))
    }

    /// Executes the current plan (the exec sweep shared by [`Self::eval`]
    /// and [`Self::try_eval_capped`]).
    fn run_plan(&mut self, g: &Graph) -> &EmbeddingTable {
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
        for i in 0..self.nodes.len() {
            let mut data = std::mem::take(&mut self.nodes[i].data);
            let mut sp = std::mem::take(&mut self.nodes[i].sp);
            exec_node(&self.nodes, i, &mut data, &mut sp, g, self.n, &mut self.scratch);
            self.nodes[i].data = data;
            self.nodes[i].sp = sp;
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
        &self.root_table
    }

    /// [`Self::eval`], but moves the result out of the engine. The
    /// next call re-acquires a root slab from the pool; use the
    /// borrowing variant on zero-allocation hot paths.
    pub fn eval_owned(&mut self, expr: &Expr, g: &Graph) -> EmbeddingTable {
        self.eval(expr, g);
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
            return std::mem::replace(&mut self.root_table, shell);
        }
        let vars = self.root_table.vars().to_vec();
        let dim = self.root_table.dim();
        let data = self.root_table.take_data();
        EmbeddingTable::from_parts(vars, dim, self.n, data)
    }

    /// Lowers a fresh plan unless the cached one already matches
    /// `(expr, g)`'s shape.
    fn ensure_plan(&mut self, expr: &Expr, g: &Graph) {
        self.ensure_plan_capped(expr, g, None).expect("uncapped lowering cannot exceed a cap");
    }

    /// [`Self::ensure_plan`] with an optional dense-slab cap: errors
    /// *before any storage is allocated* when some node needs a dense
    /// slab longer than `cap`. On error the engine keeps no cached key
    /// — the half-lowered plan skeleton (no buffers attached) is
    /// recycled by the next lowering.
    fn ensure_plan_capped(
        &mut self,
        expr: &Expr,
        g: &Graph,
        cap: Option<usize>,
    ) -> Result<(), PlanTooDense> {
        // Hash with a pointer memo at `Shared` boundaries — a naive
        // `structural_hash` would unfold the DAG.
        self.hash_memo.clear();
        let root_hash = dag_hash(expr, &mut self.hash_memo);
        let key = (
            root_hash,
            g.num_vertices(),
            g.label_dim(),
            self.opts.guard_fast_path,
            self.opts.sparse_min_cells,
            self.opts.wco,
            self.opts.sparse_output,
        );
        if self.cache_key == Some(key) {
            // The cap is not part of the cache key: re-verify it
            // against the cached plan's dense slabs (cheap — node
            // counts are small).
            check_dense_cap(&self.nodes, cap)?;
            return Ok(());
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
        self.root = self.lower(expr, g).0;
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
        check_dense_cap(&self.nodes, cap)?;
        for i in 0..self.nodes.len() {
            let (len, dim, sparse, needs_dense, est) = {
                let nd = &self.nodes[i];
                (nd.len, nd.dim, nd.sparse, nd.needs_dense, nd.est_nnz)
            };
            if !sparse || needs_dense {
                self.nodes[i].data = self.pool.take(len);
            }
            if sparse {
                let cap = est.max(1).min(len.max(1));
                let coords = self.idx_pool.take_cap(cap);
                let vals = self.pool.take_cap(cap * dim.max(1));
                self.nodes[i].sp = CoordList::with_buffers(dim, coords, vals);
            }
        }
        if self.root_sparse {
            let root = &self.nodes[self.root];
            let cap_est = root.est_nnz.max(1).min(root.len.max(1));
            let coords = self.idx_pool.take_cap(cap_est);
            let vals = self.pool.take_cap(cap_est * root.dim.max(1));
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
        let mut max_args = 0;
        for node in &self.nodes {
            max_p = max_p.max(node.vars.len());
            match &node.kind {
                Kind::AggDense { over_len, .. } => max_q = max_q.max(*over_len),
                Kind::Apply { args, .. } => max_args = max_args.max(args.len()),
                Kind::MulSparse { args, driver_pos, .. } => {
                    max_args = max_args.max(args.len());
                    max_q = max_q.max(driver_pos.len());
                }
                Kind::AggSparseValue { keep_strides, .. } => max_q = max_q.max(keep_strides.len()),
                Kind::AggSparseGuard { over_len, .. } => max_q = max_q.max(*over_len),
                _ => {}
            }
        }
        self.scratch.digits.resize(max_p, 0);
        self.scratch.inner_digits.resize(max_q, 0);
        self.scratch.offsets.resize(max_args, 0);
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
                let cells = self.n.checked_pow(vars.len() as u32).expect("table too large");
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
                    let bound = self.n.pow(missing).saturating_mul(self.nodes[i].est_nnz);
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
                    let mut scopes: Vec<Vec<u32>> = Vec::new();
                    let mut log_sizes: Vec<f64> = Vec::new();
                    let mut in_scope = vec![false; vars.len()];
                    for &i in &arg_nodes {
                        if !self.nodes[i].sparse {
                            continue;
                        }
                        let scope: Vec<u32> = self.nodes[i]
                            .vars
                            .iter()
                            .map(|v| vars.iter().position(|u| u == v).expect("arg var free") as u32)
                            .collect();
                        for &p in &scope {
                            in_scope[p as usize] = true;
                        }
                        scopes.push(scope);
                        log_sizes.push((self.nodes[i].est_nnz.max(1) as f64).ln());
                    }
                    let uncovered = in_scope.iter().filter(|&&b| !b).count();
                    let log_agm =
                        gel_graph::elim::agm_cover_log_bound(vars.len(), &scopes, &log_sizes)
                            + uncovered as f64 * (self.n.max(1) as f64).ln();
                    let est = est.min(log_bound_to_count(log_agm));
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
            for &i in &arg_nodes {
                self.nodes[i].needs_dense = true;
            }
            let specs = arg_nodes
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
        // sweeping the dense `n^k` cross product (paper slide 70).
        if agg == Agg::Sum && !over.is_empty() {
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
                        self.nodes[fi].sparse = true;
                        self.nodes[fi].sparse_used = true;
                        factors.push(fi);
                        factor_vars.push(self.nodes[fi].vars.clone());
                    }
                    let scopes: Vec<Vec<u32>> = factor_vars
                        .iter()
                        .map(|fv| {
                            fv.iter()
                                .map(|v| all.iter().position(|u| u == v).unwrap() as u32)
                                .collect()
                        })
                        .collect();
                    let eliminable: Vec<bool> = all.iter().map(|v| over.contains(v)).collect();
                    let (order_ids, width) =
                        gel_graph::elim::min_degree_order_masked(all.len(), &scopes, &eliminable);
                    let free_over = all
                        .iter()
                        .filter(|v| {
                            over.contains(v) && !factor_vars.iter().any(|fv| fv.contains(v))
                        })
                        .count() as u32;
                    let out_vars: Vec<Var> =
                        all.iter().copied().filter(|v| !over.contains(v)).collect();
                    // Cyclic residual (induced width ≥ 2): binary
                    // merge-joins materialize intermediates that can
                    // exceed the output (triangles, k-cycles,
                    // k-cliques), so take the worst-case-optimal
                    // multiway join instead — its work is capped by the
                    // AGM fractional-cover bound. Free variables lead
                    // the order ascending so output entries emerge in
                    // dense layout order; aggregated variables follow
                    // in cheapest-incident-factor-first order.
                    if self.opts.wco && width >= 2 && factors.len() <= MAX_WCO_FACTORS {
                        let sizes: Vec<f64> =
                            factors.iter().map(|&fi| self.nodes[fi].est_nnz as f64).collect();
                        let elim_ids = gel_graph::elim::wco_order_masked(
                            all.len(),
                            &scopes,
                            &sizes,
                            &eliminable,
                        );
                        let mut order: Vec<Var> = out_vars.clone();
                        // Aggregated variables in no factor stay out of
                        // the join order — they are the exact
                        // `n^free_over` multiplier.
                        order.extend(
                            elim_ids
                                .iter()
                                .map(|&i| all[i as usize])
                                .filter(|v| factor_vars.iter().any(|fv| fv.contains(v))),
                        );
                        let n_free = out_vars.len();
                        let out_cells = n.checked_pow(n_free as u32).unwrap_or(usize::MAX);
                        let log_sizes: Vec<f64> = factors
                            .iter()
                            .map(|&fi| (self.nodes[fi].est_nnz.max(1) as f64).ln())
                            .collect();
                        // The AGM bound on the full join also bounds
                        // the output nnz (every output tuple extends to
                        // at least one join tuple).
                        let agm =
                            gel_graph::elim::agm_cover_log_bound(all.len(), &scopes, &log_sizes);
                        let est = log_bound_to_count(agm);
                        let mut node = self.make_node(
                            out_vars,
                            1,
                            Kind::JoinWco { factors, factor_vars, order, n_free, free_over },
                        );
                        node.sparse = true;
                        node.est_nnz = est.clamp(1, out_cells.max(1));
                        return (self.push_node(node, key), key);
                    }
                    let order: Vec<Var> = order_ids.iter().map(|&i| all[i as usize]).collect();
                    let node = self.make_node(
                        out_vars,
                        1,
                        Kind::AggElim { factors, factor_vars, order, free_over },
                    );
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

        // Unguarded Sum/Mean over a sparse value that binds every
        // aggregated variable: stream the entries once. Skipping the
        // absent (zero) addends is bit-identical — the accumulator
        // starts at `+0.0` and addition can never make it `-0.0`.
        if gi.is_none()
            && self.nodes[vi].sparse
            && matches!(agg, Agg::Sum | Agg::Mean)
            && over.iter().all(|v| self.nodes[vi].vars.contains(v))
        {
            self.nodes[vi].sparse_used = true;
            let p_out = out_vars.len();
            let vvars = self.nodes[vi].vars.clone();
            let keep_strides: Vec<usize> = vvars
                .iter()
                .map(|v| match out_vars.iter().position(|u| u == v) {
                    Some(pos) => n.pow((p_out - 1 - pos) as u32),
                    None => 0,
                })
                .collect();
            let inner_cells =
                n.checked_pow(over_sorted.len() as u32).expect("too many aggregated variables");
            let node = self.make_node(
                out_vars,
                dim,
                Kind::AggSparseValue { agg, value: vi, keep_strides, inner_cells },
            );
            return (self.push_node(node, key), key);
        }

        // A sparse scalar guard that binds every aggregated variable:
        // its entry runs replace the dense inner odometer, in the same
        // per-cell visit order (coordinate order restricted to one
        // output cell IS the inner odometer order).
        if let Some(gn) = gi {
            if self.nodes[gn].sparse
                && self.nodes[gn].dim == 1
                && over.iter().all(|v| self.nodes[gn].vars.contains(v))
            {
                self.nodes[gn].sparse_used = true;
                self.nodes[vi].needs_dense = true;
                let q = over_sorted.len();
                let over_pow = n.checked_pow(q as u32).expect("too many aggregated variables");
                let gv = self.nodes[gn].vars.clone();
                let gout: Vec<Var> =
                    gv.iter().copied().filter(|v| !over_sorted.contains(v)).collect();
                let gkey_strides: Vec<usize> = gv
                    .iter()
                    .map(|v| match over_sorted.iter().position(|u| u == v) {
                        Some(r) => n.pow((q - 1 - r) as u32),
                        None => {
                            let r2 = gv
                                .iter()
                                .filter(|u| !over_sorted.contains(u))
                                .position(|u| u == v)
                                .expect("free guard var");
                            n.pow((gout.len() - 1 - r2) as u32) * over_pow
                        }
                    })
                    .collect();
                let gkey_identity = gkey_strides
                    .iter()
                    .enumerate()
                    .all(|(i, &ks)| ks == n.pow((gv.len() - 1 - i) as u32));
                let gkey_outer: Vec<usize> = out_vars
                    .iter()
                    .map(|v| match gout.iter().position(|u| u == v) {
                        Some(r2) => n.pow((gout.len() - 1 - r2) as u32),
                        None => 0,
                    })
                    .collect();
                let value_spec = AccSpec {
                    node: vi,
                    outer_strides: strides_for(&self.nodes[vi].vars, dim, &out_vars, n),
                    inner_strides: strides_for(&self.nodes[vi].vars, dim, &over_sorted, n),
                };
                let node = self.make_node(
                    out_vars,
                    dim,
                    Kind::AggSparseGuard {
                        agg,
                        value: value_spec,
                        guard: gn,
                        gkey_strides,
                        gkey_identity,
                        gkey_outer,
                        over_pow,
                        over_len: q,
                    },
                );
                return (self.push_node(node, key), key);
            }
        }

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
        let inner_cells =
            n.checked_pow(over_sorted.len() as u32).expect("too many aggregated variables");
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

    /// Builds a plan node with *deferred* storage: slabs and coordinate
    /// buffers are attached by the representation pass in
    /// [`Self::ensure_plan`], once consumers have voted on `needs_dense`
    /// / `sparse_used`.
    fn make_node(&mut self, vars: Vec<Var>, dim: usize, kind: Kind) -> Node {
        assert!(vars.windows(2).all(|w| w[0] < w[1]), "vars must be strictly ascending");
        let cells = self.n.checked_pow(vars.len() as u32).expect("table too large");
        let len = cells.checked_mul(dim).expect("table too large");
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

/// Splits `total_cells` into contiguous per-thread ranges (element
/// bounds, cell-aligned) for `rayon::par_parts_mut`.
fn chunk_bounds(bounds: &mut Vec<usize>, total_cells: usize, dim: usize) -> bool {
    let threads = rayon::current_num_threads();
    if threads < 2 || total_cells < 2 {
        return false;
    }
    let parts = threads.min(total_cells);
    bounds.clear();
    for t in 0..=parts {
        bounds.push(total_cells * t / parts * dim);
    }
    true
}

fn exec_node(
    nodes: &[Node],
    i: usize,
    out: &mut [f64],
    sp: &mut CoordList,
    g: &Graph,
    n: usize,
    scratch: &mut ExecScratch,
) {
    let node = &nodes[i];
    let d = node.dim;
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
            let _ss = gel_obs::span("sparse.exec");
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
            SPARSE_NNZ.add(sp.len() as u64);
            if node.needs_dense {
                densify(sp, out);
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
            let _ss = gel_obs::span("sparse.exec");
            sp.reset(1);
            for v in 0..n {
                sp.push1(v * n + v, 1.0);
            }
            SPARSE_NNZ.add(sp.len() as u64);
            if node.needs_dense {
                densify(sp, out);
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
            let p = node.vars.len();
            let total = node.len.checked_div(d).unwrap_or(0);
            let work = total.saturating_mul(d_in + d);
            if work >= PAR_MIN_WORK && chunk_bounds(&mut scratch.bounds, total, d) {
                let bounds = &scratch.bounds[..];
                rayon::par_parts_mut(out, bounds, |t, part| {
                    let mut input = Vec::with_capacity(*d_in);
                    let mut result = Vec::with_capacity(d);
                    let mut digits = vec![0usize; p];
                    let mut offsets = vec![0usize; args.len()];
                    run_apply(
                        nodes,
                        func,
                        args,
                        part,
                        bounds[t] / d.max(1),
                        part.len() / d.max(1),
                        n,
                        d,
                        &mut input,
                        &mut result,
                        &mut digits,
                        &mut offsets,
                    );
                });
            } else {
                let digits = &mut scratch.digits[..p];
                let offsets = &mut scratch.offsets[..args.len()];
                run_apply(
                    nodes,
                    func,
                    args,
                    out,
                    0,
                    total,
                    n,
                    d,
                    &mut scratch.input,
                    &mut scratch.result,
                    digits,
                    offsets,
                );
            }
        }
        Kind::AggDense { agg, value, guard, over_len, inner_cells } => {
            let p = node.vars.len();
            let total = node.len.checked_div(d).unwrap_or(0);
            let work = total.saturating_mul(*inner_cells).saturating_mul(d.max(1));
            if work >= PAR_MIN_WORK && chunk_bounds(&mut scratch.bounds, total, d) {
                let bounds = &scratch.bounds[..];
                rayon::par_parts_mut(out, bounds, |t, part| {
                    let mut digits = vec![0usize; p];
                    let mut inner_digits = vec![0usize; *over_len];
                    run_agg_dense(
                        nodes,
                        *agg,
                        value,
                        guard.as_ref(),
                        part,
                        bounds[t] / d.max(1),
                        part.len() / d.max(1),
                        n,
                        d,
                        *inner_cells,
                        &mut digits,
                        &mut inner_digits,
                    );
                });
            } else {
                let (digits, inner_digits) =
                    (&mut scratch.digits[..p], &mut scratch.inner_digits[..*over_len]);
                run_agg_dense(
                    nodes,
                    *agg,
                    value,
                    guard.as_ref(),
                    out,
                    0,
                    total,
                    n,
                    d,
                    *inner_cells,
                    digits,
                    inner_digits,
                );
            }
        }
        Kind::AggNbr { agg, value, x_pos, y_stride, outgoing } => {
            let p = node.vars.len();
            let total = node.len.checked_div(d).unwrap_or(0);
            let avg_deg = g.num_arcs() / n.max(1) + 1;
            let work = total.saturating_mul(avg_deg).saturating_mul(d.max(1));
            if work >= PAR_MIN_WORK && chunk_bounds(&mut scratch.bounds, total, d) {
                let bounds = &scratch.bounds[..];
                rayon::par_parts_mut(out, bounds, |t, part| {
                    let mut digits = vec![0usize; p];
                    run_agg_nbr(
                        nodes,
                        g,
                        *agg,
                        value,
                        *x_pos,
                        *y_stride,
                        *outgoing,
                        part,
                        bounds[t] / d.max(1),
                        part.len() / d.max(1),
                        n,
                        d,
                        &mut digits,
                    );
                });
            } else {
                let digits = &mut scratch.digits[..p];
                run_agg_nbr(
                    nodes, g, *agg, value, *x_pos, *y_stride, *outgoing, out, 0, total, n, d,
                    digits,
                );
            }
        }
        // The sparse kernels run serially — their cost is O(nnz), far
        // below the dense parallel threshold — so any thread count
        // replays the identical fold order for free. Each wraps in a
        // "sparse.exec" span: nested under eval.exec, the leaf-time
        // accounting attributes sparse time to `sparse.*` instead.
        Kind::MulSparse { func, args, driver, driver_pos, expand_pos } => {
            let _ss = gel_obs::span("sparse.exec");
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
            SPARSE_NNZ.add(sp.len() as u64);
            if node.needs_dense {
                densify(sp, out);
            }
        }
        Kind::AggSparseValue { agg, value, keep_strides, inner_cells } => {
            let _ss = gel_obs::span("sparse.exec");
            run_agg_sparse_value(
                nodes,
                *agg,
                *value,
                keep_strides,
                *inner_cells,
                out,
                n,
                d,
                &mut scratch.inner_digits[..keep_strides.len()],
            );
        }
        Kind::AggSparseGuard {
            agg,
            value,
            guard,
            gkey_strides,
            gkey_identity,
            gkey_outer,
            over_pow,
            over_len,
        } => {
            let _ss = gel_obs::span("sparse.exec");
            rekey_into(&nodes[*guard].sp, n, gkey_strides, *gkey_identity, &mut scratch.gkeys);
            let p = node.vars.len();
            run_agg_sparse_guard(
                nodes,
                *agg,
                value,
                *guard,
                &scratch.gkeys,
                gkey_outer,
                *over_pow,
                out,
                n,
                d,
                &mut scratch.digits[..p],
                &mut scratch.inner_digits[..*over_len],
            );
        }
        Kind::AggElim { factors, factor_vars, order, free_over } => {
            let _ss = gel_obs::span("sparse.exec");
            run_agg_elim(nodes, factors, factor_vars, order, *free_over, out, n, scratch);
        }
        Kind::JoinWco { factors, factor_vars, order, n_free, free_over } => {
            let _ss = gel_obs::span("sparse.exec");
            run_join_wco(nodes, factors, factor_vars, order, *n_free, *free_over, sp, n, scratch);
            SPARSE_NNZ.add(sp.len() as u64);
            if node.needs_dense {
                densify(sp, out);
            }
        }
    }
}

/// The `Apply` kernel over a contiguous output-cell range: gather each
/// argument's cell through its incremental offset into one packed
/// input row, apply `func`, write the result row. Identical per-cell
/// order to the oracle's `for_each_assignment` loop.
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
    input: &mut Vec<f64>,
    result: &mut Vec<f64>,
    digits: &mut [usize],
    offsets: &mut [usize],
) {
    if cells == 0 {
        return;
    }
    decompose(start_cell, n, digits);
    for (o, arg) in offsets.iter_mut().zip(args) {
        *o = dot(digits, &arg.strides);
    }
    for c in 0..cells {
        input.clear();
        for (o, arg) in offsets.iter().zip(args) {
            input.extend_from_slice(&nodes[arg.node].data[*o..*o + arg.dim]);
        }
        func.apply(input, result);
        out[c * d..(c + 1) * d].copy_from_slice(result);
        if c + 1 < cells {
            advance_args(digits, n, args, offsets);
        }
    }
}

#[inline]
fn advance_args(digits: &mut [usize], n: usize, args: &[ArgSpec], offsets: &mut [usize]) {
    let mut j = digits.len();
    loop {
        debug_assert!(j > 0, "advanced past the last assignment");
        j -= 1;
        digits[j] += 1;
        if digits[j] < n {
            for (o, arg) in offsets.iter_mut().zip(args) {
                *o += arg.strides[j];
            }
            return;
        }
        digits[j] = 0;
        for (o, arg) in offsets.iter_mut().zip(args) {
            *o -= arg.strides[j] * (n - 1);
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

/// Unguarded `Sum`/`Mean` over a sparse value binding every aggregated
/// variable: stream the entries, scattering each into its output cell.
/// Entry order restricted to one output cell is ascending over the
/// aggregated digits — exactly the dense kernel's inner-odometer fold
/// order — and skipping absent (`+0.0`) addends cannot change a sum
/// that starts at `+0.0`, so the result is bit-identical.
#[allow(clippy::too_many_arguments)]
fn run_agg_sparse_value(
    nodes: &[Node],
    agg: Agg,
    value: usize,
    keep_strides: &[usize],
    inner_cells: usize,
    out: &mut [f64],
    n: usize,
    d: usize,
    digits: &mut [usize],
) {
    out.fill(0.0);
    let sp = &nodes[value].sp;
    for (e, &c) in sp.coords().iter().enumerate() {
        decompose(c, n, digits);
        let oc = dot(digits, keep_strides);
        for (a, &v) in out[oc * d..(oc + 1) * d].iter_mut().zip(sp.value(e)) {
            *a += v;
        }
    }
    if agg == Agg::Mean {
        // Unguarded Mean divides by the full inner-cell count.
        let cf = inner_cells as f64;
        for a in out {
            *a /= cf;
        }
    }
}

/// Guarded aggregation over a sparse scalar guard binding every
/// aggregated variable: per output cell, a binary-searched run of
/// re-keyed guard entries replaces the dense inner odometer. The run
/// ascends in aggregated-digit order, and stored zeros (a sparse
/// product may keep explicit zeros) are skipped exactly like the dense
/// kernel's `!= 0.0` test — same passing cells, same fold order.
#[allow(clippy::too_many_arguments)]
fn run_agg_sparse_guard(
    nodes: &[Node],
    agg: Agg,
    value: &AccSpec,
    guard: usize,
    gkeys: &[(usize, u32)],
    gkey_outer: &[usize],
    over_pow: usize,
    out: &mut [f64],
    n: usize,
    d: usize,
    digits: &mut [usize],
    inner_digits: &mut [usize],
) {
    let cells = out.len() / d.max(1);
    if cells == 0 {
        return;
    }
    let vdata = &nodes[value.node].data[..];
    let gsp = &nodes[guard].sp;
    digits.fill(0);
    let mut vbase = 0usize;
    let mut gbase = 0usize;
    for c in 0..cells {
        let cell = &mut out[c * d..(c + 1) * d];
        cell.fill(0.0);
        let lo = gbase * over_pow;
        let hi = lo + over_pow;
        let start = gkeys.partition_point(|&(k, _)| k < lo);
        let mut count = 0usize;
        for &(k, idx) in &gkeys[start..] {
            if k >= hi {
                break;
            }
            if gsp.value(idx as usize)[0] != 0.0 {
                decompose(k - lo, n, inner_digits);
                let voff = vbase + dot(inner_digits, &value.inner_strides);
                push_acc(agg, cell, &vdata[voff..voff + d], count);
                count += 1;
            }
        }
        if agg == Agg::Mean && count > 0 {
            let cf = count as f64;
            for a in cell {
                *a /= cf;
            }
        }
        if c + 1 < cells {
            advance2(digits, n, &value.outer_strides, &mut vbase, gkey_outer, &mut gbase);
        }
    }
}

/// The FAQ-style elimination kernel (`Sum` over a product of 0/1
/// indicator factors): copy each factor's coordinate list into the
/// scratch arena, then for each variable of the planned order join all
/// factors containing it and contract it out with [`contract_sum`];
/// finally join the survivors and scatter into the dense output,
/// multiplied by `n^free_over` for aggregated variables no factor
/// constrains. All arithmetic is on integers below 2^53, so the
/// reassociated sums are exact — bit-identical to the dense sweep.
#[allow(clippy::too_many_arguments)]
fn run_agg_elim(
    nodes: &[Node],
    factors: &[usize],
    factor_vars: &[Vec<Var>],
    order: &[Var],
    free_over: u32,
    out: &mut [f64],
    n: usize,
    s: &mut ExecScratch,
) {
    let k = factors.len();
    while s.arena.len() < k {
        s.arena.push(CoordList::default());
        s.avars.push(Vec::new());
    }
    s.alive.clear();
    s.alive.resize(k, true);
    for (slot, (&fi, fv)) in factors.iter().zip(factor_vars).enumerate() {
        s.arena[slot].copy_from_list(&nodes[fi].sp);
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
        // Variables in no live factor are the `free_over` multiplier.
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
    out.fill(0.0);
    let mult = (n as f64).powi(free_over as i32);
    if let Some(a) = acc {
        let fin = &s.arena[a];
        debug_assert!(fin.coords().iter().all(|&c| c < out.len()));
        for (e, &c) in fin.coords().iter().enumerate() {
            out[c] = fin.value(e)[0] * mult;
        }
    }
}

/// The worst-case-optimal join kernel wrapper ([`Kind::JoinWco`]):
/// copy each factor's coordinate list into the scratch arena (the
/// kernel re-keys its trie views in place), run
/// [`crate::sparse::join_multiway`] over the planned order, then scale
/// every emitted (integer) count by `n^free_over` for aggregated
/// variables no factor constrains — exact, like `AggElim`'s
/// multiplier. Arena and join-scratch capacities persist across
/// evaluations, so the warmed path allocates nothing.
#[allow(clippy::too_many_arguments)]
fn run_join_wco(
    nodes: &[Node],
    factors: &[usize],
    factor_vars: &[Vec<Var>],
    order: &[Var],
    n_free: usize,
    free_over: u32,
    sp_out: &mut CoordList,
    n: usize,
    s: &mut ExecScratch,
) {
    let k = factors.len();
    while s.arena.len() < k {
        s.arena.push(CoordList::default());
        s.avars.push(Vec::new());
    }
    for (slot, &fi) in factors.iter().enumerate() {
        s.arena[slot].copy_from_list(&nodes[fi].sp);
    }
    let seeks =
        join_multiway(&mut s.arena[..k], factor_vars, order, n_free, n, &mut s.join, sp_out);
    if free_over > 0 {
        let mult = (n as f64).powi(free_over as i32);
        for v in sp_out.values_mut() {
            *v *= mult;
        }
    }
    WCO_JOINS.incr();
    WCO_SEEKS.add(seeks);
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

    /// Handcrafted shapes hitting each sparse kernel: the FAQ
    /// elimination pass (pure indicator sum-products, with and without
    /// free aggregated variables, equality atoms, and indicator
    /// guards), the sparse product (`MulSparse`), the streaming
    /// unguarded aggregation (`AggSparseValue`), and the run-probed
    /// guarded aggregation (`AggSparseGuard`).
    #[test]
    fn sparse_kernels_match_dense_on_handcrafted_shapes() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let g = random_graph(9, 2, &mut rng);
        let tri = apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        let exprs = vec![
            // AggElim: triangles at a vertex, global triangle count.
            agg_over(Agg::Sum, vec![2, 3], tri.clone(), None),
            agg_over(Agg::Sum, vec![1, 2, 3], tri, None),
            // AggElim with an equality atom collapsing two variables.
            agg_over(
                Agg::Sum,
                vec![2, 3],
                apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), eq(2, 3), edge(3, 1)]),
                None,
            ),
            // AggElim with the guard as an extra indicator factor
            // (mutual-edge count at x1).
            agg_over(Agg::Sum, vec![2], edge(1, 2), Some(edge(2, 1))),
            // AggElim with a free aggregated variable (×n multiplier).
            agg_over(Agg::Sum, vec![2, 3], edge(1, 2), None),
            // MulSparse (edge × dense label) then AggSparseValue.
            agg_over(Agg::Sum, vec![2], mul2(edge(1, 2), lab(0, 2)), None),
            agg_over(Agg::Mean, vec![2], mul2(edge(1, 2), lab(1, 2)), None),
            // MulSparse products feeding Max force the dense fallback.
            agg_over(Agg::Max, vec![2], mul2(edge(1, 2), lab(0, 2)), None),
            // AggSparseGuard via a sparse (product) guard binding x2 —
            // not an edge atom, so the AggNbr fast path stays out.
            agg_over(Agg::Min, vec![2], lab(0, 2), Some(mul2(edge(1, 2), edge(2, 1)))),
            agg_over(Agg::Mean, vec![2], lab_vec(2, 2), Some(mul2(edge(1, 2), edge(2, 1)))),
        ];
        for e in &exprs {
            for fast in [true, false] {
                assert_sparse_matches_dense(e, &g, fast);
            }
        }
        // Single-edge guard with the fast path ablated: AggSparseGuard
        // carries the MPNN shape.
        let mpnn = agg_over(Agg::Sum, vec![2], lab(0, 2), Some(edge(1, 2)));
        assert_sparse_matches_dense(&mpnn, &g, false);
    }

    /// The elimination pass replaces the Apply + dense-aggregate pair
    /// with a single plan node over the (3) edge factors — a structural
    /// probe that the `AggElim` gate actually fires.
    #[test]
    fn elimination_collapses_sum_product_plans() {
        let g = cycle(7);
        let tri = apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        let e = agg_over(Agg::Sum, vec![1, 2, 3], tri, None);
        let mut eng = EvalEngine::with_options(forced_sparse(true));
        // 6 · #triangles(C7) = 0.
        assert_eq!(eng.eval(&e, &g).value(), &[0.0]);
        // 3 edge atoms + 1 AggElim node; the dense plan needs 5.
        assert_eq!(eng.plan_nodes(), 4);
        let mut dense = EvalEngine::with_options(EvalOptions {
            sparse_min_cells: usize::MAX,
            ..EvalOptions::default()
        });
        dense.eval(&e, &g);
        assert_eq!(dense.plan_nodes(), 5);
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

    /// Cyclic sum-products route through [`Kind::JoinWco`] (counter
    /// delta ≥ 1 — other tests may run concurrently) while keeping the
    /// same compact plan shape as the `AggElim` path, and the `wco`
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
        // 4 edge atoms + 1 JoinWco node — same shape as the AggElim plan.
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
        assert_eq!(WCO_JOINS.get(), before, "acyclic probe must stay on AggElim");
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        // Random cyclic GEL_{2,3} sum-products: cycle length 3–5 with
        // random arc directions, optional chord, optional pendant edge,
        // and a random (non-empty) aggregated subset. The wco engine,
        // the binary merge-join engine and the dense oracle must agree
        // bit-for-bit, serially and at 4 threads (the sparse kernels
        // are serial, so thread count must not change a single bit).
        #[test]
        fn wco_matches_binary_join_on_random_cyclic_gel(seed in 0u64..1_000_000) {
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
            let mut over: Vec<Var> =
                (1..=max_var).filter(|v| (seed >> (16 + v)) & 1 == 1).collect();
            if over.is_empty() {
                over.push(1 + (seed % max_var as u64) as Var);
            }
            let e = cyclic_probe(atoms, over);
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
    /// round-trips through `eval_owned`.
    #[test]
    fn sparse_output_root_skips_densify() {
        let mut rng = StdRng::seed_from_u64(0x0B7);
        let g = random_graph(12, 1, &mut rng);
        // Per-(x1,x4) count of paths x1→x2→x3→x4 closing a 4-cycle:
        // a cyclic query with a 2-variable output table.
        let e = cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![2, 3]);
        let opts = EvalOptions { sparse_output: true, ..forced_sparse(true) };
        let want = oracle_eval(&e, &g);
        let mut eng = EvalEngine::with_options(opts);
        let t = eng.eval(&e, &g);
        assert!(t.is_sparse(), "root should stay sparse under sparse_output");
        assert!(t.nnz() <= t.num_cells());
        assert!(t.approx_eq(&want, 0.0), "sparse output diverged from the oracle");
        assert_eq!(t.to_dense(), want, "densified sparse output must be bit-identical");
        // Cached replay keeps the sparse representation and the values.
        let t2 = eng.eval(&e, &g);
        assert!(t2.is_sparse());
        assert!(t2.approx_eq(&want, 0.0));
        // eval_owned moves the sparse table out; the next borrowed call
        // still works (fresh buffers).
        let owned = eng.eval_owned(&e, &g);
        assert!(owned.is_sparse());
        assert_eq!(owned.to_dense(), want);
        assert!(eng.eval(&e, &g).approx_eq(&want, 0.0));
        // A dense root (defaults) is unaffected by the flag being off.
        let mut dense_eng = EvalEngine::with_options(forced_sparse(true));
        assert!(!dense_eng.eval(&e, &g).is_sparse());
    }

    /// `try_eval_capped` admits plans whose slabs all stay sparse and
    /// rejects — before allocating — plans needing a dense slab over
    /// the cap; the error names the offending length.
    #[test]
    fn try_eval_capped_gates_dense_slabs() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_graph(16, 1, &mut rng);
        let e = cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![3, 4]);
        let sparse_opts = EvalOptions { sparse_output: true, ..forced_sparse(true) };
        let mut eng = EvalEngine::with_options(sparse_opts);
        // All nodes sparse (atoms + JoinWco root): a cap far below the
        // n² output admits the plan.
        let want = oracle_eval(&e, &g);
        let t = eng.try_eval_capped(&e, &g, 64).expect("fully sparse plan fits any cap");
        assert!(t.is_sparse());
        assert!(t.approx_eq(&want, 0.0));
        // Cached-plan revalidation: a cap of 0 still admits (no dense
        // slabs), and the dense engine is rejected up front.
        assert!(eng.try_eval_capped(&e, &g, 0).is_ok());
        let mut dense_eng = EvalEngine::with_options(EvalOptions {
            sparse_min_cells: usize::MAX,
            ..EvalOptions::default()
        });
        let err = dense_eng.try_eval_capped(&e, &g, 64).unwrap_err();
        assert!(err.len > 64, "error must carry the offending slab length");
        // The engine recovers: an uncapped call evaluates normally.
        assert_eq!(dense_eng.eval(&e, &g), &want);
    }

    /// The warmed wco + sparse-output path performs zero pool misses:
    /// the slab-alloc counter must stay flat across repeated calls on
    /// a cached plan.
    #[test]
    fn wco_sparse_output_steady_state_allocs_zero() {
        let mut rng = StdRng::seed_from_u64(99);
        let g = random_graph(14, 1, &mut rng);
        let e = cyclic_probe(vec![edge(1, 2), edge(2, 3), edge(3, 4), edge(1, 4)], vec![2, 3]);
        let opts = EvalOptions { sparse_output: true, ..forced_sparse(true) };
        let mut eng = EvalEngine::with_options(opts);
        for _ in 0..3 {
            eng.eval(&e, &g); // warm the plan, buffers and scratch
        }
        let before = eval_slab_allocs();
        for _ in 0..10 {
            eng.eval(&e, &g);
        }
        assert_eq!(eval_slab_allocs(), before, "warmed wco/sparse-output path allocated");
    }
}
