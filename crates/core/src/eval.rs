//! Evaluation of `GEL(Ω,Θ)` expressions on a graph: computes the
//! embedding table `ξ_φ(G, ·) : V^p → ℝ^d` (paper slides 42–46).
//!
//! Evaluation is performed by the compiled engine in [`crate::plan`]:
//! the expression is lowered to a flat plan of stride-addressed slab
//! kernels (deduplicated by [`Expr::structural_hash`], exactly like
//! the old interpreter's memo) and executed with slice-level kernels.
//! Aggregations cost `O(n^{|free ∪ over|})` in general; the
//! *guard-aware fast path* recognizes the MPNN shape
//! `agg_{y}(… | E(x, y))` and iterates neighbour lists instead of all
//! of `V` — the sparse-vs-dense ablation called out in DESIGN.md §6.
//!
//! The original cell-at-a-time tree-walking interpreter is retained
//! under `#[cfg(test)]` as the property-test oracle (module
//! [`oracle`]); the engine must reproduce its tables *bit-identically*
//! at any thread count.

use std::collections::HashMap;

use gel_graph::Graph;

use crate::ast::{memo_shared, shared_addr, Expr};
use crate::plan::{EvalEngine, PlanError};
use crate::table::EmbeddingTable;

/// Evaluator options (ablations).
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Use the neighbour-list fast path for edge-guarded single-variable
    /// aggregations (default true).
    pub guard_fast_path: bool,
    /// Minimum dense cell count before a node is considered for a
    /// sparse representation (default 4096): below it the dense kernels
    /// win on constant factors. Two places read it. An edge or equality
    /// atom, or a scalar product with a sparse factor, goes sparse when
    /// its table reaches this size and its estimated nonzeros are at
    /// most a quarter of the cells. A `Sum` or unguarded `Mean` over a
    /// product of those atoms takes variable elimination or the
    /// multiway join when the cross product of all its variables
    /// reaches it. `0` forces sparse everywhere it is representable —
    /// the property-test and ablation hook; `usize::MAX` turns sparse
    /// lowering off (the pure dense engine, the density sweep's
    /// baseline).
    pub sparse_min_cells: usize,
    /// Contract *cyclic* sum-product queries with the worst-case-optimal
    /// multiway join (default true). `false` keeps variable elimination
    /// by binary merge-joins on cyclic shapes — the ablation baseline
    /// the bench crossover sweep compares against. Acyclic queries
    /// eliminate either way; both strategies emit the same sparse
    /// table.
    pub wco: bool,
    /// Allow the *root* table to stay sparse (default false): when the
    /// plan root already emits a coordinate list, skip the final
    /// densify and return a sparse [`EmbeddingTable`] instead of an
    /// `n^width × dim` slab. Callers that index the result cell-wise
    /// should keep this off or densify explicitly.
    ///
    /// [`EmbeddingTable`]: crate::table::EmbeddingTable
    pub sparse_output: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self { guard_fast_path: true, sparse_min_cells: 4096, wco: true, sparse_output: false }
    }
}

/// Evaluates `expr` on `g`, producing its embedding table.
///
/// Builds a throwaway [`EvalEngine`] per call; hot loops evaluating
/// many expressions should hold an engine and use
/// [`EvalEngine::eval`], which reuses the compiled plan and its slabs.
///
/// # Panics
/// Panics on ill-typed expressions ([`Expr::validate`] first for
/// untrusted input) and on label component indices outside the graph's
/// label dimension — run [`check_against_graph`] first to turn both
/// into errors.
pub fn eval(expr: &Expr, g: &Graph) -> EmbeddingTable {
    eval_with(expr, g, EvalOptions::default())
}

/// A pre-flight incompatibility between an expression and a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The expression is ill-typed.
    Type(crate::ast::TypeError),
    /// `Lab_j` with `j` outside the graph's label dimension.
    LabelIndex {
        /// Offending component.
        j: usize,
        /// The graph's label dimension.
        label_dim: usize,
    },
    /// `LabelVec` with a dimension different from the graph's.
    LabelVecDim {
        /// Declared dimension.
        declared: usize,
        /// The graph's label dimension.
        label_dim: usize,
    },
    /// Lowering refused the plan (a table too wide to key).
    Plan(PlanError),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Type(t) => write!(f, "{t}"),
            EvalError::LabelIndex { j, label_dim } => {
                write!(f, "lab{j} out of range for label dimension {label_dim}")
            }
            EvalError::LabelVecDim { declared, label_dim } => {
                write!(f, "labvec{declared} does not match the graph's label dimension {label_dim}")
            }
            EvalError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Validates that `expr` can be evaluated on `g` (well-typed, label
/// atoms within the graph's label dimension) and returns its output
/// dimension. Run this before [`eval`] on untrusted input to get errors
/// instead of panics. A type error takes precedence over a label error;
/// among label errors the first in a left-to-right depth-first walk
/// wins. Linear in the distinct nodes of a shared DAG.
pub fn check_against_graph(expr: &Expr, g: &Graph) -> Result<usize, EvalError> {
    let dim = expr.validate().map_err(EvalError::Type)?;
    type Memo = HashMap<usize, Result<(), EvalError>>;
    fn walk(e: &Expr, dim: usize, memo: &mut Memo) -> Result<(), EvalError> {
        match e {
            Expr::Label { j, .. } if *j >= dim => {
                Err(EvalError::LabelIndex { j: *j, label_dim: dim })
            }
            Expr::LabelVec { dim: d, .. } if *d != dim => {
                Err(EvalError::LabelVecDim { declared: *d, label_dim: dim })
            }
            Expr::Apply { args, .. } => args.iter().try_for_each(|a| walk(a, dim, memo)),
            Expr::Aggregate { value, guard, .. } => {
                walk(value, dim, memo)?;
                guard.as_ref().map_or(Ok(()), |gd| walk(gd, dim, memo))
            }
            Expr::Shared(rc) => memo_shared(memo, |m| m, shared_addr(rc), |m| walk(rc, dim, m)),
            _ => Ok(()),
        }
    }
    walk(expr, g.label_dim(), &mut HashMap::new())?;
    Ok(dim)
}

/// [`eval`] with the [`check_against_graph`] pre-flight: errors instead
/// of panics on incompatible input, and on plans lowering refuses
/// ([`EvalEngine::try_eval`]).
pub fn try_eval(expr: &Expr, g: &Graph) -> Result<EmbeddingTable, EvalError> {
    check_against_graph(expr, g)?;
    EvalEngine::new().try_eval_owned(expr, g).map_err(EvalError::Plan)
}

/// Evaluates with explicit options.
///
/// The result is moved out of the engine without a defensive copy (the
/// old interpreter deep-cloned the root table whenever its memo still
/// shared it).
pub fn eval_with(expr: &Expr, g: &Graph, opts: EvalOptions) -> EmbeddingTable {
    EvalEngine::with_options(opts).eval_owned(expr, g)
}

/// The original bottom-up tree-walking interpreter, kept verbatim as
/// the property-test oracle for the compiled engine (the same move as
/// `crates/wl/src/naive.rs`): its per-cell `cell_env` addressing and
/// `Rc` memo are transparently correct, and `crate::plan`'s tests
/// assert the engine reproduces its tables bit-identically.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    use gel_graph::{Graph, Vertex};

    use crate::ast::{CmpOp, Expr};
    use crate::func::Agg;
    use crate::table::{EmbeddingTable, Var};

    use super::EvalOptions;

    /// Oracle evaluation with default options.
    pub fn oracle_eval(expr: &Expr, g: &Graph) -> EmbeddingTable {
        oracle_eval_with(expr, g, EvalOptions::default())
    }

    /// Oracle evaluation with explicit options.
    pub fn oracle_eval_with(expr: &Expr, g: &Graph, opts: EvalOptions) -> EmbeddingTable {
        let ev = Evaluator { g, opts, memo: RefCell::new(HashMap::new()) };
        let rc = ev.eval_memo(expr);
        // Dropping the memo's clones makes the root reference unique —
        // no defensive deep copy of the final table.
        ev.memo.borrow_mut().clear();
        Rc::try_unwrap(rc).expect("root table uniquely owned after memo clear")
    }

    struct Evaluator<'a> {
        g: &'a Graph,
        opts: EvalOptions,
        /// Memo keyed by [`Expr::structural_hash`]: the architecture and
        /// WL-simulation compilers produce expressions with massive
        /// duplication of equal subtrees (each layer embeds copies of the
        /// previous one); memoizing collapses that duplication so equal
        /// subtrees are evaluated once.
        memo: RefCell<HashMap<u64, Rc<EmbeddingTable>>>,
    }

    /// Iterates all assignments of `vars.len()` vertices, invoking `f` with
    /// the current assignment (in `vars` order).
    fn for_each_assignment(n: usize, arity: usize, mut f: impl FnMut(&[Vertex])) {
        if arity == 0 {
            f(&[]);
            return;
        }
        let mut cur = vec![0 as Vertex; arity];
        loop {
            f(&cur);
            // Odometer increment.
            let mut i = arity;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                cur[i] += 1;
                if (cur[i] as usize) < n {
                    break;
                }
                cur[i] = 0;
            }
        }
    }

    impl Evaluator<'_> {
        fn eval_memo(&self, expr: &Expr) -> Rc<EmbeddingTable> {
            let key = expr.structural_hash();
            if let Some(hit) = self.memo.borrow().get(&key) {
                return Rc::clone(hit);
            }
            let table = Rc::new(self.eval(expr));
            self.memo.borrow_mut().insert(key, Rc::clone(&table));
            table
        }

        fn eval(&self, expr: &Expr) -> EmbeddingTable {
            let n = self.g.num_vertices();
            match expr {
                // Transparent wrapper (and the memo key is the inner
                // expression's structural hash, so sharing dedups).
                Expr::Shared(e) => self.eval(e),
                Expr::Label { j, var } => {
                    assert!(
                        *j < self.g.label_dim(),
                        "label component {j} out of range (dim {})",
                        self.g.label_dim()
                    );
                    let mut t = EmbeddingTable::zeros(vec![*var], 1, n);
                    for v in 0..n as Vertex {
                        t.cell_mut(&[v])[0] = self.g.label(v)[*j];
                    }
                    t
                }
                Expr::LabelVec { var, dim } => {
                    assert_eq!(
                        *dim,
                        self.g.label_dim(),
                        "LabelVec dimension does not match the graph's label dimension"
                    );
                    let mut t = EmbeddingTable::zeros(vec![*var], *dim, n);
                    for v in 0..n as Vertex {
                        t.cell_mut(&[v]).copy_from_slice(self.g.label(v));
                    }
                    t
                }
                Expr::Edge { from, to } => {
                    let mut vars = vec![*from, *to];
                    vars.sort_unstable();
                    let mut t = EmbeddingTable::zeros(vars.clone(), 1, n);
                    // Fill sparsely from the arc list.
                    for (u, v) in self.g.arcs() {
                        let assign = if vars[0] == *from { [u, v] } else { [v, u] };
                        t.cell_mut(&assign)[0] = 1.0;
                    }
                    t
                }
                Expr::Cmp { a, op, b } => {
                    let mut vars = vec![*a, *b];
                    vars.sort_unstable();
                    let mut t = EmbeddingTable::zeros(vars, 1, n);
                    for v in 0..n as Vertex {
                        for w in 0..n as Vertex {
                            let holds = match op {
                                CmpOp::Eq => v == w,
                                CmpOp::Ne => v != w,
                            };
                            if holds {
                                t.cell_mut(&[v, w])[0] = 1.0;
                            }
                        }
                    }
                    t
                }
                Expr::Const { values } => EmbeddingTable::scalar_cell(values.clone(), n),
                Expr::Apply { func, args } => {
                    let tables: Vec<Rc<EmbeddingTable>> =
                        args.iter().map(|a| self.eval_memo(a)).collect();
                    // Union of variables.
                    let mut vars: Vec<Var> =
                        tables.iter().flat_map(|t| t.vars().iter().copied()).collect();
                    vars.sort_unstable();
                    vars.dedup();
                    let d_in: usize = tables.iter().map(|t| t.dim()).sum();
                    let d_out = func.out_dim(d_in).expect("ill-typed Apply");
                    let mut out = EmbeddingTable::zeros(vars.clone(), d_out, n);
                    let max_var = vars.iter().copied().max().unwrap_or(0) as usize;
                    let mut env = vec![0 as Vertex; max_var + 1];
                    let mut input = Vec::with_capacity(d_in);
                    let mut result = Vec::with_capacity(d_out);
                    for_each_assignment(n, vars.len(), |assign| {
                        for (slot, &var) in assign.iter().zip(&vars) {
                            env[var as usize] = *slot;
                        }
                        input.clear();
                        for t in &tables {
                            input.extend_from_slice(t.cell_env(&env));
                        }
                        func.apply(&input, &mut result);
                        out.cell_mut(assign).copy_from_slice(&result);
                    });
                    out
                }
                Expr::Aggregate { agg, over, value, guard } => {
                    self.eval_aggregate(*agg, over, value, guard.as_deref())
                }
            }
        }

        fn eval_aggregate(
            &self,
            agg: Agg,
            over: &[Var],
            value: &Expr,
            guard: Option<&Expr>,
        ) -> EmbeddingTable {
            let n = self.g.num_vertices();

            // Fast path: single aggregation variable with an edge guard
            // anchored at a free variable — the MPNN neighbourhood shape.
            if self.opts.guard_fast_path && over.len() == 1 {
                if let Some(Expr::Edge { from, to }) = guard {
                    let y = over[0];
                    let anchor = if *to == y { Some((*from, true)) } else { None }
                        .or(if *from == y { Some((*to, false)) } else { None });
                    if let Some((x, outgoing)) = anchor {
                        if x != y {
                            return self.eval_nbr_aggregate(agg, x, y, outgoing, value);
                        }
                    }
                }
            }

            let value_t = self.eval_memo(value);
            let guard_t = guard.map(|ge| self.eval_memo(ge));

            // Output variables: (value ∪ guard vars) \ over.
            let mut all: Vec<Var> = value_t.vars().to_vec();
            if let Some(gt) = &guard_t {
                all.extend_from_slice(gt.vars());
            }
            all.sort_unstable();
            all.dedup();
            let out_vars: Vec<Var> = all.iter().copied().filter(|v| !over.contains(v)).collect();
            let over_sorted: Vec<Var> = {
                let mut o = over.to_vec();
                o.sort_unstable();
                o
            };

            let dim = value_t.dim();
            let mut out = EmbeddingTable::zeros(out_vars.clone(), dim, n);
            let max_var = all.iter().chain(over_sorted.iter()).copied().max().unwrap_or(0) as usize;
            let mut env = vec![0 as Vertex; max_var + 1];
            for_each_assignment(n, out_vars.len(), |outer| {
                for (slot, &var) in outer.iter().zip(&out_vars) {
                    env[var as usize] = *slot;
                }
                let mut state = agg.init(dim);
                // Iterate inner assignments over the aggregated variables.
                // `over` is disjoint from `out_vars`, so the inner loop can
                // reuse the same env buffer: it only writes the aggregated
                // slots, never the outer ones.
                for_each_assignment(n, over_sorted.len(), |inner| {
                    for (slot, &var) in inner.iter().zip(&over_sorted) {
                        env[var as usize] = *slot;
                    }
                    let pass = match &guard_t {
                        Some(gt) => gt.cell_env(&env)[0] != 0.0,
                        None => true,
                    };
                    if pass {
                        state.push(value_t.cell_env(&env));
                    }
                });
                out.cell_mut(outer).copy_from_slice(&state.finish());
            });
            out
        }

        /// Neighbour-list fast path for `agg_{y}(value | E(x, y))` (or the
        /// reversed guard `E(y, x)` with `outgoing = false`).
        fn eval_nbr_aggregate(
            &self,
            agg: Agg,
            x: Var,
            y: Var,
            outgoing: bool,
            value: &Expr,
        ) -> EmbeddingTable {
            let n = self.g.num_vertices();
            let value_t = self.eval_memo(value);
            let dim = value_t.dim();
            let mut out_vars: Vec<Var> =
                value_t.vars().iter().copied().filter(|&v| v != y).collect();
            if !out_vars.contains(&x) {
                out_vars.push(x);
                out_vars.sort_unstable();
            }
            let mut out = EmbeddingTable::zeros(out_vars.clone(), dim, n);
            let max_var = out_vars.iter().copied().max().unwrap_or(0).max(y) as usize;
            let mut env = vec![0 as Vertex; max_var + 1];
            for_each_assignment(n, out_vars.len(), |outer| {
                for (slot, &var) in outer.iter().zip(&out_vars) {
                    env[var as usize] = *slot;
                }
                let anchor_v = env[x as usize];
                let nbrs = if outgoing {
                    self.g.out_neighbors(anchor_v)
                } else {
                    self.g.in_neighbors(anchor_v)
                };
                let mut state = agg.init(dim);
                // `y` is never an output variable (the caller guarantees
                // `x != y`), so writing its slot in place is safe.
                for &w in nbrs {
                    env[y as usize] = w;
                    state.push(value_t.cell_env(&env));
                }
                out.cell_mut(outer).copy_from_slice(&state.finish());
            });
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::func::{Agg, Func};
    use gel_graph::families::{cycle, path, star};
    use gel_graph::GraphBuilder;

    #[test]
    fn label_atom_reads_components() {
        let g = path(3).with_labels(vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0], 2);
        let t = eval(&lab(1, 1), &g);
        assert_eq!(t.cell(&[0]), &[10.0]);
        assert_eq!(t.cell(&[2]), &[30.0]);
    }

    #[test]
    fn edge_atom_matches_adjacency() {
        let g = path(3);
        let t = eval(&edge(1, 2), &g);
        assert_eq!(t.cell(&[0, 1]), &[1.0]);
        assert_eq!(t.cell(&[1, 0]), &[1.0]);
        assert_eq!(t.cell(&[0, 2]), &[0.0]);
        assert_eq!(t.cell(&[0, 0]), &[0.0]);
    }

    #[test]
    fn edge_atom_reversed_vars() {
        // E(x2, x1): entry for (v_{x1}, v_{x2}) = has_edge(v_{x2}, v_{x1}).
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1);
        let g = b.build();
        let t = eval(&edge(2, 1), &g);
        // vars sorted = [1,2]; assignment [x1=1, x2=0] asks has_edge(0, 1).
        assert_eq!(t.cell(&[1, 0]), &[1.0]);
        assert_eq!(t.cell(&[0, 1]), &[0.0]);
    }

    #[test]
    fn cmp_atoms() {
        let g = path(3);
        let te = eval(&eq(1, 2), &g);
        assert_eq!(te.cell(&[1, 1]), &[1.0]);
        assert_eq!(te.cell(&[1, 2]), &[0.0]);
        let tn = eval(&ne(1, 2), &g);
        assert_eq!(tn.cell(&[1, 1]), &[0.0]);
        assert_eq!(tn.cell(&[1, 2]), &[1.0]);
    }

    #[test]
    fn sum_over_neighbors_is_degree() {
        // deg(v) = sum_{x2}(1 | E(x1,x2)).
        let g = star(3);
        let e = nbr_agg(Agg::Sum, 1, 2, constant(vec![1.0]));
        let t = eval(&e, &g);
        assert_eq!(t.cell(&[0]), &[3.0]);
        assert_eq!(t.cell(&[1]), &[1.0]);
    }

    #[test]
    fn fast_path_matches_dense_path() {
        let g = cycle(5).with_labels(vec![1.0, 2.0, 3.0, 4.0, 5.0], 1);
        let e = nbr_agg(Agg::Sum, 1, 2, lab(0, 2));
        let on = EvalOptions { guard_fast_path: true, ..EvalOptions::default() };
        let off = EvalOptions { guard_fast_path: false, ..EvalOptions::default() };
        let fast = eval_with(&e, &g, on);
        let dense = eval_with(&e, &g, off);
        assert!(fast.approx_eq(&dense, 0.0));
        for agg in [Agg::Mean, Agg::Max, Agg::Min] {
            let e = nbr_agg(agg, 1, 2, lab(0, 2));
            assert!(eval_with(&e, &g, on).approx_eq(&eval_with(&e, &g, off), 0.0));
        }
    }

    #[test]
    fn global_aggregation_closes_expression() {
        // Σ_v deg(v) = 2|E|.
        let g = cycle(6);
        let deg = nbr_agg(Agg::Sum, 1, 2, constant(vec![1.0]));
        let total = global_agg(Agg::Sum, 1, deg);
        let t = eval(&total, &g);
        assert_eq!(t.value(), &[12.0]);
    }

    #[test]
    fn triangle_expression_in_gel3() {
        // f_mul(E(x1,x2), E(x2,x3), E(x1,x3)) summed over all three vars
        // counts ordered triangles = 6·#triangles (slide 60's example).
        let tri = apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        let count = agg_over(Agg::Sum, vec![1, 2, 3], tri, None);
        let k4 = gel_graph::families::complete(4);
        assert_eq!(eval(&count, &k4).value(), &[24.0]); // 4 triangles · 6
        let c6 = cycle(6);
        assert_eq!(eval(&count, &c6).value(), &[0.0]);
    }

    #[test]
    fn mean_on_isolated_vertex_is_zero() {
        let g = GraphBuilder::new(2).build(); // no edges
        let e = nbr_agg(Agg::Mean, 1, 2, constant(vec![5.0]));
        let t = eval(&e, &g);
        assert_eq!(t.cell(&[0]), &[0.0], "empty bag ⇒ 0 by convention");
    }

    #[test]
    fn apply_aligns_different_var_sets() {
        // mul(lab0(x1), lab0(x2)) over a 2-vertex graph.
        let g = path(2).with_labels(vec![3.0, 5.0], 1);
        let e = mul2(lab(0, 1), lab(0, 2));
        let t = eval(&e, &g);
        assert_eq!(t.cell(&[0, 1]), &[15.0]);
        assert_eq!(t.cell(&[1, 1]), &[25.0]);
    }

    #[test]
    fn guarded_aggregation_with_non_edge_guard() {
        // Count vertices with the same label: sum_{x2}(1 | 1[x1 != x2] ... )
        let g = path(3).with_labels(vec![1.0, 1.0, 2.0], 1);
        // guard: x1 != x2
        let e = agg_over(Agg::Sum, vec![2], constant(vec![1.0]), Some(ne(1, 2)));
        let t = eval(&e, &g);
        assert_eq!(t.cell(&[0]), &[2.0]);
    }

    #[test]
    fn multi_var_aggregation() {
        // sum over (x2,x3) of E(x2,x3) with x1 free: constant per x1 = #arcs.
        let g = path(3);
        let e =
            agg_over(Agg::Sum, vec![2, 3], apply(Func::Concat, vec![edge(2, 3)]), Some(ne(1, 2)));
        // guard x1 != x2 removes x2 = x1 rows: for vertex 1 (middle) the
        // arcs not incident-from x2=1: arcs (0,1),(1,0),(1,2),(2,1) minus
        // those with source 1 → 2 arcs.
        let t = eval(&e, &g);
        assert_eq!(t.cell(&[1]), &[2.0]);
    }

    #[test]
    fn try_eval_reports_label_mismatches() {
        let g = path(3); // label_dim 1
        assert!(matches!(
            try_eval(&lab(3, 1), &g),
            Err(EvalError::LabelIndex { j: 3, label_dim: 1 })
        ));
        assert!(matches!(
            try_eval(&lab_vec(1, 4), &g),
            Err(EvalError::LabelVecDim { declared: 4, label_dim: 1 })
        ));
        assert!(matches!(try_eval(&edge(1, 1), &g), Err(EvalError::Type(_))));
        assert!(try_eval(&lab(0, 1), &g).is_ok());
        // Nested occurrences are found too.
        let nested = nbr_agg(Agg::Sum, 1, 2, lab(7, 2));
        assert!(try_eval(&nested, &g).is_err());
    }

    #[test]
    fn try_eval_reports_plans_too_wide_to_key() {
        // Σ_{x2..x16} Π lab0(x_i) on 16 vertices: 16^16 = 2^64 cells.
        let labels: Vec<Expr> = (1..=16).map(|v| lab(0, v)).collect();
        let mul = apply(Func::Mul { arity: 16, dim: 1 }, labels);
        let product = agg_over(Agg::Sum, (2..=16).collect(), mul, None);
        assert_eq!(
            try_eval(&product, &cycle(16)),
            Err(EvalError::Plan(PlanError::TooWide { vars: 16, n: 16 }))
        );
    }

    #[test]
    fn readout_of_vertex_embedding_is_invariant() {
        use gel_graph::random::{erdos_renyi, random_permutation};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let g = erdos_renyi(9, 0.4, &mut StdRng::seed_from_u64(8));
        let h = g.permute(&random_permutation(9, &mut rng));
        // A small MPNN-ish closed expression.
        let inner = nbr_agg(Agg::Sum, 1, 2, lab(0, 2));
        let e = global_agg(Agg::Sum, 1, mul2(inner.clone(), inner));
        assert!(eval(&e, &g).approx_eq(&eval(&e, &h), 1e-9), "invariance (slide 11)");
    }
}
