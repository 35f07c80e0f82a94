//! The abstract syntax of `GEL(Ω,Θ)` (paper slides 42–46, 59–61).
//!
//! Expressions:
//!
//! * atomic — `Lab_j(x_i)` (slide 43), `E(x_i, x_j)` and
//!   `1[x_i op x_j]` (slide 59), plus constants;
//! * function application `F(φ₁, …, φ_ℓ)` with `F ∈ Ω` (slides 44, 60);
//! * aggregation `agg^θ_{ȳ}(φ₁ | φ₂)` with `θ ∈ Θ` (slides 45–46, 61):
//!   aggregate the value of `φ₁` over all assignments of `ȳ` where the
//!   guard `φ₂` is non-zero; a missing guard means "aggregate over all
//!   of `V^{|ȳ|}`" (global aggregation, slide 46).
//!
//! Every expression has a *dimension* and a set of *free variables*
//! ([`Expr::dim`], [`Expr::free_vars`]); [`Expr::validate`] checks
//! dimension compatibility the way a query-language type checker would.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use crate::func::{Agg, Func};
use crate::table::Var;

/// Comparison operator of equality atoms (slide 59).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `1[x_i = x_j]`.
    Eq,
    /// `1[x_i ≠ x_j]`.
    Ne,
}

/// A `GEL(Ω,Θ)` expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `Lab_j(x_i)`: the `j`-th component (0-based) of the label of the
    /// vertex bound to `x_i`. Dimension 1.
    Label {
        /// Label component index (0-based).
        j: usize,
        /// The variable.
        var: Var,
    },
    /// The full label vector of `x_i` (a convenience for `ℝ^d` labels;
    /// equals the concatenation `(Lab_0(x), …, Lab_{d−1}(x))`).
    LabelVec {
        /// The variable.
        var: Var,
        /// Label dimension of the graphs this expression is meant for.
        dim: usize,
    },
    /// `E(x_i, x_j)`: 1 if the arc `(x_i, x_j)` exists, else 0.
    Edge {
        /// Source variable.
        from: Var,
        /// Target variable.
        to: Var,
    },
    /// `1[x_i op x_j]`.
    Cmp {
        /// Left variable.
        a: Var,
        /// The comparison.
        op: CmpOp,
        /// Right variable.
        b: Var,
    },
    /// A constant vector (dimension = `values.len()`, no free
    /// variables).
    Const {
        /// The constant value.
        values: Vec<f64>,
    },
    /// `F(φ₁, …, φ_ℓ)` for `F ∈ Ω`, applied to the concatenation of the
    /// argument values under the shared assignment.
    Apply {
        /// The function.
        func: Func,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `agg^θ_{ȳ}(value | guard)`.
    Aggregate {
        /// The aggregator θ ∈ Θ.
        agg: Agg,
        /// Variables `ȳ` aggregated away (non-empty, deduplicated).
        over: Vec<Var>,
        /// The aggregated expression φ₁.
        value: Box<Expr>,
        /// Optional guard φ₂ (must have dimension 1); `None` aggregates
        /// over every assignment.
        guard: Option<Box<Expr>>,
    },
    /// A physically shared subexpression — semantically identical to
    /// its contents, with `clone()` costing one reference-count bump
    /// instead of a deep copy.
    ///
    /// The WL-simulation builders ([`crate::wl_sim`]) embed several
    /// copies of the previous round per layer; with owned children that
    /// makes the *materialized* tree exponential in the round count
    /// (millions of nodes) even though the number of distinct subtrees
    /// is linear. Wrapping each round in `Shared` keeps construction,
    /// plan lowering and drop linear.
    ///
    /// Every observer on the request path is linear in the DAG's
    /// *distinct* nodes: [`Expr::validate`], [`Expr::dim`],
    /// [`Expr::free_vars`], [`Expr::all_vars`], [`Expr::rename_var`],
    /// [`crate::expr_dag_hash`], [`crate::check_against_graph`] and
    /// [`crate::analyze`] memoize their context-free result per shared
    /// node (keyed by `Arc` target address), so they answer exactly as
    /// the unfolded tree would at the cost of the DAG. `rename_var`
    /// also preserves the sharing in its output. Four observers still
    /// unfold on purpose: [`Expr::structural_hash`] is the independent
    /// oracle the memoized hash is checked against, [`Expr::size`]
    /// counts the logical (unfolded) tree by definition, `Display`
    /// prints the unfolded text the parser reads back, and `PartialEq`
    /// (derived) compares structure and does *not* unwrap:
    /// `Shared(e) != e`. None of the four runs on a served request.
    Shared(
        /// The shared subexpression.
        Arc<Expr>,
    ),
}

/// Errors reported by [`Expr::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A function cannot accept the concatenated dimension of its args.
    FuncDimension {
        /// Pretty name of the function.
        func: String,
        /// Offered input dimension.
        d_in: usize,
    },
    /// A guard must have dimension 1.
    GuardDimension(usize),
    /// Aggregation variable list empty or duplicated.
    BadAggregationVars,
    /// An `Edge`/`Cmp` atom uses the same variable twice.
    RepeatedVariable(Var),
    /// Variable id 0 is reserved (variables are 1-based like the paper).
    ZeroVariable,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::FuncDimension { func, d_in } => {
                write!(f, "function {func} cannot accept input dimension {d_in}")
            }
            TypeError::GuardDimension(d) => write!(f, "guard must have dimension 1, got {d}"),
            TypeError::BadAggregationVars => write!(f, "aggregation variables empty or repeated"),
            TypeError::RepeatedVariable(v) => write!(f, "atom uses variable x{v} twice"),
            TypeError::ZeroVariable => write!(f, "variable ids are 1-based"),
        }
    }
}

impl std::error::Error for TypeError {}

impl Expr {
    /// The output dimension of the expression.
    ///
    /// # Panics
    /// Panics on ill-typed expressions; call [`Expr::validate`] first
    /// when handling untrusted input.
    pub fn dim(&self) -> usize {
        self.dim_memo(&mut HashMap::new())
    }

    fn dim_memo(&self, memo: &mut HashMap<usize, usize>) -> usize {
        match self {
            Expr::Label { .. } | Expr::Edge { .. } | Expr::Cmp { .. } => 1,
            Expr::LabelVec { dim, .. } => *dim,
            Expr::Const { values } => values.len(),
            Expr::Apply { func, args } => {
                let d_in: usize = args.iter().map(|a| a.dim_memo(memo)).sum();
                func.out_dim(d_in).expect("ill-typed Apply; validate first")
            }
            Expr::Aggregate { value, .. } => value.dim_memo(memo),
            Expr::Shared(rc) => memo_shared(memo, |m| m, shared_addr(rc), |m| rc.dim_memo(m)),
        }
    }

    /// The set of free variables (paper: `fv(φ)`).
    pub fn free_vars(&self) -> BTreeSet<Var> {
        self.free_vars_memo(&mut HashMap::new())
    }

    /// [`Expr::free_vars`] with a caller-held memo of the free
    /// variables of each [`Expr::Shared`] node, so several queries over
    /// one DAG (the fragment analysis asks at many nodes) share work.
    pub(crate) fn free_vars_memo(&self, memo: &mut VarMemo) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_free(&mut out, memo);
        out
    }

    fn collect_free(&self, out: &mut BTreeSet<Var>, memo: &mut VarMemo) {
        match self {
            Expr::Label { var, .. } | Expr::LabelVec { var, .. } => {
                out.insert(*var);
            }
            Expr::Edge { from, to } => {
                out.insert(*from);
                out.insert(*to);
            }
            Expr::Cmp { a, b, .. } => {
                out.insert(*a);
                out.insert(*b);
            }
            Expr::Const { .. } => {}
            Expr::Apply { args, .. } => {
                for a in args {
                    a.collect_free(out, memo);
                }
            }
            Expr::Aggregate { over, value, guard, .. } => {
                let mut inner = BTreeSet::new();
                value.collect_free(&mut inner, memo);
                if let Some(g) = guard {
                    g.collect_free(&mut inner, memo);
                }
                for v in over {
                    inner.remove(v);
                }
                out.extend(inner);
            }
            Expr::Shared(rc) => {
                out.extend(memo_shared(memo, |m| m, shared_addr(rc), |m| rc.free_vars_memo(m)))
            }
        }
    }

    /// All variables mentioned anywhere (free or aggregated) — the
    /// *variable width* used by the fragment analysis (`GEL_k` uses at
    /// most `k` distinct variables, slide 62).
    pub fn all_vars(&self) -> BTreeSet<Var> {
        self.all_vars_memo(&mut HashMap::new())
    }

    fn all_vars_memo(&self, memo: &mut VarMemo) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_all(&mut out, memo);
        out
    }

    fn collect_all(&self, out: &mut BTreeSet<Var>, memo: &mut VarMemo) {
        match self {
            Expr::Label { var, .. } | Expr::LabelVec { var, .. } => {
                out.insert(*var);
            }
            Expr::Edge { from, to } => {
                out.insert(*from);
                out.insert(*to);
            }
            Expr::Cmp { a, b, .. } => {
                out.insert(*a);
                out.insert(*b);
            }
            Expr::Const { .. } => {}
            Expr::Apply { args, .. } => {
                for a in args {
                    a.collect_all(out, memo);
                }
            }
            Expr::Aggregate { over, value, guard, .. } => {
                out.extend(over.iter().copied());
                value.collect_all(out, memo);
                if let Some(g) = guard {
                    g.collect_all(out, memo);
                }
            }
            Expr::Shared(rc) => {
                out.extend(memo_shared(memo, |m| m, shared_addr(rc), |m| rc.all_vars_memo(m)))
            }
        }
    }

    /// Type-checks the expression; `Ok(dim)` on success. On an
    /// ill-typed expression the error is the first one a pre-order,
    /// left-to-right walk (value before guard) meets.
    pub fn validate(&self) -> Result<usize, TypeError> {
        self.validate_memo(&mut HashMap::new())
    }

    fn validate_memo(
        &self,
        memo: &mut HashMap<usize, Result<usize, TypeError>>,
    ) -> Result<usize, TypeError> {
        match self {
            Expr::Label { var, .. } | Expr::LabelVec { var, .. } => {
                if *var == 0 {
                    return Err(TypeError::ZeroVariable);
                }
                Ok(self.dim_unchecked())
            }
            Expr::Edge { from, to } => {
                if *from == 0 || *to == 0 {
                    return Err(TypeError::ZeroVariable);
                }
                if from == to {
                    return Err(TypeError::RepeatedVariable(*from));
                }
                Ok(1)
            }
            Expr::Cmp { a, b, .. } => {
                if *a == 0 || *b == 0 {
                    return Err(TypeError::ZeroVariable);
                }
                if a == b {
                    return Err(TypeError::RepeatedVariable(*a));
                }
                Ok(1)
            }
            Expr::Const { values } => Ok(values.len()),
            Expr::Apply { func, args } => {
                // A shared DAG can double a dimension per level, so the
                // sum can overflow; no function accepts that input.
                let mut d_in = 0usize;
                for a in args {
                    d_in = d_in.saturating_add(a.validate_memo(memo)?);
                }
                func.out_dim(d_in)
                    .filter(|_| d_in != usize::MAX)
                    .ok_or_else(|| TypeError::FuncDimension { func: func.name(), d_in })
            }
            Expr::Aggregate { over, value, guard, .. } => {
                if over.is_empty() {
                    return Err(TypeError::BadAggregationVars);
                }
                let mut dedup = over.clone();
                dedup.sort_unstable();
                dedup.dedup();
                if dedup.len() != over.len() || dedup.contains(&0) {
                    return Err(TypeError::BadAggregationVars);
                }
                let d = value.validate_memo(memo)?;
                if let Some(g) = guard {
                    let gd = g.validate_memo(memo)?;
                    if gd != 1 {
                        return Err(TypeError::GuardDimension(gd));
                    }
                }
                Ok(d)
            }
            Expr::Shared(rc) => memo_shared(memo, |m| m, shared_addr(rc), |m| rc.validate_memo(m)),
        }
    }

    fn dim_unchecked(&self) -> usize {
        match self {
            Expr::LabelVec { dim, .. } => *dim,
            _ => 1,
        }
    }

    /// Renames every occurrence (free and bound) of variable `from` to
    /// `to`. Used by the WL-simulation builders which instantiate one
    /// template at several positions (experiment E9).
    pub fn rename_var(&self, from: Var, to: Var) -> Expr {
        self.rename_memo(from, to, &mut HashMap::new())
    }

    /// [`Expr::rename_var`] with a per-call memo of already-renamed
    /// [`Expr::Shared`] nodes, so renaming a shared DAG stays linear in
    /// its *distinct* nodes and the result is shared the same way the
    /// input was.
    fn rename_memo(&self, from: Var, to: Var, memo: &mut HashMap<usize, Arc<Expr>>) -> Expr {
        let r = |v: Var| if v == from { to } else { v };
        match self {
            Expr::Label { j, var } => Expr::Label { j: *j, var: r(*var) },
            Expr::LabelVec { var, dim } => Expr::LabelVec { var: r(*var), dim: *dim },
            Expr::Edge { from: a, to: b } => Expr::Edge { from: r(*a), to: r(*b) },
            Expr::Cmp { a, op, b } => Expr::Cmp { a: r(*a), op: *op, b: r(*b) },
            Expr::Const { values } => Expr::Const { values: values.clone() },
            Expr::Apply { func, args } => Expr::Apply {
                func: func.clone(),
                args: args.iter().map(|a| a.rename_memo(from, to, memo)).collect(),
            },
            Expr::Aggregate { agg, over, value, guard } => Expr::Aggregate {
                agg: *agg,
                over: over.iter().map(|&v| r(v)).collect(),
                value: Box::new(value.rename_memo(from, to, memo)),
                guard: guard.as_ref().map(|g| Box::new(g.rename_memo(from, to, memo))),
            },
            Expr::Shared(rc) => Expr::Shared(memo_shared(
                memo,
                |m| m,
                shared_addr(rc),
                |m| Arc::new(rc.rename_memo(from, to, m)),
            )),
        }
    }

    /// A 64-bit structural fingerprint: equal expressions hash equal.
    /// The evaluator memoizes on this, which collapses the exponential
    /// duplication created by the layer compilers (each WL-simulation
    /// round embeds several copies of the previous round) back to
    /// linear work.
    pub fn structural_hash(&self) -> u64 {
        if let Expr::Shared(e) = self {
            // Transparent: hashes as its contents. This unfolds the DAG
            // on purpose — it is the independent oracle for the
            // memoized `crate::expr_dag_hash`, which request paths use.
            return e.structural_hash();
        }
        let mut h = self.hash_header();
        match self {
            Expr::Apply { args, .. } => {
                for a in args {
                    h = hash_mix(h, a.structural_hash());
                }
            }
            Expr::Aggregate { value, guard, .. } => {
                h = hash_mix(h, value.structural_hash());
                if let Some(g) = guard {
                    h = hash_mix(h, g.structural_hash());
                }
            }
            _ => {}
        }
        h
    }

    /// The child-independent prefix of [`Expr::structural_hash`]: for a
    /// leaf this is the full hash; for `Apply`/`Aggregate` the full
    /// hash is this header [`hash_mix`]ed with each child's hash in
    /// order (value, then guard). The plan compiler uses this to hash
    /// an expression bottom-up in the same walk that lowers it, turning
    /// the quadratic per-subtree rehash into linear work.
    pub(crate) fn hash_header(&self) -> u64 {
        let mix = hash_mix;
        match self {
            Expr::Label { j, var } => mix(mix(1, *j as u64), *var as u64),
            Expr::LabelVec { var, dim } => mix(mix(2, *var as u64), *dim as u64),
            Expr::Edge { from, to } => mix(mix(3, *from as u64), *to as u64),
            Expr::Cmp { a, op, b } => mix(mix(mix(4, *a as u64), *op as u64), *b as u64),
            Expr::Const { values } => values.iter().fold(5, |h, v| mix(h, v.to_bits())),
            Expr::Apply { func, .. } => {
                let h = 6;
                match func {
                    crate::func::Func::Linear { weights, bias } => {
                        let mut h = mix(h, 10);
                        h = mix(h, weights.rows() as u64);
                        h = mix(h, weights.cols() as u64);
                        for v in weights.data() {
                            h = mix(h, v.to_bits());
                        }
                        for v in bias {
                            h = mix(h, v.to_bits());
                        }
                        h
                    }
                    crate::func::Func::Act(a) => mix(h, 11 + *a as u64 * 31),
                    crate::func::Func::Concat => mix(h, 12),
                    crate::func::Func::Add { arity, dim } => {
                        mix(mix(mix(h, 13), *arity as u64), *dim as u64)
                    }
                    crate::func::Func::Mul { arity, dim } => {
                        mix(mix(mix(h, 14), *arity as u64), *dim as u64)
                    }
                    crate::func::Func::Scale(s) => mix(mix(h, 15), s.to_bits()),
                    crate::func::Func::Proj { start, len } => {
                        mix(mix(mix(h, 16), *start as u64), *len as u64)
                    }
                    crate::func::Func::Hash { seed } => mix(mix(h, 17), *seed),
                }
            }
            Expr::Aggregate { agg, over, .. } => {
                let mut h = mix(7, *agg as u64);
                for v in over {
                    h = mix(h, *v as u64);
                }
                h
            }
            Expr::Shared(e) => e.hash_header(),
        }
    }

    /// Swaps variables `a` and `b` everywhere (free and bound). Unlike
    /// [`Expr::rename_var`], a swap is always capture-avoiding, which
    /// is what the layer compilers need to reuse two variables across
    /// layers (slide 42: "we take two variables x₁ and x₂").
    pub fn swap_vars(&self, a: Var, b: Var) -> Expr {
        const TMP: Var = Var::MAX;
        self.rename_var(a, TMP).rename_var(b, a).rename_var(TMP, b)
    }

    /// Number of AST nodes (diagnostics / complexity bookkeeping).
    pub fn size(&self) -> usize {
        match self {
            Expr::Label { .. }
            | Expr::LabelVec { .. }
            | Expr::Edge { .. }
            | Expr::Cmp { .. }
            | Expr::Const { .. } => 1,
            Expr::Apply { args, .. } => 1 + args.iter().map(Expr::size).sum::<usize>(),
            Expr::Aggregate { value, guard, .. } => {
                1 + value.size() + guard.as_ref().map_or(0, |g| g.size())
            }
            // Logical size: counts the unfolding, like every other
            // observer of the syntax tree.
            Expr::Shared(e) => e.size(),
        }
    }
}

/// Per-walk memo of the variable set below each [`Expr::Shared`] node.
pub(crate) type VarMemo = HashMap<usize, BTreeSet<Var>>;

/// The memo key of a shared node: its `Arc` target address as a
/// `usize` (not a raw pointer, so engines holding a memo stay `Send`).
/// Unique for the length of one walk, since the walked expression keeps
/// every shared node alive.
#[inline]
pub(crate) fn shared_addr(rc: &Arc<Expr>) -> usize {
    Arc::as_ptr(rc) as usize
}

/// The memo-at-[`Expr::Shared`] step of every linear DAG walk (the
/// plan hash, renaming, type checking, variable sets, the graph
/// pre-flight and the fragment analysis): returns the result cached
/// under `key` in the map `memo` selects from `state`, or computes it
/// with `compute` and caches it. Sound because each of those facts
/// about a shared sub-expression is context-free, so a DAG walk with
/// this step answers exactly as the walk over its unfolded tree would,
/// in time linear in the DAG's distinct nodes.
pub(crate) fn memo_shared<S, K: Eq + Hash, T: Clone>(
    state: &mut S,
    memo: impl Fn(&mut S) -> &mut HashMap<K, T>,
    key: K,
    compute: impl FnOnce(&mut S) -> T,
) -> T {
    if let Some(hit) = memo(state).get(&key) {
        return hit.clone();
    }
    let v = compute(state);
    memo(state).insert(key, v.clone());
    v
}

/// The mixing step of [`Expr::structural_hash`]. Exposed to the plan
/// compiler so it can fold child hashes into [`Expr::hash_header`]
/// without re-walking subtrees.
#[inline]
pub(crate) fn hash_mix(h: u64, x: u64) -> u64 {
    let mut h = h ^ x.wrapping_mul(0x9e3779b97f4a7c15);
    h = h.wrapping_mul(0x100000001b3);
    h ^ (h >> 29)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Label { j, var } => write!(f, "lab{j}(x{var})"),
            Expr::LabelVec { var, .. } => write!(f, "lab(x{var})"),
            Expr::Edge { from, to } => write!(f, "E(x{from},x{to})"),
            Expr::Cmp { a, op, b } => {
                let s = if *op == CmpOp::Eq { "=" } else { "!=" };
                write!(f, "1[x{a}{s}x{b}]")
            }
            Expr::Const { values } => {
                write!(f, "const[")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Expr::Apply { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Aggregate { agg, over, value, guard } => {
                write!(f, "{}_{{", agg.name())?;
                for (i, v) in over.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "x{v}")?;
                }
                write!(f, "}}({value}")?;
                if let Some(g) = guard {
                    write!(f, " | {g}")?;
                }
                write!(f, ")")
            }
            // Transparent: prints (and therefore re-parses) as the
            // unfolded expression.
            Expr::Shared(e) => write!(f, "{e}"),
        }
    }
}

/// Convenience constructors mirroring the paper's notation.
pub mod build {
    use super::*;

    /// `lab_j(x_var)`.
    pub fn lab(j: usize, var: Var) -> Expr {
        Expr::Label { j, var }
    }

    /// The full label vector of `x_var` (for label dimension `dim`).
    pub fn lab_vec(var: Var, dim: usize) -> Expr {
        Expr::LabelVec { var, dim }
    }

    /// `E(x_from, x_to)`.
    pub fn edge(from: Var, to: Var) -> Expr {
        Expr::Edge { from, to }
    }

    /// `1[x_a = x_b]`.
    pub fn eq(a: Var, b: Var) -> Expr {
        Expr::Cmp { a, op: CmpOp::Eq, b }
    }

    /// `1[x_a ≠ x_b]`.
    pub fn ne(a: Var, b: Var) -> Expr {
        Expr::Cmp { a, op: CmpOp::Ne, b }
    }

    /// A constant.
    pub fn constant(values: Vec<f64>) -> Expr {
        Expr::Const { values }
    }

    /// `F(args…)`.
    pub fn apply(func: Func, args: Vec<Expr>) -> Expr {
        Expr::Apply { func, args }
    }

    /// Guarded neighbourhood aggregation
    /// `agg^θ_{x_over}(value | E(x_anchor, x_over))` — the MPNN form
    /// (slide 45).
    pub fn nbr_agg(agg: Agg, anchor: Var, over: Var, value: Expr) -> Expr {
        Expr::Aggregate {
            agg,
            over: vec![over],
            value: Box::new(value),
            guard: Some(Box::new(edge(anchor, over))),
        }
    }

    /// Global aggregation `agg^θ_{x_over}(value)` (slide 46).
    pub fn global_agg(agg: Agg, over: Var, value: Expr) -> Expr {
        Expr::Aggregate { agg, over: vec![over], value: Box::new(value), guard: None }
    }

    /// General guarded aggregation over several variables (slide 61).
    pub fn agg_over(agg: Agg, over: Vec<Var>, value: Expr, guard: Option<Expr>) -> Expr {
        Expr::Aggregate { agg, over, value: Box::new(value), guard: guard.map(Box::new) }
    }

    /// Pointwise sum of two equal-dimension expressions.
    pub fn add2(a: Expr, b: Expr) -> Expr {
        let dim = a.dim();
        apply(Func::Add { arity: 2, dim }, vec![a, b])
    }

    /// Pointwise product of two equal-dimension expressions.
    pub fn mul2(a: Expr, b: Expr) -> Expr {
        let dim = a.dim();
        apply(Func::Mul { arity: 2, dim }, vec![a, b])
    }

    /// ReLU.
    pub fn relu(e: Expr) -> Expr {
        apply(Func::Act(gel_tensor::Activation::ReLU), vec![e])
    }

    /// The injective mix (for WL simulation).
    pub fn hash(seed: u64, e: Expr) -> Expr {
        apply(Func::Hash { seed }, vec![e])
    }

    /// Wraps `e` in [`Expr::Shared`] so subsequent `clone()`s are
    /// reference-count bumps instead of deep copies.
    pub fn share(e: Expr) -> Expr {
        Expr::Shared(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::build::*;
    use super::*;
    use gel_tensor::Matrix;

    #[test]
    fn dims_and_free_vars() {
        // sum_{x2}( concat(lab0(x1), lab0(x2)) | E(x1,x2) )
        let e = nbr_agg(Agg::Sum, 1, 2, apply(Func::Concat, vec![lab(0, 1), lab(0, 2)]));
        assert_eq!(e.validate().unwrap(), 2);
        assert_eq!(e.dim(), 2);
        let fv: Vec<Var> = e.free_vars().into_iter().collect();
        assert_eq!(fv, vec![1]);
        let av: Vec<Var> = e.all_vars().into_iter().collect();
        assert_eq!(av, vec![1, 2]);
    }

    #[test]
    fn closed_expression_has_no_free_vars() {
        let e = global_agg(Agg::Sum, 1, lab(0, 1));
        assert!(e.free_vars().is_empty());
        assert_eq!(e.validate().unwrap(), 1);
    }

    #[test]
    fn validate_rejects_bad_linear() {
        let e = apply(
            Func::Linear { weights: Matrix::zeros(3, 2), bias: vec![0.0; 2] },
            vec![lab(0, 1)], // d_in = 1, needs 3
        );
        assert!(matches!(e.validate(), Err(TypeError::FuncDimension { .. })));
    }

    #[test]
    fn validate_rejects_vector_guard() {
        let e = agg_over(Agg::Sum, vec![2], lab(0, 1), Some(lab_vec(2, 3)));
        assert_eq!(e.validate(), Err(TypeError::GuardDimension(3)));
    }

    #[test]
    fn validate_rejects_dup_agg_vars() {
        let e = agg_over(Agg::Sum, vec![2, 2], lab(0, 1), None);
        assert_eq!(e.validate(), Err(TypeError::BadAggregationVars));
    }

    #[test]
    fn validate_rejects_self_edge_atom() {
        assert_eq!(edge(1, 1).validate(), Err(TypeError::RepeatedVariable(1)));
        assert_eq!(eq(2, 2).validate(), Err(TypeError::RepeatedVariable(2)));
    }

    #[test]
    fn rename_respects_binding() {
        let e = nbr_agg(Agg::Sum, 1, 2, lab(0, 2));
        let r = e.rename_var(1, 3);
        let fv: Vec<Var> = r.free_vars().into_iter().collect();
        assert_eq!(fv, vec![3]);
        // Renaming the bound variable changes `over` too.
        let r2 = e.rename_var(2, 3);
        if let Expr::Aggregate { over, .. } = &r2 {
            assert_eq!(over, &vec![3]);
        } else {
            panic!("shape changed");
        }
    }

    #[test]
    fn display_round_readable() {
        let e = nbr_agg(Agg::Sum, 1, 2, lab(0, 2));
        assert_eq!(e.to_string(), "sum_{x2}(lab0(x2) | E(x1,x2))");
        assert_eq!(eq(1, 2).to_string(), "1[x1=x2]");
    }

    #[test]
    fn size_counts_nodes() {
        let e = add2(lab(0, 1), lab(1, 1));
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn display_parse_roundtrip() {
        // Textual round-trip through the native syntax.
        let e = nbr_agg(Agg::Max, 1, 2, mul2(lab(0, 1), lab(0, 2)));
        let back = crate::parser::parse(&e.to_string()).unwrap();
        assert_eq!(e, back);
    }
}
