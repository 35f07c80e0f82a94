//! The *recipe* (paper slide 35): cast an embedding method as an
//! expression, read off the fragment it lives in, and conclude an upper
//! bound on its separation power.
//!
//! * variable width `k` ⇒ the expression is in `GEL_k(Ω,Θ)` and its
//!   separation power is bounded by `(k−1)-WL` (slide 66);
//! * if moreover every atom and aggregation is *guarded* in the MPNN
//!   sense (slides 42–47), the expression is in
//!   `MPNN(Ω,Θ) = GGEL_2(Ω,Θ)` and the bound improves to colour
//!   refinement (slide 51).

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::ast::{memo_shared, shared_addr, Expr, VarMemo};
use crate::func::Agg;
use crate::table::Var;

/// The syntactic fragment an expression belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fragment {
    /// The guarded 2-variable fragment `MPNN(Ω,Θ)` (slide 47).
    Mpnn,
    /// `GEL_k(Ω,Θ)`: at most `k` distinct variables (slide 62).
    Gel(usize),
}

/// The WL-hierarchy bound implied by the fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WlBound {
    /// Separation power ⊆ colour refinement (slide 51).
    ColorRefinement,
    /// Separation power ⊆ folklore `k`-WL (slide 66).
    KWl(usize),
}

impl fmt::Display for WlBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WlBound::ColorRefinement => write!(f, "colour refinement"),
            WlBound::KWl(k) => write!(f, "{k}-WL"),
        }
    }
}

/// The output of the recipe analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpressivenessReport {
    /// Fragment the expression syntactically belongs to.
    pub fragment: Fragment,
    /// Number of distinct variables used.
    pub width: usize,
    /// Implied upper bound on separation power.
    pub bound: WlBound,
    /// Aggregators appearing in the expression.
    pub aggregators: Vec<Agg>,
    /// Whether the expression is closed (graph embedding) or has free
    /// variables (p-vertex embedding).
    pub free_vars: Vec<Var>,
}

impl fmt::Display for ExpressivenessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frag = match self.fragment {
            Fragment::Mpnn => "MPNN(Ω,Θ)".to_string(),
            Fragment::Gel(k) => format!("GEL_{}(Ω,Θ)", k),
        };
        write!(f, "fragment {frag}, width {}, separation power ⊆ ρ({})", self.width, self.bound)
    }
}

/// Runs the recipe on an expression. Linear in the distinct nodes of a
/// shared DAG: every walk memoizes at [`Expr::Shared`] boundaries.
pub fn analyze(expr: &Expr) -> ExpressivenessReport {
    let mut walk = Walk::default();
    let all_vars = expr.all_vars();
    let width = all_vars.len().max(1);
    let guarded = two_variables(&all_vars) && walk.mpnn_shape(expr, true);
    let fragment = if guarded { Fragment::Mpnn } else { Fragment::Gel(width) };
    let bound = match fragment {
        Fragment::Mpnn => WlBound::ColorRefinement,
        // GEL_k ⊆ C^k in counting power ⇒ bounded by (k−1)-WL; GEL_1 is
        // label-only (bounded by CR trivially, report CR).
        Fragment::Gel(k) if k >= 2 => WlBound::KWl(k - 1),
        Fragment::Gel(_) => WlBound::ColorRefinement,
    };
    let mut aggregators = Vec::new();
    collect_aggs(expr, &mut aggregators, &mut HashMap::new());
    ExpressivenessReport {
        fragment,
        width,
        bound,
        aggregators,
        free_vars: expr.free_vars_memo(&mut walk.free).into_iter().collect(),
    }
}

/// Pushes each aggregator in first-appearance order. A shared node is
/// entered once: a second visit could only find aggregators already
/// pushed.
fn collect_aggs(expr: &Expr, out: &mut Vec<Agg>, seen: &mut HashMap<usize, ()>) {
    match expr {
        Expr::Apply { args, .. } => {
            for a in args {
                collect_aggs(a, out, seen);
            }
        }
        Expr::Aggregate { agg, value, guard, .. } => {
            if !out.contains(agg) {
                out.push(*agg);
            }
            collect_aggs(value, out, seen);
            if let Some(g) = guard {
                collect_aggs(g, out, seen);
            }
        }
        Expr::Shared(rc) => memo_shared(seen, |m| m, shared_addr(rc), |m| collect_aggs(rc, out, m)),
        _ => {}
    }
}

/// Syntactic membership in the `MPNN(Ω,Θ)` fragment (slides 42–47):
///
/// * only variables `x1`, `x2` appear;
/// * atoms are labels or constants — `E` appears only as an aggregation
///   guard, and equality atoms do not appear;
/// * every aggregation binds exactly one variable, its guard is exactly
///   the edge atom between the free anchor and the bound variable, and
///   the aggregation body's free variables are among `{anchor, bound}`;
/// * a closed expression may additionally use one *global* aggregation
///   over the single remaining free variable (slide 46).
pub fn is_mpnn(expr: &Expr) -> bool {
    two_variables(&expr.all_vars()) && Walk::default().mpnn_shape(expr, true)
}

fn two_variables(vars: &BTreeSet<Var>) -> bool {
    vars.iter().all(|&v| v == 1 || v == 2)
}

/// `e` with the `Shared` wrappers around its root removed.
fn unwrap_shared(mut e: &Expr) -> &Expr {
    while let Expr::Shared(rc) = e {
        e = rc;
    }
    e
}

/// The memos of one fragment analysis, one per fact, each keyed at
/// [`Expr::Shared`] boundaries (see [`memo_shared`]).
#[derive(Default)]
struct Walk {
    free: VarMemo,
    global: HashMap<usize, bool>,
    shape: HashMap<(usize, bool), bool>,
}

impl Walk {
    fn contains_global_agg(&mut self, expr: &Expr) -> bool {
        match expr {
            Expr::Aggregate { guard: None, .. } => true,
            Expr::Aggregate { value, guard: Some(g), .. } => {
                self.contains_global_agg(value) || self.contains_global_agg(g)
            }
            Expr::Apply { args, .. } => args.iter().any(|a| self.contains_global_agg(a)),
            Expr::Shared(rc) => {
                memo_shared(self, |w| &mut w.global, shared_addr(rc), |w| w.contains_global_agg(rc))
            }
            _ => false,
        }
    }

    fn mpnn_shape(&mut self, expr: &Expr, allow_global: bool) -> bool {
        match expr {
            Expr::Label { .. } | Expr::LabelVec { .. } | Expr::Const { .. } => true,
            Expr::Edge { .. } | Expr::Cmp { .. } => false, // only allowed as guards
            Expr::Apply { args, .. } => {
                if args.iter().any(|a| self.contains_global_agg(a)) {
                    // A global aggregate is a *graph*-level value; it may
                    // be post-processed by readout functions (slide 46)
                    // but not combined with open vertex expressions —
                    // that would be a "virtual node" feature exceeding
                    // the CR bound.
                    allow_global
                        && args.iter().all(|a| {
                            a.free_vars_memo(&mut self.free).is_empty() && self.mpnn_shape(a, true)
                        })
                } else {
                    args.iter().all(|a| self.mpnn_shape(a, allow_global))
                }
            }
            Expr::Aggregate { over, value, guard, .. } => {
                if over.len() != 1 {
                    return false;
                }
                let y = over[0];
                match guard {
                    Some(g) => {
                        // Must be exactly E(x, y) or E(y, x) with x ≠ y,
                        // shared or not.
                        let ok_guard = matches!(
                            unwrap_shared(g),
                            Expr::Edge { from, to }
                                if (*to == y && *from != y) || (*from == y && *to != y)
                        );
                        ok_guard && self.mpnn_shape(value, false)
                    }
                    None => {
                        // Global aggregation: only allowed at the
                        // outermost level (readout, slide 46) and the
                        // body must be a 1-variable MPNN expression.
                        allow_global
                            && value.free_vars_memo(&mut self.free).len() <= 1
                            && self.mpnn_shape(value, false)
                    }
                }
            }
            Expr::Shared(rc) => memo_shared(
                self,
                |w| &mut w.shape,
                (shared_addr(rc), allow_global),
                |w| w.mpnn_shape(rc, allow_global),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::func::Func;

    #[test]
    fn mpnn_shape_accepted() {
        // GIN-ish layer: relu(add(lab(x1), sum_{x2}(lab(x2)|E(x1,x2)))).
        let layer = relu(add2(lab(0, 1), nbr_agg(Agg::Sum, 1, 2, lab(0, 2))));
        let r = analyze(&layer);
        assert_eq!(r.fragment, Fragment::Mpnn);
        assert_eq!(r.bound, WlBound::ColorRefinement);
        assert_eq!(r.width, 2);
        assert_eq!(r.free_vars, vec![1]);
    }

    #[test]
    fn readout_still_mpnn() {
        let layer = nbr_agg(Agg::Sum, 1, 2, lab(0, 2));
        let graph_emb = global_agg(Agg::Sum, 1, layer);
        let r = analyze(&graph_emb);
        assert_eq!(r.fragment, Fragment::Mpnn);
        assert!(r.free_vars.is_empty());
    }

    #[test]
    fn naked_edge_atom_leaves_fragment() {
        // E(x1,x2) outside a guard is full GEL_2.
        let e = mul2(edge(1, 2), lab(0, 1));
        let r = analyze(&e);
        assert_eq!(r.fragment, Fragment::Gel(2));
        assert_eq!(r.bound, WlBound::KWl(1));
    }

    #[test]
    fn equality_atom_leaves_fragment() {
        let e = agg_over(Agg::Sum, vec![2], lab(0, 2), Some(ne(1, 2)));
        assert_eq!(analyze(&e).fragment, Fragment::Gel(2));
    }

    #[test]
    fn three_variables_is_gel3_bounded_by_2wl() {
        let tri = apply(Func::Mul { arity: 3, dim: 1 }, vec![edge(1, 2), edge(2, 3), edge(1, 3)]);
        let e = agg_over(Agg::Sum, vec![1, 2, 3], tri, None);
        let r = analyze(&e);
        assert_eq!(r.fragment, Fragment::Gel(3));
        assert_eq!(r.bound, WlBound::KWl(2));
        assert_eq!(r.width, 3);
    }

    #[test]
    fn global_agg_inside_body_rejected_from_mpnn() {
        // An inner unguarded aggregation is not the MPNN shape.
        let inner = global_agg(Agg::Sum, 2, lab(0, 2));
        let e = add2(lab(0, 1), inner);
        assert!(!is_mpnn(&e));
    }

    #[test]
    fn aggregators_are_collected() {
        let e = nbr_agg(Agg::Max, 1, 2, nbr_agg(Agg::Sum, 2, 1, lab(0, 1)));
        let r = analyze(&e);
        assert!(r.aggregators.contains(&Agg::Max));
        assert!(r.aggregators.contains(&Agg::Sum));
    }

    #[test]
    fn report_displays() {
        let e = nbr_agg(Agg::Sum, 1, 2, lab(0, 2));
        let s = analyze(&e).to_string();
        assert!(s.contains("MPNN"));
        assert!(s.contains("colour refinement"));
    }
}
