//! General homomorphism counting as a GEL query, in the style of FAQ
//! — "Functional Aggregate Queries" (Khamis, Ngo, Rudra, PODS 2016),
//! which the paper points to on slide 70 when discussing how functions
//! and aggregations behave as semiring operators.
//!
//! `hom(P, G)` is the closed sum-product
//! `Σ_{x₁…x_p} Π_{(a,b) ∈ E_P} E(x_a, x_b)`, a `GEL_p` expression.
//! [`hom_count`] builds it and evaluates it on the compiled GEL engine
//! ([`gel_lang::EvalEngine`]), whose planner contracts it over sparse
//! coordinate lists: by a worst-case-optimal multiway join when the
//! pattern's fractional edge cover `ρ*` is at most its induced width
//! `w`, otherwise by min-degree variable elimination. The running time
//! is exponential only in `w` — the treewidth connection the paper
//! draws for GEL fragments (slide 70, "semantic treewidth").

use std::fmt;

use gel_graph::Graph;
use gel_lang::ast::build::{agg_over, apply, edge, eq};
use gel_lang::{Agg, EvalEngine, Expr, Func, PlanError, Var};

/// A pattern whose count the GEL engine cannot evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomError {
    /// The pattern needs more variables than GEL can name: one per
    /// vertex plus one per self-loop, at most [`Var::MAX`] (255).
    TooManyVariables {
        /// Variables the pattern needs.
        vars: usize,
    },
    /// The engine refused the plan: eliminating the pattern's
    /// variables needs a table too wide to key on this target.
    Plan(PlanError),
}

impl fmt::Display for HomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HomError::TooManyVariables { vars } => write!(
                f,
                "pattern needs {vars} variables (one per vertex and self-loop), \
                 GEL names at most {}",
                Var::MAX
            ),
            HomError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HomError {}

/// The closed GEL query counting homomorphisms from `p`, which must
/// have at least one arc: vertex `v` is variable `x_{v+1}`, each arc
/// `(a, b)` an atom `E(x_a, x_b)`. A self-loop `(a, a)` becomes
/// `E(x_a, y)·1[x_a = y]` over a fresh variable `y`, because `E(x, x)`
/// is ill-typed.
fn hom_query(p: &Graph) -> Expr {
    let x = |v: u32| (v + 1) as Var;
    let mut atoms = Vec::with_capacity(p.num_arcs());
    let mut last = p.num_vertices() as Var;
    for (a, b) in p.arcs() {
        if a == b {
            last += 1;
            atoms.push(edge(x(a), last));
            atoms.push(eq(x(a), last));
        } else {
            atoms.push(edge(x(a), x(b)));
        }
    }
    let product = apply(Func::Mul { arity: atoms.len(), dim: 1 }, atoms);
    agg_over(Agg::Sum, (1..=last).collect(), product, None)
}

/// Counts homomorphisms from an arbitrary pattern `p` into `g`
/// (structure only; labels ignored) on `engine`, so callers counting
/// many patterns reuse its buffers, and its compiled plan when the
/// pattern and `g`'s vertex count repeat. Directed and undirected
/// patterns are both supported: each arc of `p` contributes an
/// adjacency atom. A pattern with no arcs has `n^{|V(P)|}`
/// homomorphisms.
///
/// # Errors
/// [`HomError`] when `p` needs more than 255 variables or its
/// elimination is too wide for the engine on `g`.
pub fn hom_count_with(engine: &mut EvalEngine, p: &Graph, g: &Graph) -> Result<f64, HomError> {
    let loops = p.arcs().filter(|(a, b)| a == b).count();
    let vars = p.num_vertices() + loops;
    if vars > Var::MAX as usize {
        return Err(HomError::TooManyVariables { vars });
    }
    if p.num_arcs() == 0 {
        return Ok((g.num_vertices() as f64).powi(p.num_vertices() as i32));
    }
    Ok(engine.try_eval(&hom_query(p), g).map_err(HomError::Plan)?.value()[0])
}

/// [`hom_count_with`] on a fresh engine.
///
/// # Panics
/// Panics on the patterns [`hom_count_with`] rejects.
pub fn hom_count(p: &Graph, g: &Graph) -> f64 {
    hom_count_with(&mut EvalEngine::new(), p, g).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_hom::hom_tree;
    use gel_graph::families::{complete, cycle, path, petersen, star};
    use gel_graph::GraphBuilder;

    #[test]
    fn agrees_with_tree_dp_on_trees() {
        let targets = [cycle(6), complete(4), petersen()];
        for t in [path(2), path(3), path(4), star(3)] {
            for g in &targets {
                assert_eq!(hom_count(&t, g), hom_tree(&t, g), "tree {t:?}");
            }
        }
    }

    #[test]
    fn cycle_homs_are_traces_of_adjacency_powers() {
        // hom(C_k, G) = tr(A^k). For G = C_n (n > k, k odd) the trace
        // is 0; for complete graphs tr(A^k) has a closed form.
        // hom(C3, K4): each triangle map = 4·3·2 = 24 ordered triangles.
        assert_eq!(hom_count(&cycle(3), &complete(4)), 24.0);
        // C5 into C5: 10 homs (5 rotations × 2 reflections).
        assert_eq!(hom_count(&cycle(5), &cycle(5)), 10.0);
        // Odd cycle into bipartite graph: none.
        assert_eq!(hom_count(&cycle(3), &cycle(6)), 0.0);
    }

    #[test]
    fn hom_into_k2() {
        // hom(C4, K2) = 2 (alternating maps).
        assert_eq!(hom_count(&cycle(4), &complete(2)), 2.0);
        // hom(C3, K2) = 0.
        assert_eq!(hom_count(&cycle(3), &complete(2)), 0.0);
    }

    #[test]
    fn disconnected_pattern_multiplies() {
        let p = path(2).disjoint_union(&path(2));
        let g = cycle(5);
        let single = hom_count(&path(2), &g);
        assert_eq!(hom_count(&p, &g), single * single);
    }

    #[test]
    fn triangle_count_relation() {
        // hom(C3, G) = 6 · (#triangles) for simple G.
        let g = petersen();
        assert_eq!(hom_count(&cycle(3), &g), 6.0 * g.triangle_count() as f64);
        let k5 = complete(5);
        assert_eq!(hom_count(&cycle(3), &k5), 6.0 * k5.triangle_count() as f64);
    }

    #[test]
    fn directed_pattern_counts_directed_homs() {
        // Directed 2-path a→b→c into a directed triangle 0→1→2→0: 3 homs.
        let mut bp = GraphBuilder::new(3);
        bp.add_arc(0, 1).add_arc(1, 2);
        let p = bp.build();
        let mut bg = GraphBuilder::new(3);
        bg.add_arc(0, 1).add_arc(1, 2).add_arc(2, 0);
        let g = bg.build();
        assert_eq!(hom_count(&p, &g), 3.0);
    }

    /// Natural log of the AGM bound on `hom(P, G)`: every edge factor
    /// has at most `m = |E_G|` nonzeros, so `hom(P, G) ≤ m^{ρ*(P)} ·
    /// n^{iso}` where `iso` counts the isolated vertices of `P`.
    fn agm_log_bound(p: &Graph, g: &Graph) -> f64 {
        let scopes: Vec<Vec<u32>> =
            p.arcs().filter(|(a, b)| a < b).map(|(a, b)| vec![a, b]).collect();
        let iso = p.vertices().filter(|&v| p.degree(v) == 0).count();
        let m = g.num_arcs().max(1) as f64;
        gel_graph::elim::agm_cover_log_bound(p.num_vertices(), &scopes, &vec![m.ln(); scopes.len()])
            + iso as f64 * (g.num_vertices().max(1) as f64).ln()
    }

    /// `hom(P, G) ≤ exp(agm_log_bound(P, G))` across cyclic, acyclic,
    /// and disconnected patterns — and the bound is exact-order tight
    /// for the triangle into a complete graph (`m^{3/2}` vs `n³`-ish
    /// counts).
    #[test]
    fn agm_bound_dominates_hom_count() {
        let targets = [complete(5), cycle(6), petersen()];
        let patterns = [cycle(3), cycle(4), complete(4), path(4), star(3)];
        for g in &targets {
            for p in &patterns {
                let hom = hom_count(p, g);
                let bound = agm_log_bound(p, g).exp();
                assert!(hom <= bound * (1.0 + 1e-9), "hom={hom} exceeds AGM bound {bound}");
            }
        }
        // Triangle into K5: m = 20 directed arcs, half-cover gives
        // m^{3/2} ≈ 89.4; the count is 5·4·3 = 60 — the bound bites
        // (an edge-per-variable integral cover would give 20² = 400).
        let bound = agm_log_bound(&cycle(3), &complete(5)).exp();
        assert!(hom_count(&cycle(3), &complete(5)) == 60.0 && bound < 100.0);
    }

    /// Isolated pattern vertices multiply the bound by `n`, mirroring
    /// what they do to the count.
    #[test]
    fn agm_bound_counts_isolated_vertices() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1); // vertices 2 and 3 isolated
        let p = b.build();
        let g = complete(4);
        let hom = hom_count(&p, &g);
        let bound = agm_log_bound(&p, &g).exp();
        assert_eq!(hom, 12.0 * 16.0);
        assert!(hom <= bound * (1.0 + 1e-9));
    }

    /// Triangles, 4-cycles and 4-cliques (`ρ* ≤ w`) count through the
    /// engine's multiway join: its seek counter rises.
    #[test]
    fn short_cycles_and_cliques_take_the_multiway_join() {
        let g = petersen().disjoint_union(&complete(10));
        for p in [cycle(3), cycle(4), complete(4)] {
            let before = gel_lang::eval_wco_seeks();
            assert_eq!(
                hom_count(&p, &g),
                hom_count(&p, &petersen()) + hom_count(&p, &complete(10))
            );
            assert!(gel_lang::eval_wco_seeks() > before, "{p:?} did not take the multiway join");
        }
    }

    #[test]
    fn empty_pattern() {
        assert_eq!(hom_count(&GraphBuilder::new(0).build(), &cycle(4)), 1.0);
    }

    /// A self-loop `(a, a)` in the pattern pins `x_a` to a looped
    /// target vertex.
    #[test]
    fn pattern_self_loops_need_target_loops() {
        let mut bp = GraphBuilder::new(2);
        bp.add_arc(0, 0).add_arc(0, 1);
        let p = bp.build();
        let mut bg = GraphBuilder::new(3);
        bg.add_arc(0, 0).add_arc(0, 1).add_arc(0, 2).add_arc(1, 1).add_arc(1, 2);
        let g = bg.build();
        // x0 ∈ {0, 1} (looped), x1 any out-neighbour: 3 + 2.
        assert_eq!(hom_count(&p, &g), 5.0);
        assert_eq!(hom_count(&p, &cycle(5)), 0.0);
    }

    #[test]
    fn empty_target() {
        let empty = GraphBuilder::new(0).build();
        assert_eq!(hom_count(&cycle(3), &empty), 0.0);
        assert_eq!(hom_count(&GraphBuilder::new(2).build(), &empty), 0.0);
    }

    /// Patterns past the 255-variable range are a typed error; one
    /// vertex fewer evaluates.
    #[test]
    fn patterns_past_the_variable_range_are_errors() {
        let mut eng = EvalEngine::new();
        let err = hom_count_with(&mut eng, &path(256), &cycle(4)).unwrap_err();
        assert_eq!(err, HomError::TooManyVariables { vars: 256 });
        // 254 vertices and 2 self-loops also need 256 variables.
        let mut b = GraphBuilder::new(254);
        b.add_arc(0, 0).add_arc(1, 1);
        assert_eq!(hom_count_with(&mut eng, &b.build(), &cycle(4)), Err(err));
        // hom(P_255, C_4) = 4 · 2^254 walks, exact in f64.
        assert_eq!(hom_count_with(&mut eng, &path(255), &cycle(4)), Ok(4.0 * 2f64.powi(254)));
    }

    /// K12 has induced width 11: eliminating its first vertex joins 12
    /// variables, whose 50^12 cell ids overflow `usize` — a typed error.
    /// Into 40 vertices (40^12 < 2^64) the same plan runs.
    #[test]
    fn patterns_too_wide_to_eliminate_are_errors() {
        let mut eng = EvalEngine::new();
        let err = hom_count_with(&mut eng, &complete(12), &cycle(50)).unwrap_err();
        assert_eq!(err, HomError::Plan(PlanError::TooWide { vars: 12, n: 50 }));
        assert_eq!(hom_count_with(&mut eng, &complete(12), &cycle(40)), Ok(0.0));
    }

    #[test]
    fn isolated_pattern_vertices_count_n() {
        // A pattern with 2 isolated vertices: n² homs.
        let p = GraphBuilder::new(2).build();
        assert_eq!(hom_count(&p, &cycle(5)), 25.0);
    }
}
