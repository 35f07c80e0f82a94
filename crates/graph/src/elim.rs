//! Variable-elimination planning for the compiled GEL evaluator's
//! sparse sum-product kernels (`gel-lang`), which also count every
//! homomorphism (`gel-hom` builds `hom(P, G)` as a GEL query).
//!
//! The problem is to pick an order in which to sum out the variables
//! of `Σ_x̄ Π_i F_i(x̄_i)` so the largest intermediate factor stays
//! small (Khamis–Ngo–Rudra, FAQ, PODS 2016; the paper's slide 70
//! "semantic treewidth" connection), plus the AGM cover bound and the
//! multiway-join order. The planner works on the hypergraph of factor
//! scopes alone, so it lives here, below the evaluator.
//!
//! Determinism: adjacency is kept in `BTreeSet`s and ties in the
//! degree heuristic break by vertex id, so the returned order is a
//! pure function of the *set* of scopes — independent of the order in
//! which scopes are listed or of any hash-map iteration order. The
//! evaluator caches compiled plans and requires bit-identical replays;
//! a nondeterministic order would silently reshuffle float summation.

use std::collections::BTreeSet;

/// A min-degree elimination order over the primal graph of `scopes`
/// (each scope is a clique), restricted to the vertices with
/// `eliminable[v] == true`. Returns the elimination order (eliminable
/// vertices only, each exactly once) and the induced width — the
/// largest number of neighbours a vertex has at the moment it is
/// eliminated.
///
/// Non-eliminable (free) vertices participate in adjacency and
/// fill-in — they appear in intermediate factor scopes — but are never
/// summed out, matching an aggregation whose output keeps them.
///
/// Ties in the degree heuristic break by smallest vertex id, and the
/// working adjacency is ordered, so the result is deterministic in the
/// scope *set* (scope list order is irrelevant).
///
/// # Panics
/// Panics if `eliminable.len() != num_vars` or a scope mentions a
/// vertex `>= num_vars`.
pub fn min_degree_order_masked(
    num_vars: usize,
    scopes: &[Vec<u32>],
    eliminable: &[bool],
) -> (Vec<u32>, usize) {
    assert_eq!(eliminable.len(), num_vars, "one eliminable flag per vertex");
    let mut adj: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); num_vars];
    for scope in scopes {
        for (i, &a) in scope.iter().enumerate() {
            assert!((a as usize) < num_vars, "scope vertex {a} out of range");
            for &b in &scope[i + 1..] {
                if a != b {
                    adj[a as usize].insert(b);
                    adj[b as usize].insert(a);
                }
            }
        }
    }
    let goal = eliminable.iter().filter(|&&e| e).count();
    let mut done = vec![false; num_vars];
    let mut order = Vec::with_capacity(goal);
    let mut width = 0usize;
    for _ in 0..goal {
        let v = (0..num_vars as u32)
            .filter(|&v| eliminable[v as usize] && !done[v as usize])
            .min_by_key(|&v| (adj[v as usize].len(), v))
            .expect("eliminable vertex remains");
        width = width.max(adj[v as usize].len());
        // Fill-in: the neighbours of `v` become the scope of the factor
        // produced by eliminating it, hence pairwise connected.
        let nbrs: Vec<u32> = adj[v as usize].iter().copied().collect();
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                adj[nbrs[i] as usize].insert(nbrs[j]);
                adj[nbrs[j] as usize].insert(nbrs[i]);
            }
        }
        for &w in &nbrs {
            adj[w as usize].remove(&v);
        }
        adj[v as usize].clear();
        done[v as usize] = true;
        order.push(v);
    }
    (order, width)
}

/// An upper bound on `ln |⋈_f F_f|` via a feasible fractional edge
/// cover of the scope hypergraph (the AGM bound, Atserias–Grohe–Marx:
/// any fractional cover `x` with `Σ_{f∋v} x_f ≥ 1` for every covered
/// vertex gives `|⋈| ≤ Π_f N_f^{x_f}`). `log_sizes[f]` is `ln N_f`.
///
/// The exact bound minimizes over all fractional covers (an LP); this
/// takes the better of two always-feasible candidates, which is still
/// a valid upper bound:
///
/// * the *half cover* — `x_f = 1` for scopes containing a degree-1
///   vertex, `x_f = ½` otherwise (feasible: a degree-1 vertex is
///   covered by its full-weight scope, every other vertex by either a
///   full-weight scope or `deg ≥ 2` halves). On binary scopes this is
///   exact for cycles (`m^{k/2}`) and triangles (`m^{3/2}`);
/// * a greedy *integral* cover — repeatedly take the scope minimizing
///   `ln N_f` per newly covered vertex. Exact for cliques covered by a
///   matching (`K_4 → m²`).
///
/// Vertices in no scope are ignored — the caller accounts for
/// unconstrained variables separately (`n` choices each). Ties in the
/// greedy step break by scope contents, so the result is deterministic
/// in the scope *set*, like everything else in this module.
pub fn agm_cover_log_bound(num_vars: usize, scopes: &[Vec<u32>], log_sizes: &[f64]) -> f64 {
    assert_eq!(scopes.len(), log_sizes.len(), "one size per scope");
    let mut deg = vec![0u32; num_vars];
    for scope in scopes {
        for &v in scope {
            assert!((v as usize) < num_vars, "scope vertex {v} out of range");
            deg[v as usize] += 1;
        }
    }

    let mut half = 0.0;
    for (scope, &ls) in scopes.iter().zip(log_sizes) {
        let full = scope.iter().any(|&v| deg[v as usize] == 1);
        half += if full { ls } else { ls * 0.5 };
    }

    let mut covered: Vec<bool> = deg.iter().map(|&d| d == 0).collect();
    let mut greedy = 0.0;
    while covered.iter().any(|&c| !c) {
        let mut best: Option<(f64, &[u32], f64)> = None;
        for (scope, &ls) in scopes.iter().zip(log_sizes) {
            let new = scope.iter().filter(|&&v| !covered[v as usize]).count();
            if new == 0 {
                continue;
            }
            let ratio = ls / new as f64;
            let better = match best {
                None => true,
                Some((r, bs, _)) => ratio < r || (ratio == r && scope.as_slice() < bs),
            };
            if better {
                best = Some((ratio, scope, ls));
            }
        }
        let (_, scope, ls) = best.expect("an uncovered vertex lies in some scope");
        greedy += ls;
        for &v in scope {
            covered[v as usize] = true;
        }
    }
    half.min(greedy)
}

/// A variable order for a worst-case-optimal (generic/leapfrog) join
/// over the scope hypergraph, restricted to `eliminable` vertices:
/// most-selective-first — each step picks the remaining vertex whose
/// *smallest* incident relation is smallest (`sizes[f]` = entry count
/// of scope `f`), ties by vertex id.
///
/// Rationale: generic join's running time is the sum over order
/// prefixes of the AGM bound of the prefix-restricted hypergraph, and
/// each prefix bound is capped by the sizes of the relations covering
/// it — binding the most selective vertices first keeps every prefix
/// under the smallest attainable cover weight. Vertices incident to no
/// scope sort last (they are unconstrained; callers typically account
/// for them with an `n^k` multiplier instead of enumerating).
///
/// Deterministic in the scope *set*: the key is a min over incident
/// sizes plus the vertex id.
pub fn wco_order_masked(
    num_vars: usize,
    scopes: &[Vec<u32>],
    sizes: &[f64],
    eliminable: &[bool],
) -> Vec<u32> {
    assert_eq!(eliminable.len(), num_vars, "one eliminable flag per vertex");
    assert_eq!(scopes.len(), sizes.len(), "one size per scope");
    let mut min_size = vec![f64::INFINITY; num_vars];
    for (scope, &sz) in scopes.iter().zip(sizes) {
        for &v in scope {
            assert!((v as usize) < num_vars, "scope vertex {v} out of range");
            if sz < min_size[v as usize] {
                min_size[v as usize] = sz;
            }
        }
    }
    let mut order: Vec<u32> = (0..num_vars as u32).filter(|&v| eliminable[v as usize]).collect();
    order.sort_by(|&a, &b| min_size[a as usize].total_cmp(&min_size[b as usize]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle_scopes(n: u32) -> Vec<Vec<u32>> {
        (0..n).map(|i| vec![i, (i + 1) % n]).collect()
    }

    #[test]
    fn cycle_width_is_two_and_path_is_one() {
        let (order, w) = min_degree_order_masked(8, &cycle_scopes(8), &[true; 8]);
        assert_eq!(w, 2);
        assert_eq!(order.len(), 8);
        let path: Vec<Vec<u32>> = (0..7).map(|i| vec![i, i + 1]).collect();
        let (_, wp) = min_degree_order_masked(8, &path, &[true; 8]);
        assert_eq!(wp, 1);
    }

    #[test]
    fn order_is_invariant_under_scope_permutation() {
        let mut scopes = vec![vec![0u32, 1], vec![1, 2], vec![0, 2], vec![2, 3], vec![3, 4, 5]];
        let baseline = min_degree_order_masked(6, &scopes, &[true; 6]);
        // Any listing order of the same scope set gives the same plan.
        scopes.reverse();
        assert_eq!(min_degree_order_masked(6, &scopes, &[true; 6]), baseline);
        scopes.swap(0, 2);
        assert_eq!(min_degree_order_masked(6, &scopes, &[true; 6]), baseline);
    }

    #[test]
    fn mask_keeps_free_vertices_out_of_the_order() {
        // Triangle 0-1-2 with vertex 0 free (an aggregation output).
        let scopes = vec![vec![0u32, 1], vec![1, 2], vec![0, 2]];
        let (order, w) = min_degree_order_masked(3, &scopes, &[false, true, true]);
        assert_eq!(order.len(), 2);
        assert!(!order.contains(&0));
        assert_eq!(w, 2);
    }

    #[test]
    fn isolated_eliminable_vertices_have_zero_width() {
        let (order, w) = min_degree_order_masked(3, &[], &[true; 3]);
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(w, 0);
    }

    #[test]
    fn agm_bound_matches_known_covers() {
        let m: f64 = 100.0;
        let ls = m.ln();
        // Triangle: half cover on every edge → m^{3/2}.
        let tri = vec![vec![0u32, 1], vec![1, 2], vec![0, 2]];
        let b = agm_cover_log_bound(3, &tri, &[ls; 3]);
        assert!((b - 1.5 * ls).abs() < 1e-9, "triangle bound is m^1.5, got exp {}", b / ls);
        // 4-cycle: half cover → m².
        let b = agm_cover_log_bound(4, &cycle_scopes(4), &[ls; 4]);
        assert!((b - 2.0 * ls).abs() < 1e-9, "4-cycle bound is m^2, got exp {}", b / ls);
        // 4-clique: greedy matching beats the all-half cover (m² < m³).
        let k4: Vec<Vec<u32>> =
            vec![vec![0, 1], vec![0, 2], vec![0, 3], vec![1, 2], vec![1, 3], vec![2, 3]];
        let b = agm_cover_log_bound(4, &k4, &[ls; 6]);
        assert!((b - 2.0 * ls).abs() < 1e-9, "K4 bound is m^2, got exp {}", b / ls);
        // Single edge with a pendant (degree-1) vertex: full weight.
        let b = agm_cover_log_bound(2, &[vec![0, 1]], &[ls]);
        assert!((b - ls).abs() < 1e-9);
    }

    #[test]
    fn agm_bound_is_deterministic_in_scope_set() {
        let mut scopes = vec![vec![0u32, 1], vec![1, 2], vec![0, 2], vec![2, 3]];
        let mut sizes = vec![5.0f64.ln(), 7.0f64.ln(), 11.0f64.ln(), 13.0f64.ln()];
        let base = agm_cover_log_bound(4, &scopes, &sizes);
        scopes.swap(0, 3);
        sizes.swap(0, 3);
        assert_eq!(agm_cover_log_bound(4, &scopes, &sizes), base);
    }

    #[test]
    fn wco_order_puts_selective_vertices_first() {
        // Vertex 2 touches the tiny relation, vertex 3 only the huge one.
        let scopes = vec![vec![0u32, 1], vec![1, 2], vec![2, 3]];
        let sizes = vec![50.0, 2.0, 50.0];
        let order = wco_order_masked(4, &scopes, &sizes, &[true; 4]);
        assert_eq!(order[0], 1, "smallest incident size wins, ties by id");
        assert_eq!(order[1], 2);
        assert_eq!(order.len(), 4);
        // Masked vertices stay out.
        let order = wco_order_masked(4, &scopes, &sizes, &[false, true, true, false]);
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn wco_order_is_invariant_under_scope_permutation() {
        let mut scopes = vec![vec![0u32, 1], vec![1, 2], vec![0, 2], vec![2, 3]];
        let mut sizes = vec![9.0, 3.0, 4.0, 8.0];
        let base = wco_order_masked(4, &scopes, &sizes, &[true; 4]);
        scopes.reverse();
        sizes.reverse();
        assert_eq!(wco_order_masked(4, &scopes, &sizes, &[true; 4]), base);
    }
}
