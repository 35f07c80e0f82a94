//! Property-based tests for homomorphism counting.

use gel_graph::families::{complete, cycle, path};
use gel_graph::random::erdos_renyi;
use gel_graph::{Graph, GraphBuilder};
use gel_hom::subgraph::closed_walk_counts;
use gel_hom::{free_trees_up_to, hom_count, hom_tree, hom_tree_rooted};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Brute-force hom counting by enumerating all maps (tiny instances).
fn brute_hom(p: &Graph, g: &Graph) -> f64 {
    let np = p.num_vertices();
    let ng = g.num_vertices();
    if np == 0 {
        return 1.0;
    }
    let mut count = 0u64;
    let total = (ng as u64).pow(np as u32);
    for idx in 0..total {
        let mut map = vec![0u32; np];
        let mut rest = idx;
        for slot in map.iter_mut() {
            *slot = (rest % ng as u64) as u32;
            rest /= ng as u64;
        }
        if p.arcs().all(|(a, b)| g.has_edge(map[a as usize], map[b as usize])) {
            count += 1;
        }
    }
    count as f64
}

/// A random directed graph: each ordered pair, self-loops included, is
/// an arc with probability `p`.
fn random_digraph(n: usize, p: f64, rng: &mut StdRng) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            if rng.gen_bool(p) {
                b.add_arc(u, v);
            }
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn faq_matches_brute_force(seed in 0u64..2_000, np in 2usize..5, ng in 2usize..6) {
        let p = erdos_renyi(np, 0.6, &mut StdRng::seed_from_u64(seed));
        let g = erdos_renyi(ng, 0.5, &mut StdRng::seed_from_u64(seed + 1));
        prop_assert_eq!(hom_count(&p, &g), brute_hom(&p, &g));
    }

    /// Directed patterns with self-loops into directed targets with
    /// self-loops: the loop atoms `E(x, y)·1[x = y]` and arc
    /// orientation both meet the oracle.
    #[test]
    fn directed_looped_patterns_match_brute_force(
        seed in 0u64..2_000,
        np in 1usize..5,
        ng in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_digraph(np, 0.4, &mut rng);
        let g = random_digraph(ng, 0.5, &mut rng);
        prop_assert_eq!(hom_count(&p, &g), brute_hom(&p, &g));
    }

    /// `hom(C_k, G) = tr(A^k)`, the closed walks of length `k`. On up
    /// to 40 vertices this covers both plans: C3/C4 take the multiway
    /// join, C5/C6 variable elimination.
    #[test]
    fn cycle_homs_are_closed_walks(seed in 0u64..2_000, n in 2usize..41, k in 3usize..7) {
        let p = 0.05 + (seed % 8) as f64 * 0.05;
        let g = erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed));
        let walks: f64 = closed_walk_counts(&g, k).iter().sum();
        prop_assert_eq!(hom_count(&cycle(k), &g), walks);
    }

    #[test]
    fn tree_dp_matches_faq(seed in 0u64..2_000, ng in 2usize..9) {
        let g = erdos_renyi(ng, 0.5, &mut StdRng::seed_from_u64(seed));
        for t in free_trees_up_to(5) {
            prop_assert_eq!(hom_tree(&t, &g), hom_count(&t, &g));
        }
    }

    #[test]
    fn hom_monotone_in_target_edges(seed in 0u64..2_000, n in 3usize..8) {
        // Adding an edge to G can only increase hom counts.
        let g = erdos_renyi(n, 0.4, &mut StdRng::seed_from_u64(seed));
        // Find a non-edge; if none, skip.
        let mut non_edge = None;
        'outer: for u in g.vertices() {
            for v in g.vertices() {
                if u < v && !g.has_edge(u, v) {
                    non_edge = Some((u, v));
                    break 'outer;
                }
            }
        }
        if let Some((u, v)) = non_edge {
            let mut b = GraphBuilder::new(n);
            for (a, c) in g.arcs() {
                b.add_arc(a, c);
            }
            b.add_edge(u, v);
            let g_plus = b.build();
            for t in free_trees_up_to(4) {
                prop_assert!(hom_tree(&t, &g_plus) >= hom_tree(&t, &g));
            }
        }
    }

    #[test]
    fn rooted_sums_to_total(seed in 0u64..2_000, n in 2usize..9) {
        let g = erdos_renyi(n, 0.5, &mut StdRng::seed_from_u64(seed));
        for t in free_trees_up_to(5) {
            let rooted: f64 = hom_tree_rooted(&t, &g).iter().sum();
            prop_assert_eq!(rooted, hom_tree(&t, &g));
        }
    }

    #[test]
    fn path_into_complete_closed_form(k in 1usize..6, n in 2usize..7) {
        // hom(P_k, K_n) = n·(n−1)^{k−1}.
        let expect = n as f64 * ((n - 1) as f64).powi(k as i32 - 1);
        prop_assert_eq!(hom_tree(&path(k), &complete(n)), expect);
    }
}
