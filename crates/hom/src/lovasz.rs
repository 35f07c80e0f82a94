//! Lovász-style homomorphism vectors and profile comparison.
//!
//! Lovász's theorem says the full vector `(hom(F, G))_F` over all
//! graphs `F` determines `G` up to isomorphism; the paper's slide 27
//! uses the *tree-restricted* vector, which determines `G` exactly up
//! to colour-refinement equivalence (Dell–Grohe–Rattan). This module
//! packages truncated profiles over an arbitrary pattern family.

use gel_graph::Graph;
use gel_lang::EvalEngine;

use crate::faq::hom_count_with;

/// A truncated homomorphism profile of a graph over a pattern family.
#[derive(Debug, Clone, PartialEq)]
pub struct HomProfile {
    /// `counts[i] = hom(patterns[i], G)`.
    pub counts: Vec<f64>,
}

impl HomProfile {
    /// Computes the profile of `g` over `patterns` on one engine.
    ///
    /// # Panics
    /// Panics on the patterns [`hom_count_with`] rejects.
    pub fn new(patterns: &[Graph], g: &Graph) -> Self {
        let mut engine = EvalEngine::new();
        Self { counts: patterns.iter().map(|p| count(&mut engine, p, g)).collect() }
    }

    /// Exact equality of two profiles (hom counts are integers stored
    /// exactly in `f64` at corpus scale).
    pub fn same_as(&self, other: &HomProfile) -> bool {
        self.counts == other.counts
    }

    /// Index of the first pattern whose counts differ, if any — a
    /// *witness* of distinguishability.
    pub fn first_difference(&self, other: &HomProfile) -> Option<usize> {
        self.counts.iter().zip(&other.counts).position(|(a, b)| a != b).or(
            if self.counts.len() != other.counts.len() {
                Some(self.counts.len().min(other.counts.len()))
            } else {
                None
            },
        )
    }
}

/// True iff `g` and `h` have identical hom counts from every pattern in
/// `patterns`. One engine counts them all; when `g` and `h` have equal
/// vertex counts, `h` reuses each pattern's plan compiled for `g`.
///
/// # Panics
/// Panics on the patterns [`hom_count_with`] rejects.
pub fn hom_equivalent_over(patterns: &[Graph], g: &Graph, h: &Graph) -> bool {
    let mut engine = EvalEngine::new();
    patterns.iter().all(|p| count(&mut engine, p, g) == count(&mut engine, p, h))
}

fn count(engine: &mut EvalEngine, p: &Graph, g: &Graph) -> f64 {
    hom_count_with(engine, p, g).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_enum::free_trees_up_to;
    use gel_graph::families::{cr_blind_pair, cycle, path, union_of_cycles};

    #[test]
    fn profile_separates_c6_from_triangles_via_c3() {
        // Trees cannot separate the CR-blind pair, but C3 can.
        let (a, b) = cr_blind_pair();
        let patterns = vec![cycle(3)];
        assert!(!hom_equivalent_over(&patterns, &a, &b));
    }

    #[test]
    fn tree_profile_blind_on_cr_pair() {
        let (a, b) = cr_blind_pair();
        let trees = free_trees_up_to(6);
        assert!(hom_equivalent_over(&trees, &a, &b), "tree homs agree on CR-equivalent pair");
    }

    #[test]
    fn first_difference_witness() {
        let (a, b) = cr_blind_pair();
        let patterns = vec![path(2), path(3), cycle(3)];
        let pa = HomProfile::new(&patterns, &a);
        let pb = HomProfile::new(&patterns, &b);
        assert_eq!(pa.first_difference(&pb), Some(2), "C3 is the first witness");
        assert!(!pa.same_as(&pb));
    }

    #[test]
    fn profile_of_self_is_equal() {
        let g = union_of_cycles(&[4, 5]);
        let trees = free_trees_up_to(5);
        let p1 = HomProfile::new(&trees, &g);
        let p2 = HomProfile::new(&trees, &g);
        assert!(p1.same_as(&p2));
        assert_eq!(p1.first_difference(&p2), None);
    }
}
