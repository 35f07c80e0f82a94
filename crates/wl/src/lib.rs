//! # gel-wl — the Weisfeiler–Leman family
//!
//! System S3 of DESIGN.md: the combinatorial algorithms the paper uses
//! as its yardstick of separation power.
//!
//! * [`mod@color_refinement`] — 1-dimensional WL / colour refinement
//!   (paper slide 50), with joint canonical colouring of several graphs
//!   so colours are comparable across graphs;
//! * [`kwl`] — the k-dimensional algorithms, both the *folklore*
//!   variant the paper calls `k-WL` (with `ρ(k-WL) = ρ(GEL_{k+1})`,
//!   slide 66) and the *oblivious* variant common in ML papers;
//! * [`incremental`] — colour refinement as a live index: a stable
//!   colouring maintained under edge insertions/deletions by patching
//!   the stored round trace (bit-identical to recolouring from
//!   scratch);
//! * [`partition`] — colourings, canonical renaming and histograms;
//! * [`relational`] — relational colour refinement for multi-relation
//!   graphs (slide 74).
//!
//! The central predicate is ρ-equivalence (slide 24): `(G, H) ∈ ρ(F)`
//! iff no embedding in `F` separates them. For WL-style `F` this is
//! decided exactly by comparing stable colour histograms.

//! ```
//! use gel_wl::{cr_equivalent, distinguishing_level};
//! use gel_graph::families::cr_blind_pair;
//!
//! let (c6, two_triangles) = cr_blind_pair();
//! assert!(cr_equivalent(&c6, &two_triangles));          // slide 50
//! assert_eq!(distinguishing_level(&c6, &two_triangles, 3), Some(2)); // slide 65
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod color_refinement;
pub mod incremental;
pub mod kwl;
#[cfg(test)]
mod naive;
pub mod partition;
pub mod relational;

pub use cache::{
    cache_len, cache_stats, cached_cr_equivalent, cached_cr_vertex_equivalent, cached_joint_cr,
    cached_joint_k_wl, cached_k_wl_equivalent, clear_cache, WlCacheStats,
};
pub use color_refinement::{
    color_refinement, color_refinement_single, cr_equivalent, cr_vertex_equivalent, CrOptions,
};
pub use incremental::{IncrementalColoring, IncrementalStats};
pub use kwl::{distinguishing_level, k_wl, k_wl_equivalent, WlVariant};
pub use partition::{
    canonical_rename, label_key, Color, Coloring, Renamer, SigArena, SCRATCH_ALLOCS,
    SCRATCH_INIT_ALLOCS,
};
pub use relational::{relational_color_refinement, relational_cr_equivalent};
