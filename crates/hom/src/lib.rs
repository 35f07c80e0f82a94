//! # gel-hom — homomorphism counting
//!
//! System S4 of DESIGN.md: the homomorphism-counting machinery behind
//! the paper's characterisation results.
//!
//! * [`tree_hom`] — `hom(T, G)` for trees via leaf-to-root DP, plus the
//!   rooted per-vertex variant (slide 27: CR-equivalence ⇔ equal tree
//!   hom counts, Dell–Grohe–Rattan);
//! * [`tree_enum`] — enumeration of all non-isomorphic free trees up to
//!   a size bound (the quantifier domain of experiment E2);
//! * [`faq`] — general `hom(P, G)` as a closed GEL sum-product query
//!   (the paper's slide-70 pointer to Khamis–Ngo–Rudra) evaluated on
//!   the compiled GEL engine, exponential only in the pattern's
//!   induced width;
//! * [`subgraph`] — per-vertex walk / triangle / 4-cycle statistics,
//!   the regression targets of the approximation experiments (E5, E12);
//! * [`lovasz`] — truncated Lovász profiles over pattern families.

//! ```
//! use gel_hom::{hom_tree, hom_count, free_trees_up_to};
//! use gel_graph::families::{path, cycle, complete};
//!
//! // hom(K2, C5) counts arcs.
//! assert_eq!(hom_tree(&path(2), &cycle(5)), 10.0);
//! // Cyclic patterns count through the GEL engine: ordered triangles of K4.
//! assert_eq!(hom_count(&cycle(3), &complete(4)), 24.0);
//! // Quantifier domain of the Dell–Grohe–Rattan check (slide 27).
//! assert_eq!(free_trees_up_to(5).len(), 8);
//! ```

#![warn(missing_docs)]

pub mod faq;
pub mod lovasz;
pub mod subgraph;
pub mod tree_enum;
pub mod tree_hom;

pub use faq::{hom_count, hom_count_with, HomError};
pub use lovasz::{hom_equivalent_over, HomProfile};
pub use tree_enum::{free_tree_code, free_trees, free_trees_up_to, tree_from_code};
pub use tree_hom::{hom_tree, hom_tree_rooted, is_tree, tree_hom_vector};
