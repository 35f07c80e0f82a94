//! # gel-graph — the graph substrate
//!
//! System S2 of DESIGN.md: the labelled graphs `G = (V, E, L)` of
//! *A Query Language Perspective on Graph Learning* (Geerts, PODS
//! 2023, slide 6), together with every graph family the reproduction
//! needs:
//!
//! * [`graph`] — the CSR [`Graph`] value type and [`GraphBuilder`];
//! * [`dynamic`] — the mutable [`DynGraph`] companion that the
//!   incremental colour-refinement engine edits through;
//! * [`families`] — deterministic families (cycles, grids, Petersen,
//!   the Shrikhande / 4×4-rook strongly-regular pair, ladders);
//! * [`cfi`] — the Cai–Fürer–Immerman construction, the canonical
//!   witness for strictness of the WL hierarchy (slide 65);
//! * [`random`] — seeded random generators (Erdős–Rényi, Prüfer trees,
//!   random regular, stochastic block models);
//! * [`datasets`] — synthetic workloads mirroring the paper's three
//!   motivating applications: molecules, citation networks, and social
//!   networks for link prediction (slides 7–9);
//! * [`iso`] — exact isomorphism testing (VF2), the gold standard that
//!   separation power is measured against (slide 25);
//! * [`elim`] — the variable-elimination and multiway-join planner of
//!   the compiled GEL evaluator's sparse sum-product kernels, which
//!   also count homomorphisms (slide 70);
//! * [`typed`] — multi-relational graphs for the paper's relational
//!   closing direction (slide 74);
//! * [`io`] — plain-text edge-list interchange and Graphviz DOT export.

#![warn(missing_docs)]

pub mod batch;
pub mod cfi;
pub mod datasets;
pub mod dynamic;
pub mod elim;
pub mod families;
pub mod graph;
pub mod io;
pub mod iso;
pub mod random;
pub mod typed;

pub use batch::BatchedGraphs;
pub use cfi::{cfi_graph, cfi_pair, cfi_pair_k4, CfiVariant};
pub use dynamic::DynGraph;
pub use graph::{Graph, GraphBuilder, Vertex};
pub use iso::{are_isomorphic, find_isomorphism, verify_isomorphism};
