//! # gel-lang — the graph embedding language `GEL(Ω,Θ)`
//!
//! The primary contribution of *A Query Language Perspective on Graph
//! Learning* (Geerts, PODS 2023), implemented as a real language:
//! abstract syntax, a textual parser, a type/dimension checker, an
//! evaluator, fragment analysis, normal forms, and compilers from named
//! GNN architectures.
//!
//! ## The language (paper slides 36–67)
//!
//! * [`ast`] — expressions: label/edge/equality atoms, function
//!   application over a function library Ω ([`func::Func`]), and bag
//!   aggregation over Θ ([`func::Agg`]);
//! * [`parser`] — a textual syntax: `sum_{x2}(lab0(x2) | E(x1,x2))`;
//! * [`mod@eval`] — the denotation `ξ_φ : G → (V^p → ℝ^d)` as a dense
//!   [`table::EmbeddingTable`], with a sparse fast path for guarded
//!   (MPNN-shaped) aggregations;
//! * [`analysis`] — **the recipe** (slide 35): determine the fragment
//!   (`MPNN(Ω,Θ)` or `GEL_k(Ω,Θ)`) and read off the WL upper bound on
//!   separation power;
//! * [`architectures`] — GNN-101 / GIN / GCN / GraphSage compiled into
//!   the language (slides 40, 48, 63);
//! * [`wl_sim`] — colour refinement and folklore k-WL *simulated by
//!   expressions* (the constructive halves of slides 52 and 66);
//! * [`normal_form`] — the layered normal form of slide 55 on the
//!   sum-separable fragment;
//! * [`random_expr`] — random well-typed expressions for the
//!   falsification experiments (E3, E9, E11);
//! * [`mod@simplify`] — an algebraic, semantics-preserving expression
//!   optimizer (constant folding, linear-map fusion, concat
//!   flattening);
//! * [`mod@sparse`] — sorted coordinate lists with merge-join and
//!   contraction kernels, the data layer behind the compiled engine's
//!   sparse/factorized evaluation paths (slide 70).
//!
//! ## Quick example
//!
//! ```
//! use gel_lang::parser::parse;
//! use gel_lang::eval::eval;
//! use gel_lang::analysis::analyze;
//! use gel_graph::families::star;
//!
//! // deg(v) as an MPNN(Ω,Θ) expression.
//! let deg = parse("sum_{x2}(const[1] | E(x1,x2))").unwrap();
//! let report = analyze(&deg);
//! assert_eq!(report.to_string(),
//!            "fragment MPNN(Ω,Θ), width 2, separation power ⊆ ρ(colour refinement)");
//! let table = eval(&deg, &star(3));
//! assert_eq!(table.cell(&[0]), &[3.0]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod architectures;
pub mod ast;
pub mod eval;
pub mod func;
pub mod normal_form;
pub mod parser;
pub mod plan;
pub mod random_expr;
pub mod simplify;
pub mod sparse;
pub mod table;
pub mod wl_sim;

pub use analysis::{analyze, is_mpnn, ExpressivenessReport, Fragment, WlBound};
pub use ast::{build, CmpOp, Expr, TypeError};
pub use eval::{check_against_graph, eval, eval_with, try_eval, EvalError, EvalOptions};
pub use func::{Agg, Func};
pub use parser::{parse, ParseError, MAX_EXPR_DEPTH};
pub use plan::{
    eval_dense_fallbacks, eval_plan_builds, eval_slab_allocs, eval_sparse_nnz, eval_wco_seeks,
    expr_dag_hash, EvalEngine, PlanTooDense,
};
pub use simplify::simplify;
pub use table::{EmbeddingTable, Var};
