//! # gel-experiments — the reproduction harness
//!
//! System S8 of DESIGN.md: one runner per theorem/claim of the paper
//! (the "tables and figures" of this theory paper), each producing the
//! table recorded in EXPERIMENTS.md and a machine-checkable PASS/FAIL
//! verdict.
//!
//! | id  | claim (slide) |
//! |-----|----------------|
//! | E1  | ρ(GNN-101) = ρ(CR) (26) |
//! | E2  | CR ⇔ tree homomorphism counts (27) |
//! | E3  | ρ(CR) ⊆ ρ(MPNN(Ω,Θ)) for any Ω,Θ (51) |
//! | E4  | equality with sum via explicit simulation (52) |
//! | E5  | approximation of CR-bounded embeddings (29–30, 53) |
//! | E6  | GML ⊆ MPNN, exactly (54) |
//! | E7  | normal forms (55) |
//! | E8  | strict WL hierarchy (65) |
//! | E9  | ρ(k-WL) = ρ(GEL_{k+1}) (66) |
//! | E10 | the recipe / "Back to ML" table (35, 63, 67) + lattice F1 (25) |
//! | E11 | sum vs mean vs max (69) |
//! | E12 | universality needs iso-separation (31) |
//! | E13 | view embeddings: labels + hom counts exceed CR (72) |
//! | E14 | zero-one laws of GNN classifiers (73) |
//! | E15 | WL meet VC: shattering ⇔ CR-distinctness (28) |
//! | E16 | relational WL & relational GNNs on typed graphs (74) |
//! | L1–L3 | the motivating learning applications (7–9, 16) |
//!
//! Run everything: `cargo run --release -p gel-experiments --bin all`.

#![warn(missing_docs)]

pub mod corpus;
pub mod e01_gnn_vs_cr;
pub mod e02_tree_homs;
pub mod e03_mpnn_upper_bound;
pub mod e04_cr_simulation;
pub mod e05_approximation;
pub mod e06_gml;
pub mod e07_normal_form;
pub mod e08_hierarchy;
pub mod e09_gel_kwl;
pub mod e10_recipe;
pub mod e11_aggregators;
pub mod e12_universality;
pub mod e13_views;
pub mod e14_zero_one;
pub mod e15_wl_vc;
pub mod e16_relational;
pub mod learning;
pub mod report;

use rayon::prelude::*;

pub use corpus::{full_corpus, light_corpus, GraphPair, PairTruth};
pub use report::{ExperimentResult, Table};

/// The canonical experiment schedule: one boxed runner per row of the
/// theorem table, in report order, closed over `corpus`.
fn jobs(corpus: &[GraphPair]) -> Vec<Box<dyn Fn() -> ExperimentResult + Sync + Send + '_>> {
    vec![
        Box::new(|| e01_gnn_vs_cr::run(corpus, 32)),
        Box::new(|| e02_tree_homs::run(corpus, 8)),
        Box::new(|| e03_mpnn_upper_bound::run(corpus, 50)),
        Box::new(|| e04_cr_simulation::run(corpus)),
        Box::new(|| e05_approximation::run(800)),
        Box::new(|| e06_gml::run(10)),
        Box::new(|| e07_normal_form::run(30)),
        Box::new(|| e08_hierarchy::run(corpus, 3)),
        // max_n 16 pulls the strongly-regular 16-vertex pair into the
        // random-probe half: its GEL_3 probes build n³ = 4096-cell
        // tables, which is exactly the compiled engine's sparse gate —
        // affordable since the sparse/elimination paths landed.
        Box::new(|| e09_gel_kwl::run(corpus, 20, 16)),
        Box::new(|| e10_recipe::run(corpus)),
        Box::new(e11_aggregators::run),
        Box::new(|| e12_universality::run(600)),
        Box::new(|| e13_views::run(corpus)),
        Box::new(|| e14_zero_one::run(8, 30)),
        Box::new(|| e15_wl_vc::run(3000)),
        Box::new(|| e16_relational::run(24)),
        Box::new(|| learning::run_l1_molecules(120, 8, 400)),
        Box::new(|| learning::run_l2_citation(50, 200)),
        Box::new(|| learning::run_l3_links(35, 200)),
    ]
}

/// Runs every experiment with publication-quality settings and returns
/// the results in order. `full` additionally includes the 40-vertex
/// CFI(K4) pair (3-WL on it takes a few seconds in release mode).
///
/// Experiments are independent (each seeds its own RNGs), so they fan
/// out across threads; the order-preserving collect returns results in
/// the same order — and with the same contents — as a serial run.
pub fn run_all(full: bool) -> Vec<ExperimentResult> {
    run_all_timed(full).into_iter().map(|(r, _)| r).collect()
}

/// [`run_all`], additionally reporting each experiment's wall-clock
/// seconds (as measured inside the parallel schedule).
pub fn run_all_timed(full: bool) -> Vec<(ExperimentResult, f64)> {
    let corpus = if full { full_corpus() } else { light_corpus() };
    let timed = jobs(&corpus)
        .par_iter()
        .map(|job| {
            let t0 = std::time::Instant::now();
            let r = job();
            let secs = t0.elapsed().as_secs_f64();
            (r, secs)
        })
        .collect();
    timed
}

/// [`run_all_timed`] run **serially**, attributing a gel-obs metrics
/// delta to each experiment (wall time, kernel/refinement spans, cache
/// hit/miss, allocations, dispatch decisions).
///
/// Serial execution is what makes per-experiment attribution exact:
/// gel-obs counters are process-wide, so concurrent experiments would
/// bleed into each other's deltas. Observability state (including the
/// WL colouring cache and its counters) is reset before each
/// experiment, so deltas are scoped even though the counters are
/// process-global; with the `obs` feature off the span stats are empty.
pub fn run_all_instrumented(full: bool) -> Vec<(ExperimentResult, f64, gel_obs::Snapshot)> {
    let corpus = if full { full_corpus() } else { light_corpus() };
    let instrumented = jobs(&corpus)
        .iter()
        .map(|job| {
            gel_wl::cache::clear_cache();
            gel_obs::reset();
            let before = gel_obs::snapshot();
            let t0 = std::time::Instant::now();
            let r = job();
            let secs = t0.elapsed().as_secs_f64();
            let delta = gel_obs::snapshot().since(&before);
            (r, secs, delta)
        })
        .collect();
    instrumented
}
