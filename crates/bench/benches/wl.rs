//! WL-family benchmarks: colour refinement and k-WL (k ∈ {2, 3}) on
//! the hard corpus behind E8/E9 — the CFI(K4) pair and the
//! srg(16,6,2,2) pair (Shrikhande vs 4×4 rook) — timing the
//! arena-backed refinement engine end to end, folklore against
//! oblivious 2-WL (the DESIGN.md §6 ablation), and the homomorphism
//! counts behind E2/E13 (tree profiles and FAQ variable elimination).
//!
//! Run with `cargo bench -p gel-bench --bench wl [-- --smoke]`.
//! `--smoke` shrinks the iteration counts for CI and *asserts* the
//! engine's zero-allocation contract, separately per counter: refining
//! a high-round instance to stability grows the tracked refinement
//! scratch — first-use sizing (`wl.scratch.init_allocs`) *and* in-use
//! regrowth (`wl.scratch.allocs`) — by exactly as much as a 2-round
//! warm-up of the same instance. I.e. every round after the sizing
//! phase neither creates a buffer nor grows one. The first refinement
//! must also move `wl.scratch.init_allocs` above zero, so a counter
//! that silently reads zero fails the gate instead of passing it.

use std::hint::black_box;

use gel_experiments::bench::min_secs_per_iter;
use gel_graph::cfi::cfi_pair_k4;
use gel_graph::families::{complete, cycle, path, petersen, srg_16_6_2_2_pair};
use gel_graph::random::erdos_renyi;
use gel_hom::{free_trees_up_to, hom_count, hom_tree, tree_hom_vector};
use gel_wl::{color_refinement, k_wl, CrOptions, WlVariant, SCRATCH_ALLOCS, SCRATCH_INIT_ALLOCS};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn report(name: &str, secs: f64, rounds: usize) {
    println!("{name:<36} {:>10.2} µs/iter   ({rounds} rounds to stability)", secs * 1e6);
}

fn report_hom(name: &str, secs: f64) {
    println!("{name:<36} {:>10.2} µs/iter", secs * 1e6);
}

/// Tracked-scratch growth across `f`: `(first-use sizing, regrowth)`.
fn scratch_delta(f: impl FnOnce()) -> (u64, u64) {
    let (init, grow) = (SCRATCH_INIT_ALLOCS.get(), SCRATCH_ALLOCS.get());
    f();
    (SCRATCH_INIT_ALLOCS.get() - init, SCRATCH_ALLOCS.get() - grow)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 2 } else { 20 };
    let heavy_iters = if smoke { 1 } else { 5 };

    let (cfi_g, cfi_h) = cfi_pair_k4();
    let (srg_s, srg_r) = srg_16_6_2_2_pair();

    let cr = color_refinement(&[&cfi_g, &cfi_h], CrOptions::default());
    report(
        "cr_cfi_k4",
        min_secs_per_iter(1, iters, || {
            let _ = color_refinement(&[&cfi_g, &cfi_h], CrOptions::default());
        }),
        cr.rounds,
    );
    let cr = color_refinement(&[&srg_s, &srg_r], CrOptions::default());
    report(
        "cr_srg16",
        min_secs_per_iter(1, iters, || {
            let _ = color_refinement(&[&srg_s, &srg_r], CrOptions::default());
        }),
        cr.rounds,
    );

    for (name, g, h, k, variant, heavy) in [
        ("2fwl_srg16", &srg_s, &srg_r, 2, WlVariant::Folklore, false),
        ("2owl_srg16", &srg_s, &srg_r, 2, WlVariant::Oblivious, false),
        ("2fwl_cfi_k4", &cfi_g, &cfi_h, 2, WlVariant::Folklore, false),
        ("3fwl_srg16", &srg_s, &srg_r, 3, WlVariant::Folklore, true),
        ("3fwl_cfi_k4", &cfi_g, &cfi_h, 3, WlVariant::Folklore, true),
    ] {
        let c = k_wl(&[g, h], k, variant, None);
        report(
            name,
            min_secs_per_iter(1, if heavy { heavy_iters } else { iters }, || {
                let _ = k_wl(&[g, h], k, variant, None);
            }),
            c.rounds,
        );
    }

    // Homomorphism counts, the other side of E2's characterization
    // (CR-equivalence ⇔ equal tree-hom counts): the 48-tree profile,
    // the tree DP as the graph grows, and FAQ variable elimination on
    // patterns of growing induced width.
    let trees = free_trees_up_to(8); // 1+1+1+2+3+6+11+23 = 48 trees
    let g = erdos_renyi(60, 0.1, &mut StdRng::seed_from_u64(gel_bench::BENCH_SEED));
    report_hom(
        "hom_tree_profile_48trees_n60",
        min_secs_per_iter(1, iters, || {
            black_box(tree_hom_vector(&trees, &g));
        }),
    );
    let p7 = path(7);
    for n in [50usize, 100, 200] {
        let g = erdos_renyi(n, 8.0 / n as f64, &mut StdRng::seed_from_u64(1));
        report_hom(
            &format!("hom_tree_path7_n{n}"),
            min_secs_per_iter(1, iters, || {
                black_box(hom_tree(&p7, &g));
            }),
        );
    }
    let pet = petersen();
    for (name, pattern) in [
        ("faq_hom_petersen_c4", cycle(4)),
        ("faq_hom_petersen_c6", cycle(6)),
        ("faq_hom_petersen_k4", complete(4)),
    ] {
        report_hom(
            name,
            min_secs_per_iter(1, iters, || {
                black_box(hom_count(&pattern, &pet));
            }),
        );
    }

    // Zero-allocation gate: a long refinement must grow the tracked
    // scratch exactly as much as a 2-round warm-up of the same
    // instance — every round past the sizing round is allocation-free.
    // path(240) drives CR through ~120 rounds; path(18) drives 2-FWL
    // through well over two.
    let long_path = path(240);
    let opts_warm = CrOptions { max_rounds: Some(2), ignore_labels: false };
    let warm = scratch_delta(|| {
        let _ = color_refinement(&[&long_path], opts_warm);
    });
    let mut rounds = 0;
    let full = scratch_delta(|| {
        rounds = color_refinement(&[&long_path], CrOptions::default()).rounds;
    });
    assert!(rounds > 2, "gate needs a many-round instance, got {rounds}");
    println!(
        "cr_steady_state: {rounds} rounds, scratch init {} regrow {} (warm-up init {} regrow {})",
        full.0, full.1, warm.0, warm.1
    );
    let cr_gate = (warm, full);

    let short_path = path(18);
    let warm = scratch_delta(|| {
        let _ = k_wl(&[&short_path], 2, WlVariant::Folklore, Some(2));
    });
    let mut rounds = 0;
    let full = scratch_delta(|| {
        rounds = k_wl(&[&short_path], 2, WlVariant::Folklore, None).rounds;
    });
    assert!(rounds > 2, "gate needs a many-round instance, got {rounds}");
    println!(
        "kwl_steady_state: {rounds} rounds, scratch init {} regrow {} (warm-up init {} regrow {})",
        full.0, full.1, warm.0, warm.1
    );

    if smoke {
        // Per-counter equality is strictly tighter than the old
        // combined-total check: no buffer is first-allocated *and* no
        // buffer regrows after the 2-round warm-up.
        assert!(cr_gate.0 .0 > 0, "CR warm-up sized no scratch: the init counter reads zero");
        assert_eq!(cr_gate.0 .0, cr_gate.1 .0, "CR rounds created buffers after warm-up");
        assert_eq!(cr_gate.0 .1, cr_gate.1 .1, "CR rounds regrew scratch after warm-up");
        assert_eq!(warm.0, full.0, "2-FWL rounds created buffers after warm-up");
        assert_eq!(warm.1, full.1, "2-FWL rounds regrew scratch after warm-up");
        println!("smoke OK: steady-state WL refinement rounds are allocation-free");
    }
}
