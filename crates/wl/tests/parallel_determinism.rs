//! Property tests for the parallel WL kernels: at every thread count
//! the colourings must be *identical* — not merely equivalent — to the
//! sequential run, and the structural-fingerprint cache must agree
//! with a fresh computation. These are the invariants the experiment
//! suite's byte-identical output rests on.

use gel_graph::random::{erdos_renyi, rmat_edges};
use gel_graph::{DynGraph, Graph, GraphBuilder};
use gel_wl::{
    cached_cr_equivalent, cached_joint_cr, cached_k_wl_equivalent, color_refinement, cr_equivalent,
    k_wl, k_wl_equivalent, CrOptions, IncrementalColoring, WlVariant,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Serializes tests that flip the global rayon thread count, so
/// libtest's own test-level parallelism cannot interleave them.
static THREADS: Mutex<()> = Mutex::new(());

/// Holds [`THREADS`] for one test (or proptest case) and publishes the
/// thread's pending gel-obs counts before releasing it, so they cannot
/// land inside the next holder's counter readings.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        gel_obs::flush_thread();
    }
}

fn serial() -> Serial {
    Serial { _lock: THREADS.lock().unwrap_or_else(|e| e.into_inner()) }
}

/// Thread counts to exercise: serial, two workers, and the machine's
/// full width.
fn widths() -> Vec<usize> {
    let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut w = vec![1, 2, n.max(2)];
    w.dedup();
    w
}

fn er_pair(seed: u64, n: usize) -> (Graph, Graph) {
    let p = 4.0 / n as f64;
    let g = erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed));
    let h = erdos_renyi(n, p, &mut StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF));
    (g, h)
}

/// The cache's hit/miss counters are thread-count invariant for a
/// workload of *distinct* queries: every key misses exactly once on
/// first contact and hits exactly once on the repeat pass, no matter
/// how the queries were sharded across workers. (Concurrent queries of
/// the *same* fresh key may legitimately both miss — the cache
/// computes outside its lock — which is why the workload keeps keys
/// distinct.)
#[test]
fn cache_counters_deterministic_across_thread_counts() {
    use rayon::prelude::*;
    let _serial = serial();
    let pairs: Vec<_> = (0..24).map(|i| er_pair(0x0B5_0000 + i, 16)).collect();
    let mut stats = Vec::new();
    for t in [1usize, 4] {
        rayon::set_num_threads(t);
        gel_wl::clear_cache();
        pairs.par_iter().for_each(|(g, h)| {
            let _ = cached_cr_equivalent(g, h);
        });
        pairs.par_iter().for_each(|(g, h)| {
            let _ = cached_cr_equivalent(g, h);
        });
        stats.push(gel_wl::cache_stats());
    }
    rayon::set_num_threads(0);
    assert_eq!(stats[0], stats[1], "counters must not depend on the thread count");
    assert_eq!(stats[0].misses, pairs.len() as u64);
    assert_eq!(stats[0].hits, pairs.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Joint colour refinement is bit-identical at 1, 2, and N
    /// threads. `n ≥ 128` per graph puts the joint instance above
    /// `CR_PAR_THRESHOLD`, so the parallel signature pass really runs.
    #[test]
    fn cr_identical_across_thread_counts((seed, n) in (0u64..1 << 48, 128usize..192)) {
        let _serial = serial();
        let (g, h) = er_pair(seed, n);
        let mut colorings = Vec::new();
        for t in widths() {
            rayon::set_num_threads(t);
            colorings.push(color_refinement(&[&g, &h], CrOptions::default()));
        }
        rayon::set_num_threads(0);
        for c in &colorings[1..] {
            prop_assert_eq!(c, &colorings[0]);
        }
    }

    /// 2-WL (both variants) is bit-identical at 1, 2, and N threads.
    /// `n = 64` gives `64² = 4096` tuples per graph — exactly
    /// `KWL_PAR_THRESHOLD` — so the parallel tuple pass really runs.
    #[test]
    fn kwl_identical_across_thread_counts(seed in 0u64..1 << 48) {
        let _serial = serial();
        let (g, h) = er_pair(seed, 64);
        for variant in [WlVariant::Folklore, WlVariant::Oblivious] {
            let mut colorings = Vec::new();
            for t in widths() {
                rayon::set_num_threads(t);
                colorings.push(k_wl(&[&g, &h], 2, variant, None));
            }
            rayon::set_num_threads(0);
            for c in &colorings[1..] {
                prop_assert_eq!(c, &colorings[0]);
            }
        }
    }

    /// Incremental colour refinement under an edit sequence is
    /// bit-identical at 1 and 4 threads: every intermediate stable
    /// colouring, the instance work counters, and the process-wide obs
    /// deltas (builds, repairs, recoloured vertices, renames, cascade
    /// fallbacks) all agree, and the final state equals a from-scratch
    /// recolour. Two legs: random edits on Erdős–Rényi, and edits that
    /// continue the stream of a skewed R-MAT graph (the ingest
    /// traffic). `n ≥ 300` keeps the fresh digest fills above the
    /// parallel threshold, so the parallel path really runs.
    #[test]
    fn incremental_edits_identical_across_thread_counts(seed in 0u64..1 << 48) {
        let _serial = serial();
        let n = 320usize;
        let er = erdos_renyi(n, 3.0 / n as f64, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let er_script: Vec<(u32, u32)> = (0..12)
            .map(|_| {
                use rand::Rng;
                let u = rng.gen_range(0..n as u32);
                let v = (u + 1 + rng.gen_range(0..n as u32 - 1)) % n as u32;
                (u, v)
            })
            .collect();
        let mut b = GraphBuilder::new(1 << 9);
        for (u, v) in rmat_edges(9, 4 << 9, seed) {
            b.add_edge(u, v);
        }
        let rmat = b.build();
        let rmat_script: Vec<(u32, u32)> =
            rmat_edges(9, u64::MAX, seed ^ 0x5EED).filter(|&(u, v)| u != v).take(12).collect();

        for (g, script) in [(er, er_script), (rmat, rmat_script)] {
            let mut legs = Vec::new();
            for t in [1usize, 4] {
                rayon::set_num_threads(t);
                let before = gel_obs::snapshot();
                let mut inc = IncrementalColoring::new(&g);
                let mut trace = Vec::new();
                for &(u, v) in &script {
                    // Toggle: always an effective edit.
                    if !inc.insert_edge(u, v) {
                        inc.remove_edge(u, v);
                    }
                    trace.push(inc.stable_coloring());
                }
                let delta = gel_obs::snapshot().since(&before);
                let counters = [
                    delta.counter("wl.incr.builds"),
                    delta.counter("wl.incr.repairs"),
                    delta.counter("wl.incr.recolored"),
                    delta.counter("wl.incr.renames"),
                    delta.counter("wl.incr.fallbacks"),
                ];
                legs.push((trace, inc.stats(), counters, inc.stable_coloring()));
            }
            rayon::set_num_threads(0);
            let (trace_a, stats_a, ctr_a, final_a) = &legs[0];
            let (trace_b, stats_b, ctr_b, final_b) = &legs[1];
            prop_assert_eq!(trace_a, trace_b, "stable colourings drifted with the thread count");
            prop_assert_eq!(stats_a, stats_b, "work counters drifted with the thread count");
            prop_assert_eq!(ctr_a, ctr_b, "obs counters drifted with the thread count");

            // The survivor equals a from-scratch recolour of the edited
            // graph.
            let mut edited = DynGraph::from_graph(&g);
            for &(u, v) in &script {
                if edited.insert_edge(u, v) == 0 {
                    edited.remove_edge(u, v);
                }
            }
            let fresh = IncrementalColoring::from_dyn(edited).stable_coloring();
            prop_assert_eq!(final_a, &fresh, "incremental final state diverged from fresh");
            prop_assert_eq!(final_b, &fresh);
        }
    }

    /// The WL cache returns exactly what a fresh computation returns —
    /// for the joint colouring, the CR verdict, and the 2-WL verdict —
    /// and repeated queries stay stable.
    #[test]
    fn cache_identical_to_fresh_computation((seed, n) in (0u64..1 << 48, 8usize..40)) {
        let _serial = serial();
        let (g, h) = er_pair(seed, n);

        let fresh = color_refinement(&[&g, &h], CrOptions::default());
        let cached = cached_joint_cr(&g, &h);
        prop_assert_eq!(&*cached, &fresh);

        let verdict = cr_equivalent(&g, &h);
        prop_assert_eq!(cached_cr_equivalent(&g, &h), verdict);
        prop_assert_eq!(cached_cr_equivalent(&g, &h), verdict, "repeat query drifted");

        let kwl_verdict = k_wl_equivalent(&g, &h, 2, WlVariant::Folklore);
        prop_assert_eq!(
            cached_k_wl_equivalent(&g, &h, 2, WlVariant::Folklore),
            kwl_verdict
        );
    }
}
