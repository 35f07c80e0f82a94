//! Property test: gel-obs totals are deterministic across thread
//! counts. Counter merges are commutative `u64` additions flushed from
//! per-thread shards when rayon's scoped workers join, so for a fixed
//! workload the final totals must be identical whether the increments
//! ran on 1 worker or 4 — the same invariant
//! `gel-wl/tests/parallel_determinism.rs` checks for colourings.
//!
//! Only the `rayon.dispatch.*` pair is allowed to *split* differently:
//! exactly one dispatch decision is recorded per region entry, so its
//! **sum** is thread-count invariant while the parallel/serial split
//! depends on the worker count. Span durations are wall-clock and are
//! not compared; span *counts* are, when spans are compiled in.

use gel_obs::{reset, snapshot, span, Counter, Snapshot};
use proptest::prelude::*;
use rayon::prelude::*;
use std::sync::Mutex;

/// Serializes proptest cases against the process-wide registry and the
/// global rayon thread count.
static LOCK: Mutex<()> = Mutex::new(());

static ITEMS: Counter = Counter::new("det.items");
static WEIGHT: Counter = Counter::new("det.weight");

/// A parallel workload whose counter totals depend only on `data`:
/// one `det.items` increment and a data-dependent `det.weight` bump
/// per element, all inside a `det.work` span.
fn workload(data: &[u64]) -> Snapshot {
    reset();
    data.par_iter().for_each(|&x| {
        let _t = span("det.work");
        ITEMS.incr();
        WEIGHT.add(x % 7);
    });
    snapshot()
}

/// Counters with the thread-count-dependent dispatch split removed.
fn non_dispatch(s: &Snapshot) -> Vec<(&'static str, u64)> {
    s.counters
        .iter()
        .filter(|(k, _)| !k.starts_with("rayon.dispatch."))
        .map(|(&k, &v)| (k, v))
        .collect()
}

fn dispatch_sum(s: &Snapshot) -> u64 {
    s.counter("rayon.dispatch.parallel") + s.counter("rayon.dispatch.serial")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn merged_totals_identical_at_one_and_four_threads(
        data in proptest::collection::vec(0u64..1 << 32, 512..2048)
    ) {
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut snaps = Vec::new();
        for t in [1usize, 4] {
            rayon::set_num_threads(t);
            snaps.push(workload(&data));
        }
        rayon::set_num_threads(0);
        let (a, b) = (&snaps[0], &snaps[1]);

        prop_assert_eq!(non_dispatch(a), non_dispatch(b));
        prop_assert_eq!(a.counter("det.items"), data.len() as u64);
        prop_assert_eq!(
            a.counter("det.weight"),
            data.iter().map(|x| x % 7).sum::<u64>()
        );

        prop_assert_eq!(dispatch_sum(a), dispatch_sum(b));

        if cfg!(feature = "enabled") {
            prop_assert_eq!(a.span("det.work").count, data.len() as u64);
            prop_assert_eq!(b.span("det.work").count, data.len() as u64);
        }
    }
}
