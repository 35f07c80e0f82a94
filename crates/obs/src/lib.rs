//! # gel-obs — unified observability for the gelib workspace
//!
//! A lightweight, dependency-free metrics registry: named monotonic
//! [`Counter`]s, last-value/high-water [`Gauge`]s, and hierarchical
//! [`span`] timers, with thread-local accumulation and a deterministic
//! merge into process-wide totals.
//!
//! ## Design
//!
//! * **Counters always on, spans opt-in.** Counters, gauges,
//!   [`snapshot`], [`reset`] and [`flush_thread`] work in every build,
//!   so every gate that counts work binds whatever the features. Only
//!   span timing (a clock read per open and close) sits behind the
//!   `enabled` feature; without it [`span`] returns a zero-sized guard.
//!   Dependent crates forward an `obs` feature to `gel-obs/enabled`,
//!   so one switch turns spans on across the workspace.
//! * **Thread-local accumulation.** `Counter::add` bumps a plain
//!   thread-local cell — no atomics, no locks on the hot path. Pending
//!   values merge into the global registry when a thread exits (the
//!   vendored rayon shim joins its scoped workers before a parallel
//!   region returns, so totals are complete at every quiescent point),
//!   on [`flush_thread`], and on [`snapshot`] for the calling thread.
//! * **Deterministic merge.** Counter merges are additions of `u64`s —
//!   commutative and associative — so for a deterministic workload the
//!   final totals are identical at every `RAYON_NUM_THREADS` (property
//!   tested in `tests/parallel_determinism.rs`). Span *durations* are
//!   wall-clock and vary run to run; span *counts* are deterministic.
//! * **Hierarchical spans.** [`span`] guards nest: a span opened while
//!   another is active on the same thread records under the joined
//!   path (`"gnn.forward/conv.gin/tensor.matmul"`). Times are
//!   inclusive of children. Guards must drop in LIFO order (the
//!   ordinary RAII scoping discipline).
//! * **Scoped attribution.** [`snapshot`] is cheap; per-phase metrics
//!   are the [`Snapshot::since`] delta of two snapshots, and
//!   [`reset`] zeroes everything for a fresh measurement epoch — this
//!   is what lets the experiment runner report *per-experiment* (not
//!   cumulative) cache hit rates and allocation counts.
//!
//! ## Example
//!
//! ```
//! use gel_obs as obs;
//! static QUERIES: obs::Counter = obs::Counter::new("example.queries");
//!
//! let before = obs::snapshot();
//! {
//!     let _t = obs::span("example.work");
//!     QUERIES.incr();
//! }
//! let delta = obs::snapshot().since(&before);
//! assert_eq!(delta.counter("example.queries"), 1);
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;

mod imp;
#[cfg(not(feature = "enabled"))]
mod noop;

pub use imp::{flush_thread, reset, snapshot, Counter, Gauge};
#[cfg(feature = "enabled")]
pub use imp::{span, SpanGuard};
#[cfg(not(feature = "enabled"))]
pub use noop::{span, SpanGuard};

/// Accumulated statistics of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall-clock seconds (inclusive of child spans).
    pub secs: f64,
}

/// A point-in-time view of every registered metric.
///
/// Counter and gauge keys are the registered names; span keys are
/// `/`-joined hierarchical paths. With the `enabled` feature off the
/// span map stays empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counter totals by name (zero-valued entries are kept,
    /// so the key set depends only on which counters were touched).
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Span statistics by hierarchical path.
    pub spans: BTreeMap<String, SpanStat>,
}

impl Snapshot {
    /// The named counter's total (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value (0.0 when absent).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// The stats of one exact span path (zero when absent).
    pub fn span(&self, path: &str) -> SpanStat {
        self.spans.get(path).copied().unwrap_or_default()
    }

    /// Sums stats over every span whose *leaf* name (the last `/`
    /// segment) starts with `prefix` — e.g. `"tensor."` aggregates the
    /// kernel time no matter where in the call hierarchy it accrued.
    pub fn leaf_span_total(&self, prefix: &str) -> SpanStat {
        let mut total = SpanStat::default();
        for (path, stat) in &self.spans {
            let leaf = path.rsplit('/').next().unwrap_or(path);
            if leaf.starts_with(prefix) {
                total.count += stat.count;
                total.secs += stat.secs;
            }
        }
        total
    }

    /// Merges `other` into `self`: counters and span stats add, gauges
    /// keep the maximum (the high-water interpretation every gauge in
    /// the workspace uses). This is the fold the experiment runner and
    /// the `gel-serve` request loop use to aggregate per-scope
    /// [`Snapshot::since`] deltas into totals.
    pub fn absorb(&mut self, other: &Snapshot) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.gauges {
            let g = self.gauges.entry(k).or_insert(f64::MIN);
            *g = g.max(v);
        }
        for (k, &v) in &other.spans {
            let t = self.spans.entry(k.clone()).or_default();
            t.count += v.count;
            t.secs += v.secs;
        }
    }

    /// The change from `earlier` to `self`: per-key saturating
    /// difference of counters and span stats; gauges keep their value
    /// in `self`. Keys only present in `earlier` are dropped (a counter
    /// can only disappear across an explicit [`reset`]).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| (k, v.saturating_sub(earlier.counter(k))))
            .collect();
        let gauges = self.gauges.clone();
        let spans = self
            .spans
            .iter()
            .map(|(k, &v)| {
                let e = earlier.span(k);
                (
                    k.clone(),
                    SpanStat {
                        count: v.count.saturating_sub(e.count),
                        secs: (v.secs - e.secs).max(0.0),
                    },
                )
            })
            .collect();
        Snapshot { counters, gauges, spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests share the process-wide registry; serialize the ones that
    /// reset it or assert absolute values.
    static LOCK: Mutex<()> = Mutex::new(());

    static A: Counter = Counter::new("test.a");
    static B: Counter = Counter::new("test.b");
    static PEAK: Gauge = Gauge::new("test.peak");

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        A.incr();
        A.add(4);
        B.add(2);
        assert_eq!(A.get(), 5);
        assert_eq!(B.get(), 2);
        let snap = snapshot();
        assert_eq!(snap.counter("test.a"), 5);
        assert_eq!(snap.counter("test.b"), 2);
        A.reset();
        assert_eq!(A.get(), 0);
        assert_eq!(B.get(), 2, "per-counter reset must not touch others");
        reset();
        assert_eq!(snapshot().counter("test.b"), 0);
    }

    #[test]
    fn cross_thread_increments_merge_on_join() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        std::thread::scope(|s| {
            // Join every handle explicitly — the discipline the rayon
            // shim follows. An unjoined scoped thread lets the scope
            // return through the running-thread count, which is
            // decremented before TLS destructors (and therefore the
            // shard flush) have run on the worker.
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..100 {
                            A.incr();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker thread");
            }
        });
        assert_eq!(A.get(), 400, "worker shards flush on thread exit");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_nest_hierarchically() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
            }
        }
        {
            let _lone = span("inner");
        }
        let snap = snapshot();
        assert_eq!(snap.span("outer").count, 1);
        assert_eq!(snap.span("outer/inner").count, 3);
        assert_eq!(snap.span("inner").count, 1);
        assert!(snap.span("outer").secs >= snap.span("outer/inner").secs);
        let leaf = snap.leaf_span_total("inner");
        assert_eq!(leaf.count, 4, "leaf totals aggregate across parents");
    }

    #[test]
    fn gauges_set_and_high_water() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        PEAK.set(2.0);
        PEAK.set_max(5.0);
        PEAK.set_max(3.0);
        assert_eq!(PEAK.get(), 5.0);
        assert_eq!(snapshot().gauge("test.peak"), 5.0);
    }

    #[test]
    fn absorb_adds_counters_and_spans_and_maxes_gauges() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        A.add(3);
        PEAK.set(4.0);
        {
            let _s = span("absorb.work");
        }
        let first = snapshot();
        reset();
        A.add(5);
        PEAK.set(2.0);
        {
            let _s = span("absorb.work");
        }
        let mut totals = first.clone();
        totals.absorb(&snapshot());
        assert_eq!(totals.counter("test.a"), 8);
        if cfg!(feature = "enabled") {
            assert_eq!(totals.span("absorb.work").count, 2);
        }
        assert_eq!(totals.gauge("test.peak"), 4.0, "gauges absorb as high-water maxima");
    }

    #[test]
    fn snapshot_since_computes_deltas() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        A.add(10);
        let before = snapshot();
        A.add(7);
        {
            let _s = span("delta.work");
        }
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.a"), 7);
        if cfg!(feature = "enabled") {
            assert_eq!(delta.span("delta.work").count, 1);
        }
    }
}
