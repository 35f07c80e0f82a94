//! The metrics registry: counters and gauges in every build, span
//! timing with the `enabled` feature.
//!
//! Layout: a process-wide [`Registry`] (one mutex) holds per-counter
//! totals, gauge cells and merged span stats; every thread owns a
//! [`Shard`] of pending counter increments and span accumulations that
//! merges into the registry on thread exit, [`flush_thread`], or a
//! [`snapshot`] from that thread. Counters cache their registry index
//! in the static itself, so the hot path after first touch is one
//! relaxed atomic load plus a thread-local vector bump.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::{Snapshot, SpanStat};

/// Process-wide metric state, behind one mutex (never taken on the
/// counter/span hot paths — only at registration, flush and read).
#[derive(Default)]
struct Registry {
    /// Counter name → dense id; names deduplicate, so two statics with
    /// the same name share one total.
    counter_ids: BTreeMap<&'static str, usize>,
    counter_names: Vec<&'static str>,
    counter_totals: Vec<u64>,
    gauges: BTreeMap<&'static str, f64>,
    spans: BTreeMap<String, SpanStat>,
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Per-thread pending state; merged into [`Registry`] on drop. The
/// span fields stay empty while span timing is compiled out.
#[derive(Default)]
#[cfg_attr(not(feature = "enabled"), allow(dead_code))]
struct Shard {
    /// Pending counter increments, indexed by counter id.
    counts: Vec<u64>,
    /// Open-span stack: names and start times, parallel vectors.
    names: Vec<&'static str>,
    starts: Vec<Instant>,
    /// Completed-span accumulation: path → slot in `stats`. Keyed by
    /// `Vec<&str>` so lookups borrow the live stack — no per-span
    /// allocation once a path has been seen on this thread.
    span_ids: BTreeMap<Vec<&'static str>, usize>,
    stats: Vec<SpanStat>,
    /// One-entry cache of the last closed span's path and slot:
    /// tight loops close the same span millions of times in a row, and
    /// a handful of pointer compares ([`same_path`]) beats walking the
    /// map with by-content string comparisons every close.
    last_path: Vec<&'static str>,
    last_id: usize,
}

/// Whether two span paths are the same stack of name literals, by
/// pointer identity. Distinct literals with equal text miss the cache
/// and fall back to the by-content map lookup — slower, never wrong.
#[cfg(feature = "enabled")]
#[inline]
fn same_path(a: &[&'static str], b: &[&'static str]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(*x, *y))
}

impl Shard {
    fn flush(&mut self) {
        if self.counts.iter().all(|&c| c == 0) && self.span_ids.is_empty() {
            return;
        }
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        for (id, pending) in self.counts.iter_mut().enumerate() {
            if *pending > 0 {
                // A shard slot can only be non-zero for a registered id.
                reg.counter_totals[id] += *pending;
                *pending = 0;
            }
        }
        for (path, id) in std::mem::take(&mut self.span_ids) {
            let stat = self.stats[id];
            let key = path.join("/");
            let slot = reg.spans.entry(key).or_default();
            slot.count += stat.count;
            slot.secs += stat.secs;
        }
        self.stats.clear();
        self.last_path.clear();
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static SHARD: RefCell<Shard> = RefCell::new(Shard::default());
}

/// Runs `f` on this thread's shard. During thread teardown (after the
/// TLS slot is destroyed) instrumentation silently drops — by then the
/// shard has already flushed.
fn with_shard<R>(f: impl FnOnce(&mut Shard) -> R) -> Option<R> {
    SHARD.try_with(|s| f(&mut s.borrow_mut())).ok()
}

/// A named monotonic counter. Declare as a `static`; `add`/`incr` are
/// lock-free after the first touch.
pub struct Counter {
    name: &'static str,
    /// Cached registry id + 1 (0 = not yet registered).
    id: AtomicU32,
}

impl Counter {
    /// A counter named `name` (conventionally dotted lower-case, e.g.
    /// `"wl.cache.hits"`). Registration happens on first use.
    pub const fn new(name: &'static str) -> Self {
        Self { name, id: AtomicU32::new(0) }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn id(&self) -> usize {
        let cached = self.id.load(Ordering::Relaxed);
        if cached != 0 {
            return cached as usize - 1;
        }
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let id = match reg.counter_ids.get(self.name) {
            Some(&id) => id,
            None => {
                let id = reg.counter_totals.len();
                reg.counter_ids.insert(self.name, id);
                reg.counter_names.push(self.name);
                reg.counter_totals.push(0);
                id
            }
        };
        self.id.store(id as u32 + 1, Ordering::Relaxed);
        id
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let id = self.id();
        with_shard(|s| {
            if s.counts.len() <= id {
                s.counts.resize(id + 1, 0);
            }
            s.counts[id] += n;
        });
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total: the global merged value plus this thread's
    /// pending increments. Pending increments on *other live* threads
    /// are not visible until they flush; at quiescent points (all
    /// parallel regions joined) the value is exact.
    pub fn get(&self) -> u64 {
        let id = self.id();
        let pending = with_shard(|s| s.counts.get(id).copied().unwrap_or(0)).unwrap_or(0);
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.counter_totals[id] + pending
    }

    /// Zeroes this counter (global total and the calling thread's
    /// pending increments). For scoped measurement prefer
    /// [`Snapshot::since`]; reset exists for explicit epoch boundaries
    /// such as `gel_wl::clear_cache`.
    pub fn reset(&self) {
        let id = self.id();
        with_shard(|s| {
            if let Some(c) = s.counts.get_mut(id) {
                *c = 0;
            }
        });
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.counter_totals[id] = 0;
    }
}

/// A named gauge: a last-written (or high-water) `f64`. Writes take the
/// registry lock — use for infrequent level/peak measurements, not in
/// inner loops.
pub struct Gauge {
    name: &'static str,
}

impl Gauge {
    /// A gauge named `name`.
    pub const fn new(name: &'static str) -> Self {
        Self { name }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sets the value.
    pub fn set(&self, value: f64) {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.gauges.insert(self.name, value);
    }

    /// Raises the gauge to `value` if it is higher than the current
    /// reading (high-water-mark semantics; deterministic for a
    /// deterministic workload because `max` is order-independent).
    pub fn set_max(&self, value: f64) {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let slot = reg.gauges.entry(self.name).or_insert(value);
        if value > *slot {
            *slot = value;
        }
    }

    /// The current value (0.0 before the first write).
    pub fn get(&self) -> f64 {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.gauges.get(self.name).copied().unwrap_or(0.0)
    }
}

/// RAII guard of an open span; completes the measurement on drop.
#[cfg(feature = "enabled")]
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard {
    /// Armed unless the shard was unavailable at open time.
    armed: bool,
}

/// Opens a hierarchical span named `name` on the current thread. The
/// returned guard records elapsed wall-clock time under the path of
/// all spans currently open on this thread when it drops.
#[cfg(feature = "enabled")]
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let armed = with_shard(|s| {
        s.names.push(name);
        s.starts.push(Instant::now());
    })
    .is_some();
    SpanGuard { armed }
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        with_shard(|s| {
            let Some(start) = s.starts.pop() else { return };
            let secs = start.elapsed().as_secs_f64();
            let id = if same_path(&s.last_path, &s.names) {
                s.last_id
            } else {
                let id = match s.span_ids.get(s.names.as_slice()) {
                    Some(&id) => id,
                    None => {
                        let id = s.stats.len();
                        s.stats.push(SpanStat::default());
                        s.span_ids.insert(s.names.clone(), id);
                        id
                    }
                };
                s.last_path.clear();
                s.last_path.extend_from_slice(&s.names);
                s.last_id = id;
                id
            };
            s.stats[id].count += 1;
            s.stats[id].secs += secs;
            s.names.pop();
        });
    }
}

/// Merges the calling thread's pending metrics into the global
/// registry immediately (threads also flush automatically on exit).
pub fn flush_thread() {
    with_shard(Shard::flush);
}

/// Flushes the calling thread and returns the merged state of every
/// registered metric. Exact at quiescent points; see [`Counter::get`]
/// for the in-flight caveat.
pub fn snapshot() -> Snapshot {
    flush_thread();
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    Snapshot {
        counters: reg
            .counter_names
            .iter()
            .zip(&reg.counter_totals)
            .map(|(&n, &t)| (n, t))
            .collect(),
        gauges: reg.gauges.clone(),
        spans: reg.spans.clone(),
    }
}

/// Zeroes every counter, clears every gauge and span total, and clears
/// the calling thread's pending state. Registered counter ids survive
/// (statics keep their cached ids). Spans currently open on any thread
/// will record into the new epoch when they close.
pub fn reset() {
    with_shard(|s| {
        s.counts.iter_mut().for_each(|c| *c = 0);
        s.span_ids.clear();
        s.stats.clear();
        s.last_path.clear();
    });
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.counter_totals.iter_mut().for_each(|t| *t = 0);
    reg.gauges.clear();
    reg.spans.clear();
}
