//! A shared, capacity-bounded LRU cache of persistent
//! [`EvalEngine`]s, keyed by expression and graph shape.
//!
//! ## Why cache engines, not plans
//!
//! An [`EvalEngine`] owns both the lowered plan *and* the evaluation
//! slabs for one `(expression, graph shape)` pair; after its first
//! call it re-evaluates with zero steady-state allocations
//! ([`gel_lang::eval_slab_allocs`] stays flat). Caching whole engines
//! therefore buys two things at once: warm requests skip re-lowering
//! (`plan.builds` stays put — the `--bench serve --smoke` gate), and
//! they skip slab growth too.
//!
//! ## Concurrency protocol
//!
//! Engines are stateful (`eval` takes `&mut self`), so a cached engine
//! is *checked out* — moved out of its slot — for the duration of one
//! request and put back afterwards. A second request for the same key
//! while the engine is out **waits** on a condvar rather than building
//! a duplicate engine; this is what makes "re-submission re-lowers
//! exactly once" hold even under concurrency, and it is why the first
//! evaluation of a popular expression is never duplicated work.
//!
//! The rule this rests on: **code running while an engine is checked
//! out must not panic on input that passed preflight.** A panic there
//! drops the engine without a `put_back`, so its slot stays a
//! placeholder and every later request for the key waits forever.
//! Plans the engine cannot build (a table whose cell ids overflow, a
//! slab over the cap) therefore come back as a
//! [`gel_lang::PlanError`], never as a panic.
//!
//! ## Eviction
//!
//! Strict LRU over resident engines: every slot carries the tick of
//! its last checkout, and when the table exceeds capacity the resident
//! slot with the smallest tick is dropped. Ticks are unique (one
//! global counter), so eviction order is fully deterministic for a
//! deterministic request order. Checked-out slots are never evicted —
//! the table can transiently exceed capacity by at most the number of
//! in-flight requests, which admission control already bounds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use gel_lang::{EvalEngine, EvalOptions};

static OBS_HITS: gel_obs::Counter = gel_obs::Counter::new("serve.cache.hits");
static OBS_MISSES: gel_obs::Counter = gel_obs::Counter::new("serve.cache.misses");
static OBS_EVICTIONS: gel_obs::Counter = gel_obs::Counter::new("serve.cache.evictions");

/// Cache key: the expression's structural DAG hash plus the graph
/// shape the plan was lowered against. This mirrors the engine's own
/// internal plan key — one cached engine holds exactly one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// [`gel_lang::expr_dag_hash`] of the expression.
    pub dag_hash: u64,
    /// Vertex count of the target graph.
    pub n: usize,
    /// Label dimension of the target graph.
    pub label_dim: usize,
}

struct Slot {
    /// `None` while the engine is checked out (or still being built by
    /// the thread that inserted the slot).
    engine: Option<EvalEngine>,
    /// Tick of the most recent checkout; unique across slots.
    last_used: u64,
}

struct Inner {
    slots: HashMap<PlanKey, Slot>,
    tick: u64,
}

/// What [`PlanCache::checkout`] decided.
pub enum Checkout {
    /// A cached engine; evaluate with it, then [`PlanCache::put_back`].
    Hit(EvalEngine),
    /// No engine exists for this key. A placeholder slot now pins the
    /// key; the caller must build a fresh engine, evaluate, and
    /// [`PlanCache::put_back`] it (concurrent requests for the same
    /// key are blocked until then).
    Miss(EvalEngine),
}

/// The shared engine cache. See the module docs for the protocol.
pub struct PlanCache {
    inner: Mutex<Inner>,
    available: Condvar,
    cap: usize,
    opts: EvalOptions,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `cap` resident engines (`cap ≥ 1`),
    /// each built with `opts`.
    pub fn new(cap: usize, opts: EvalOptions) -> Self {
        assert!(cap >= 1, "plan cache capacity must be at least 1");
        Self {
            inner: Mutex::new(Inner { slots: HashMap::new(), tick: 0 }),
            available: Condvar::new(),
            cap,
            opts,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Checks out the engine for `key`, blocking while another request
    /// holds it. Returns [`Checkout::Hit`] with the cached engine, or
    /// [`Checkout::Miss`] with a freshly built one (its plan lowers on
    /// first eval). Either way the caller owns the engine until
    /// [`PlanCache::put_back`].
    pub fn checkout(&self, key: PlanKey) -> Checkout {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let tick = {
                inner.tick += 1;
                inner.tick
            };
            match inner.slots.get_mut(&key) {
                Some(slot) => {
                    if let Some(engine) = slot.engine.take() {
                        slot.last_used = tick;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        OBS_HITS.incr();
                        return Checkout::Hit(engine);
                    }
                    // Engine checked out elsewhere; wait for put_back.
                    inner = self.available.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
                None => {
                    inner.slots.insert(key, Slot { engine: None, last_used: tick });
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    OBS_MISSES.incr();
                    return Checkout::Miss(EvalEngine::with_options(self.opts));
                }
            }
        }
    }

    /// Returns an engine after a request completes, waking any waiters
    /// on its key and enforcing the capacity bound (the freshly
    /// returned engine is the most recently used, so it is never the
    /// eviction victim).
    pub fn put_back(&self, key: PlanKey, engine: EvalEngine) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        let slot =
            inner.slots.get_mut(&key).expect("put_back for a key that was never checked out");
        slot.engine = Some(engine);
        slot.last_used = tick;
        self.enforce_cap(&mut inner);
        drop(inner);
        self.available.notify_all();
    }

    /// Evicts least-recently-used *resident* slots until the table is
    /// within capacity. Caller holds the lock.
    fn enforce_cap(&self, inner: &mut Inner) {
        while inner.slots.len() > self.cap {
            let victim = inner
                .slots
                .iter()
                .filter(|(_, s)| s.engine.is_some())
                .min_by_key(|(_, s)| s.last_used)
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    inner.slots.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    OBS_EVICTIONS.incr();
                }
                // Everything over capacity is checked out; the next
                // put_back re-runs this.
                None => break,
            }
        }
    }

    /// Engines currently tracked (resident or checked out).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).slots.len()
    }

    /// True when no engine is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys currently tracked, sorted by recency (most recent last).
    /// Test/diagnostic surface for asserting deterministic eviction.
    pub fn keys_by_recency(&self) -> Vec<PlanKey> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut pairs: Vec<_> = inner.slots.iter().map(|(&k, s)| (s.last_used, k)).collect();
        pairs.sort_unstable_by_key(|&(t, _)| t);
        pairs.into_iter().map(|(_, k)| k).collect()
    }

    /// Checkouts that found a cached engine.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Checkouts that had to build a fresh engine.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Engines dropped by the LRU policy.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}
