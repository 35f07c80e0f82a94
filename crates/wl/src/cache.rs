//! Memoization of stable WL colourings.
//!
//! The experiment suite asks the same ρ-equivalence questions about the
//! same graph pairs over and over (E10's lattice figure alone runs CR,
//! 2-WL and 3-WL on every non-isomorphic pair; the GNN separation
//! probes repeat the CR queries per trial). Joint refinement is the
//! dominant cost, so this module caches stable [`Coloring`]s keyed by a
//! structural fingerprint of the input graphs.
//!
//! * Keys are 128-bit FNV-1a-style digests of the full structure (CSR
//!   adjacency, label bits, orientation) plus the query kind, so two
//!   structurally identical graphs share entries no matter how they
//!   were built. Collisions are astronomically unlikely at the corpus
//!   sizes involved (≤ thousands of distinct graphs) and would need
//!   two *different* graphs to collide in both independent 64-bit
//!   streams.
//! * The store is a process-wide `Mutex<HashMap>` of `Arc<Coloring>`;
//!   refinement runs outside the lock, so concurrent missers may both
//!   compute (identical results — refinement is deterministic) but
//!   never block each other on the heavy work.
//! * Capacity is bounded ([`MAX_ENTRIES`]) by the same deterministic
//!   LRU policy as the `gel-serve` plan cache: every slot carries the
//!   tick of its last touch (one global counter, so ticks are unique),
//!   and overflow evicts the slot with the smallest tick. Eviction
//!   order is therefore a pure function of the query order — no
//!   wholesale flushes, no hash-order nondeterminism.
//!
//! Hits/misses/evictions are counted through `gel-obs`
//! (`wl.cache.hits` / `wl.cache.misses` / `wl.cache.evictions`) so
//! tests can assert that repeated queries do not re-run refinement
//! (`misses` == refinement invocations) and the experiment harness can
//! attribute cache behaviour per phase.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use gel_graph::Graph;

use crate::color_refinement::{color_refinement, CrOptions};
use crate::kwl::{k_wl, WlVariant};
use crate::partition::Coloring;

/// Entry bound; the least-recently-used entry is evicted when the map
/// would exceed this.
pub const MAX_ENTRIES: usize = 4096;

/// `(kind, fingerprint(g), fingerprint(h))`.
///
/// `kind` is 0 for colour refinement and `2k + variant` for k-WL, so
/// distinct queries never share an entry.
type Key = (u64, u128, u128);

struct Slot {
    value: Arc<Coloring>,
    /// Tick of the most recent touch; unique across slots.
    last_used: u64,
}

struct Inner {
    slots: HashMap<Key, Slot>,
    tick: u64,
}

static STORE: OnceLock<Mutex<Inner>> = OnceLock::new();
static HITS: gel_obs::Counter = gel_obs::Counter::new("wl.cache.hits");
static MISSES: gel_obs::Counter = gel_obs::Counter::new("wl.cache.misses");
static EVICTIONS: gel_obs::Counter = gel_obs::Counter::new("wl.cache.evictions");

fn store() -> &'static Mutex<Inner> {
    STORE.get_or_init(|| Mutex::new(Inner { slots: HashMap::new(), tick: 0 }))
}

/// Cache effectiveness counters (process-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WlCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran joint refinement (== refinement invocations
    /// through the cached API).
    pub misses: u64,
    /// Entries dropped by the LRU policy.
    pub evictions: u64,
}

/// Hit/miss/eviction counts since the last [`clear_cache`] or
/// [`gel_obs::reset`].
pub fn cache_stats() -> WlCacheStats {
    WlCacheStats { hits: HITS.get(), misses: MISSES.get(), evictions: EVICTIONS.get() }
}

/// Resident entries (diagnostic surface for the eviction tests).
pub fn cache_len() -> usize {
    store().lock().unwrap().slots.len()
}

/// Empties the store and zeroes the counters (for tests/benchmarks).
pub fn clear_cache() {
    let mut inner = store().lock().unwrap();
    inner.slots.clear();
    inner.tick = 0;
    drop(inner);
    HITS.reset();
    MISSES.reset();
    EVICTIONS.reset();
}

/// 128 bits of structural identity: two independent 64-bit FNV-1a
/// streams (different offset bases and a lane-salt) over the graph's
/// complete description.
fn fingerprint(g: &Graph) -> u128 {
    let mut a: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    let mut b: u64 = 0x6c62_272e_07bb_0142; // second lane, distinct basis
    let mut feed = |x: u64| {
        a = (a ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        b = (b ^ x.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0x0000_0100_0000_01B3);
    };
    feed(g.num_vertices() as u64);
    feed(g.label_dim() as u64);
    feed(u64::from(g.is_symmetric()));
    for v in g.vertices() {
        let out = g.out_neighbors(v);
        feed(out.len() as u64);
        for &u in out {
            feed(u as u64);
        }
        if !g.is_symmetric() {
            let inn = g.in_neighbors(v);
            feed(inn.len() as u64);
            for &u in inn {
                feed(u as u64);
            }
        }
    }
    for &x in g.labels_flat() {
        feed(x.to_bits());
    }
    ((a as u128) << 64) | b as u128
}

/// Evicts least-recently-used slots until at most `cap` remain.
fn enforce_cap(inner: &mut Inner, cap: usize) {
    while inner.slots.len() > cap {
        let victim = inner
            .slots
            .iter()
            .min_by_key(|(_, slot)| slot.last_used)
            .map(|(key, _)| *key)
            .expect("non-empty map over capacity");
        inner.slots.remove(&victim);
        EVICTIONS.incr();
    }
}

/// Looks up `key`, computing and inserting with `compute` on a miss.
fn get_or_compute(key: Key, compute: impl FnOnce() -> Coloring) -> Arc<Coloring> {
    {
        let mut inner = store().lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.slots.get_mut(&key) {
            slot.last_used = tick;
            HITS.incr();
            return Arc::clone(&slot.value);
        }
    }
    MISSES.incr();
    // Refine outside the lock: concurrent missers duplicate work at
    // worst, but nobody blocks on a long refinement.
    let value = Arc::new(compute());
    let mut inner = store().lock().unwrap();
    inner.tick += 1;
    let tick = inner.tick;
    inner.slots.insert(key, Slot { value: Arc::clone(&value), last_used: tick });
    enforce_cap(&mut inner, MAX_ENTRIES);
    value
}

/// The joint stable CR colouring of `[g, h]`, memoized.
pub fn cached_joint_cr(g: &Graph, h: &Graph) -> Arc<Coloring> {
    let key = (0, fingerprint(g), fingerprint(h));
    // The `wl.refine.cr` span lives inside `color_refinement` itself,
    // so cached and direct calls are attributed alike.
    get_or_compute(key, || color_refinement(&[g, h], CrOptions::default()))
}

/// Memoized [`crate::color_refinement::cr_equivalent`].
pub fn cached_cr_equivalent(g: &Graph, h: &Graph) -> bool {
    cached_joint_cr(g, h).graphs_equivalent(0, 1)
}

/// Memoized [`crate::color_refinement::cr_vertex_equivalent`]: one
/// joint refinement serves every vertex pair of `(g, h)`.
pub fn cached_cr_vertex_equivalent(
    g: &Graph,
    v: gel_graph::Vertex,
    h: &Graph,
    w: gel_graph::Vertex,
) -> bool {
    let c = cached_joint_cr(g, h);
    c.colors[0][v as usize] == c.colors[1][w as usize]
}

/// The joint stable `k`-WL colouring of `[g, h]`, memoized.
pub fn cached_joint_k_wl(g: &Graph, h: &Graph, k: usize, variant: WlVariant) -> Arc<Coloring> {
    let kind = 2 * k as u64 + u64::from(variant == WlVariant::Oblivious);
    let key = (kind, fingerprint(g), fingerprint(h));
    // As for CR, the `wl.refine.kwl` span lives inside `k_wl`.
    get_or_compute(key, || k_wl(&[g, h], k, variant, None))
}

/// Memoized [`crate::kwl::k_wl_equivalent`].
pub fn cached_k_wl_equivalent(g: &Graph, h: &Graph, k: usize, variant: WlVariant) -> bool {
    cached_joint_k_wl(g, h, k, variant).graphs_equivalent(0, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color_refinement::{cr_equivalent, cr_vertex_equivalent};
    use crate::kwl::k_wl_equivalent;
    use gel_graph::families::{cr_blind_pair, cycle, path, petersen, star};
    use gel_graph::GraphBuilder;

    /// The store and its counters are process-wide; tests that assert
    /// absolute hit/miss numbers must not interleave.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Holds [`SERIAL`] for one test and publishes the test thread's
    /// pending gel-obs counts before releasing it, so they cannot land
    /// after the next test's [`clear_cache`] has zeroed the counters.
    struct Serial {
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl Drop for Serial {
        fn drop(&mut self) {
            gel_obs::flush_thread();
        }
    }

    fn serial() -> Serial {
        Serial { _lock: SERIAL.lock().unwrap_or_else(|e| e.into_inner()) }
    }

    #[test]
    fn cached_results_match_fresh_computation() {
        let _serial = serial();
        clear_cache();
        let pairs = [
            (path(5), cycle(5)),
            (star(4), path(5)),
            (cycle(6), cr_blind_pair().1),
            (petersen(), cycle(10)),
        ];
        for (g, h) in &pairs {
            assert_eq!(cached_cr_equivalent(g, h), cr_equivalent(g, h));
            assert_eq!(
                cached_k_wl_equivalent(g, h, 2, WlVariant::Folklore),
                k_wl_equivalent(g, h, 2, WlVariant::Folklore)
            );
            for v in g.vertices().take(3) {
                for w in h.vertices().take(3) {
                    assert_eq!(
                        cached_cr_vertex_equivalent(g, v, h, w),
                        cr_vertex_equivalent(g, v, h, w)
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_queries_hit_without_rerunning_refinement() {
        let _serial = serial();
        clear_cache();
        let g = path(7);
        let h = star(6);
        assert!(!cached_cr_equivalent(&g, &h));
        let after_first = cache_stats();
        assert_eq!(after_first.misses, 1, "first query must refine");
        for _ in 0..10 {
            assert!(!cached_cr_equivalent(&g, &h));
        }
        let after = cache_stats();
        assert_eq!(after.misses, 1, "repeats must not re-run refinement");
        assert_eq!(after.hits, after_first.hits + 10);
    }

    #[test]
    fn structurally_equal_graphs_share_an_entry() {
        let _serial = serial();
        clear_cache();
        let g1 = path(6);
        let g2 = path(6); // separately built, same structure
        let h = cycle(6);
        cached_cr_equivalent(&g1, &h);
        let m1 = cache_stats().misses;
        cached_cr_equivalent(&g2, &h);
        assert_eq!(cache_stats().misses, m1, "identical structure must hit");
    }

    /// `cache_stats()` and the raw gel-obs counters are the *same*
    /// numbers: there is exactly one counting site (`get_or_compute`),
    /// and every report field must derive from it. This is the
    /// regression test for the PR-3 report bug where the top-level
    /// `wl_cache` object was read from a different measurement scope
    /// than the `obs` object and the two disagreed.
    #[test]
    fn cache_stats_match_obs_counters() {
        let _serial = serial();
        clear_cache();
        gel_obs::reset();
        let g = path(6);
        let h = cycle(6);
        cached_cr_equivalent(&g, &h);
        cached_cr_equivalent(&g, &h);
        cached_k_wl_equivalent(&g, &h, 2, WlVariant::Folklore);
        let stats = cache_stats();
        let snap = gel_obs::snapshot();
        assert_eq!(stats.hits, snap.counter("wl.cache.hits"));
        assert_eq!(stats.misses, snap.counter("wl.cache.misses"));
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn distinct_queries_get_distinct_entries() {
        let _serial = serial();
        clear_cache();
        let g = path(4);
        let h = star(3);
        // Same pair, different query kinds: CR vs 2-WL vs 2-OWL.
        cached_cr_equivalent(&g, &h);
        cached_k_wl_equivalent(&g, &h, 2, WlVariant::Folklore);
        cached_k_wl_equivalent(&g, &h, 2, WlVariant::Oblivious);
        assert_eq!(cache_stats().misses, 3);
        // Labels flip the fingerprint.
        let lab = g.with_labels(vec![1.0, 0.0, 0.0, 0.0], 1);
        cached_cr_equivalent(&lab, &h);
        assert_eq!(cache_stats().misses, 4);
        // Orientation is part of the structure.
        let mut b = GraphBuilder::new(2);
        b.add_arc(0, 1);
        let directed = b.build();
        let mut b2 = GraphBuilder::new(2);
        b2.add_edge(0, 1);
        let undirected = b2.build();
        cached_cr_equivalent(&directed, &undirected);
        let m = cache_stats().misses;
        cached_cr_equivalent(&undirected, &directed); // ordered key
        assert_eq!(cache_stats().misses, m + 1);
    }

    /// Synthetic key for driving the LRU policy without paying for
    /// real refinement on thousands of graphs.
    fn probe(i: u64) -> Arc<Coloring> {
        get_or_compute((u64::MAX, i as u128, 0), || Coloring {
            colors: vec![vec![i as u32]],
            num_colors: 1,
            rounds: 0,
        })
    }

    /// Overflow evicts exactly the least-recently-used entry, the
    /// eviction count matches the snapshot, and a re-touched entry
    /// survives in favour of a staler one — the same deterministic-LRU
    /// contract as the serve plan cache.
    #[test]
    fn overflow_evicts_lru_deterministically() {
        let _serial = serial();
        clear_cache();
        gel_obs::reset();
        for i in 0..MAX_ENTRIES as u64 + 3 {
            probe(i);
        }
        assert_eq!(cache_len(), MAX_ENTRIES, "cap must hold");
        let stats = cache_stats();
        assert_eq!(stats.evictions, 3, "exactly the overflow is evicted");
        assert_eq!(
            stats.evictions,
            gel_obs::snapshot().counter("wl.cache.evictions"),
            "stats and snapshot must agree"
        );
        // Keys 0..3 were the oldest and must be gone; key 3 survived.
        let misses = cache_stats().misses;
        probe(3);
        assert_eq!(cache_stats().misses, misses, "key 3 must still hit");
        probe(0);
        assert_eq!(cache_stats().misses, misses + 1, "key 0 was evicted");
        // Re-inserting key 0 overflows again: the victim is the
        // stalest entry (key 4), never the just-touched key 3.
        assert_eq!(cache_stats().evictions, 4);
        let misses = cache_stats().misses;
        probe(3);
        probe(5);
        assert_eq!(cache_stats().misses, misses, "3 and 5 must survive");
        probe(4);
        assert_eq!(cache_stats().misses, misses + 1, "4 was the LRU victim");
        clear_cache();
    }
}
