//! Plan-cache battery: deterministic LRU eviction, the
//! "re-submission re-lowers exactly once" guarantee (asserted through
//! the [`gel_lang::eval_plan_builds`] counter), and reconciliation of
//! the cache's own per-instance counters against process-wide
//! observability snapshots.

use gel_graph::families::cycle;
use gel_lang::wl_sim::cr_graph_expr;
use gel_lang::{eval_plan_builds, expr_dag_hash, EvalOptions, Expr};
use gel_serve::{Checkout, PlanCache, PlanKey};
use std::sync::{Mutex, MutexGuard};

/// [`eval_plan_builds`] and the obs registry are process-global; the
/// delta assertions below only hold if tests in this binary don't
/// interleave.
static LOCK: Mutex<()> = Mutex::new(());

/// Holds [`LOCK`] for one test. Counts wait in the calling thread's
/// gel-obs shard until it flushes, and a test thread exits only after
/// its guards drop, so the guard publishes them before it releases the
/// lock: the next test's `before` reading then already includes them.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        gel_obs::flush_thread();
    }
}

fn serial() -> Serial {
    Serial { _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()) }
}

/// A family of distinct-plan expressions: `cr_graph_expr` at different
/// round counts has different DAG hashes.
fn exprs(count: usize) -> Vec<Expr> {
    (1..=count).map(|r| cr_graph_expr(1, r)).collect()
}

fn key_of(e: &Expr, n: usize, label_dim: usize) -> PlanKey {
    PlanKey { dag_hash: expr_dag_hash(e), n, label_dim }
}

/// One checkout/eval/put_back cycle; returns whether it hit.
fn drive(cache: &PlanCache, e: &Expr, g: &gel_graph::Graph) -> bool {
    let key = key_of(e, g.num_vertices(), g.label_dim());
    let (mut engine, hit) = match cache.checkout(key) {
        Checkout::Hit(engine) => (engine, true),
        Checkout::Miss(engine) => (engine, false),
    };
    engine.eval(e, g);
    cache.put_back(key, engine);
    hit
}

#[test]
fn eviction_order_is_deterministic_lru() {
    let _serial = serial();
    let g = cycle(6);
    let es = exprs(4);
    let keys: Vec<PlanKey> = es.iter().map(|e| key_of(e, 6, 1)).collect();
    let cache = PlanCache::new(2, EvalOptions::default());

    // Fill to capacity: [e0, e1], then touch e0 so e1 is the LRU.
    assert!(!drive(&cache, &es[0], &g));
    assert!(!drive(&cache, &es[1], &g));
    assert!(drive(&cache, &es[0], &g));
    assert_eq!(cache.keys_by_recency(), vec![keys[1], keys[0]]);

    // e2 displaces e1 (the least recently used), not e0.
    assert!(!drive(&cache, &es[2], &g));
    assert_eq!(cache.keys_by_recency(), vec![keys[0], keys[2]]);
    assert_eq!(cache.evictions(), 1);

    // e3 displaces e0.
    assert!(!drive(&cache, &es[3], &g));
    assert_eq!(cache.keys_by_recency(), vec![keys[2], keys[3]]);
    assert_eq!(cache.evictions(), 2);

    // The same request sequence on a fresh cache produces the same
    // final state — eviction is a function of the sequence alone.
    let replay = PlanCache::new(2, EvalOptions::default());
    for (e, hit_want) in
        [(&es[0], false), (&es[1], false), (&es[0], true), (&es[2], false), (&es[3], false)]
    {
        assert_eq!(drive(&replay, e, &g), hit_want);
    }
    assert_eq!(replay.keys_by_recency(), cache.keys_by_recency());
    assert_eq!(replay.evictions(), cache.evictions());
}

#[test]
fn resubmission_after_eviction_relowers_exactly_once() {
    let _serial = serial();
    let g = cycle(7);
    let es = exprs(3);
    let cache = PlanCache::new(2, EvalOptions::default());

    // First submissions: one lowering each.
    let before = eval_plan_builds();
    drive(&cache, &es[0], &g);
    drive(&cache, &es[1], &g);
    assert_eq!(eval_plan_builds() - before, 2, "one lowering per distinct expression");

    // Warm hits: zero lowerings, however many times we re-submit.
    let warm = eval_plan_builds();
    for _ in 0..10 {
        assert!(drive(&cache, &es[0], &g));
        assert!(drive(&cache, &es[1], &g));
    }
    assert_eq!(eval_plan_builds(), warm, "cache hits must not re-lower");

    // Evict e0 (cap 2: submitting e2 displaces the LRU, which is e0
    // after the loop above ends on e1... touch e1 to be explicit).
    drive(&cache, &es[1], &g);
    drive(&cache, &es[2], &g); // evicts e0
    let evicted = eval_plan_builds();

    // Re-submitting the evicted e0 re-lowers exactly once, and the
    // rebuilt engine is warm again afterwards.
    drive(&cache, &es[0], &g);
    assert_eq!(eval_plan_builds() - evicted, 1, "re-submission re-lowers exactly once");
    let rewarm = eval_plan_builds();
    for _ in 0..5 {
        drive(&cache, &es[0], &g);
    }
    assert_eq!(eval_plan_builds(), rewarm);
}

#[test]
fn hit_miss_counters_reconcile_with_lowering_counter() {
    let _serial = serial();
    let g = cycle(5);
    let es = exprs(3);
    let cache = PlanCache::new(8, EvalOptions::default());
    let builds_before = eval_plan_builds();

    let mut hits = 0u64;
    let mut misses = 0u64;
    for round in 0..4 {
        let _ = round;
        for e in &es {
            if drive(&cache, e, &g) {
                hits += 1;
            } else {
                misses += 1;
            }
        }
    }
    assert_eq!((cache.hits(), cache.misses()), (hits, misses));
    assert_eq!((hits, misses), (9, 3));
    // No evictions at this capacity, so lowerings == misses: the
    // process counter and the cache's own view agree exactly.
    assert_eq!(cache.evictions(), 0);
    assert_eq!(eval_plan_builds() - builds_before, misses);
}

/// Concurrent submissions of the *same* expression serialize on the
/// cache slot: the plan still lowers exactly once.
#[test]
fn concurrent_same_key_lowers_once() {
    let _serial = serial();
    let g = cycle(8);
    let e = cr_graph_expr(1, 4);
    let cache = PlanCache::new(4, EvalOptions::default());
    let before = eval_plan_builds();
    std::thread::scope(|s| {
        // Join every handle explicitly: the lowering is counted in the
        // worker's thread-local shard, which flushes when the thread
        // exits, and an unjoined scoped thread can let the scope return
        // before that flush has run.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..4 {
                        drive(&cache, &e, &g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
    });
    assert_eq!(eval_plan_builds() - before, 1, "same-key concurrency must not duplicate lowering");
    assert_eq!(cache.hits() + cache.misses(), 32);
    assert_eq!(cache.misses(), 1);
}

/// The process-wide obs counters agree one for one with the cache's
/// per-instance counters when only one cache is in use.
#[test]
fn obs_counters_reconcile_with_cache_counters() {
    let _serial = serial();
    let g = cycle(6);
    let es = exprs(3);
    let cache = PlanCache::new(2, EvalOptions::default());
    let before = gel_obs::snapshot();
    for e in &es {
        drive(&cache, e, &g); // 3 misses, 1 eviction (cap 2)
    }
    drive(&cache, &es[2], &g); // 1 hit
    let delta = gel_obs::snapshot().since(&before);
    assert_eq!(delta.counter("serve.cache.hits"), cache.hits());
    assert_eq!(delta.counter("serve.cache.misses"), cache.misses());
    assert_eq!(delta.counter("serve.cache.evictions"), cache.evictions());
    assert_eq!(delta.counter("eval.plan.builds"), cache.misses());
    assert_eq!(delta.counter("serve.cache.hits"), 1);
    assert_eq!(delta.counter("serve.cache.misses"), 3);
    assert_eq!(delta.counter("serve.cache.evictions"), 1);
}
