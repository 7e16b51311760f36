//! Plan-cache behaviour: "re-optimization only if a view's consistency
//! properties change" (paper Sec. 3.2) — the dynamic plan is reused across
//! heartbeats, updates and replication cycles, and invalidated only by
//! catalog changes.

use rcc_common::{Duration, Value};
use rcc_mtcache::MTCache;
use std::collections::HashMap;

fn rig() -> MTCache {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))")
        .unwrap();
    for i in 0..50 {
        cache
            .execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    cache.analyze("t").unwrap();
    cache
        .execute("CREATE REGION r INTERVAL 10 SEC DELAY 2 SEC")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW t_v REGION r AS SELECT a, v FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(30)).unwrap();
    cache
}

const Q: &str = "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)";

#[test]
fn plans_are_reused_across_time_updates_and_guard_flips() {
    let cache = rig();
    let misses0 = cache.plan_cache().stats().1;
    cache.execute(Q).unwrap();
    let misses_after_first = cache.plan_cache().stats().1;
    assert!(misses_after_first > misses0);

    // heartbeats, data updates and propagation cycles do NOT recompile
    cache.execute("UPDATE t SET v = 99 WHERE a = 7").unwrap();
    cache.advance(Duration::from_secs(60)).unwrap();
    for _ in 0..5 {
        cache.execute(Q).unwrap();
    }
    let (hits, misses) = cache.plan_cache().stats();
    assert_eq!(misses, misses_after_first, "no recompilation");
    assert!(hits >= 5);

    // even a guard flip (stale region → remote branch) reuses the SAME plan
    cache.set_region_stalled("r", true);
    cache.advance(Duration::from_secs(120)).unwrap();
    let r = cache.execute(Q).unwrap();
    assert!(r.used_remote, "guard failed at run time");
    assert_eq!(
        cache.plan_cache().stats().1,
        misses_after_first,
        "still the cached plan"
    );
}

#[test]
fn catalog_changes_invalidate() {
    let cache = rig();
    cache.execute(Q).unwrap();
    let misses_before = cache.plan_cache().stats().1;

    // a new cached view changes the consistency properties available
    cache
        .execute("CREATE CACHED VIEW t_v2 REGION r AS SELECT a, v FROM t WHERE a < 25")
        .unwrap();
    cache.execute(Q).unwrap();
    assert!(
        cache.plan_cache().stats().1 > misses_before,
        "recompiled after DDL"
    );

    // ANALYZE also invalidates (statistics steer the cost model)
    let misses_mid = cache.plan_cache().stats().1;
    cache.analyze("t").unwrap();
    cache.execute(Q).unwrap();
    assert!(cache.plan_cache().stats().1 > misses_mid);
}

#[test]
fn different_params_compile_separately_then_hit() {
    let cache = rig();
    let sql = "SELECT v FROM t WHERE a = $k CURRENCY BOUND 30 SEC ON (t)";
    for k in [1i64, 2, 1, 2, 1] {
        let mut params = HashMap::new();
        params.insert("k".to_string(), Value::Int(k));
        let r = cache.execute_with_params(sql, &params).unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(k));
    }
    let (hits, _) = cache.plan_cache().stats();
    assert_eq!(hits, 3, "two compilations, three hits");
}

#[test]
fn cached_plan_results_stay_correct() {
    let cache = rig();
    let first = cache.execute(Q).unwrap();
    assert_eq!(first.rows[0].get(0), &Value::Int(7));
    cache.execute("UPDATE t SET v = 1234 WHERE a = 7").unwrap();
    cache.advance(Duration::from_secs(30)).unwrap();
    let second = cache.execute(Q).unwrap();
    assert_eq!(
        second.rows[0].get(0),
        &Value::Int(1234),
        "cached plan, fresh data"
    );
}

/// The plan cache is bounded, first in first out: unique-literal traffic
/// pushes even a hot text out once a capacity's worth of new texts has been
/// compiled after it (a hit does not refresh an entry's age — that is the
/// policy: no write on the hit path). The hot text then costs one
/// recompilation and is served from the cache again.
#[test]
fn a_hot_text_evicted_by_unique_texts_recompiles_once() {
    use rcc_mtcache::plan_cache::PLAN_CACHE_CAPACITY;
    let cache = rig();
    let evictions = || {
        cache
            .metrics()
            .snapshot()
            .counter("rcc_plan_cache_evictions_total")
    };
    cache.execute(Q).unwrap();
    cache.execute(Q).unwrap();
    let (hits, misses) = cache.plan_cache().stats();
    for i in 0..PLAN_CACHE_CAPACITY {
        let unique =
            format!("SELECT v FROM t WHERE a = 7 AND v > -{i} CURRENCY BOUND 30 SEC ON (t)");
        cache.execute(&unique).unwrap();
        cache.execute(Q).unwrap(); // hot all along, to no avail under FIFO
    }
    assert_eq!(cache.plan_cache().len(), PLAN_CACHE_CAPACITY);
    // the hot text was evicted once, by the last unique text, and the
    // recompiled entry evicted the oldest unique one
    assert_eq!(evictions(), 2);
    assert_eq!(
        cache.plan_cache().stats(),
        (
            hits + PLAN_CACHE_CAPACITY as u64 - 1,
            misses + PLAN_CACHE_CAPACITY as u64 + 1
        ),
        "one recompilation of the hot text"
    );
    cache.execute(Q).unwrap();
    assert_eq!(
        cache.plan_cache().stats().1,
        misses + PLAN_CACHE_CAPACITY as u64 + 1,
        "served from the cache again"
    );
}
