//! Plan-cache behaviour: "re-optimization only if a view's consistency
//! properties change" (paper Sec. 3.2) — the dynamic plan is reused across
//! heartbeats, updates and replication cycles, across the constants a
//! statement compares with (the cache keys on the statement's shape), and
//! invalidated only by catalog changes.

use rcc_common::{Duration, Value};
use rcc_mtcache::{MTCache, ViolationPolicy};
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
fn one_shape_compiles_once_whatever_its_values() {
    let cache = rig();
    let sql = "SELECT v FROM t WHERE a = $k CURRENCY BOUND 30 SEC ON (t)";
    let (hits0, misses0) = cache.plan_cache().stats();
    for k in [1i64, 2, 1, 2, 1] {
        let mut params = HashMap::new();
        params.insert("k".to_string(), Value::Int(k));
        let r = cache.execute_with_params(sql, &params).unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(k));
    }
    // ... and the same statement with the value written into the text
    for k in [3i64, 4] {
        let r = cache.execute(&sql.replace("$k", &k.to_string())).unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(k));
    }
    let (hits, misses) = cache.plan_cache().stats();
    assert_eq!(
        (hits - hits0, misses - misses0),
        (6, 1),
        "one compilation, then hits"
    );
    assert_eq!(cache.plan_cache().len(), 1);
    // a value of another type is another shape
    let params = HashMap::from([("k".to_string(), Value::Float(2.0))]);
    let r = cache.execute_with_params(sql, &params).unwrap();
    assert!(!r.stats.plan_cache_hit);
    assert_eq!(r.rows[0].get(0), &Value::Int(2));
}

fn siblings(cache: &MTCache) -> u64 {
    cache
        .metrics()
        .snapshot()
        .counter("rcc_plan_cache_sibling_compiles_total")
}

/// A plan is served only to values it was proven for. `t_v2` keeps
/// `a < 25`: a plan compiled for `a = 10` may read it, one for `a = 40`
/// may not, so 40 lies outside the first plan's domain and compiles a
/// sibling — after which both variants hit, each for its own values.
#[test]
fn a_value_outside_a_view_predicate_compiles_a_sibling_and_both_then_hit() {
    let cache = rig();
    cache
        .execute("CREATE CACHED VIEW t_v2 REGION r AS SELECT a, v FROM t WHERE a < 25")
        .unwrap();
    let run = |k: i64| {
        let q = format!("SELECT v FROM t WHERE a = {k} CURRENCY BOUND 30 SEC ON (t)");
        let r = cache.execute(&q).unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(k));
        r.stats.plan_cache_hit
    };
    assert!(!run(10), "the shape is new");
    assert_eq!(siblings(&cache), 0, "a new shape is no sibling");
    assert!(run(20), "the same side of the predicate's end");
    assert!(!run(40), "outside the view's predicate: its own plan");
    assert_eq!(siblings(&cache), 1);
    let (hits, misses) = cache.plan_cache().stats();
    // both variants now hit, each for its side
    assert!(run(10) && run(40) && run(0) && run(30));
    assert!(!run(25), "25 itself is where `a < 25` stops covering");
    assert!(run(25));
    assert_eq!(cache.plan_cache().stats(), (hits + 5, misses + 1));
    assert_eq!((siblings(&cache), cache.plan_cache().len()), (2, 3));
}

#[test]
fn analyze_between_two_executions_recompiles() {
    let cache = rig();
    let q = |k: i64| format!("SELECT v FROM t WHERE a = {k} CURRENCY BOUND 30 SEC ON (t)");
    assert!(!cache.execute(&q(1)).unwrap().stats.plan_cache_hit);
    assert!(cache.execute(&q(2)).unwrap().stats.plan_cache_hit);
    // the domains were cut from these statistics; new ones, new plans
    cache.analyze("t").unwrap();
    assert!(!cache.execute(&q(3)).unwrap().stats.plan_cache_hit);
    assert!(cache.execute(&q(4)).unwrap().stats.plan_cache_hit);
    assert_eq!(cache.plan_cache().len(), 1, "the stale variant went");
    assert_eq!(siblings(&cache), 0, "a stale plan makes no sibling");
}

/// What a session adds to an execution — timeline floors, the violation
/// policy — applies to a plan served for other values than it was
/// compiled with exactly as to any other.
#[test]
fn timeordered_floors_and_serve_stale_apply_on_a_shape_hit() {
    let cache = rig();
    let q = |k: i64| format!("SELECT v FROM t WHERE a = {k} CURRENCY BOUND 5 SEC ON (t)");
    let mut session = cache.session();
    session.execute("BEGIN TIMEORDERED").unwrap();
    let first = session.execute(&q(1)).unwrap();
    assert!(!first.stats.plan_cache_hit && !first.used_remote);
    let floor = *session.floors().values().next().expect("a floor was set");

    // the region stalls: the guard of the served plan fails, the remote
    // branch ships *this* statement's constant, and the floor ratchets
    cache.set_region_stalled("r", true);
    cache.advance(Duration::from_secs(120)).unwrap();
    let second = session.execute(&q(2)).unwrap();
    assert!(second.stats.plan_cache_hit && second.used_remote);
    assert_eq!(second.rows[0].get(0), &Value::Int(2));
    assert!(*session.floors().values().next().unwrap() > floor);

    // back-end gone too: the policy decides, on a hit as on a miss
    cache.set_backend_available(false);
    let mut stale = cache.session();
    stale.set_policy(ViolationPolicy::ServeStale);
    let compiled = stale.execute(&q(4)).unwrap();
    let served = stale.execute(&q(5)).unwrap();
    assert!(!compiled.stats.plan_cache_hit && served.stats.plan_cache_hit);
    for (r, k) in [(&compiled, 4), (&served, 5)] {
        assert_eq!(r.rows[0].get(0), &Value::Int(k));
        assert!(!r.used_remote);
        assert!(
            r.warnings.iter().any(|w| w.contains("ServeStale")),
            "{:?}",
            r.warnings
        );
    }
    let mut strict = cache.session();
    assert!(strict.execute(&q(6)).is_err(), "Reject rejects a hit too");
}

#[test]
fn marking_an_up_link_up_keeps_the_cached_plans() {
    let cache = rig();
    cache.execute(Q).unwrap();
    cache.set_backend_available(true);
    let rerun = cache.execute(Q).unwrap();
    assert!(rerun.stats.plan_cache_hit, "no change, no recompile");
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

/// The plan cache is bounded, first in first out: traffic whose every
/// shape is new (here a `LIMIT`, which is part of the key; a compared
/// literal would not be) pushes even a hot shape out once a capacity's
/// worth of new ones has been compiled after it (a hit does not refresh an
/// entry's age — that is the policy: no write on the hit path). The hot
/// shape then costs one recompilation and is served from the cache again.
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
        let unique = format!(
            "SELECT v FROM t WHERE a = 7 AND v > -{i} LIMIT {} CURRENCY BOUND 30 SEC ON (t)",
            i + 1
        );
        cache.execute(&unique).unwrap();
        cache.execute(Q).unwrap(); // hot all along, to no avail under FIFO
    }
    assert_eq!(cache.plan_cache().len(), PLAN_CACHE_CAPACITY);
    // the hot shape was evicted once, by the last unique one, and the
    // recompiled entry evicted the oldest unique one
    assert_eq!(evictions(), 2);
    assert_eq!(
        cache.plan_cache().stats(),
        (
            hits + PLAN_CACHE_CAPACITY as u64 - 1,
            misses + PLAN_CACHE_CAPACITY as u64 + 1
        ),
        "one recompilation of the hot shape"
    );
    cache.execute(Q).unwrap();
    assert_eq!(
        cache.plan_cache().stats().1,
        misses + PLAN_CACHE_CAPACITY as u64 + 1,
        "served from the cache again"
    );
    // unique *literals* are one shape: no entry, no eviction, all hits
    for i in 1..=64 {
        let literal =
            format!("SELECT v FROM t WHERE a = 7 AND v > -{i} CURRENCY BOUND 30 SEC ON (t)");
        cache.execute(&literal).unwrap();
    }
    assert_eq!(cache.plan_cache().len(), PLAN_CACHE_CAPACITY);
    assert_eq!(evictions(), 3, "one for the literal shape's one plan");
}
