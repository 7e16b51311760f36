//! Certified guard elision end-to-end.
//!
//! With `set_elide_guards(true)`, executions skip the currency guards the
//! dataflow analysis proves statically decided — and the observable
//! behaviour (rows, remote usage) must be identical to evaluating them,
//! because elision only skips checks whose outcome was already certain.
//! The setting is read per execution: a plan-cache entry holds one plan
//! and one executable for either setting. `EXPLAIN FLOW` exposes the
//! per-node analysis.

use rcc_common::{Duration, Error, Result, Row, Schema, Value};
use rcc_executor::RemoteService;
use rcc_mtcache::{MTCache, QueryResult, ViolationPolicy};
use std::sync::Arc;

/// Region `r`: update interval 10 s, delay 2 s, heartbeat 1 s →
/// healthy-replication envelope H = 13 s. Bounds above 13 s always pass,
/// bounds below 2 s never pass, anything between is contingent.
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

fn elided_total(cache: &MTCache) -> u64 {
    cache
        .metrics()
        .snapshot()
        .counter("rcc_flow_guards_elided_total")
}

fn violations(cache: &MTCache) -> u64 {
    cache
        .metrics()
        .snapshot()
        .counter("rcc_flow_interval_violations_total")
}

#[test]
fn always_pass_guard_is_elided_with_identical_results() {
    let cache = rig();
    // bound 30 s > H = 13 s: the guard can never fail under healthy
    // replication, so the elided plan reads the cached view directly.
    const Q: &str = "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)";
    let off = cache.execute(Q).unwrap();
    assert_eq!(off.guards.len(), 1, "guarded plan evaluates its guard");
    assert!(!off.used_remote);

    cache.set_elide_guards(true);
    let on = cache.execute(Q).unwrap();
    assert_eq!(on.rows, off.rows, "elision must not change results");
    assert!(!on.used_remote);
    assert!(
        on.guards.is_empty(),
        "elided plan evaluates no guard, got {:?}",
        on.guards
    );
    assert!(elided_total(&cache) >= 1, "elision metric must move");
    assert_eq!(violations(&cache), 0, "healthy replication: no escapes");
}

#[test]
fn never_pass_guard_collapses_to_the_remote_arm() {
    let cache = rig();
    // bound 1 s < delay 2 s: no replica can ever satisfy it; both modes
    // must answer from the back-end.
    const Q: &str = "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 1 SEC ON (t)";
    let off = cache.execute(Q).unwrap();
    assert!(off.used_remote, "sub-delay bound must go remote");

    cache.set_elide_guards(true);
    let on = cache.execute(Q).unwrap();
    assert_eq!(on.rows, off.rows);
    assert!(on.used_remote, "collapsed plan still reads the back-end");
    assert!(on.guards.is_empty(), "no guard left to evaluate");
}

#[test]
fn contingent_guard_survives_elision() {
    let cache = rig();
    cache.set_elide_guards(true);
    // 2 s ≤ 5 s ≤ 13 s: statically undecided, the runtime check must stay.
    let r = cache
        .execute("SELECT v FROM t WHERE a = 7 CURRENCY BOUND 5 SEC ON (t)")
        .unwrap();
    assert_eq!(
        r.guards.len(),
        1,
        "contingent guard must still be evaluated"
    );
}

#[test]
fn toggling_elision_takes_effect_on_the_next_hit() {
    let cache = rig();
    const Q: &str = "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)";
    cache.execute(Q).unwrap();
    let r = cache.execute(Q).unwrap();
    assert!(r.stats.plan_cache_hit, "steady state: plan reused");

    // The setting is read per execution: the very next one is a hit of
    // the same entry and skips the guard (no guard observations).
    cache.set_elide_guards(true);
    let r = cache.execute(Q).unwrap();
    assert!(r.stats.plan_cache_hit, "a toggle recompiles nothing");
    assert!(r.guards.is_empty());

    // ... and back off again.
    cache.set_elide_guards(false);
    let r = cache.execute(Q).unwrap();
    assert!(r.stats.plan_cache_hit);
    assert_eq!(r.guards.len(), 1);
}

/// A back-end whose every call fails as an unreachable one does, so a
/// statement that goes remote degrades under its session's policy.
#[derive(Debug)]
struct Unreachable;

impl RemoteService for Unreachable {
    fn execute(&self, _sql: &str) -> Result<(Schema, Vec<Row>)> {
        Err(Error::Unavailable("link down".into()))
    }
}

#[test]
fn one_entry_serves_every_guard_mode() {
    let cache = rig();
    const Q: &str = "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)";
    let first = cache.execute(Q).unwrap();
    let entry = Arc::clone(first.executable().expect("a cached plan ran"));
    assert_eq!(first.guards.len(), 1);
    // each run is a hit of the one entry's one executable, answers as the
    // first did, and evaluates its guard exactly when it does not skip it
    let check = |run: &mut dyn FnMut() -> QueryResult, elide: bool, skipped: bool, what: &str| {
        cache.set_elide_guards(elide);
        let before = elided_total(&cache);
        let r = run();
        assert!(r.stats.plan_cache_hit, "{what}");
        assert!(Arc::ptr_eq(r.executable().unwrap(), &entry), "{what}");
        assert_eq!(r.rows, first.rows, "{what}");
        assert_eq!(r.guards.len(), usize::from(!skipped), "{what}");
        assert_eq!(elided_total(&cache) - before, u64::from(skipped), "{what}");
        r
    };
    let mut plain = || cache.execute(Q).unwrap();
    check(&mut plain, true, true, "elision on");
    check(&mut plain, false, false, "elision off");
    check(&mut plain, true, true, "elision on again");

    let mut timeline = cache.session();
    timeline.execute("BEGIN TIMEORDERED").unwrap();
    let mut in_bracket = |elide, skipped, what| {
        check(&mut || timeline.execute(Q).unwrap(), elide, skipped, what);
    };
    in_bracket(true, true, "a bracket without floors");
    in_bracket(false, false, "a bracket, elision off");
    in_bracket(true, false, "a floor keeps the guard");
    assert!(!timeline.floors().is_empty(), "the guard set a floor");
    let mut other = cache.session();
    check(
        &mut || other.execute(Q).unwrap(),
        true,
        true,
        "another session",
    );

    // a stalled region fails the guard, the back-end is unreachable, and
    // the session serves the local rows stale: the guard is forced local
    cache.set_remote_service(Some(Arc::new(Unreachable)));
    cache.set_region_stalled("r", true);
    cache.advance(Duration::from_secs(60)).unwrap();
    let mut lenient = cache.session();
    lenient.set_policy(ViolationPolicy::ServeStale);
    let stale = check(&mut || lenient.execute(Q).unwrap(), false, false, "stale");
    assert!(stale.guards[0].chose_local, "forced local");
    assert!(
        stale.warnings[0].contains("ServeStale"),
        "{:?}",
        stale.warnings
    );

    assert_eq!(cache.plan_cache().stats().1, 1, "one compile in all");
    assert_eq!(
        violations(&cache),
        0,
        "no certified guard was skipped stale"
    );
}

#[test]
fn explain_flow_reports_one_row_per_plan_node() {
    let cache = rig();
    let r = cache
        .execute("EXPLAIN FLOW SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)")
        .unwrap();
    let cols: Vec<&str> = r.schema.columns().iter().map(|c| c.name.as_str()).collect();
    assert_eq!(cols, ["operator", "interval", "verdict", "decision"]);
    assert!(!r.rows.is_empty(), "one row per plan node");
    let cells: Vec<String> = r
        .rows
        .iter()
        .flat_map(|row| row.values().iter())
        .map(|v| match v {
            Value::Str(s) => s.clone(),
            other => panic!("EXPLAIN FLOW emits strings, got {other:?}"),
        })
        .collect();
    let all = cells.join("\n");
    assert!(
        all.contains("always-pass"),
        "30 s bound beats the 13 s envelope:\n{all}"
    );
    assert!(all.contains("elide-local"), "decision column:\n{all}");
    assert!(r.warnings[0].starts_with("flow:"), "{:?}", r.warnings);
    // EXPLAIN FLOW analyzes, it does not execute
    assert!(r.guards.is_empty());
}

#[test]
fn explain_flow_works_through_a_session_and_is_uncached() {
    let cache = rig();
    let mut session = cache.session();
    // 5 s sits inside the (2 s, 13 s] envelope: statically undecided,
    // so the analysis must keep the runtime guard.
    let r = session
        .execute("EXPLAIN FLOW SELECT v FROM t WHERE a = 7 CURRENCY BOUND 5 SEC ON (t)")
        .unwrap();
    let all: Vec<String> = r
        .rows
        .iter()
        .map(|row| format!("{:?}", row.values()))
        .collect();
    let all = all.join("\n");
    assert!(all.contains("contingent"), "{all}");
    assert!(all.contains("keep"), "{all}");
}
