//! The statement path: plan-cache lookup → parse → compile. A text found
//! in the plan cache at the current epoch is a compiled `SELECT` and goes
//! straight to execution — nothing is parsed; anything else is parsed
//! exactly once. `VERIFY` and `EXPLAIN FLOW` look their `SELECT` up the
//! same way and render what it finds. One path for sessions and for
//! `MTCache::execute*`.

use rcc_common::{Duration, Value};
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_mtcache::{MTCache, QueryResult};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration as StdDuration;

/// Region `r`: interval 10 s, delay 2 s, heartbeat 1 s → envelope 13 s, so
/// a 30 s bound is an always-pass guard the elision pass may remove.
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
fn one_text_n_times_is_one_miss_then_hits_that_parse_nothing() {
    let cache = rig();
    let (hits0, misses0) = cache.plan_cache().stats();
    let mut session = cache.session();
    const N: u64 = 6;
    for i in 0..N {
        // the same path whether or not a session is in between
        let r = if i % 2 == 0 {
            cache.execute(Q)
        } else {
            session.execute(Q)
        }
        .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(7));
        if i == 0 {
            assert!(!r.stats.plan_cache_hit);
            assert!(r.stats.parse > StdDuration::ZERO, "the miss is parsed");
            assert!(r.stats.bind > StdDuration::ZERO);
            assert!(r.stats.optimize > StdDuration::ZERO);
        } else {
            assert!(r.stats.plan_cache_hit);
            assert_eq!(r.stats.parse, StdDuration::ZERO, "a hit is not parsed");
            assert_eq!(r.stats.bind, StdDuration::ZERO);
            assert_eq!(r.stats.optimize, StdDuration::ZERO);
        }
    }
    let (hits, misses) = cache.plan_cache().stats();
    assert_eq!((hits - hits0, misses - misses0), (N - 1, 1));

    // the catalog epoch moves: the next execution parses and compiles again
    cache.plan_cache().invalidate();
    let r = cache.execute(Q).unwrap();
    assert!(!r.stats.plan_cache_hit);
    assert!(r.stats.parse > StdDuration::ZERO && r.stats.optimize > StdDuration::ZERO);
    assert!(cache.execute(Q).unwrap().stats.plan_cache_hit);
    let (hits, misses) = cache.plan_cache().stats();
    assert_eq!((hits - hits0, misses - misses0), (N, 2));
}

#[test]
fn only_selects_are_looked_up_and_only_selects_are_cached() {
    let cache = rig();
    cache.execute(Q).unwrap();
    let stats = cache.plan_cache().stats();
    let entries = cache.plan_cache().len();
    let mut session = cache.session();
    for _ in 0..2 {
        // twice each: a second sighting must not turn into a "hit"
        session.execute("BEGIN TIMEORDERED").unwrap();
        assert!(session.is_timeordered());
        session.execute("END TIMEORDERED").unwrap();
        assert!(!session.is_timeordered());
        session.execute("UPDATE t SET v = 70 WHERE a = 7").unwrap();
        session.execute(&format!("LINT {Q}")).unwrap();
        session.execute(&format!("EXPLAIN ANALYZE {Q}")).unwrap();
        session.execute("SHOW EVENTS").unwrap();
        assert!(session.execute("SELEC nonsense").is_err());
    }
    assert_eq!(
        cache.plan_cache().stats(),
        stats,
        "none of those is a lookup"
    );
    assert_eq!(
        cache.plan_cache().len(),
        entries,
        "and none of them is cached"
    );
    // VERIFY and EXPLAIN FLOW look their SELECT's shape up: Q's is cached
    for prefix in ["VERIFY", "explain -- the served plan\n FLOW"] {
        session.execute(&format!("{prefix} {Q}")).unwrap();
    }
    let (hits, misses) = stats;
    assert_eq!(cache.plan_cache().stats(), (hits + 2, misses));
    assert_eq!(cache.plan_cache().len(), entries);
    // a shape that is not compiles under VERIFY, as its SELECT would, and
    // the SELECT then finds it
    let other = "SELECT v FROM t WHERE a = 8 AND v > 0 CURRENCY BOUND 30 SEC ON (t)";
    session.execute(&format!("VERIFY {other}")).unwrap();
    assert_eq!(cache.plan_cache().stats(), (hits + 2, misses + 1));
    assert_eq!(cache.plan_cache().len(), entries + 1);
    assert!(session.execute(other).unwrap().stats.plan_cache_hit);
    // outside a session the brackets are still refused, every time
    for _ in 0..2 {
        assert!(cache.execute("BEGIN TIMEORDERED").is_err());
    }
}

#[test]
fn a_cached_select_in_a_timeordered_bracket_ratchets_and_keeps_its_guard() {
    let cache = rig();
    cache.set_elide_guards(true);
    let mut session = cache.session();
    // outside a bracket the always-pass guard is elided
    let outside = session.execute(Q).unwrap();
    assert!(outside.guards.is_empty());
    assert!(session.floors().is_empty());

    session.execute("BEGIN TIMEORDERED").unwrap();
    let first = session.execute(Q).unwrap();
    assert!(first.stats.plan_cache_hit, "served from the cached entry");
    assert_eq!(first.stats.parse, StdDuration::ZERO);
    // no floor yet, so the guard was still skipped; it observed no
    // heartbeat, so it set none either. A remote read sets one (a 5 s
    // bound is contingent: its guard stays, and fails on a stalled region)
    assert!(first.guards.is_empty() && session.floors().is_empty());
    cache.set_region_stalled("r", true);
    cache.advance(Duration::from_secs(120)).unwrap();
    let second = session
        .execute("SELECT v FROM t WHERE a = 7 CURRENCY BOUND 5 SEC ON (t)")
        .unwrap();
    assert!(second.used_remote);
    let floor = *session.floors().values().next().expect("a floor was set");
    cache.set_region_stalled("r", false);
    cache.advance(Duration::from_secs(30)).unwrap();

    let third = session.execute(Q).unwrap();
    assert!(third.stats.plan_cache_hit);
    assert_eq!(
        third.guards.len(),
        1,
        "with floors the guard is evaluated, not skipped"
    );
    assert!(third.guards[0].chose_local);
    let raised = *session.floors().values().next().unwrap();
    assert!(raised > floor, "the hit ratcheted the floor: {raised:?}");
    assert_eq!(third.rows, outside.rows);

    session.execute("END TIMEORDERED").unwrap();
    assert!(session.floors().is_empty());
    assert!(
        session.execute(Q).unwrap().guards.is_empty(),
        "elided again"
    );
}

#[test]
fn a_hit_runs_the_executable_its_entry_was_compiled_with() {
    let cache = rig();
    let q = |a: i64| format!("SELECT v FROM t WHERE a = {a} CURRENCY BOUND 30 SEC ON (t)");
    let executable = |r: &QueryResult| Arc::clone(r.executable().expect("a cached plan ran"));
    let compiled = cache.execute(&q(7)).unwrap();
    assert!(!compiled.stats.plan_cache_hit);
    // two hits with other values run the one executable, each binding its own
    let (a, b) = (cache.execute(&q(8)).unwrap(), cache.execute(&q(9)).unwrap());
    assert!(a.stats.plan_cache_hit && b.stats.plan_cache_hit);
    assert_eq!(
        (a.rows[0].get(0), b.rows[0].get(0)),
        (&Value::Int(8), &Value::Int(9))
    );
    assert!(Arc::ptr_eq(&executable(&compiled), &executable(&a)));
    assert!(Arc::ptr_eq(&executable(&a), &executable(&b)));

    // a catalog change replaces it: a cached view created, then dropped
    let mut held = executable(&a);
    for change in ["create", "drop"] {
        let version = cache.catalog().version();
        match change {
            "create" => {
                let view = "CREATE CACHED VIEW t_w REGION r AS SELECT a, v FROM t";
                cache.execute(view).unwrap();
            }
            _ => cache.drop_cached_view("t_w").unwrap(),
        }
        assert!(cache.catalog().version() > version, "{change}");
        let recompiled = cache.execute(&q(8)).unwrap();
        assert!(!recompiled.stats.plan_cache_hit, "{change}");
        assert!(!Arc::ptr_eq(&held, &executable(&recompiled)), "{change}");
        let hit = cache.execute(&q(9)).unwrap();
        assert!(Arc::ptr_eq(&executable(&recompiled), &executable(&hit)));
        held = executable(&hit);
    }

    // a run that skips the always-pass guard runs the same executable
    cache.set_elide_guards(true);
    let elided = cache.execute(&q(7)).unwrap();
    assert!(elided.stats.plan_cache_hit);
    assert!(elided.guards.is_empty(), "the always-pass guard was elided");
    assert!(Arc::ptr_eq(&held, &executable(&elided)));
    // and so does a session with a timeline floor, which evaluates it
    let mut session = cache.session();
    session.execute("BEGIN TIMEORDERED").unwrap();
    cache.set_region_stalled("r", true);
    cache.advance(Duration::from_secs(120)).unwrap();
    let remote = "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 5 SEC ON (t)";
    assert!(
        session.execute(remote).unwrap().used_remote,
        "a floor is set"
    );
    cache.set_region_stalled("r", false);
    cache.advance(Duration::from_secs(30)).unwrap();
    let guarded = session.execute(&q(9)).unwrap();
    assert!(guarded.stats.plan_cache_hit);
    assert_eq!(guarded.guards.len(), 1, "the guarded plan ran");
    assert_eq!(guarded.rows, b.rows);
    assert!(Arc::ptr_eq(&held, &executable(&guarded)));
}

#[test]
fn parameterised_texts_are_one_shape_whatever_the_value() {
    let cache = rig();
    let sql = "SELECT v FROM t WHERE a = $k CURRENCY BOUND 30 SEC ON (t)";
    let (hits0, misses0) = cache.plan_cache().stats();
    for (k, expect_hit) in [(1i64, false), (2, true), (1, true), (2, true)] {
        let params = HashMap::from([("k".to_string(), Value::Int(k))]);
        let r = cache.execute_with_params(sql, &params).unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Int(k), "the value's own answer");
        assert_eq!(r.stats.plan_cache_hit, expect_hit);
        assert_eq!(r.stats.parse == StdDuration::ZERO, expect_hit);
    }
    let (hits, misses) = cache.plan_cache().stats();
    assert_eq!((hits - hits0, misses - misses0), (3, 1));
    // the bare text was never compiled: without a value it does not bind,
    // says so as it always did, and counts as nothing
    let unbound = cache.execute(sql).unwrap_err();
    assert!(
        unbound.to_string().contains("unbound parameter $k"),
        "{unbound}"
    );
    assert_eq!(cache.plan_cache().stats(), (hits, misses));
}

#[test]
fn explain_analyze_works_through_a_session() {
    let cache = rig();
    let mut session = cache.session();
    let r = session.execute(&format!("explain analyze {Q}")).unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(7));
    assert!(
        r.plan_explain().contains("actual rows="),
        "{}",
        r.plan_explain()
    );
    assert!(r.stats.parse > StdDuration::ZERO);
    // the structured entry point takes either form
    for sql in [Q.to_string(), format!("EXPLAIN ANALYZE {Q}")] {
        let r = cache.explain_analyze(&sql, &HashMap::new()).unwrap();
        assert!(r.plan_explain().contains("actual rows="));
    }
    assert!(cache
        .explain_analyze("DELETE FROM t", &HashMap::new())
        .is_err());
}

#[test]
fn verify_and_explain_flow_render_the_variant_that_is_served() {
    let cache = paper_setup(0.002, 11).unwrap();
    warm_up(&cache).unwrap();
    let q = |balance: &str| {
        format!(
            "SELECT c_custkey FROM customer WHERE c_acctbal < {balance} \
             CURRENCY BOUND 30 SEC ON (customer)"
        )
    };
    // the variant is compiled for 1000.0 and serves 1000.5, whose own
    // compile would have estimated otherwise
    assert!(!cache.execute(&q("1000.0")).unwrap().stats.plan_cache_hit);
    let served = cache.execute(&q("1000.5")).unwrap();
    assert!(served.stats.plan_cache_hit);
    let literal = cache.explain(&q("1000.5"), &HashMap::new()).unwrap();
    assert_ne!(literal.cost, served.est_cost, "estimates of 1000.0");

    let (hits, misses) = cache.plan_cache().stats();
    let entries = cache.plan_cache().len();
    for prefix in ["VERIFY", "EXPLAIN FLOW"] {
        let r = cache.execute(&format!("{prefix} {}", q("1000.5"))).unwrap();
        assert!(!r.rows.is_empty(), "{prefix}");
        assert_eq!(r.est_cost, served.est_cost, "{prefix}");
        assert_eq!(r.plan_choice, served.plan_choice, "{prefix}");
        assert_eq!(r.plan_explain(), served.plan_explain(), "{prefix}");
    }
    // EXPLAIN FLOW labels its operators with this statement's values
    let flow = cache
        .execute(&format!("EXPLAIN FLOW {}", q("1000.5")))
        .unwrap();
    let operators: Vec<String> = flow.rows.iter().map(|r| r.get(0).to_string()).collect();
    assert!(
        operators.iter().any(|o| o.contains("c_acctbal < 1000.5)")),
        "{operators:?}"
    );
    assert_eq!(cache.plan_cache().stats(), (hits + 3, misses), "three hits");
    assert_eq!(cache.plan_cache().len(), entries, "and no entry added");
}

/// A served plan's rendering with its slot annotations — ` {?0=17}` after a
/// seek, `?0=` before a value — taken out.
fn without_slot_markers(explain: &str) -> String {
    let mut out = String::new();
    let mut rest = explain;
    while let Some(at) = rest.find('?') {
        let digits = rest[at + 1..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .count();
        let is_marker = digits > 0 && rest[at + 1 + digits..].starts_with('=');
        if is_marker && rest[..at].ends_with(" {") {
            out.push_str(&rest[..at - 2]);
            rest = &rest[at + rest[at..].find('}').expect("a closed annotation") + 1..];
        } else if is_marker {
            out.push_str(&rest[..at]);
            rest = &rest[at + digits + 2..];
        } else {
            out.push_str(&rest[..=at]);
            rest = &rest[at + 1..];
        }
    }
    out + rest
}

#[test]
fn plan_explain_on_demand_is_the_compiled_plans_rendering() {
    let cache = paper_setup(0.002, 11).unwrap();
    warm_up(&cache).unwrap();
    let customers = cache.catalog().stats("customer").row_count as i64;
    let no_params = HashMap::new();
    let mut annotated = 0;
    for sql in rcc_tpcd::currency_corpus(60, 13, customers) {
        // planned from the text as it stands: constants are constants
        let expected = cache.explain(&sql, &no_params).unwrap().plan.explain();
        assert!(!expected.is_empty() && !expected.contains('?'));
        // served through the cache: the same plan, slots named and holding
        // this statement's values
        cache.plan_cache().invalidate();
        let miss = cache.execute(&sql).unwrap();
        let hit = cache.execute(&sql).unwrap();
        assert!(
            !miss.stats.plan_cache_hit && hit.stats.plan_cache_hit,
            "{sql}"
        );
        assert_eq!(hit.plan_explain(), miss.plan_explain(), "{sql}");
        assert_eq!(without_slot_markers(&hit.plan_explain()), expected, "{sql}");
        annotated += usize::from(hit.plan_explain() != expected);
    }
    // (a plan that only ships SQL shows its constants in the text it ships)
    assert!(annotated > 10, "only {annotated} plans showed a slot");

    // a plan served to other values shows *their* values, and ships them
    let q = |k: i64| format!("SELECT c_name FROM customer WHERE c_custkey = {k}");
    cache.execute(&q(5)).unwrap();
    let served = cache.execute(&q(6)).unwrap();
    assert!(served.stats.plan_cache_hit);
    let text = served.plan_explain();
    assert!(text.contains("c_custkey = 6)"), "{text}");
    assert!(!text.contains("c_custkey = 5)"), "{text}");

    // statements that run no plan have none to show
    let dml = cache
        .execute("UPDATE customer SET c_acctbal = 1.0 WHERE c_custkey = 1")
        .unwrap();
    assert_eq!(dml.plan_explain(), "");
}
