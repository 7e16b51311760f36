//! The back-end half of the statement path: a shipped text is split into
//! its shape and slot values and looked up in the back-end's plan cache
//! before it is parsed. A hit — a `SELECT` with no currency clause, whose
//! shape was planned under the catalog version that still holds for values
//! like these — is executed without parsing, binding or optimizing, whether
//! or not this very text was ever shipped before; what the remote interface
//! rejects never enters the cache, so it is rejected every time.

use rcc_common::Error;
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_mtcache::plan_cache::PLAN_CACHE_CAPACITY;
use rcc_mtcache::MTCache;
use rcc_optimizer::PhysicalPlan;
use rcc_tpcd::currency_corpus;
use std::collections::{BTreeSet, HashMap};

/// `t (a INT, v FLOAT)`, 500 rows, analyzed; no region and no view, so
/// every `SELECT` the cache is given plans remote.
fn rig() -> MTCache {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, v FLOAT, PRIMARY KEY (a))")
        .unwrap();
    for i in 0..500 {
        cache
            .execute(&format!("INSERT INTO t VALUES ({i}, {})", i as f64 / 2.0))
            .unwrap();
    }
    cache.analyze("t").unwrap();
    cache
}

const POINT: &str = "SELECT v FROM t WHERE a = 7";
const RANGE: &str = "SELECT a FROM t WHERE v BETWEEN 10.0 AND 12.0";

/// The SQL texts `plan` ships to the back-end.
fn shipped(plan: &PhysicalPlan, out: &mut BTreeSet<String>) {
    if let PhysicalPlan::RemoteQuery(n) = plan {
        out.insert(n.sql.to_string());
    }
    for child in plan.children() {
        shipped(child, out);
    }
}

fn shipped_by(cache: &MTCache, sql: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    shipped(&cache.explain(sql, &HashMap::new()).unwrap().plan, &mut out);
    out
}

fn phase_names(cache: &MTCache, sql: &str) -> Vec<&'static str> {
    let (_, phases) = cache.backend().query_wire_traced(sql).unwrap();
    phases.iter().map(|p| p.name).collect()
}

#[test]
fn the_second_shipment_of_a_text_is_a_hit_that_parses_nothing() {
    let cache = rig();
    let plans = cache.backend().plan_cache();
    let (hits0, misses0) = plans.stats();
    assert_eq!(
        phase_names(&cache, POINT),
        [
            "backend:parse",
            "backend:plan",
            "backend:execute",
            "backend:encode"
        ]
    );
    assert_eq!(plans.stats(), (hits0, misses0 + 1));
    for n in 1..=5 {
        assert_eq!(
            phase_names(&cache, POINT),
            ["backend:execute", "backend:encode"],
            "neither parsed nor planned"
        );
        assert_eq!(plans.stats(), (hits0 + n, misses0 + 1));
    }
    // the untraced and the row-returning entry points share the path
    cache.backend().query_wire(POINT).unwrap();
    let (_, rows) = cache.backend().query(POINT).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(plans.stats(), (hits0 + 7, misses0 + 1));
    // a text never shipped before is a hit all the same: the key is the
    // statement's shape, the compared constant a value the plan is run with
    let other = "SELECT v FROM t WHERE a = 8";
    assert_eq!(
        phase_names(&cache, other),
        ["backend:execute", "backend:encode"]
    );
    let (_, rows) = cache.backend().query(other).unwrap();
    assert_eq!(
        rows[0].get(0),
        &rcc_common::Value::Float(4.0),
        "a = 8's own row"
    );
    assert_eq!((plans.stats(), plans.len()), ((hits0 + 9, misses0 + 1), 1));
}

#[test]
fn rejected_statements_are_rejected_every_time_and_take_no_entry() {
    let cache = rig();
    let plans = cache.backend().plan_cache();
    let before = (plans.stats(), plans.len());
    for text in [
        "DELETE FROM t WHERE a = 1",
        "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)",
    ] {
        let first = match cache.backend().query_wire(text) {
            Err(Error::Remote(message)) => message,
            other => panic!("{text}: {other:?}"),
        };
        for attempt in 2..=100 {
            match cache.backend().query_wire(text) {
                Err(Error::Remote(message)) => assert_eq!(message, first, "attempt {attempt}"),
                other => panic!("{text}, attempt {attempt}: {other:?}"),
            }
        }
    }
    assert_eq!((plans.stats(), plans.len()), before);
    // the rows are still there: the DELETE was not executed either
    assert_eq!(
        cache.backend().query("SELECT a FROM t").unwrap().1.len(),
        500
    );
}

#[test]
fn create_index_through_the_cache_recompiles_the_shipped_text_with_the_index() {
    let cache = rig();
    let plans = cache.backend().plan_cache();
    let texts = shipped_by(&cache, RANGE);
    assert_eq!(texts.len(), 1, "{texts:?}");
    let text = texts.first().unwrap();

    assert_eq!(cache.execute(RANGE).unwrap().rows.len(), 5);
    assert_eq!(cache.execute(RANGE).unwrap().rows.len(), 5);
    let (hits, misses) = plans.stats();
    let shape = rcc_sql::shape(text, &HashMap::new()).unwrap();
    let cached = || {
        let not_cached = || Err(Error::internal("not cached"));
        plans.find_or_compile(&shape.key, &shape.values, not_cached)
    };
    let (plan, _) = cached().expect("cached under the shipped text's shape");
    assert!(
        plan.optimized.plan.explain().contains("[scan]"),
        "{}",
        plan.optimized.plan.explain()
    );

    cache.execute("CREATE INDEX ix_v ON t (v)").unwrap();
    assert_eq!(shipped_by(&cache, RANGE), texts, "the same text ships");
    assert_eq!(cache.execute(RANGE).unwrap().rows.len(), 5);
    // (`cached()` above was a hit of its own)
    assert_eq!(plans.stats(), (hits + 1, misses + 1), "planned again");
    let (plan, _) = cached().unwrap();
    assert!(
        plan.optimized
            .plan
            .explain()
            .contains("index ix_v seek on v"),
        "{}",
        plan.optimized.plan.explain()
    );
}

#[test]
fn one_text_over_capacity_evicts_one_plan_and_the_metrics_say_so() {
    let cache = rig();
    let plans = cache.backend().plan_cache();
    // a LIMIT is part of the key (a compared constant would not be)
    let text = |i: usize| format!("SELECT v FROM t WHERE a = {i} LIMIT {}", i + 1);
    for i in 0..=PLAN_CACHE_CAPACITY {
        cache.backend().query_wire(&text(i)).unwrap();
    }
    assert_eq!(plans.len(), PLAN_CACHE_CAPACITY);
    assert_eq!(plans.evictions(), 1);
    // the first text went; the last one is a hit
    cache
        .backend()
        .query_wire(&text(PLAN_CACHE_CAPACITY))
        .unwrap();
    let snap = cache.metrics().snapshot();
    assert_eq!(snap.counter("rcc_backend_plan_cache_hits_total"), 1);
    assert_eq!(
        snap.counter("rcc_backend_plan_cache_misses_total"),
        PLAN_CACHE_CAPACITY as u64 + 1
    );
    assert_eq!(snap.counter("rcc_backend_plan_cache_evictions_total"), 1);
    cache.backend().query_wire(&text(0)).unwrap();
    assert_eq!(plans.evictions(), 2, "the first text was planned again");
}

#[test]
fn every_text_the_corpus_ships_answers_the_same_bytes_on_miss_and_on_hit() {
    let cache = paper_setup(0.002, 42).unwrap();
    warm_up(&cache).unwrap();
    let customers = cache.catalog().stats("customer").row_count as i64;
    let mut texts = BTreeSet::new();
    for pullup in [false, true] {
        cache.set_pullup_switch_union(pullup);
        for sql in currency_corpus(160, 7, customers) {
            shipped(
                &cache.explain(&sql, &HashMap::new()).unwrap().plan,
                &mut texts,
            );
        }
    }
    assert!(texts.len() > 100, "only {} shipped texts", texts.len());
    let plans = cache.backend().plan_cache();
    let (hits0, misses0) = plans.stats();
    let mut answers = Vec::new();
    for text in &texts {
        // forget everything: the first answer is compiled for this text
        plans.invalidate();
        let on_miss = cache.backend().query_wire(text).unwrap();
        let on_hit = cache.backend().query_wire(text).unwrap();
        assert_eq!(on_miss, on_hit, "{text}");
        answers.push(on_miss);
    }
    let n = texts.len() as u64;
    assert_eq!(plans.stats(), (hits0 + n, misses0 + n));
    // once more with nothing forgotten: many texts are now served by a plan
    // compiled for *another* text of their shape (not all: a range constant
    // in another histogram bucket, or a join text that spells one key twice,
    // gets a plan of its own), and answer the same bytes
    for (text, expected) in texts.iter().zip(&answers) {
        assert_eq!(
            &cache.backend().query_wire(text).unwrap(),
            expected,
            "{text}"
        );
    }
    let (hits, misses) = plans.stats();
    assert_eq!((hits - hits0) + (misses - misses0), 3 * n);
    assert!(
        misses - misses0 - n < 2 * n / 3,
        "{} of {n} texts were planned again",
        misses - misses0 - n
    );
}

#[test]
fn a_catalog_change_nobody_announced_invalidates_both_roles() {
    let cache = rig();
    let plans = cache.backend().plan_cache();
    assert!(!cache.execute(POINT).unwrap().stats.plan_cache_hit);
    assert!(cache.execute(POINT).unwrap().stats.plan_cache_hit);
    let (hits, misses) = plans.stats();
    assert_eq!((hits, misses), (1, 1), "shipped twice, planned once");

    // straight at the catalog: no `analyze`, no `invalidate()`
    let mut stats = (*cache.catalog().stats("t")).clone();
    stats.row_count *= 1000;
    cache.catalog().set_stats("t", stats);

    let r = cache.execute(POINT).unwrap();
    assert!(!r.stats.plan_cache_hit, "the front-end compiled again");
    assert_eq!(plans.stats(), (1, 2), "and so did the back-end");
    assert!(cache.execute(POINT).unwrap().stats.plan_cache_hit);
    assert_eq!(plans.stats(), (2, 2));
}
