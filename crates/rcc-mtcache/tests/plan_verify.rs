//! The `VERIFY SELECT` statement and the post-optimize conformance audit.
//!
//! Regression guards for the static analyzer's integration points: VERIFY
//! returns one row per proof obligation, the debug-build audit re-runs
//! whenever a plan is actually (re)compiled — so a cached plan is
//! re-verified when the currency clause changes or the catalog's
//! replication state moves — and plan-cache hits skip the audit.

use rcc_common::{Duration, Value};
use rcc_mtcache::MTCache;

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

#[cfg(debug_assertions)]
fn audits(cache: &MTCache) -> u64 {
    cache
        .metrics()
        .snapshot()
        .counter("rcc_verify_audits_total")
}

#[test]
fn verify_statement_reports_proof_obligations() {
    let cache = rig();
    let r = cache
        .execute("VERIFY SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)")
        .unwrap();
    assert_eq!(r.schema.len(), 3);
    assert!(!r.rows.is_empty(), "expected one row per proof obligation");
    for row in &r.rows {
        match &row.values()[2] {
            Value::Str(s) => assert_eq!(s, "proved", "obligation {:?}", row.values()),
            other => panic!("status column should be a string, got {other:?}"),
        }
    }
    assert!(r.warnings[0].contains("plan verified"));
    assert!(!r.plan_explain().is_empty(), "VERIFY should show the plan");
    // The guarded plan has two worlds (guard pass / guard fail), and the
    // obligations must mention the SwitchUnion machinery somewhere.
    let kinds: Vec<&str> = r
        .rows
        .iter()
        .map(|row| match &row.values()[0] {
            Value::Str(s) => s.as_str(),
            _ => "",
        })
        .collect();
    assert!(kinds.contains(&"bound-satisfiable"));
    assert!(kinds.contains(&"guard-well-formed"));
}

#[test]
fn verify_works_through_a_session() {
    let cache = rig();
    let mut session = cache.session();
    let r = session
        .execute("VERIFY SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)")
        .unwrap();
    assert!(r.warnings[0].contains("plan verified"));
}

#[test]
fn verify_never_executes_the_query() {
    let cache = rig();
    let before = cache
        .metrics()
        .snapshot()
        .counter("rcc_query_rows_returned_total");
    cache
        .execute("VERIFY SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)")
        .unwrap();
    let after = cache
        .metrics()
        .snapshot()
        .counter("rcc_query_rows_returned_total");
    assert_eq!(before, after, "VERIFY must not execute the plan");
}

// The audit itself only runs in debug builds (it sits behind
// `#[cfg(debug_assertions)]` in MTCache::compile), so the counter-based
// regression guards are debug-only too.

#[cfg(debug_assertions)]
#[test]
fn cache_hits_skip_the_audit_and_clause_changes_reaudit() {
    let cache = rig();
    const Q: &str = "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)";
    let a0 = audits(&cache);
    cache.execute(Q).unwrap();
    let a1 = audits(&cache);
    assert_eq!(a1, a0 + 1, "fresh compile must be audited");

    // Plan-cache hit: same statement, no recompile, no re-audit.
    cache.execute(Q).unwrap();
    assert_eq!(audits(&cache), a1, "cache hit must not re-audit");

    // A different currency clause is a different plan: must be re-audited.
    cache
        .execute("SELECT v FROM t WHERE a = 7 CURRENCY BOUND 5 MIN ON (t)")
        .unwrap();
    assert_eq!(audits(&cache), a1 + 1, "new clause means new audit");
}

#[cfg(debug_assertions)]
#[test]
fn replication_state_change_invalidates_and_reaudits() {
    let cache = rig();
    const Q: &str = "SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)";
    cache.execute(Q).unwrap();
    let a1 = audits(&cache);
    cache.execute(Q).unwrap();
    assert_eq!(audits(&cache), a1, "steady state: cached plan, no audit");

    // A replication-topology change (new region + cached view) moves the
    // catalog epoch; the cached plan must be recompiled and re-verified.
    cache
        .execute("CREATE REGION r2 INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW t_v2 REGION r2 AS SELECT a, v FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(30)).unwrap();
    cache.execute(Q).unwrap();
    assert!(
        audits(&cache) > a1,
        "catalog change must force re-verification of the cached plan"
    );
}

#[cfg(debug_assertions)]
#[test]
fn verify_statement_failures_counter_stays_zero_on_conformant_plans() {
    let cache = rig();
    cache
        .execute("VERIFY SELECT v FROM t WHERE a = 7 CURRENCY BOUND 30 SEC ON (t)")
        .unwrap();
    cache.execute("VERIFY SELECT v FROM t WHERE a = 7").unwrap();
    assert_eq!(
        cache
            .metrics()
            .snapshot()
            .counter("rcc_verify_failures_total"),
        0
    );
}
