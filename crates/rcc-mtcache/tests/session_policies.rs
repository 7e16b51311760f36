//! Session-level violation-policy and display-surface tests.

use rcc_common::{Duration, Error, Result, Row, Schema};
use rcc_executor::RemoteService;
use rcc_mtcache::{MTCache, ViolationPolicy};
use std::sync::{Arc, Weak};

fn rig() -> MTCache {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))")
        .unwrap();
    cache
        .execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        .unwrap();
    cache.analyze("t").unwrap();
    cache
        .execute("CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW t_v REGION r AS SELECT a, v FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(20)).unwrap();
    cache
}

const Q: &str = "SELECT v FROM t WHERE a = 1 CURRENCY BOUND 10 SEC ON (t)";

#[test]
fn session_serve_stale_policy_applies_to_its_queries() {
    let cache = rig();
    cache.set_backend_available(false);
    cache.set_region_stalled("r", true);
    cache.advance(Duration::from_secs(60)).unwrap();

    let mut strict = cache.session();
    assert!(strict.execute(Q).is_err(), "default session policy rejects");

    let mut lenient = cache.session();
    lenient.set_policy(ViolationPolicy::ServeStale);
    let r = lenient.execute(Q).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(!r.warnings.is_empty());

    // Each policy arm increments its own degradation counter.
    let snap = cache.metrics().snapshot();
    assert_eq!(
        snap.counter("rcc_policy_degradations_total{policy=\"reject\"}"),
        1,
        "strict session's rejection must be counted under the reject arm"
    );
    assert_eq!(
        snap.counter("rcc_policy_degradations_total{policy=\"serve_stale\"}"),
        1,
        "lenient session's stale answer must be counted under the serve_stale arm"
    );
}

/// A back-end whose link is marked down while it fails the call it was
/// given: the failure is its own, not an outage's.
#[derive(Debug)]
struct FailsThenDropsLink(Weak<MTCache>);

impl RemoteService for FailsThenDropsLink {
    fn execute(&self, _sql: &str) -> Result<(Schema, Vec<Row>)> {
        if let Some(cache) = self.0.upgrade() {
            cache.set_backend_available(false);
        }
        Err(Error::Remote("corrupt payload".into()))
    }
}

#[test]
fn a_remote_error_is_not_served_stale_when_the_link_drops_mid_statement() {
    let cache = Arc::new(rig());
    let remote = FailsThenDropsLink(Arc::downgrade(&cache));
    cache.set_remote_service(Some(Arc::new(remote)));
    cache.set_region_stalled("r", true);
    cache.advance(Duration::from_secs(60)).unwrap();

    let mut lenient = cache.session();
    lenient.set_policy(ViolationPolicy::ServeStale);
    // the statement ran with a remote slot, so the back-end's own error
    // surfaces: degrading is for statements that had no back-end to call
    match lenient.execute(Q) {
        Err(Error::Remote(msg)) => assert_eq!(msg, "corrupt payload"),
        other => panic!(
            "expected the back-end's error, got {:?}",
            other.map(|r| r.warnings)
        ),
    }
}

#[test]
fn display_rows_truncates() {
    let cache = rig();
    let r = cache.execute("SELECT a, v FROM t ORDER BY a").unwrap();
    let shown = r.display_rows(1);
    assert!(shown.contains("a | v"));
    assert!(shown.contains("(2 rows total)"));
    let full = r.display_rows(10);
    assert!(!full.contains("rows total"));
}

#[test]
fn session_dml_and_ddl_pass_through() {
    let cache = rig();
    let mut session = cache.session();
    session.execute("INSERT INTO t VALUES (3, 30)").unwrap();
    let r = session.execute("SELECT v FROM t WHERE a = 3").unwrap();
    assert_eq!(r.rows.len(), 1);
    session
        .execute("CREATE REGION r2 INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    assert!(cache.catalog().region_by_name("r2").is_ok());
}
