//! End-to-end observability: the metrics registry, per-statement stats,
//! EXPLAIN ANALYZE, and query tracing, exercised through the full
//! cache/backend pipeline.

use rcc_common::Duration;
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_mtcache::MTCache;
use rcc_obs::QueryPhase;
use std::collections::HashMap;

fn rig() -> MTCache {
    let cache = paper_setup(0.001, 7).unwrap();
    warm_up(&cache).unwrap();
    cache
}

const Q: &str = "SELECT c_acctbal FROM customer WHERE c_custkey = 5 \
                 CURRENCY BOUND 30 SEC ON (customer)";

#[test]
fn stalled_region_increments_remote_counter_and_staleness_histogram() {
    let cache = rig();
    // healthy baseline: query serves locally
    assert!(!cache.execute(Q).unwrap().used_remote);
    let before = cache.metrics().snapshot();
    let remote_before = before.counter("rcc_guard_remote_total");
    let hist_before = before
        .histogram("rcc_guard_staleness_seconds{region=\"cr1\"}")
        .map(|h| h.count)
        .unwrap_or(0);

    cache.set_region_stalled("CR1", true);
    cache.advance(Duration::from_secs(60)).unwrap();
    let r = cache.execute(Q).unwrap();
    assert!(
        r.used_remote,
        "stalled region must fall back to the back-end"
    );

    let after = cache.metrics().snapshot();
    assert_eq!(
        after.counter("rcc_guard_remote_total"),
        remote_before + 1,
        "the guard's remote branch was taken exactly once more"
    );
    let hist = after
        .histogram("rcc_guard_staleness_seconds{region=\"cr1\"}")
        .expect("staleness histogram exists for cr1");
    assert_eq!(hist.count, hist_before + 1);
    // the region stalled for 60 simulated seconds; the last observation
    // dominates the running sum
    assert!(
        hist.sum >= 59.0,
        "observed staleness ≥ 59s, got {}",
        hist.sum
    );
}

#[test]
fn prometheus_exposition_covers_the_pipeline() {
    let cache = rig();
    cache.execute(Q).unwrap();
    cache.execute(Q).unwrap(); // plan-cache hit
    cache.set_region_stalled("CR1", true);
    cache.advance(Duration::from_secs(60)).unwrap();
    cache.execute(Q).unwrap(); // remote ship + wire bytes

    let names = cache.metrics().metric_names();
    for required in [
        "rcc_guard_local_total",
        "rcc_guard_remote_total",
        "rcc_remote_queries_total",
        "rcc_rows_shipped_total",
        "rcc_queries_total",
        "rcc_query_rows_returned_total",
        "rcc_query_phase_seconds",
        "rcc_guard_staleness_seconds",
        "rcc_plan_cache_hits_total",
        "rcc_plan_cache_misses_total",
        "rcc_plan_cache_entries",
        "rcc_replication_lag_seconds",
        "rcc_replication_txns_applied_total",
        "rcc_remote_latency_seconds",
        "rcc_wire_bytes_encoded_total",
        "rcc_wire_bytes_decoded_total",
        "rcc_master_txns_total",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "missing metric {required}: {names:?}"
        );
    }
    assert!(
        names.len() >= 12,
        "expected ≥ 12 distinct metrics, got {}",
        names.len()
    );

    let text = cache.metrics().render_prometheus();
    assert!(text.contains("# HELP rcc_queries_total"));
    assert!(text.contains("rcc_query_phase_seconds_bucket"));
    assert!(text.contains("rcc_guard_staleness_seconds_bucket{region=\"cr1\""));

    // wire accounting really flowed: the remote query shipped bytes
    let snap = cache.metrics().snapshot();
    assert!(snap.counter("rcc_wire_bytes_encoded_total") > 0);
    assert_eq!(
        snap.counter("rcc_wire_bytes_encoded_total"),
        snap.counter("rcc_wire_bytes_decoded_total")
    );
    assert!(snap.histogram("rcc_remote_latency_seconds").unwrap().count >= 1);
}

#[test]
fn explain_analyze_reports_per_operator_rows_and_marks_untaken_branch() {
    let cache = rig();
    let r = cache.execute(&format!("EXPLAIN ANALYZE {Q}")).unwrap();
    assert_eq!(r.rows.len(), 1, "ANALYZE still returns the result rows");
    assert!(
        r.plan_explain().contains("actual rows="),
        "per-operator rows attached: {}",
        r.plan_explain()
    );
    assert!(
        r.plan_explain().contains("time="),
        "timings attached: {}",
        r.plan_explain()
    );
    // fresh region → local branch runs, remote branch is never touched
    assert!(
        r.plan_explain().contains("never executed"),
        "the untaken SwitchUnion branch is marked: {}",
        r.plan_explain()
    );
    assert!(r.plan_explain().contains("total: 1 rows"));
    assert_eq!(r.stats.rows_returned, 1);

    // the structured API accepts the bare query too
    let r2 = cache.explain_analyze(Q, &HashMap::new()).unwrap();
    assert!(r2.plan_explain().contains("actual rows="));
}

#[test]
fn query_stats_phases_and_plan_cache_flag() {
    let cache = rig();
    let sql = "SELECT c_name FROM customer WHERE c_custkey = 9 \
               CURRENCY BOUND 30 SEC ON (customer)";
    let miss = cache.execute(sql).unwrap();
    assert!(!miss.stats.plan_cache_hit);
    assert!(miss.stats.total() > std::time::Duration::ZERO);
    assert!(miss.stats.phase(QueryPhase::Optimize) > std::time::Duration::ZERO);
    assert!(miss.stats.phase(QueryPhase::GuardEval) > std::time::Duration::ZERO);
    assert_eq!(miss.stats.rows_returned, 1);
    assert_eq!(miss.stats.remote_queries, 0);

    let hit = cache.execute(sql).unwrap();
    assert!(hit.stats.plan_cache_hit);
    assert_eq!(hit.stats.phase(QueryPhase::Bind), std::time::Duration::ZERO);
    assert_eq!(
        hit.stats.phase(QueryPhase::Optimize),
        std::time::Duration::ZERO
    );
    assert!(
        hit.stats.trace_id > miss.stats.trace_id,
        "trace ids are per-statement"
    );

    // a remote query accounts bytes and remote time
    cache.set_region_stalled("CR1", true);
    cache.advance(Duration::from_secs(60)).unwrap();
    let remote = cache.execute(sql).unwrap();
    assert_eq!(remote.stats.remote_queries, 1);
    assert!(remote.stats.bytes_shipped > 0);
    assert!(remote.stats.phase(QueryPhase::RemoteShip) > std::time::Duration::ZERO);
}

#[test]
fn tracer_keeps_recent_traces_with_spans() {
    let cache = rig();
    cache.execute(Q).unwrap();
    cache.execute(Q).unwrap();
    let traces = cache.tracer().recent(10);
    assert!(traces.len() >= 2);
    let first = &traces[0];
    assert_eq!(first.label, Q);
    let span_names: Vec<&str> = first.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(span_names.contains(&"execute"), "spans: {span_names:?}");
    // the first execution compiled the plan
    assert!(span_names.contains(&"bind"));
    assert!(span_names.contains(&"optimize"));
    // the second reused it
    let second = &traces[1];
    let names2: Vec<&str> = second.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(
        !names2.contains(&"optimize"),
        "plan-cache hit skips optimize: {names2:?}"
    );
    assert!(first.render().contains("execute"));
}

/// `rcc_scan_chunks_total{path}` says how each scan read its chunks: a
/// chunk the scan covers whole through its typed image, anything else row
/// by row. The benchmark's `scan_mix` range scan and aggregate cover
/// almost every chunk; a point read covers none and walks its row. An
/// index nested-loop join reads its keys' rows out of the images of the
/// chunks they lie in, whatever part of a chunk that is: one image run per
/// chunk of each stretch of rows its keys fill back to back.
#[test]
fn scan_chunk_paths_follow_chunk_coverage() {
    // 4 500 customers: eighteen chunks of `cust_prj`
    let cache = paper_setup(0.03, 42).unwrap();
    warm_up(&cache).unwrap();
    let chunks = |path: &str| {
        let key = format!("rcc_scan_chunks_total{{path=\"{path}\"}}");
        cache.metrics().snapshot().counter(&key)
    };
    let read = |sql: &str| {
        let (image, rows) = (chunks("image"), chunks("rows"));
        let r = cache.execute(sql).unwrap();
        assert!(!r.used_remote && !r.rows.is_empty(), "{sql}");
        (r, chunks("image") - image, chunks("rows") - rows)
    };
    let scan_mix = [
        "SELECT c_custkey, c_name, c_acctbal FROM customer \
         WHERE c_acctbal BETWEEN 1000 AND 2400 CURRENCY BOUND 60 SEC ON (customer)",
        "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer \
         WHERE c_custkey >= 17 GROUP BY c_nationkey CURRENCY BOUND 60 SEC ON (customer)",
    ];
    for sql in scan_mix {
        let (_, image, rows) = read(sql);
        assert!(
            image >= 18 && image * 10 >= (image + rows) * 9,
            "{image} image, {rows} rows: {sql}"
        );
    }
    let (_, image, rows) = read(Q);
    assert_eq!((image, rows), (0, 1), "a point read walks its one chunk");
    let (r, image, rows) = read(
        "SELECT c.c_custkey, o.o_orderkey, o.o_totalprice FROM customer c, orders o \
         WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 180 \
         CURRENCY BOUND 60 SEC ON (c), 60 SEC ON (o)",
    );
    assert!(
        r.plan_explain().contains("IndexNLJoin"),
        "{}",
        r.plan_explain()
    );
    // ≈ 1 800 orders of customers 1..=180, back to back in `orders_prj`'s
    // 256-row chunks
    assert!(
        (7..=9).contains(&image),
        "{image} image runs for {} rows",
        r.rows.len()
    );
    assert_eq!(rows, 1, "the outer range covers no chunk whole");
}
