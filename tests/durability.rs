//! Crash-recovery acceptance tests: a durable paper rig is killed without
//! ceremony (drop = `kill -9`; nothing is checkpointed or flushed beyond
//! what the WAL policy already guaranteed), restarted from the same data
//! directory, and must come back with committed rows, per-region
//! heartbeat/replication watermarks, and the simulated clock restored —
//! plus a `recovery` event with replay stats in `SHOW EVENTS`. The default
//! in-memory rig must remain byte-identical on the same corpus.

use rcc_common::{Clock, Duration, Row, Value};
use rcc_mtcache::paper::{paper_setup, paper_setup_durable, warm_up, DurabilityOptions};
use rcc_mtcache::MTCache;
use rcc_storage::SyncPolicy;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcc-acceptance-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(dir: &Path) -> DurabilityOptions {
    DurabilityOptions {
        data_dir: dir.to_path_buf(),
        sync: SyncPolicy::Always,
    }
}

fn master_rows(cache: &MTCache, table: &str) -> Vec<Row> {
    cache
        .master()
        .table(table)
        .unwrap()
        .snapshot()
        .collect_all()
}

fn recovery_events(cache: &MTCache) -> Vec<(String, String)> {
    let r = cache.execute("SHOW EVENTS").unwrap();
    let kind_col = r.schema.resolve(None, "kind").unwrap();
    let cause_col = r.schema.resolve(None, "cause").unwrap();
    r.rows
        .iter()
        .filter(|row| row.get(kind_col) == &Value::Str("recovery".into()))
        .map(|row| {
            (
                row.get(kind_col).as_str().unwrap().to_string(),
                row.get(cause_col).as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn kill_dash_nine_restores_rows_watermarks_and_clock() {
    let dir = temp_dir("kill9");

    let (customer_before, orders_before, hb_master_before, hb1, hb2, stale1, stale2, clock_ms);
    {
        let cache = paper_setup_durable(0.002, 42, opts(&dir)).unwrap();
        warm_up(&cache).unwrap();
        cache
            .execute("UPDATE customer SET c_acctbal = 4242.5 WHERE c_custkey = 5")
            .unwrap();
        cache
            .execute("DELETE FROM customer WHERE c_custkey = 11")
            .unwrap();
        // Another propagation cycle so the update reaches the views and
        // fresh watermarks are persisted.
        cache.advance(Duration::from_secs(30)).unwrap();
        customer_before = master_rows(&cache, "customer");
        orders_before = master_rows(&cache, "orders");
        hb_master_before = master_rows(&cache, "heartbeat");
        hb1 = cache.local_heartbeat("CR1").unwrap();
        hb2 = cache.local_heartbeat("CR2").unwrap();
        stale1 = cache.region_staleness("CR1").unwrap();
        stale2 = cache.region_staleness("CR2").unwrap();
        clock_ms = cache.clock().now().millis();
        // Drop without checkpoint or shutdown: the kill -9 path. Everything
        // below must come from the WAL alone.
    }

    let cache = paper_setup_durable(0.002, 42, opts(&dir)).unwrap();

    // Committed rows restored bit-exact — including the delete.
    assert_eq!(master_rows(&cache, "customer"), customer_before);
    assert_eq!(master_rows(&cache, "orders"), orders_before);
    assert_eq!(master_rows(&cache, "heartbeat"), hb_master_before);

    // Per-region watermarks restored bit-exact: heartbeats and hence the
    // delivered-staleness accounting resume at the pre-crash values
    // instead of re-reporting staleness from zero.
    assert_eq!(cache.local_heartbeat("CR1").unwrap(), hb1);
    assert_eq!(cache.local_heartbeat("CR2").unwrap(), hb2);
    assert_eq!(cache.clock().now().millis(), clock_ms, "clock restored");
    assert_eq!(cache.region_staleness("CR1").unwrap(), stale1);
    assert_eq!(cache.region_staleness("CR2").unwrap(), stale2);

    // A recovery event with replay stats landed in the journal.
    let events = recovery_events(&cache);
    assert_eq!(events.len(), 1, "exactly one recovery event: {events:?}");
    assert!(
        events[0].1.contains("replayed") && events[0].1.contains("watermarks"),
        "cause carries replay stats: {}",
        events[0].1
    );

    // Caches re-converge under bounded staleness: the recovered views
    // already hold the propagated update, and the rig keeps running.
    let r = cache
        .execute(
            "SELECT c_acctbal FROM customer WHERE c_custkey = 5 \
             CURRENCY BOUND 30 SEC ON (customer)",
        )
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float(4242.5));
    cache.advance(Duration::from_secs(30)).unwrap();
    let r = cache
        .execute("SELECT c_acctbal FROM customer WHERE c_custkey = 5")
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float(4242.5));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn graceful_checkpoint_truncates_wal_and_restores() {
    let dir = temp_dir("graceful");
    {
        let cache = paper_setup_durable(0.002, 7, opts(&dir)).unwrap();
        warm_up(&cache).unwrap();
        cache
            .execute("UPDATE customer SET c_acctbal = 77.25 WHERE c_custkey = 9")
            .unwrap();
        let before = cache.durability_status().unwrap();
        assert!(before.wal_records > 0);
        assert!(before.last_checkpoint_age_seconds.is_none());
        // Graceful shutdown: write a clean checkpoint.
        assert!(cache.checkpoint().unwrap());
        let after = cache.durability_status().unwrap();
        assert_eq!(after.wal_records, 0, "checkpoint resets the WAL");
        assert_eq!(after.last_checkpoint_age_seconds, Some(0.0));
    }
    let cache = paper_setup_durable(0.002, 7, opts(&dir)).unwrap();
    let r = cache
        .execute("SELECT c_acctbal FROM customer WHERE c_custkey = 9")
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Float(77.25));
    // Recovery came from the checkpoint image, not a WAL replay.
    let events = recovery_events(&cache);
    assert_eq!(events.len(), 1);
    assert!(
        events[0].1.contains("replayed 0 commits"),
        "checkpoint covered everything: {}",
        events[0].1
    );
    // The log base preserves absolute cursors across the checkpoint.
    assert!(cache.master().log_len() > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn default_in_memory_rig_is_unchanged() {
    let a = paper_setup(0.002, 42).unwrap();
    let b = paper_setup(0.002, 42).unwrap();
    assert!(a.durability_status().is_none());
    assert!(!a.checkpoint().unwrap(), "no-op without a data dir");
    assert_eq!(master_rows(&a, "customer"), master_rows(&b, "customer"));
    assert_eq!(master_rows(&a, "orders"), master_rows(&b, "orders"));
    assert!(
        recovery_events(&a).is_empty(),
        "no recovery event in-memory"
    );
}
