//! The paper's rig at its own scale (Sec. 4: 150 000 customers and
//! 1 500 000 orders at the back-end, both views at the cache): it builds,
//! and a guarded point read is served from the local view. Ignored by
//! default — it holds about 345 MiB (VmHWM) and wants a release build:
//!
//! ```text
//! cargo test --release -p rcc-mtcache --test paper_scale -- --ignored --nocapture
//! ```
//!
//! It prints how long the rig took to build, how long
//! `TableStats::compute` (ANALYZE) takes on each of its four tables, and
//! what a random point read and a random one-key range seek cost on its
//! largest table. A table stores each clustered key only in its row, so
//! every probe a lookup makes inside a chunk reads a row; at this scale
//! those rows are mostly out of cache, and these two figures are where
//! that shows first.

use rcc_common::Value;
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_storage::{KeyRange, TableStats};
use rcc_tpcd::TpcdGenerator;
use std::time::Instant;

#[test]
#[ignore = "paper scale: about 345 MiB, run in release"]
fn the_paper_scale_rig_builds_and_serves_locally() {
    let started = Instant::now();
    let cache = paper_setup(1.0, 42).unwrap();
    let setup = started.elapsed();
    println!("paper_setup(1.0): {:.2} s", setup.as_secs_f64());

    let count = |table: &str, storage: &rcc_storage::StorageEngine| {
        storage.table(table).unwrap().snapshot().row_count()
    };
    let customers = count("customer", cache.master().storage());
    let orders = count("orders", cache.master().storage());
    assert_eq!(
        customers as u64,
        TpcdGenerator::new(1.0, 42).customer_count()
    );
    assert_eq!(customers, 150_000);
    assert!((1_450_000..1_550_000).contains(&orders), "{orders} orders");
    assert_eq!(count("cust_prj", cache.cache_storage()), customers);
    assert_eq!(count("orders_prj", cache.cache_storage()), orders);
    // ANALYZE at the paper's scale: the statistics every boot computes
    for (table, storage) in [
        ("customer", cache.master().storage()),
        ("orders", cache.master().storage()),
        ("cust_prj", cache.cache_storage()),
        ("orders_prj", cache.cache_storage()),
    ] {
        let snapshot = storage.table(table).unwrap().snapshot();
        let started = Instant::now();
        let stats = TableStats::compute(&snapshot);
        let took = started.elapsed().as_secs_f64();
        assert_eq!(stats.row_count, snapshot.row_count() as u64);
        println!(
            "TableStats::compute({table}): {:.1} ms, {:.0} rows/s",
            took * 1e3,
            stats.row_count as f64 / took
        );
    }
    // storage lookups at the paper's scale, keys visited in a scrambled
    // order so each one lands in a chunk the last one did not
    let orders_prj = cache
        .cache_storage()
        .table("orders_prj")
        .unwrap()
        .snapshot();
    let keys: Vec<Vec<Value>> = (orders_prj.rows().step_by(101))
        .map(|row| orders_prj.key_of(row))
        .collect();
    let scrambled = || (0..keys.len()).map(|i| &keys[i * 7919 % keys.len()]);
    let started = Instant::now();
    let found = scrambled()
        .filter(|key| orders_prj.row(key).is_some())
        .count();
    let get_ns = started.elapsed().as_nanos() as f64 / keys.len() as f64;
    assert_eq!(found, keys.len());
    let started = Instant::now();
    let mut rows = 0;
    for key in scrambled() {
        let range = KeyRange::eq(key[0].clone());
        orders_prj.scan_range(&range, |_| true, |_| rows += 1);
    }
    let seek_ns = started.elapsed().as_nanos() as f64 / keys.len() as f64;
    assert!(rows >= keys.len());
    println!(
        "orders_prj ({} rows): random point get {get_ns:.0} ns, \
         random one-key range seek {seek_ns:.0} ns",
        orders_prj.row_count()
    );
    // the peak resident set, where the platform reports it
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        if let Some(hwm) = status.lines().find(|l| l.starts_with("VmHWM")) {
            println!("{hwm}");
        }
    }

    warm_up(&cache).unwrap();
    let r = cache
        .execute(
            "SELECT c_name FROM customer WHERE c_custkey = 123456 \
             CURRENCY BOUND 30 SEC ON (customer)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.local_branches(), 1, "a fresh view: the guard passes");
    assert!(!r.used_remote);
}
