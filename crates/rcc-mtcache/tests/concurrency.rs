//! Thread-safety smoke tests: concurrent readers against the cache while
//! DML commits at the back-end. Replication runs on the simulated clock
//! (advanced from the main thread between phases), so these tests exercise
//! lock discipline rather than wall-clock races.

use rcc_common::{Duration, Value};
use rcc_mtcache::paper::{paper_setup, warm_up};
use std::sync::Arc;
use std::thread;

#[test]
fn concurrent_readers_and_writers() {
    let cache = Arc::new(paper_setup(0.005, 42).unwrap());
    warm_up(&cache).unwrap();

    let mut handles = Vec::new();
    // 4 reader threads hammering bounded and unbounded reads
    for t in 0..4 {
        let cache = Arc::clone(&cache);
        handles.push(thread::spawn(move || {
            for i in 0..50 {
                let key = (t * 50 + i) % 700 + 1;
                let bounded = cache
                    .execute(&format!(
                        "SELECT c_acctbal FROM customer WHERE c_custkey = {key} \
                         CURRENCY BOUND 60 SEC ON (customer)"
                    ))
                    .unwrap();
                assert_eq!(bounded.rows.len(), 1);
                let current = cache
                    .execute(&format!(
                        "SELECT c_acctbal FROM customer WHERE c_custkey = {key}"
                    ))
                    .unwrap();
                assert_eq!(current.rows.len(), 1);
            }
        }));
    }
    // 2 writer threads committing updates at the back-end
    for t in 0..2 {
        let cache = Arc::clone(&cache);
        handles.push(thread::spawn(move || {
            for i in 0..40 {
                let key = (t * 40 + i) % 700 + 1;
                cache
                    .execute(&format!(
                        "UPDATE customer SET c_acctbal = {}.0 WHERE c_custkey = {key}",
                        i
                    ))
                    .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }

    // replication catches up afterwards and bounded reads converge
    cache.advance(Duration::from_secs(60)).unwrap();
    let bounded = cache
        .execute(
            "SELECT c_acctbal FROM customer WHERE c_custkey = 1 \
             CURRENCY BOUND 60 SEC ON (customer)",
        )
        .unwrap();
    let current = cache
        .execute("SELECT c_acctbal FROM customer WHERE c_custkey = 1")
        .unwrap();
    assert_eq!(bounded.rows[0].get(0), current.rows[0].get(0));
}

#[test]
fn concurrent_plan_cache_access() {
    let cache = Arc::new(paper_setup(0.002, 7).unwrap());
    warm_up(&cache).unwrap();
    let mut handles = Vec::new();
    for _ in 0..6 {
        let cache = Arc::clone(&cache);
        handles.push(thread::spawn(move || {
            for _ in 0..50 {
                let r = cache
                    .execute(
                        "SELECT c_name FROM customer WHERE c_custkey = 3 \
                         CURRENCY BOUND 60 SEC ON (customer)",
                    )
                    .unwrap();
                assert_eq!(r.rows[0].get(0), &Value::from("Customer#000000003"));
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
    let (hits, misses) = cache.plan_cache().stats();
    assert!(hits >= 290, "hits={hits} misses={misses}");
}

/// `used_remote` says whether *this* query contacted the back-end. It used
/// to be read off the process-wide remote-query counter before and after
/// the run, so a purely local answer was labelled remote whenever another
/// session's remote branch completed in between — and a TIMEORDERED session
/// then raised floors it had no reason to raise.
#[test]
fn a_local_answer_is_not_labelled_remote_by_another_sessions_remote_branch() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    let cache = paper_setup(0.02, 42).unwrap();
    warm_up(&cache).unwrap();
    // one region stalled, one healthy: every guard on `customer` fails from
    // here on, every guard on `orders` passes
    cache.set_region_stalled("CR1", true);
    cache.advance(Duration::from_secs(90)).unwrap();
    let remote_q = "SELECT c_acctbal FROM customer WHERE c_custkey = 5 \
                    CURRENCY BOUND 15 SEC ON (customer)";
    // a scan of the whole orders view: a window many remote round trips wide
    let local_q = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > -1 \
                   CURRENCY BOUND 60 SEC ON (orders)";
    assert!(cache.execute(remote_q).unwrap().used_remote);
    assert!(!cache.execute(local_q).unwrap().used_remote);

    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    let shipped = AtomicU64::new(0);
    let (mut mislabelled, mut overlapped) = (0, false);
    thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            while !done.load(Ordering::SeqCst) {
                assert!(cache.execute(remote_q).unwrap().used_remote);
                shipped.fetch_add(1, Ordering::SeqCst);
            }
        });
        scope.spawn(|| {
            start.wait();
            // until one local answer provably spanned remote branches of the
            // other session from start to finish
            for _ in 0..200 {
                let before = shipped.load(Ordering::SeqCst);
                let Ok(r) = cache.execute(local_q) else {
                    mislabelled += 1;
                    break; // (and let the other session stop)
                };
                let all_local = !r.guards.is_empty() && r.guards.iter().all(|g| g.chose_local);
                mislabelled += usize::from(r.used_remote || !all_local);
                if shipped.load(Ordering::SeqCst) >= before + 2 {
                    overlapped = true;
                    break;
                }
            }
            done.store(true, Ordering::SeqCst);
        });
    });
    assert!(overlapped, "the two sessions never ran side by side");
    assert_eq!(mislabelled, 0, "a local answer was labelled remote");
}
