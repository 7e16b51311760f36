//! The paper's *conflicting consistency property* scenario (Sec. 3.2.2):
//! "Suppose we have two (local) projection views of T that belong to
//! different currency regions ... and cover different subsets of columns
//! from T. A query that requires columns from both views could then be
//! computed by joining the two views. The delivered consistency property
//! for this plan would be {<R1, T>, <R2, T>}, which conflicts with our
//! consistency model."
//!
//! Our view matching requires a single view to cover *all* columns the
//! query needs from an operand, so the conflicting join is never even
//! generated — the rule is enforced structurally, and the query falls back
//! to the back-end.

use rcc_common::{Duration, RegionId, Value};
use rcc_mtcache::MTCache;
use rcc_optimizer::property::{DeliveredGroup, DeliveredProperty};
use rcc_optimizer::RegionTag;
use std::collections::HashMap;

fn rig() -> MTCache {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (id INT, x INT, y INT, PRIMARY KEY (id))")
        .unwrap();
    for i in 0..50 {
        cache
            .execute(&format!("INSERT INTO t VALUES ({i}, {}, {})", i * 2, i * 3))
            .unwrap();
    }
    cache.analyze("t").unwrap();
    cache
        .create_region("R1", Duration::from_secs(10), Duration::from_secs(2))
        .unwrap();
    cache
        .create_region("R2", Duration::from_secs(10), Duration::from_secs(2))
        .unwrap();
    // two projection views of T, different column subsets, different regions
    cache
        .execute("CREATE CACHED VIEW t_x REGION r1 AS SELECT id, x FROM t")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW t_y REGION r2 AS SELECT id, y FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(30)).unwrap();
    cache
}

#[test]
fn query_needing_both_column_subsets_goes_remote() {
    let cache = rig();
    // needs x AND y: neither view covers both → no conflicting join is
    // generated; the plan is remote and the answer correct
    let r = cache
        .execute("SELECT x, y FROM t WHERE id = 7 CURRENCY BOUND 30 SEC ON (t)")
        .unwrap();
    assert!(r.used_remote, "plan: {}", r.plan_explain());
    assert!(!r.plan_explain().contains("t_x"), "{}", r.plan_explain());
    assert!(!r.plan_explain().contains("t_y"), "{}", r.plan_explain());
    assert_eq!(r.rows[0].get(0), &Value::Int(14));
    assert_eq!(r.rows[0].get(1), &Value::Int(21));
}

#[test]
fn queries_needing_one_subset_use_the_matching_view() {
    let cache = rig();
    let rx = cache
        .execute("SELECT x FROM t WHERE id = 7 CURRENCY BOUND 30 SEC ON (t)")
        .unwrap();
    assert!(!rx.used_remote, "plan: {}", rx.plan_explain());
    assert!(rx.plan_explain().contains("t_x"), "{}", rx.plan_explain());
    let ry = cache
        .execute("SELECT y FROM t WHERE id = 7 CURRENCY BOUND 30 SEC ON (t)")
        .unwrap();
    assert!(!ry.used_remote, "plan: {}", ry.plan_explain());
    assert!(ry.plan_explain().contains("t_y"), "{}", ry.plan_explain());
}

#[test]
fn the_conflicting_property_itself_is_rejected() {
    // the hand-built property from the paper's example: operand T claimed
    // from two different regions
    let conflicting = DeliveredProperty {
        groups: vec![
            DeliveredGroup {
                tag: RegionTag::Region(RegionId(1)),
                operands: [0u32].into_iter().collect(),
            },
            DeliveredGroup {
                tag: RegionTag::Region(RegionId(2)),
                operands: [0u32].into_iter().collect(),
            },
        ],
    };
    assert!(conflicting.is_conflicting());
    let req = rcc_optimizer::CCConstraint::tight_default([0u32]);
    assert!(!conflicting.satisfies(&req));
    assert!(conflicting.violates(&req));
    let _ = HashMap::<String, Value>::new();
}
