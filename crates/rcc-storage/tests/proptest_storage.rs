//! Model-based property tests for the storage engine: a `BTreeMap`
//! reference model must agree with the table under arbitrary interleavings
//! of inserts, upserts, deletes and scans; secondary-index range scans must
//! equal full-scan filtering. The map under the table, `CowMap`, is driven
//! against the same oracle through its split and merge boundaries, with
//! clones taken along the way that later writes must not disturb.
//!
//! The case counts follow `PROPTEST_CASES` when it is set.

use proptest::prelude::*;
use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_storage::cowmap::Entry;
use rcc_storage::{CowMap, KeyRange, Table};
use std::collections::BTreeMap;

/// `PROPTEST_CASES` when set (CI runs the models at depth), else `quick`:
/// what plain `cargo test` runs.
fn cases(quick: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(quick)
}

/// The map model's rows: three cells, a key, a number and a string, so
/// a chunk's buffer holds cells that own heap memory.
fn triple(k: u32, v: u32) -> Row {
    Row::new(vec![
        Value::Int(k.into()),
        Value::Int(v.into()),
        Value::Str(format!("s{v}")),
    ])
}

fn key(k: u32) -> [Value; 1] {
    [Value::Int(k.into())]
}

fn int(cell: &Value) -> u32 {
    cell.as_int().unwrap() as u32
}

/// A row's key and value, with its string cell checked against the value.
fn untriple(row: &[Value]) -> (u32, u32) {
    let (k, v) = (int(&row[0]), int(&row[1]));
    let said = match &row[2] {
        Value::Str(s) => s.strip_prefix('s').and_then(|n| n.parse().ok()),
        _ => None,
    };
    assert_eq!(said, Some(v), "string cell of key {k}: {:?}", row[2]);
    (k, v)
}

/// The model's answers read off rows: the value of each.
fn value(row: Option<&[Value]>) -> Option<u32> {
    row.map(|row| untriple(row).1)
}

#[derive(Debug, Clone)]
enum Op {
    Upsert(i64, i64),
    Delete(i64),
    Get(i64),
    RangeScan(i64, i64),
    IndexScan(i64, i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((-50i64..50), (-100i64..100)).prop_map(|(k, v)| Op::Upsert(k, v)),
        (-50i64..50).prop_map(Op::Delete),
        (-50i64..50).prop_map(Op::Get),
        ((-60i64..60), (-60i64..60)).prop_map(|(a, b)| Op::RangeScan(a.min(b), a.max(b))),
        ((-110i64..110), (-110i64..110)).prop_map(|(a, b)| Op::IndexScan(a.min(b), a.max(b))),
    ]
}

fn table() -> Table {
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let mut t = Table::new("t", schema, vec![0]);
    t.create_index("ix_v", vec![1]).unwrap();
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(128), .. ProptestConfig::default() })]

    #[test]
    fn table_agrees_with_btreemap_model(ops in proptest::collection::vec(op(), 1..120)) {
        let mut table = table();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Upsert(k, v) => {
                    table.upsert(Row::new(vec![Value::Int(k), Value::Int(v)])).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    let t_old = table.delete(&[Value::Int(k)]);
                    let m_old = model.remove(&k);
                    prop_assert_eq!(t_old.is_some(), m_old.is_some());
                }
                Op::Get(k) => {
                    let t_val = table
                        .row(&[Value::Int(k)])
                        .map(|r| r[1].as_int().unwrap());
                    prop_assert_eq!(t_val, model.get(&k).copied());
                }
                Op::RangeScan(lo, hi) => {
                    let rows = table.collect_range(
                        &KeyRange::between(Value::Int(lo), Value::Int(hi)),
                        |_| true,
                    );
                    let expect: Vec<(i64, i64)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    let got: Vec<(i64, i64)> = rows
                        .iter()
                        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
                        .collect();
                    prop_assert_eq!(got, expect, "range [{}, {}]", lo, hi);
                }
                Op::IndexScan(lo, hi) => {
                    let via_index = table
                        .index_scan("ix_v", &KeyRange::between(Value::Int(lo), Value::Int(hi)))
                        .unwrap();
                    let mut via_filter: Vec<Row> = table
                        .collect_range(&KeyRange::all(), |r| {
                            let v = r[1].as_int().unwrap();
                            (lo..=hi).contains(&v)
                        });
                    // index order: (v, k); filter order: k — compare as sets
                    let mut a: Vec<(i64, i64)> = via_index
                        .iter()
                        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
                        .collect();
                    let mut b: Vec<(i64, i64)> = via_filter
                        .drain(..)
                        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
                        .collect();
                    a.sort();
                    b.sort();
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(table.row_count(), model.len());
        }
    }

    #[test]
    fn index_scan_results_sorted_by_index_key(
        rows in proptest::collection::btree_map(-50i64..50, -50i64..50, 0..60),
        lo in -60i64..60,
    ) {
        let mut table = table();
        for (k, v) in &rows {
            table.insert(Row::new(vec![Value::Int(*k), Value::Int(*v)])).unwrap();
        }
        let hits = table.index_scan("ix_v", &KeyRange::at_least(Value::Int(lo))).unwrap();
        for w in hits.windows(2) {
            let a = w[0].get(1).as_int().unwrap();
            let b = w[1].get(1).as_int().unwrap();
            prop_assert!(a <= b, "index scan must return index order");
        }
    }

    #[test]
    fn range_intersection_matches_double_filter(
        a_lo in -20i64..20, a_hi in -20i64..20,
        b_lo in -20i64..20, b_hi in -20i64..20,
        probe in -25i64..25,
    ) {
        let a = KeyRange::between(Value::Int(a_lo.min(a_hi)), Value::Int(a_lo.max(a_hi)));
        let b = KeyRange::between(Value::Int(b_lo.min(b_hi)), Value::Int(b_lo.max(b_hi)));
        let both = a.intersect(&b);
        let v = Value::Int(probe);
        prop_assert_eq!(both.contains(&v), a.contains(&v) && b.contains(&v));
    }

    #[test]
    fn contains_range_is_consistent_with_membership(
        a_lo in -20i64..20, a_hi in -20i64..20,
        b_lo in -20i64..20, b_hi in -20i64..20,
    ) {
        let a = KeyRange::between(Value::Int(a_lo.min(a_hi)), Value::Int(a_lo.max(a_hi)));
        let b = KeyRange::between(Value::Int(b_lo.min(b_hi)), Value::Int(b_lo.max(b_hi)));
        if a.contains_range(&b) {
            // every point of b must be in a
            for p in (b_lo.min(b_hi))..=(b_lo.max(b_hi)) {
                prop_assert!(a.contains(&Value::Int(p)), "p={p}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(32), .. ProptestConfig::default() })]

    /// Chunks hold at most 256 rows and merge below 64: an ascending
    /// preload of up to 700 keys builds full chunks, insert-heavy cases
    /// split them, and delete-heavy cases (every removal hits a live key)
    /// drain them through every merge down to empty. Writes go in three
    /// ways — `insert`, an upsert through the entry API, `remove` — while up
    /// to three snapshots (clones) taken along the way stay live; each must
    /// still read what the model held when it was taken, string cells
    /// included, when it is dropped and at the end. Every op checks the
    /// whole map, a point read and a range of up to 400 keys.
    #[test]
    fn cowmap_agrees_with_btreemap_model(
        preload in 0u32..700,
        remove_share in 1u8..9,
        ops in proptest::collection::vec((0u8..11, 0u32..1400, 0u32..1000), 1..1200),
    ) {
        let mut map = CowMap::new(3, vec![0]);
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        for k in 0..preload {
            map.insert(triple(2 * k, k));
            model.insert(2 * k, k);
        }
        let same = |map: &CowMap, model: &BTreeMap<u32, u32>| {
            map.len() == model.len()
                && map.iter().map(untriple).eq(model.iter().map(|(&k, &v)| (k, v)))
        };
        let mut snapshots: Vec<(CowMap, BTreeMap<u32, u32>)> = Vec::new();
        for (roll, a, b) in ops {
            if roll >= 9 {
                // a snapshot taken earlier saw none of the writes since
                if !snapshots.is_empty() && (roll == 10 || snapshots.len() == 3) {
                    let (snapshot, then) = snapshots.remove(a as usize % snapshots.len());
                    prop_assert!(same(&snapshot, &then), "snapshot disturbed");
                }
                snapshots.push((map.clone(), model.clone()));
            } else if roll < remove_share {
                let k = model.keys().nth(a as usize % model.len().max(1)).copied().unwrap_or(a);
                let removed = map.remove(&key(k));
                prop_assert_eq!(value(removed.as_ref().map(Row::values)), model.remove(&k));
            } else if roll % 2 == 0 {
                let old = map.insert(triple(a, b));
                prop_assert_eq!(value(old.as_ref().map(Row::values)), model.insert(a, b));
            } else {
                let row = triple(a, b);
                match map.entry(&row) {
                    Entry::Occupied(mut slot) => {
                        prop_assert_eq!(untriple(slot.get()).0, a);
                        slot.replace(row);
                    }
                    Entry::Vacant(slot) => slot.insert(row.values()),
                }
                model.insert(a, b);
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert!(same(&map, &model), "contents diverged at op {:?}", (roll, a, b));
            prop_assert_eq!(value(map.get(&key(a))), model.get(&a).copied());
            let (lo, hi) = (a, a + b % 400);
            let (from, to) = (map.seek(|k| int(k) < lo), map.seek(|k| int(k) <= hi));
            prop_assert_eq!(map.seek_from(from, |k| int(k) <= hi), to);
            let got: Vec<(u32, u32)> = map
                .slices(from, to)
                .flat_map(|rows| rows.iter().map(untriple).collect::<Vec<_>>())
                .collect();
            let want: Vec<(u32, u32)> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want, "range [{}, {}]", lo, hi);
        }
        prop_assert!(same(&map, &model), "contents diverged");
        for (snapshot, then) in &snapshots {
            prop_assert!(same(snapshot, then), "snapshot disturbed");
        }
    }
}
