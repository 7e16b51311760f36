//! `Table::load` against inserting the same rows one at a time: random
//! rows in random (or already sorted) order, onto empty and non-empty
//! tables, clustered on one column or two, with and without a secondary
//! index over a column of mixed types. The batch is streamed to `load`
//! twice — as owned rows, whose cells are moved into storage, and as
//! borrowed cells, which are copied — and each fill goes through a
//! `TableCell`, so a failed fill publishes nothing. Whatever the batch, the
//! tables must iterate alike, answer every point read, range cursor and
//! index cursor alike, and — when the batch holds a duplicate key, a row of
//! the wrong arity, or one of each — fail with the same `Error::Storage`.
//! A refused load leaves the very table it was called on as it was, not
//! only the published one.
//!
//! The case count follows `PROPTEST_CASES` (256 by default).

use proptest::prelude::*;
use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_storage::{KeyRange, ScanCursor, Table, TableCell};
use std::collections::BTreeSet;

/// One generated case: a key set split between rows already in the table
/// and the batch, the batch's order, the table's layout, and one fault.
#[derive(Debug, Clone)]
struct Case {
    keys: BTreeSet<(i64, i64)>,
    /// A key goes to the table beforehand when `hash % existing_mod == 0`
    /// (`0` = none: an empty table).
    existing_mod: u64,
    composite: bool,
    indexed: bool,
    /// Shuffle seed; `0` keeps the batch in key order.
    shuffle: u64,
    /// 0–1 none, 2 a repeated batch key, 3 an already stored key, 4 a row
    /// of the wrong arity, 5 a repeated batch key and a row of the wrong
    /// arity — whichever comes first fails the fill.
    fault: u8,
    fault_at: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop::collection::btree_set((0i64..60, 0i64..40), 0..700),
        prop_oneof![Just(0u64), Just(2u64), Just(5u64), Just(1u64)],
        (0u8..2, 0u8..2).prop_map(|(c, i)| (c == 1, i == 1)),
        prop_oneof![Just(0u64), 1u64..u64::MAX],
        0u8..6,
        0u64..u64::MAX,
    )
        .prop_map(
            |(keys, existing_mod, (composite, indexed), shuffle, fault, fault_at)| Case {
                keys,
                existing_mod,
                composite,
                indexed,
                shuffle,
                fault,
                fault_at,
            },
        )
}

/// A cell of mixed type, so the index orders Int, Float, Str and NULL, and
/// Int and Float values that are equal under `Value`'s `Eq`.
fn cell(a: i64, b: i64, salt: i64) -> Value {
    match (a * 7 + b + salt).rem_euclid(5) {
        0 => Value::Null,
        1 => Value::Int(a % 9),
        2 => Value::Float((b % 9) as f64),
        3 => Value::Str(format!("s{}", b % 4)),
        _ => Value::Float(b as f64 / 4.0),
    }
}

fn row(composite: bool, (a, b): (i64, i64), salt: i64) -> Row {
    if composite {
        Row::new(vec![Value::Int(a), Value::Int(b), cell(a, b, salt)])
    } else {
        Row::new(vec![
            Value::Int(a * 40 + b),
            Value::Int(b),
            cell(a, b, salt),
        ])
    }
}

fn empty_table(composite: bool, indexed: bool) -> Table {
    let schema = Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("v", DataType::Int),
    ]);
    let key = if composite { vec![0, 1] } else { vec![0] };
    let mut t = Table::new("t", schema, key);
    if indexed {
        t.create_index("ix_v", vec![2]).unwrap();
    }
    t
}

/// A small deterministic generator for the shuffle.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// The table before the fill, and the batch.
fn build(c: &Case) -> (Table, Vec<Row>) {
    let mut base = empty_table(c.composite, c.indexed);
    let mut batch = Vec::new();
    for (i, &key) in c.keys.iter().enumerate() {
        let existing =
            c.existing_mod != 0 && ((key.0 * 41 + key.1) as u64).is_multiple_of(c.existing_mod);
        if existing {
            base.insert(row(c.composite, key, 0)).unwrap();
        } else {
            batch.push(row(c.composite, key, i as i64));
        }
    }
    if c.shuffle != 0 {
        let mut state = c.shuffle;
        for i in (1..batch.len()).rev() {
            batch.swap(i, next(&mut state) as usize % (i + 1));
        }
    }
    let stored: Vec<&[Value]> = base.rows().collect();
    let fault = match c.fault {
        2 | 5 if !batch.is_empty() => {
            let twin = &batch[c.fault_at as usize % batch.len()];
            let mut values = twin.values().to_vec();
            values[2] = Value::from("twin");
            Some(Row::new(values))
        }
        3 if !stored.is_empty() => {
            let mut values = stored[c.fault_at as usize % stored.len()].to_vec();
            values[2] = Value::from("again");
            Some(Row::new(values))
        }
        4 => Some(Row::new(vec![Value::Int(-1)])),
        _ => None,
    };
    if let Some(fault) = fault {
        let at = (c.fault_at >> 16) as usize % (batch.len() + 1);
        batch.insert(at, fault);
    }
    if c.fault == 5 {
        let at = (c.fault_at >> 32) as usize % (batch.len() + 1);
        batch.insert(at, Row::new(vec![Value::Int(-1)]));
    }
    (base, batch)
}

fn drain(t: &Table, mut cursor: ScanCursor) -> String {
    let mut out = Vec::new();
    while let Some(run) = t.next_run(&mut cursor) {
        out.extend(run.rows().iter().map(|row| format!("{row:?}")));
        t.advance(&mut cursor, run.len());
    }
    out.join(",")
}

fn rows_of(t: &Table) -> String {
    format!("{:?}", t.rows().collect::<Vec<_>>())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn load_agrees_with_row_by_row_inserts(c in case()) {
        let (base, batch) = build(&c);
        let inserted = TableCell::new(base.clone());
        let loaded = TableCell::new(base.clone());
        let by_row = inserted.update(|t| {
            for row in batch.clone() {
                t.insert(row)?;
            }
            Ok(())
        });
        let by_load = loaded.update(|t| t.load(batch.iter().cloned()));
        prop_assert_eq!(format!("{by_row:?}"), format!("{by_load:?}"));
        let copied = TableCell::new(base.clone());
        let by_copy = copied.update(|t| t.load(batch.iter().map(Row::values)));
        prop_assert_eq!(format!("{by_load:?}"), format!("{by_copy:?}"));
        if c.fault >= 4 {
            prop_assert!(by_load.is_err(), "a wrong arity always fails");
        }
        let (a, b) = (inserted.snapshot(), loaded.snapshot());
        if by_load.is_err() {
            prop_assert_eq!(rows_of(&b), rows_of(&base), "a failed load publishes nothing");
            // refused before anything changed, on the table itself
            let mut direct = base.clone();
            prop_assert!(direct.load(batch.iter().cloned()).is_err());
            prop_assert_eq!(rows_of(&direct), rows_of(&base));
            prop_assert_eq!(
                direct.index_pks("ix_v", &KeyRange::all()).ok(),
                base.index_pks("ix_v", &KeyRange::all()).ok()
            );
        }
        prop_assert_eq!(a.row_count(), b.row_count());
        prop_assert_eq!(rows_of(&a), rows_of(&b));
        prop_assert_eq!(rows_of(&b), rows_of(&copied.snapshot()));

        // point reads: every key of the case, and keys never used; the
        // owned-row read answers what the borrowed one does
        for &(x, y) in c.keys.iter().chain(&[(-1, 0), (60, 0), (3, 41)]) {
            let probe = row(c.composite, (x, y), 0);
            let key = a.key_of(&probe);
            prop_assert_eq!(format!("{:?}", a.row(&key)), format!("{:?}", b.row(&key)));
            prop_assert_eq!(b.get(&key).map(Row::values), b.row(&key));
        }
        // range cursors on the leading key column
        let top = if c.composite { 60 } else { 2400 };
        for (lo, hi) in [(0, top), (top / 7, top / 3), (top / 2, top / 2), (top + 1, top + 9)] {
            let range = KeyRange::between(Value::Int(lo), Value::Int(hi));
            prop_assert_eq!(
                drain(&a, a.scan_cursor(&range)),
                drain(&b, b.scan_cursor(&range))
            );
        }
        // index cursors over the mixed column
        if c.indexed {
            let ranges = [
                KeyRange::all(),
                KeyRange::between(Value::Int(2), Value::Float(5.5)),
                KeyRange::eq(Value::Null),
                KeyRange::at_least(Value::from("s2")),
                KeyRange::less_than(Value::Float(3.0)),
            ];
            for range in &ranges {
                prop_assert_eq!(
                    drain(&a, a.index_cursor("ix_v", range).unwrap()),
                    drain(&b, b.index_cursor("ix_v", range).unwrap())
                );
                prop_assert_eq!(
                    a.index_pks("ix_v", range).unwrap(),
                    b.index_pks("ix_v", range).unwrap()
                );
            }
        }
    }
}
