//! `TableStats::compute` against a model written here, field by field:
//! min and max as the first smallest and largest non-NULL cell in
//! clustered order, NULL counts, the distinct count from a `BTreeSet`
//! under `Value`'s `Eq` (every non-NULL cell once a column other than the
//! leading clustered-key column reaches the 100 000-value cap),
//! equi-width histograms of numeric columns, and the average row width.
//! Covered: columns that cross the cap (the leading key column, with and
//! without repeats, and others, at the first compaction of their numbers
//! and only at the end), one just under it, NULLs, a column
//! mixing Int and Float values that are equal under `Eq`, strings, the
//! cells where `Eq` and the numbers' natural order part (`-0.0` and `0.0`,
//! NaN, Ints that round to one `f64`), random small tables of every type,
//! and the four tables of the paper rig at scale 0.01 — `customer`
//! and `orders` at the back-end, the views `cust_prj` and `orders_prj` at
//! the cache — through the statistics the catalog holds for them.

use proptest::prelude::*;
use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_mtcache::paper::paper_setup;
use rcc_storage::{ColumnStats, Table, TableStats};
use std::collections::BTreeSet;

const CAP: usize = 100_000;
const BUCKETS: usize = 64;

/// The statistics of column `i`, computed naively. The leading clustered
/// key column (`lead`) is counted exactly at any size; every other column
/// counts as all distinct once it reaches the cap.
fn model_column(table: &Table, i: usize, lead: bool) -> ColumnStats {
    let cells: Vec<&Value> = table.iter().map(|row| row.get(i)).collect();
    let present: Vec<&Value> = cells.iter().copied().filter(|v| !v.is_null()).collect();
    let mut min: Option<&Value> = None;
    let mut max: Option<&Value> = None;
    for &v in &present {
        if min.is_none_or(|m| v < m) {
            min = Some(v);
        }
        if max.is_none_or(|m| v > m) {
            max = Some(v);
        }
    }
    let distinct: BTreeSet<&Value> = present.iter().copied().collect();
    let distinct = if distinct.len() >= CAP && !lead {
        present.len() as u64
    } else {
        distinct.len() as u64
    };
    let bounds = min
        .zip(max)
        .and_then(|(lo, hi)| Some((lo.as_float().ok()?, hi.as_float().ok()?)));
    let histogram = match bounds {
        Some((lo, hi)) if hi > lo => {
            let width = (hi - lo) / BUCKETS as f64;
            let mut buckets = vec![0u64; BUCKETS];
            for v in &cells {
                if let Ok(x) = v.as_float() {
                    buckets[(((x - lo) / width) as usize).min(BUCKETS - 1)] += 1;
                }
            }
            buckets
        }
        _ => Vec::new(),
    };
    ColumnStats {
        min: min.cloned(),
        max: max.cloned(),
        distinct,
        nulls: (cells.len() - present.len()) as u64,
        histogram,
    }
}

/// `Value`s equal under `Eq` *and* of one type.
fn same(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a == b && a.data_type() == b.data_type(),
        (a, b) => a.is_none() && b.is_none(),
    }
}

/// Every field of `TableStats::compute(table)` equals the model's.
fn assert_matches_model(table: &Table) {
    assert_stats_match_model(&TableStats::compute(table), table);
}

/// Every field of `stats` equals the model's statistics of `table`.
fn assert_stats_match_model(stats: &TableStats, table: &Table) {
    let n = table.row_count();
    assert_eq!(stats.row_count, n as u64, "{}", table.name());
    let bytes: usize = table.iter().map(Row::byte_width).sum();
    let avg = if n > 0 { bytes as f64 / n as f64 } else { 0.0 };
    assert_eq!(
        stats.avg_row_bytes.to_bits(),
        avg.to_bits(),
        "{}",
        table.name()
    );
    assert_eq!(stats.columns.len(), table.schema().len());
    for i in 0..table.schema().len() {
        let name = &table.schema().column(i).name;
        let lead = i == table.key_ordinals()[0];
        let (got, want) = (stats.column(name), model_column(table, i, lead));
        let at = format!("{}.{name}", table.name());
        assert!(
            same(&got.min, &want.min),
            "{at} min {:?} {:?}",
            got.min,
            want.min
        );
        assert!(
            same(&got.max, &want.max),
            "{at} max {:?} {:?}",
            got.max,
            want.max
        );
        assert_eq!(got.distinct, want.distinct, "{at} distinct");
        assert_eq!(got.nulls, want.nulls, "{at} nulls");
        assert_eq!(got.histogram, want.histogram, "{at} histogram");
    }
}

fn int_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Column::new(*n, DataType::Int))
            .collect(),
    )
}

#[test]
fn columns_across_the_distinct_cap_nulls_mixed_types_and_strings() {
    // more rows than the 200 000 numbers `compute` holds before it sorts
    // and deduplicates them, so some columns are compacted mid-pass
    let n: i64 = 260_000;
    let schema = int_schema(&["k", "big", "under", "late", "sparse", "mixed", "name"]);
    let mut t = Table::new("synthetic", schema, vec![0]);
    t.load(
        (0..n)
            .map(|i| {
                Row::new(vec![
                    // the leading key column: 260 000 runs, past the cap
                    Value::Int(i),
                    // 110 000 distinct values, repeated: past the cap (at
                    // the first compaction), so the count is every
                    // non-NULL cell, not the set's size
                    match i % 97 {
                        0 => Value::Null,
                        _ => Value::Int((i * 7919) % 110_000),
                    },
                    // 99 999 distinct values: just under the cap, across
                    // a compaction
                    Value::Int(i % 99_999),
                    // 50 000 distinct numbers, then 60 000 strings: the
                    // classes' counts add up past the cap only at the end
                    if i < 200_000 {
                        Value::Int(i % 50_000)
                    } else {
                        Value::Str(format!("s{i}"))
                    },
                    // mostly NULL
                    match i % 10 {
                        0 => Value::Int(i / 10 % 500),
                        _ => Value::Null,
                    },
                    // Int and Float cells that are equal under Eq, with the
                    // minimum and maximum reached by both types
                    match i % 3 {
                        0 => Value::Int(i % 50),
                        1 => Value::Float((i % 50) as f64),
                        _ => Value::Float((i % 50) as f64 + 0.5),
                    },
                    Value::Str(format!("name{}", i % 4_321)),
                ])
            })
            .collect(),
    )
    .unwrap();
    assert_matches_model(&t);
    let stats = TableStats::compute(&t);
    assert_eq!(stats.column("k").distinct, n as u64);
    let big_nulls = stats.column("big").nulls;
    assert_eq!(stats.column("big").distinct, n as u64 - big_nulls);
    assert_eq!(stats.column("under").distinct, 99_999);
    assert_eq!(stats.column("late").distinct, n as u64);
    assert_eq!(stats.column("mixed").distinct, 100);
}

#[test]
fn a_leading_key_column_with_repeats_and_nulls() {
    // clustered on (grp, seq): the leading column holds runs, NULLs first
    let schema = int_schema(&["grp", "seq", "v"]);
    let mut t = Table::new("runs", schema, vec![0, 1]);
    let rows = (0..5_000i64).map(|i| {
        let grp = match i % 11 {
            0 => Value::Null,
            r if r % 2 == 0 => Value::Float((i / 20) as f64),
            _ => Value::Int(i / 20),
        };
        Row::new(vec![grp, Value::Int(i), Value::Int(i % 13)])
    });
    t.load(rows.collect()).unwrap();
    assert_matches_model(&t);
}

#[test]
fn a_leading_key_column_past_the_cap_keeps_its_exact_count() {
    // 120 000 runs of two rows each: a run count is exact and needs no
    // memory bound, so the cap does not turn it into one per row
    let runs: i64 = 120_000;
    let mut t = Table::new("pairs", int_schema(&["grp", "seq"]), vec![0, 1]);
    t.load(
        (0..2 * runs)
            .map(|i| Row::new(vec![Value::Int(i / 2), Value::Int(i % 2)]))
            .collect(),
    )
    .unwrap();
    assert_matches_model(&t);
    assert_eq!(TableStats::compute(&t).column("grp").distinct, runs as u64);
}

#[test]
fn cells_where_eq_and_the_numbers_natural_order_part() {
    let mut t = Table::new("edges", int_schema(&["k", "big", "zero", "ts"]), vec![0]);
    let two53 = 1i64 << 53;
    t.load(
        (0..4i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    // 2^53 + 1 rounds to 2^53 as an f64: equal under Eq
                    Value::Int(two53 + i % 2),
                    // -0.0 and 0.0 are not: f64::total_cmp orders them
                    Value::Float(if i % 2 == 0 { 0.0 } else { -0.0 }),
                    Value::Timestamp(100 + i),
                ])
            })
            .collect(),
    )
    .unwrap();
    assert_matches_model(&t);
    let stats = TableStats::compute(&t);
    assert_eq!(stats.column("big").distinct, 1);
    let zero = stats.column("zero");
    assert_eq!(zero.distinct, 2);
    let Some(Value::Float(min)) = zero.min else {
        panic!("{:?}", zero.min)
    };
    assert!(min == 0.0 && min.is_sign_negative(), "{min}");
    let ts = stats.column("ts");
    assert_eq!(ts.min, Some(Value::Timestamp(100)));
    assert_eq!(ts.max, Some(Value::Timestamp(103)));
    assert!(ts.histogram.is_empty());
}

#[test]
fn the_paper_rig_tables_at_scale_0_01() {
    let cache = paper_setup(0.01, 42).unwrap();
    for (name, table) in [
        ("customer", cache.master().table("customer")),
        ("orders", cache.master().table("orders")),
        ("cust_prj", cache.cache_storage().table("cust_prj")),
        ("orders_prj", cache.cache_storage().table("orders_prj")),
    ] {
        let table = table.unwrap().snapshot();
        assert!(table.row_count() >= 1_500, "{name}");
        assert_stats_match_model(&cache.catalog().stats(name), &table);
    }
}

/// A cell of any type, from a small domain so values repeat.
fn cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(|x| Value::Float(x as f64 / 2.0)),
        (0i64..6).prop_map(|x| Value::Str(format!("s{x}"))),
        (0i64..5).prop_map(Value::Timestamp),
        Just(Value::Bool(true)),
        Just(Value::Bool(false)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        // equal under Eq: both are 2^53 as an f64
        Just(Value::Int(1 << 53)),
        Just(Value::Int((1 << 53) + 1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn random_small_tables_match_the_model(
        cells in prop::collection::vec((cell(), cell()), 0..300),
    ) {
        let schema = int_schema(&["k", "a", "b"]);
        let mut t = Table::new("random", schema, vec![0]);
        for (i, (a, b)) in cells.into_iter().enumerate() {
            // a unique key, inserted out of order; the other cells of any
            // type
            let key = Value::Int(i as i64 % 7 * 1000 + i as i64);
            t.insert(Row::new(vec![key, a, b])).unwrap();
        }
        assert_matches_model(&t);
    }
}
