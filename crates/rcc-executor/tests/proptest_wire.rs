//! Property tests for the remote-result wire format: any schema/row
//! combination must round-trip bit-exactly, the batch encoder must write
//! the row encoder's bytes, every proper prefix of a payload must be
//! rejected as truncated, and trailing garbage must be detected.
//! `PROPTEST_CASES` sets the case count (CI raises it).

use bytes::Bytes;
use proptest::prelude::*;
use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_executor::wire::{decode_result, encode_batches, encode_result};
use rcc_executor::Batch;

fn dt(code: u8) -> DataType {
    match code % 5 {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        _ => DataType::Timestamp,
    }
}

/// Build a value of the column's type from raw generated material; `sel == 0`
/// yields NULL (legal in any column).
fn make_value(t: DataType, sel: u8, i: i64, s: &str) -> Value {
    if sel == 0 {
        return Value::Null;
    }
    match t {
        DataType::Int => Value::Int(i),
        DataType::Float => Value::Float(i as f64 / 3.0),
        DataType::Str => Value::Str(s.to_string()),
        DataType::Bool => Value::Bool(i % 2 == 0),
        DataType::Timestamp => Value::Timestamp(i),
    }
}

proptest! {
    #[test]
    fn random_results_roundtrip_and_reject_corruption(
        types in prop::collection::vec(0u8..5, 1..6),
        names in prop::collection::vec("[a-z][a-z0-9_]{0,8}", 6),
        cells in prop::collection::vec(
            prop::collection::vec((0u8..6, -1_000_000i64..1_000_000, "[a-zA-Z0-9_]{0,12}"), 1..7),
            0..8,
        ),
        cut_seed in 0usize..1_000_000,
    ) {
        let schema = Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(j, t)| Column::new(format!("{}_{j}", names[j % names.len()]), dt(*t)))
                .collect(),
        );
        let rows: Vec<Row> = cells
            .iter()
            .map(|cell| {
                Row::new(
                    types
                        .iter()
                        .enumerate()
                        .map(|(j, t)| {
                            let (sel, i, s) = &cell[j % cell.len()];
                            make_value(dt(*t), *sel, *i, s)
                        })
                        .collect(),
                )
            })
            .collect();

        let bytes = encode_result(&schema, &rows);
        let batch = Batch::from_rows(schema.len(), rows.clone());
        prop_assert_eq!(&encode_batches(&schema, &[batch]), &bytes);

        // 1. bit-exact round trip
        let decoded = decode_result(bytes.clone());
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        let (schema2, rows2) = decoded.unwrap();
        prop_assert_eq!(&rows, &rows2);
        prop_assert_eq!(schema.len(), schema2.len());
        for (a, b) in schema.columns().iter().zip(schema2.columns()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.data_type, b.data_type);
        }

        // 2. every proper prefix is a framing error, never a silent
        //    short read (the declared column/row counts pin the length)
        let cut = cut_seed % bytes.len();
        prop_assert!(
            decode_result(bytes.slice(0..cut)).is_err(),
            "truncation at {cut}/{} went undetected",
            bytes.len()
        );

        // 3. trailing bytes after a well-formed payload are rejected
        let mut extended = bytes.to_vec();
        extended.push((cut_seed % 251) as u8);
        prop_assert!(decode_result(Bytes::from(extended)).is_err());
    }
}
