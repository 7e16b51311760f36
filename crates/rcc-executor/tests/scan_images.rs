//! A scan reads every storage chunk its span covers whole through the
//! chunk's typed image, and walks the rest row by row. These hold the image
//! path to the row walk: the same rows in the same batches, and an error
//! exactly where the row walk would meet one.

use rcc_common::{Column as SchemaColumn, DataType, Error, Row, Schema, SimClock, Value};
use rcc_executor::rowref::execute_plan_rows;
use rcc_executor::{execute_plan, ExecContext, Executable};
use rcc_optimizer::physical::{AccessPath, LocalScanNode};
use rcc_optimizer::{BoundExpr, PhysicalPlan};
use rcc_sql::BinaryOp;
use rcc_storage::{KeyRange, StorageEngine, Table};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// `t(k INT PRIMARY KEY, d INT, e INT)` holding keys `0..n`, loaded in
/// key order (so every chunk but the last holds 256 rows), `d` set by
/// `d_of`, and `e` the key rotated by `n / 6` ([`rotated`]), indexed by
/// `ix_e`: that index reaches the keys from `5n / 6` up first, then the
/// ones below.
fn ctx_with(n: i64, d_of: impl Fn(i64) -> i64) -> ExecContext {
    let schema = Schema::new(vec![
        SchemaColumn::new("k", DataType::Int),
        SchemaColumn::new("d", DataType::Int),
        SchemaColumn::new("e", DataType::Int),
    ]);
    let mut table = Table::new("t", schema, vec![0]);
    table.create_index("ix_e", vec![2]).expect("fresh table");
    for k in 0..n {
        let row = Row::new(vec![
            Value::Int(k),
            Value::Int(d_of(k)),
            Value::Int(rotated(n, k)),
        ]);
        table.insert(row).expect("distinct keys");
    }
    let storage = Arc::new(StorageEngine::new());
    storage.create_table(table).expect("fresh engine");
    ExecContext::new(storage, None, Arc::new(SimClock::new()))
}

/// The `e` of key `k` in a table of `n` keys.
fn rotated(n: i64, k: i64) -> i64 {
    (k + n / 6) % n
}

fn schema() -> Schema {
    Schema::new(vec![
        SchemaColumn::new("k", DataType::Int).with_qualifier("t"),
        SchemaColumn::new("d", DataType::Int).with_qualifier("t"),
    ])
}

fn access(range: &KeyRange) -> AccessPath {
    AccessPath::ClusteredRange {
        column: "k".into(),
        range: range.clone().into(),
    }
}

/// A seek of `ix_e` with `range`.
fn by_e(range: &KeyRange) -> AccessPath {
    AccessPath::IndexRange {
        index: "ix_e".into(),
        column: "e".into(),
        range: range.clone().into(),
    }
}

fn scan(range: &KeyRange, residual: Option<BoundExpr>) -> PhysicalPlan {
    scan_on(access(range), residual)
}

fn scan_on(access: AccessPath, residual: Option<BoundExpr>) -> PhysicalPlan {
    PhysicalPlan::LocalScan(LocalScanNode {
        object: "t".into(),
        schema: schema(),
        access,
        residual,
        operand: 0,
        est_rows: 1.0,
    })
}

fn image_runs(ctx: &ExecContext) -> u64 {
    ctx.counters.scan_image_runs.load(Ordering::Relaxed)
}

/// `lit op d`, or `lit / d > 1` for `BinaryOp::Div`.
fn on_d(op: BinaryOp, lit: i64) -> BoundExpr {
    let d = BoundExpr::col("t", "d");
    match op {
        BinaryOp::Div => BoundExpr::binary(
            BoundExpr::binary(BoundExpr::Literal(Value::Int(lit)), op, d),
            BinaryOp::Gt,
            BoundExpr::Literal(Value::Int(1)),
        ),
        _ => BoundExpr::binary(d, op, BoundExpr::Literal(Value::Int(lit))),
    }
}

#[test]
fn batches_are_cut_where_the_row_walk_cuts_them() {
    let mut ctx = ctx_with(1000, |k| k % 3);
    ctx.batch_rows = 7;
    let ranges = [
        KeyRange::all(),
        KeyRange::between(Value::Int(100), Value::Int(900)),
    ];
    for range in &ranges {
        for residual in [None, Some(on_d(BinaryOp::Gt, 0))] {
            let images_before = image_runs(&ctx);
            let plan = scan(range, residual.clone());
            let executable = Executable::prepare(&plan, &ctx.storage, &[]).expect("prepare");
            let mut op = executable.operator();
            op.open(&ctx).expect("open");
            let (mut sizes, mut rows) = (Vec::new(), Vec::new());
            while let Some(batch) = op.next_batch(&ctx).expect("next") {
                sizes.push(batch.len());
                rows.extend(batch.to_rows());
            }
            op.close(&ctx).expect("close");
            let walked = execute_plan_rows(&plan, &ctx).expect("row engine").rows;
            assert_eq!(rows, walked, "{range:?} {residual:?}");
            // every batch but the last holds exactly `batch_rows` survivors
            let (last, full) = sizes.split_last().expect("rows survive");
            assert!(
                full.iter().all(|&n| n == 7) && (1..=7).contains(last),
                "{sizes:?}"
            );
            // four chunks; a span clipped at both ends covers the middle two
            let images = image_runs(&ctx) - images_before;
            assert!(
                images >= if range.is_full() { 4 } else { 2 },
                "{images} image runs"
            );
        }
    }
}

#[test]
fn a_failing_residual_errs_where_the_row_walk_would() {
    // `10 / d > 1`: true for d = 1, false for d = 20 (every tenth key),
    // and a division by zero for one key, two rows past the 2 048th
    // survivor, inside the same chunk
    let survivor_2048 = 2274;
    let bad = survivor_2048 + 2;
    assert_eq!(survivor_2048 / 256, bad / 256, "one chunk");
    let ctx = ctx_with(3000, |k| match k {
        _ if k == bad => 0,
        _ if k % 10 == 9 => 20,
        _ => 1,
    });
    let residual = Some(on_d(BinaryOp::Div, 10));
    let survivors = |plan: &PhysicalPlan| execute_plan(plan, &ctx).map(|r| r.rows);
    assert_eq!(
        survivors(&scan(
            &KeyRange::at_most(Value::Int(survivor_2048)),
            residual.clone()
        ))
        .expect("no failing row in the span")
        .len(),
        2048
    );
    // the clustered scan, and one along `ix_e`, each with its access over
    // the rows the row walk reaches before the failing one: in `ix_e`'s
    // order more than 2 048 survivors come first too
    let bad_e = rotated(3000, bad);
    let paths = [
        (
            access(&KeyRange::all()),
            access(&KeyRange::less_than(Value::Int(bad))),
        ),
        (
            by_e(&KeyRange::all()),
            by_e(&KeyRange::less_than(Value::Int(bad_e))),
        ),
    ];
    for (all, before_bad) in paths {
        let clustered = matches!(all, AccessPath::ClusteredRange { .. });
        // a LIMIT the first batch satisfies stops the scan before the
        // failing row, as the row walk does; the rows agree with the row
        // engine over the span that ends before it
        for n in [5, 2048] {
            let limited = |access: &AccessPath| PhysicalPlan::Limit {
                input: Box::new(scan_on(access.clone(), residual.clone())),
                n,
            };
            let images_before = image_runs(&ctx);
            let rows = survivors(&limited(&all)).expect("the scan stops before the failing row");
            if clustered {
                assert!(
                    image_runs(&ctx) > images_before,
                    "chunks read through images"
                );
            }
            let walked = execute_plan_rows(&limited(&before_bad), &ctx)
                .expect("row engine")
                .rows;
            assert_eq!(rows.len(), n as usize);
            assert_eq!(rows, walked, "{all:?} LIMIT {n}");
        }
        // without the LIMIT both engines fail, with the same error
        let batched = execute_plan(&scan_on(all.clone(), residual.clone()), &ctx).map(|r| r.rows);
        let walked =
            execute_plan_rows(&scan_on(all.clone(), residual.clone()), &ctx).map(|r| r.rows);
        match (batched, walked) {
            (Err(Error::Execution(a)), Err(Error::Execution(b))) => {
                assert_eq!(a, b);
                assert!(a.contains("division by zero"), "{a}");
            }
            other => panic!("{all:?}: {other:?}"),
        }
    }
}
