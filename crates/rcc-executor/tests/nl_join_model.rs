//! An index nested-loop join probes each outer batch in one forward pass
//! over its clustered inner. These hold it to a nested loop written here
//! and to the row engine: the same rows in the same order — outer order,
//! then clustered order per outer row — for inner, semi, anti and `NOT IN`
//! joins, over inner runs absent, single, or longer than a storage chunk,
//! outer batches in any order with repeated and NULL keys, a residual
//! that is absent, selective or failing on one row, chunk images not yet
//! built or already built, a secondary-index inner, and an inner written
//! while the join runs.

use proptest::prelude::*;
use rcc_common::{Column as SchemaColumn, DataType, Error, Row, Schema, SimClock, Value};
use rcc_executor::rowref::execute_plan_rows;
use rcc_executor::{execute_plan, ExecContext, Executable};
use rcc_optimizer::graph::JoinKind;
use rcc_optimizer::physical::{AccessPath, InnerAccess, LocalScanNode};
use rcc_optimizer::{BoundExpr, PhysicalPlan};
use rcc_sql::BinaryOp;
use rcc_storage::{StorageEngine, Table};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The inner's stored columns: clustered on `(g, id)`; `h` copies `g` and
/// is indexed; `v = id % 13`; `w` is 0 on the one row a failing residual
/// fails on, else 1.
const INNER: [&str; 5] = ["g", "id", "h", "v", "w"];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Residual {
    None,
    /// `v < 5`
    Selective,
    /// `10 / w > 1`: true but on the row whose `w` is 0, where it fails.
    Failing,
}

#[derive(Debug, Clone)]
struct Case {
    /// Inner rows per even key `0, 2, 4, …` (0 = absent), then with NULL.
    runs: Vec<usize>,
    nulls: usize,
    /// Outer keys, in `oid` order, before `order` arranges them.
    outer: Vec<Option<i64>>,
    /// 0 ascending, 1 descending, else as drawn.
    order: u8,
    kind: JoinKind,
    residual: Residual,
    /// The inner row (by `id`, modulo the inner's size) a failing
    /// residual fails on.
    fail_at: usize,
    /// Seek `h` through its secondary index instead of the clustered key.
    index: bool,
    /// Narrow outer batches with a filter, so they carry selection vectors.
    filter_outer: bool,
    batch_rows: usize,
}

fn run_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..4,
        Just(256usize),
        250usize..320,
        Just(600usize),
    ]
}

fn kind() -> impl Strategy<Value = JoinKind> {
    prop_oneof![
        Just(JoinKind::Inner),
        Just(JoinKind::Semi),
        Just(JoinKind::Anti),
        Just(JoinKind::NullAwareAnti),
    ]
}

fn residual() -> impl Strategy<Value = Residual> {
    prop_oneof![
        Just(Residual::None),
        Just(Residual::Selective),
        Just(Residual::Failing),
    ]
}

fn case() -> impl Strategy<Value = Case> {
    let outer_key = proptest::option::of(-2i64..20);
    (
        (
            proptest::collection::vec(run_len(), 1..8),
            prop_oneof![Just(0usize), 1usize..3, Just(300usize)],
        ),
        (proptest::collection::vec(outer_key, 1..40), 0u8..3),
        (kind(), residual(), 0usize..4000),
        (
            0u8..4,
            0u8..3,
            prop_oneof![Just(1usize), 3usize..8, Just(1024usize)],
        ),
    )
        .prop_map(
            |(
                (runs, nulls),
                (outer, order),
                (kind, residual, fail_at),
                (index, filter, batch_rows),
            )| {
                Case {
                    runs,
                    // `NOT IN` meets a NULL inner key in a third of its cases
                    nulls: if kind == JoinKind::NullAwareAnti && !fail_at.is_multiple_of(3) {
                        0
                    } else {
                        nulls
                    },
                    outer,
                    order,
                    kind,
                    // `NOT IN` reads its inner side lazily; the row engine
                    // reads it whole, so a failing row may be met by one only
                    residual: if kind == JoinKind::NullAwareAnti && residual == Residual::Failing {
                        Residual::Selective
                    } else {
                        residual
                    },
                    fail_at,
                    index: index == 0,
                    filter_outer: filter == 0,
                    batch_rows,
                }
            },
        )
}

fn inner_rows(case: &Case) -> Vec<Row> {
    let total = case.runs.iter().sum::<usize>() + case.nulls;
    let fail = (case.fail_at % total.max(1)) as i64;
    let keys = (case.runs.iter().enumerate())
        .flat_map(|(i, &n)| std::iter::repeat_n(Value::Int(2 * i as i64), n))
        .chain(std::iter::repeat_n(Value::Null, case.nulls));
    keys.enumerate()
        .map(|(id, g)| {
            let id = id as i64;
            let w = i64::from(id != fail);
            Row::new(vec![
                g.clone(),
                Value::Int(id),
                g,
                Value::Int(id % 13),
                Value::Int(w),
            ])
        })
        .collect()
}

fn outer_keys(case: &Case) -> Vec<Option<i64>> {
    let mut keys = case.outer.clone();
    match case.order {
        0 => keys.sort(),
        1 => keys.sort_by(|a, b| b.cmp(a)),
        _ => {}
    }
    keys
}

fn stored(names: &[&str]) -> Schema {
    Schema::new(
        (names.iter())
            .map(|n| SchemaColumn::new(*n, DataType::Int))
            .collect(),
    )
}

fn schema(qualifier: &str, names: &[&str]) -> Schema {
    Schema::new(
        (stored(names).columns().iter())
            .map(|c| c.clone().with_qualifier(qualifier))
            .collect(),
    )
}

fn context(case: &Case) -> ExecContext {
    let storage = Arc::new(StorageEngine::new());
    let mut inner = Table::new("inner", stored(&INNER), vec![0, 1]);
    inner.load(inner_rows(case)).expect("distinct keys");
    inner.create_index("ix_h", vec![2]).expect("fresh index");
    storage.create_table(inner).expect("fresh engine");
    let mut outer = Table::new("outer", stored(&["oid", "k"]), vec![0]);
    for (oid, k) in outer_keys(case).into_iter().enumerate() {
        let k = k.map_or(Value::Null, Value::Int);
        outer
            .insert(Row::new(vec![Value::Int(oid as i64), k]))
            .expect("distinct oids");
    }
    storage.create_table(outer).expect("fresh engine");
    let mut ctx = ExecContext::new(storage, None, Arc::new(SimClock::new()));
    ctx.batch_rows = case.batch_rows;
    ctx
}

fn lit(v: i64) -> BoundExpr {
    BoundExpr::Literal(Value::Int(v))
}

fn outer_plan(case: &Case) -> PhysicalPlan {
    let scan = PhysicalPlan::LocalScan(LocalScanNode {
        object: "outer".into(),
        schema: schema("o", &["oid", "k"]),
        access: AccessPath::FullScan,
        residual: None,
        operand: 0,
        est_rows: 1.0,
    });
    match case.filter_outer {
        false => scan,
        // `oid / 3 * 3 <> oid - 1`: drops every oid one past a multiple of 3
        true => {
            let oid = || BoundExpr::col("o", "oid");
            let thirds = BoundExpr::binary(oid(), BinaryOp::Div, lit(3));
            PhysicalPlan::Filter {
                input: Box::new(scan),
                predicate: BoundExpr::binary(
                    BoundExpr::binary(thirds, BinaryOp::Mul, lit(3)),
                    BinaryOp::NotEq,
                    BoundExpr::binary(oid(), BinaryOp::Sub, lit(1)),
                ),
            }
        }
    }
}

fn plan(case: &Case) -> PhysicalPlan {
    let residual = match case.residual {
        Residual::None => None,
        Residual::Selective => Some(BoundExpr::binary(
            BoundExpr::col("i", "v"),
            BinaryOp::Lt,
            lit(5),
        )),
        Residual::Failing => Some(BoundExpr::binary(
            BoundExpr::binary(lit(10), BinaryOp::Div, BoundExpr::col("i", "w")),
            BinaryOp::Gt,
            lit(1),
        )),
    };
    PhysicalPlan::IndexNLJoin {
        outer: Box::new(outer_plan(case)),
        outer_key: BoundExpr::col("o", "k"),
        inner: InnerAccess {
            object: "inner".into(),
            schema: schema("i", &INNER),
            seek_col: if case.index { "h" } else { "g" }.into(),
            use_index: case.index.then(|| "ix_h".to_string()),
            residual,
            guard: None,
            remote_sql: None,
            operand: 1,
            est_rows_per_probe: 1.0,
            force_remote: false,
        },
        kind: case.kind,
    }
}

/// The join as a nested loop over `inner` (in clustered order): the rows
/// it returns, or `Err` when the residual fails on a row it tests.
fn nested_loop(case: &Case, outer: &[Row], inner: &[Row]) -> Result<Vec<Row>, ()> {
    let passes = |row: &Row| -> Result<bool, ()> {
        let (v, w) = (row.get(3).as_int().ok(), row.get(4).as_int().ok());
        match case.residual {
            Residual::None => Ok(true),
            Residual::Selective => Ok(v < Some(5)),
            Residual::Failing if w == Some(0) => Err(()),
            Residual::Failing => Ok(true),
        }
    };
    let filtered: Vec<&Row> = inner.iter().filter(|r| passes(r) == Ok(true)).collect();
    let inner_null = filtered.iter().any(|r| r.get(0).is_null());
    let mut out = Vec::new();
    for o in outer {
        let key = o.get(1);
        let mut matches = Vec::new();
        if !key.is_null() {
            for row in inner.iter().filter(|r| r.get(0) == key) {
                if passes(row)? {
                    matches.push(row);
                }
            }
        }
        let keep = match case.kind {
            JoinKind::Inner => {
                out.extend(matches.iter().map(|m| o.concat(m)));
                false
            }
            JoinKind::Semi => !matches.is_empty(),
            JoinKind::Anti => matches.is_empty(),
            JoinKind::NullAwareAnti if inner_null => false,
            JoinKind::NullAwareAnti if key.is_null() => filtered.is_empty(),
            JoinKind::NullAwareAnti => matches.is_empty(),
        };
        if keep {
            out.push(o.clone());
        }
    }
    Ok(out)
}

/// The outer rows the join sees, in order.
fn outer_input(case: &Case, ctx: &ExecContext) -> Vec<Row> {
    execute_plan_rows(&outer_plan(case), ctx)
        .expect("outer scan")
        .rows
}

fn rows_of(ctx: &ExecContext, table: &str) -> Vec<Row> {
    ctx.storage
        .table(table)
        .expect("stored")
        .snapshot()
        .collect_all()
}

/// The batched join's rows, the row engine's, and the model's agree; a
/// failing residual fails all three, the two engines with one error.
fn check(case: &Case, ctx: &ExecContext) -> Result<(), TestCaseError> {
    let plan = plan(case);
    let expected = nested_loop(case, &outer_input(case, ctx), &rows_of(ctx, "inner"));
    let batched = execute_plan(&plan, ctx).map(|r| r.rows);
    let walked = execute_plan_rows(&plan, ctx).map(|r| r.rows);
    match (expected, batched, walked) {
        (Ok(expected), Ok(batched), Ok(walked)) => {
            agree(&batched, &expected, case)?;
            agree(&walked, &expected, case)?;
        }
        (Err(()), Err(Error::Execution(a)), Err(Error::Execution(b))) => {
            prop_assert_eq!(&a, &b);
            prop_assert!(a.contains("division by zero"), "{}", a);
        }
        (expected, batched, walked) => prop_assert!(
            false,
            "{:?}: model {:?}, batched {:?}, rows {:?}",
            case,
            expected.map(|r| r.len()),
            batched.map(|r| r.len()),
            walked.map(|r| r.len())
        ),
    }
    Ok(())
}

/// `got` is `expected`, row for row; else the first row that differs.
fn agree(got: &[Row], expected: &[Row], case: &Case) -> Result<(), TestCaseError> {
    let first = (0..got.len().max(expected.len())).find(|&i| got.get(i) != expected.get(i));
    prop_assert!(
        first.is_none(),
        "{:?}: {} rows against {}, first differing at {:?}: {:?} against {:?}",
        case,
        got.len(),
        expected.len(),
        first,
        first.and_then(|i| got.get(i)),
        first.and_then(|i| expected.get(i))
    );
    Ok(())
}

fn image_runs(ctx: &ExecContext) -> u64 {
    ctx.counters.scan_image_runs.load(Ordering::Relaxed)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn index_nl_join_agrees_with_a_nested_loop(case in case()) {
        let ctx = context(&case);
        // chunk images not built yet, then built by the first run
        check(&case, &ctx)?;
        check(&case, &ctx)?;
        // a sorted batch over a clustered inner reads the chunk images
        if case.order == 0 && !case.index && case.kind == JoinKind::Inner {
            let before = image_runs(&ctx);
            execute_plan(&outer_plan(&case), &ctx).expect("outer scan");
            let outer_alone = image_runs(&ctx) - before;
            let before = image_runs(&ctx);
            let joined = execute_plan(&plan(&case), &ctx);
            let runs = image_runs(&ctx) - before - outer_alone;
            let inner = rows_of(&ctx, "inner");
            let probed = (outer_input(&case, &ctx).iter())
                .filter(|o| !o.get(1).is_null() && inner.iter().any(|r| r.get(0) == o.get(1)))
                .count() as u64;
            prop_assert!(joined.is_err() || (runs > 0) == (probed > 0), "{} image runs, {} probes", runs, probed);
        }
    }

    /// Rows written to the inner after the join opened are not seen: every
    /// probe reads the snapshot pinned at open.
    #[test]
    fn an_inner_written_after_open_is_not_seen(case in case(), keys in proptest::collection::vec(-2i64..20, 1..6)) {
        let ctx = context(&case);
        let expected = nested_loop(&case, &outer_input(&case, &ctx), &rows_of(&ctx, "inner"));
        let plan = plan(&case);
        let executable = Executable::prepare(&plan, &ctx.storage, &[]).expect("prepare");
        let mut op = executable.operator();
        op.open(&ctx).expect("open");
        let next_id = rows_of(&ctx, "inner").len() as i64;
        let table = ctx.storage.table("inner").expect("stored");
        table
            .update(|t| {
                for (i, &k) in keys.iter().enumerate() {
                    let id = next_id + i as i64;
                    t.insert(Row::new(vec![
                        Value::Int(k),
                        Value::Int(id),
                        Value::Int(k),
                        Value::Int(0),
                        Value::Int(1),
                    ]))?;
                    // and drop a run's first row
                    let first = t.iter().find(|r| r.get(0) == &Value::Int(k)).map(|r| t.key_of(r));
                    if let Some(key) = first {
                        t.delete(&key);
                    }
                }
                Ok(())
            })
            .expect("write");
        let mut rows = Vec::new();
        let drained = loop {
            match op.next_batch(&ctx) {
                Ok(Some(batch)) => rows.extend(batch.to_rows()),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        op.close(&ctx).expect("close");
        match (expected, drained) {
            (Ok(expected), Ok(())) => agree(&rows, &expected, &case)?,
            (Err(()), Err(_)) => {}
            (expected, drained) => prop_assert!(
                false,
                "{:?}: model {:?}, join {:?}",
                case,
                expected.map(|r| r.len()),
                drained
            ),
        }
        // and the written state is what a new execution sees
        check(&case, &ctx)?;
    }
}
