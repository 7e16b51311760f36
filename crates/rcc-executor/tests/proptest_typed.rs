//! Differential properties of the typed-column engine: a column is its
//! values, a column-at-a-time expression is the row-at-a-time one, the
//! typed aggregate is the row reference engine's, and the batch encoder is
//! the row encoder. `PROPTEST_CASES` raises the case count (CI does).

use proptest::prelude::*;
use rcc_common::{Column as SchemaColumn, DataType, Row, Schema, SimClock, Value};
use rcc_executor::rowref::execute_plan_rows;
use rcc_executor::{
    execute_plan, wire, Batch, Column, ColumnData, ExecContext, ExecutionResult, PhysExpr,
};
use rcc_optimizer::physical::{AccessPath, LocalScanNode};
use rcc_optimizer::{AggCall, AggFunc, BoundExpr, PhysicalPlan};
use rcc_sql::{BinaryOp, UnaryOp};
use rcc_storage::{KeyRange, StorageEngine, Table};
use std::sync::Arc;

/// Large enough that two of them overflow an `i64` sum or product.
const BIG: i64 = 1 << 62;

/// Same variant, same payload bits — stricter than `Value`'s `==`, which
/// calls `Int(1)` and `Float(1.0)` equal.
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) | (Value::Timestamp(x), Value::Timestamp(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

fn all_identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| identical(x, y))
}

fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-3i64..4).prop_map(Value::Int),
        (-3i64..4).prop_map(Value::Int),
        Just(Value::Int(BIG)),
        (-3i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
        prop_oneof![Just(f64::NAN), Just(-0.0), Just(f64::INFINITY)].prop_map(Value::Float),
        "[ab\0é日]{0,2}".prop_map(Value::Str),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
        (-3i64..4).prop_map(Value::Timestamp),
    ]
}

/// Squeeze an arbitrary value into one type (NULL stays NULL): `kind` 0–4
/// are Int, Float, Str, Bool, Timestamp; anything above leaves the mix.
fn coerce(kind: u8, v: Value) -> Value {
    let n = match &v {
        Value::Null => return Value::Null,
        Value::Int(i) | Value::Timestamp(i) => *i % 5,
        Value::Float(f) if f.is_finite() => *f as i64,
        Value::Float(_) => 4,
        Value::Str(s) => s.len() as i64,
        Value::Bool(b) => *b as i64,
    };
    match (kind, v) {
        (0, Value::Int(i)) => Value::Int(i),
        (0, _) => Value::Int(n),
        (1, Value::Float(f)) => Value::Float(f),
        (1, _) => Value::Float(n as f64 / 2.0),
        (2, Value::Str(s)) => Value::Str(s),
        (2, _) => Value::Str("ab".repeat(n.unsigned_abs() as usize % 3)),
        (3, _) => Value::Bool(n % 2 == 0),
        (4, _) => Value::Timestamp(n),
        (_, v) => v,
    }
}

/// The cells of one column: of one type with NULLs among them, or a mix.
fn any_cells(len: usize) -> impl Strategy<Value = Vec<Value>> {
    (0u8..7, proptest::collection::vec(any_value(), len..=len))
        .prop_map(|(kind, cells)| cells.into_iter().map(|v| coerce(kind, v)).collect())
}

/// A three-column batch of up to 8 rows, dense or under a selection.
fn any_batch() -> impl Strategy<Value = Batch> {
    (
        any_cells(8),
        any_cells(8),
        any_cells(8),
        // 0 to 8 rows, an empty batch one time in 34
        (0usize..34).prop_map(|r| r.div_ceil(4).min(8)),
        proptest::option::of(proptest::collection::vec(0u8..3, 8..=8)),
    )
        .prop_map(|(a, b, c, rows, mask)| {
            let cut = |mut cells: Vec<Value>| {
                cells.truncate(rows);
                cells
            };
            let batch = Batch::new(vec![cut(a), cut(b), cut(c)], rows);
            match mask {
                Some(mask) => {
                    let sel = (0..rows as u32).filter(|&i| mask[i as usize] > 0).collect();
                    batch.with_sel(sel)
                }
                None => batch,
            }
        })
}

/// Build an expression over three columns, `depth` operators deep at most,
/// from a tape of choices.
fn expr_from(tape: &mut std::slice::Iter<'_, u8>, depth: u32) -> PhysExpr {
    let literals = [
        Value::Null,
        Value::Int(0),
        Value::Int(1),
        Value::Int(2),
        Value::Int(-1),
        Value::Int(BIG),
        Value::Float(0.5),
        Value::Float(1.0),
        Value::Float(0.0),
        Value::Float(f64::NAN),
        Value::from("a"),
        Value::from(""),
        Value::Bool(true),
        Value::Bool(false),
        Value::Timestamp(1),
    ];
    let mut next = || *tape.next().unwrap_or(&0) as usize;
    let choice = next();
    let leaf = |pick: usize| match pick % 6 {
        0..=2 => PhysExpr::Col(pick % 3),
        3 | 4 => PhysExpr::Lit(literals[pick / 6 % literals.len()].clone()),
        _ => PhysExpr::GetDate,
    };
    if depth == 0 {
        return leaf(choice);
    }
    let sub = |tape: &mut std::slice::Iter<'_, u8>| Box::new(expr_from(tape, depth - 1));
    let comparisons = [
        BinaryOp::Eq,
        BinaryOp::NotEq,
        BinaryOp::Lt,
        BinaryOp::LtEq,
        BinaryOp::Gt,
        BinaryOp::GtEq,
    ];
    let arithmetic = [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div];
    let pick = next();
    let items: Vec<usize> = (0..pick % 4).map(|_| next()).collect();
    match choice % 10 {
        0 | 1 => leaf(pick),
        2 | 3 => PhysExpr::Binary {
            left: sub(tape),
            op: comparisons[pick % 6],
            right: sub(tape),
        },
        4 => PhysExpr::Binary {
            left: sub(tape),
            op: [BinaryOp::And, BinaryOp::Or][pick % 2],
            right: sub(tape),
        },
        5 => PhysExpr::Binary {
            left: sub(tape),
            op: arithmetic[pick % 4],
            right: sub(tape),
        },
        6 => PhysExpr::Unary {
            op: [UnaryOp::Not, UnaryOp::Neg][pick % 2],
            expr: sub(tape),
        },
        7 => PhysExpr::Between {
            expr: sub(tape),
            low: sub(tape),
            high: sub(tape),
            negated: pick % 2 == 1,
        },
        8 => PhysExpr::InList {
            expr: sub(tape),
            // mostly literal lists (the shape the binder produces), now
            // and then an item that has to be evaluated
            list: items
                .iter()
                .map(|item| match item % 8 {
                    0 => *sub(tape),
                    _ => PhysExpr::Lit(literals[item / 8 % literals.len()].clone()),
                })
                .collect(),
            negated: pick % 2 == 1,
        },
        _ => PhysExpr::IsNull {
            expr: sub(tape),
            negated: pick % 2 == 1,
        },
    }
}

/// Shallow trees mostly (deep ones mostly fail on some row, which checks
/// only that both forms fail), deep ones now and then.
fn any_expr() -> impl Strategy<Value = PhysExpr> {
    (
        prop_oneof![Just(1u32), Just(1), Just(2), Just(2), Just(3)],
        proptest::collection::vec(0u8..=255, 40..=40),
    )
        .prop_map(|(depth, tape)| expr_from(&mut tape.iter(), depth))
}

const NOW: i64 = 5;

/// `at_least` cases — a case here costs microseconds, and the rarer
/// shapes need thousands to come up — or what `PROPTEST_CASES` asks for.
fn cases(at_least: u32) -> ProptestConfig {
    let config = ProptestConfig::default();
    ProptestConfig {
        cases: config.cases.max(at_least),
        ..config
    }
}

proptest! {
    #![proptest_config(cases(4096))]

    /// `Column` ↔ `Vec<Value>`: NULLs, empties, embedded NULs, type tags
    /// and float bits survive; one type stays typed, a mixture is boxed.
    #[test]
    fn column_round_trips_its_values(cells in any_cells(8), keep in 0usize..9) {
        let cells = &cells[..keep];
        let col = Column::from_values(cells.to_vec());
        prop_assert_eq!(col.len(), cells.len());
        prop_assert!(all_identical(&col.to_values(), cells), "{:?} became {:?}", cells, col);
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(col.is_null(i), cell.is_null());
            prop_assert!(identical(&col.value(i), cell));
        }
        let mut types: Vec<u8> = cells.iter().filter_map(Value::data_type).map(|t| t as u8).collect();
        types.sort_unstable();
        types.dedup();
        prop_assert_eq!(matches!(col.data(), ColumnData::Any(_)), types.len() > 1, "{:?}", col);
        // rows out of a batch are the same cells again
        let batch = Batch::new(vec![cells.to_vec()], cells.len());
        let rows: Vec<Value> = batch.into_rows().into_iter().map(|r| r.get(0).clone()).collect();
        prop_assert!(all_identical(&rows, cells));
    }

    /// `eval_column` and `select` are `eval` on each logical row: the same
    /// cells, the same survivors, and an error exactly when a row fails.
    #[test]
    fn column_evaluation_is_row_evaluation(batch in any_batch(), expr in any_expr()) {
        let by_row: Vec<_> = batch
            .to_rows()
            .iter()
            .map(|row| expr.eval(row.values(), NOW))
            .collect();
        let column = expr.eval_column(&batch, NOW);
        let selected = expr.select(&batch, NOW);
        if by_row.iter().any(|r| r.is_err()) {
            prop_assert!(column.is_err(), "{:?} on {:?}: rows fail, the column gave {:?}", expr, batch, column);
            prop_assert!(selected.is_err());
            return Ok(());
        }
        let by_row: Vec<Value> = by_row.into_iter().map(|r| r.expect("checked")).collect();
        let column = match column {
            Ok(c) => c.to_values(),
            Err(e) => return Err(TestCaseError::fail(format!("{expr:?} on {batch:?}: rows give {by_row:?}, the column fails with {e}"))),
        };
        prop_assert!(all_identical(&column, &by_row), "{:?} on {:?}: rows give {:?}, the column {:?}", expr, batch, by_row, column);
        let want: Vec<u32> = (0..batch.len())
            .filter(|&k| matches!(by_row[k], Value::Bool(true)))
            .map(|k| batch.phys(k) as u32)
            .collect();
        prop_assert_eq!(selected.expect("no row fails"), want);
        // the by-reference predicate form agrees with `eval` too
        for (row, v) in batch.to_rows().iter().zip(&by_row) {
            let truth = expr.truth(row.values(), NOW).expect("no row fails");
            prop_assert_eq!(truth, match v { Value::Bool(b) => Some(*b), _ => None });
        }
    }

    /// `encode_batches` writes what `encode_result` writes for the same
    /// rows — for every column variant, through selection vectors, over
    /// several batches and over zero-width ones — and `decode_result` reads
    /// the rows back.
    #[test]
    fn batch_encoding_is_row_encoding(result in any_result()) {
        let (schema, batches) = result;
        let rows: Vec<Row> = batches.iter().flat_map(Batch::to_rows).collect();
        let encoded = wire::encode_batches(&schema, &batches);
        prop_assert_eq!(&encoded, &wire::encode_result(&schema, &rows));
        let (decoded_schema, decoded) = wire::decode_result(encoded).expect("well-formed");
        prop_assert_eq!(decoded_schema.len(), schema.len());
        prop_assert_eq!(decoded.len(), rows.len());
        for (a, b) in decoded.iter().zip(&rows) {
            prop_assert!(all_identical(a.values(), b.values()), "{:?} came back as {:?}", b, a);
        }
    }
}

/// One result's schema and batches: up to four three-column batches, or up
/// to three zero-width ones (`SELECT` without `FROM`), some of them empty.
fn any_result() -> impl Strategy<Value = (Schema, Vec<Batch>)> {
    let three = Schema::new(vec![
        SchemaColumn::new("a", DataType::Int),
        SchemaColumn::new("b", DataType::Str),
        SchemaColumn::new("c", DataType::Float),
    ]);
    (
        0u8..5,
        proptest::collection::vec(any_batch(), 0..5),
        proptest::collection::vec(0usize..4, 0..4),
    )
        .prop_map(move |(pick, batches, zero_width)| match pick {
            0 => (
                Schema::empty(),
                zero_width
                    .into_iter()
                    .map(|n| Batch::from_columns(vec![], n))
                    .collect(),
            ),
            _ => (three.clone(), batches),
        })
}

// ----------------------------------------------------- typed comparisons

/// Where `f64` ordering has edges: signed zeros, NaN, the infinities, and
/// integers past 2⁵³, which `f64` cannot tell from their neighbours.
fn edge_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1.5),
        Just(9_007_199_254_740_992.0),
    ]
}

fn edge_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(-1),
        Just(1 << 53),
        Just((1 << 53) + 1),
        Just(-(1 << 53) - 1),
        Just(i64::MAX),
        Just(i64::MIN),
    ]
}

fn edge_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        edge_float().prop_map(Value::Float),
        edge_int().prop_map(Value::Int)
    ]
}

/// One typed column of edge values — all `Float` or all `Int` — with NULLs
/// among them.
fn edge_cells() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        proptest::collection::vec(proptest::option::of(edge_float()), 1..9).prop_map(|cells| cells
            .into_iter()
            .map(|c| c.map_or(Value::Null, Value::Float))
            .collect()),
        proptest::collection::vec(proptest::option::of(edge_int()), 1..9).prop_map(|cells| cells
            .into_iter()
            .map(|c| c.map_or(Value::Null, Value::Int))
            .collect()),
    ]
}

/// A literal bound: an edge value, or now and then NULL.
fn edge_bound() -> impl Strategy<Value = Value> {
    prop_oneof![edge_value(), edge_value(), edge_value(), Just(Value::Null)]
}

proptest! {
    #![proptest_config(cases(4096))]

    /// The typed comparison, BETWEEN and NOT BETWEEN loops order as `eval`
    /// does — by `f64::total_cmp` — on edge values (NaN, ±0.0, integers
    /// past 2⁵³) against `Int`, `Float` and NULL literal bounds, with NULL
    /// cells, over a selection vector and over a resumed chunk's rows: the
    /// same survivors and the same cells.
    #[test]
    fn typed_comparisons_order_as_rows_do(
        cells in edge_cells(),
        lo in edge_bound(),
        hi in edge_bound(),
        op in 0usize..6,
        mask in proptest::option::of(proptest::collection::vec(0u8..2, 8..=8)),
        from in 0usize..8,
    ) {
        let n = cells.len();
        let dense = Batch::new(vec![cells], n);
        let batch = match mask {
            Some(mask) => dense.clone().with_sel((0..n as u32).filter(|&i| mask[i as usize] == 1).collect()),
            None => dense.clone(),
        };
        let comparisons = [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq];
        let (col, lo_lit, hi_lit) = (|| Box::new(PhysExpr::Col(0)), Box::new(PhysExpr::Lit(lo)), Box::new(PhysExpr::Lit(hi)));
        let between = |expr, low, high, negated| PhysExpr::Between { expr, low, high, negated };
        let exprs = [
            PhysExpr::Binary { left: col(), op: comparisons[op], right: lo_lit.clone() },
            PhysExpr::Binary { left: lo_lit.clone(), op: comparisons[op], right: col() },
            between(col(), lo_lit.clone(), hi_lit.clone(), false),
            between(col(), lo_lit.clone(), hi_lit.clone(), true),
            // the column as a bound
            between(lo_lit, col(), hi_lit, op % 2 == 1),
        ];
        let rows = batch.to_rows();
        let dense_rows = dense.to_rows();
        // a chunk resumed at physical row `from`
        let resumed: Vec<u32> = (from.min(n) as u32..n as u32).collect();
        for expr in &exprs {
            let by_row: Vec<Value> = rows.iter().map(|r| expr.eval(r.values(), NOW).expect("numbers compare")).collect();
            let want: Vec<u32> = (0..batch.len())
                .filter(|&k| matches!(by_row[k], Value::Bool(true)))
                .map(|k| batch.phys(k) as u32)
                .collect();
            prop_assert_eq!(expr.select(&batch, NOW).expect("numbers compare"), want, "{:?} on {:?}", expr, batch);
            let column = expr.eval_column(&batch, NOW).expect("numbers compare").to_values();
            prop_assert!(all_identical(&column, &by_row), "{:?} on {:?}: {:?} vs {:?}", expr, batch, column, by_row);
            let want: Vec<u32> = resumed
                .iter()
                .copied()
                .filter(|&p| matches!(expr.eval(dense_rows[p as usize].values(), NOW), Ok(Value::Bool(true))))
                .collect();
            let got = expr.select_rows(&[&dense.columns[0]], Some(&resumed), resumed.len(), NOW);
            prop_assert_eq!(got.expect("numbers compare"), want, "{:?} on {:?} from row {}", expr, dense, from);
        }
    }
}

// ------------------------------------------------------------ aggregation

/// A context over one table `t(k INT PRIMARY KEY, g, v)` holding `rows`.
fn ctx_with(rows: &[(Value, Value)], batch_rows: usize) -> ExecContext {
    let storage = Arc::new(StorageEngine::new());
    let schema = Schema::new(vec![
        SchemaColumn::new("k", DataType::Int),
        SchemaColumn::new("g", DataType::Int),
        SchemaColumn::new("v", DataType::Float),
    ]);
    let mut table = Table::new("t", schema, vec![0]);
    for (k, (g, v)) in rows.iter().enumerate() {
        let row = Row::new(vec![Value::Int(k as i64), g.clone(), v.clone()]);
        table.insert(row).expect("distinct keys");
    }
    storage.create_table(table).expect("fresh engine");
    let mut ctx = ExecContext::new(storage, None, Arc::new(SimClock::new()));
    ctx.batch_rows = batch_rows;
    ctx
}

fn scan_from(first_key: i64) -> PhysicalPlan {
    PhysicalPlan::LocalScan(LocalScanNode {
        object: "t".into(),
        schema: Schema::new(vec![
            SchemaColumn::new("g", DataType::Int).with_qualifier("t"),
            SchemaColumn::new("k", DataType::Int).with_qualifier("t"),
            SchemaColumn::new("v", DataType::Float).with_qualifier("t"),
        ]),
        access: AccessPath::ClusteredRange {
            column: "k".into(),
            range: KeyRange::at_least(Value::Int(first_key)).into(),
        },
        residual: None,
        operand: 0,
        est_rows: 8.0,
    })
}

/// Both engines' answers: equal schemas and identical rows, or both fail.
fn engines_agree(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
) -> Result<Option<ExecutionResult>, String> {
    match (execute_plan(plan, ctx), execute_plan_rows(plan, ctx)) {
        (Err(_), Err(_)) => Ok(None),
        (Ok(typed), Ok(rows)) => {
            let same = typed.schema == rows.schema
                && typed.rows.len() == rows.rows.len()
                && (typed.rows.iter().zip(&rows.rows))
                    .all(|(a, b)| all_identical(a.values(), b.values()));
            match same {
                true => Ok(Some(typed)),
                false => Err(format!(
                    "typed {:?} {:?}\nrows  {:?} {:?}",
                    typed.schema, typed.rows, rows.schema, rows.rows
                )),
            }
        }
        (typed, rows) => Err(format!("typed {typed:?}\nrows  {rows:?}")),
    }
}

/// Group keys for the integer window: mostly `Int`s of a small domain
/// (nation keys), some the same values as `Float`s or `Timestamp`s, NULLs,
/// and keys the window must grow to or refuse — 4 096 either side of the
/// domain, negative ones, and ±2⁵³.
fn window_keys() -> impl Strategy<Value = Vec<Value>> {
    let far = [
        4095i64,
        4096,
        4120,
        -4071,
        -4072,
        -4096,
        -3,
        1 << 53,
        (1 << 53) - 1,
        -(1 << 53),
        1 - (1 << 53),
    ];
    let key = (0u8..18, 0i64..25, 0..far.len()).prop_map(move |(pick, k, i)| match pick {
        0..=11 => Value::Int(k),
        12 => Value::Float(k as f64),
        13 => Value::Timestamp(k),
        14 => Value::Null,
        _ => Value::Int(far[i]),
    });
    proptest::collection::vec(key, 8..=8)
}

proptest! {
    #![proptest_config(cases(1024))]

    /// The typed hash aggregate is the row engine's: NULL and mixed-type
    /// group keys, integer keys the group-id window takes, grows for,
    /// refuses or meets mixed with floats, Int and Float `SUM` in one
    /// column, `MIN`/`MAX` over strings, a global aggregate over no rows,
    /// HAVING — across batches.
    #[test]
    fn typed_aggregate_is_the_row_aggregate(
        groups in prop_oneof![any_cells(8), window_keys()],
        values in any_cells(8),
        rows in 0usize..9,
        first_key in 0i64..10,
        shape in 0u8..8,
        batch_rows in 1usize..5,
    ) {
        let data: Vec<(Value, Value)> = groups.into_iter().zip(values).take(rows).collect();
        let ctx = ctx_with(&data, batch_rows);
        let v = || Some(BoundExpr::col("t", "v"));
        let call = |func, arg, name: &str| AggCall { func, arg, output_name: name.into() };
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(scan_from(first_key)),
            group_by: match shape % 4 {
                0 => vec![],
                1 | 2 => vec![(BoundExpr::col("t", "g"), "g".into())],
                _ => vec![
                    (BoundExpr::col("t", "g"), "g".into()),
                    (BoundExpr::IsNull { expr: Box::new(BoundExpr::col("t", "v")), negated: false }, "v_null".into()),
                ],
            },
            aggs: vec![
                call(AggFunc::Count, None, "n"),
                call(AggFunc::Count, v(), "n_v"),
                call(AggFunc::Min, v(), "lo"),
                call(AggFunc::Max, v(), "hi"),
                // SUM / AVG reject strings, booleans and timestamps: then
                // both engines must fail
                call(AggFunc::Sum, v(), "total"),
                call(AggFunc::Avg, v(), "mean"),
            ],
            having: (shape >= 4).then(|| BoundExpr::binary(
                BoundExpr::col("#agg", "n"),
                BinaryOp::GtEq,
                BoundExpr::Literal(Value::Int(2)),
            )),
        };
        if let Err(diff) = engines_agree(&plan, &ctx) {
            return Err(TestCaseError::fail(format!("{data:?} from key {first_key}, shape {shape}:\n{diff}")));
        }
        // without SUM / AVG nothing can fail, whatever `v` holds
        let PhysicalPlan::HashAggregate { input, group_by, mut aggs, having } = plan else { unreachable!() };
        aggs.truncate(4);
        let plan = PhysicalPlan::HashAggregate { input, group_by, aggs, having };
        match engines_agree(&plan, &ctx) {
            Ok(Some(_)) => {}
            Ok(None) => return Err(TestCaseError::fail(format!("{data:?}: COUNT / MIN / MAX failed"))),
            Err(diff) => return Err(TestCaseError::fail(format!("{data:?} from key {first_key}, shape {shape}:\n{diff}"))),
        }
    }
}

#[test]
fn a_guarded_division_by_zero_does_not_raise() {
    let batch = Batch::new(vec![vec![Value::Int(0), Value::Int(2), Value::Null]], 3);
    let division = PhysExpr::Binary {
        left: Box::new(PhysExpr::Lit(Value::Int(1))),
        op: BinaryOp::Div,
        right: Box::new(PhysExpr::Col(0)),
    };
    assert!(division.eval_column(&batch, NOW).is_err());
    let guarded = PhysExpr::Binary {
        left: Box::new(PhysExpr::Binary {
            left: Box::new(PhysExpr::Col(0)),
            op: BinaryOp::NotEq,
            right: Box::new(PhysExpr::Lit(Value::Int(0))),
        }),
        op: BinaryOp::And,
        right: Box::new(PhysExpr::Binary {
            left: Box::new(division),
            op: BinaryOp::Lt,
            right: Box::new(PhysExpr::Lit(Value::Int(1))),
        }),
    };
    // 0 <> 0 is false: 1/0 is never evaluated; NULL <> 0 is unknown, so
    // 1/NULL is, and is NULL
    let cells = guarded
        .eval_column(&batch, NOW)
        .expect("guarded")
        .to_values();
    assert!(all_identical(
        &cells,
        &[Value::Bool(false), Value::Bool(true), Value::Null]
    ));
    assert_eq!(guarded.select(&batch, NOW).expect("guarded"), vec![1]);
    // `false AND 1/0` as constants, over a batch with rows and one without
    let constant = PhysExpr::Binary {
        left: Box::new(PhysExpr::Lit(Value::Bool(false))),
        op: BinaryOp::And,
        right: Box::new(PhysExpr::Binary {
            left: Box::new(PhysExpr::Lit(Value::Int(1))),
            op: BinaryOp::Div,
            right: Box::new(PhysExpr::Lit(Value::Int(0))),
        }),
    };
    assert!(constant
        .select(&batch, NOW)
        .expect("short circuit")
        .is_empty());
    let PhysExpr::Binary {
        right: unguarded, ..
    } = &constant
    else {
        unreachable!()
    };
    assert!(unguarded.eval_column(&batch, NOW).is_err());
    assert!(unguarded
        .eval_column(&Batch::empty(1), NOW)
        .expect("no row")
        .is_empty());
}
