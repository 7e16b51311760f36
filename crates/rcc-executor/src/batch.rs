//! Columnar batches and ordinal-compiled expressions.
//!
//! The batched engine moves data through the operator tree as [`Batch`]es:
//! one typed [`Column`] per output column, a physical row count, and an
//! optional **selection vector** so filters can narrow a batch without
//! copying survivors row-by-row. Expressions are compiled once per plan
//! into [`PhysExpr`] — a mirror of [`rcc_optimizer::BoundExpr`] whose column
//! references are pre-resolved to ordinals. A `PhysExpr` is evaluated two
//! ways: a row at a time over `&[Value]` ([`PhysExpr::eval`] and its
//! by-reference predicate form [`PhysExpr::truth`] — what scans test the
//! stored rows of partial chunks with, and the reference semantics), and a
//! column at a time over a batch or a chunk image ([`PhysExpr::select`] /
//! [`PhysExpr::select_rows`] / [`PhysExpr::eval_column`] in
//! [`crate::kernels`]), which is held to the row form cell for cell.

use rcc_common::{Error, Result, Row, Schema, Value};
use rcc_optimizer::expr::slot_value;
use rcc_optimizer::BoundExpr;
use rcc_sql::{BinaryOp, UnaryOp};
use rcc_storage::column::Column;
use std::borrow::Cow;
use std::cmp::Ordering;

/// Target logical rows per batch: big enough that per-batch overhead
/// (virtual dispatch, guard bookkeeping, metering) is amortized to noise,
/// small enough that a batch's columns stay cache-resident.
pub const DEFAULT_BATCH_ROWS: usize = 2048;

/// A columnar batch of rows.
///
/// `columns[c]` holds column `c` of every **physical** row `r < rows`.
/// When `sel` is `Some`, only the physical rows it lists (in ascending
/// order) are logically present — filters narrow a batch by refining `sel`
/// instead of copying survivors.
#[derive(Debug, Clone)]
pub struct Batch {
    /// One typed vector per output column, each of length `rows`.
    pub columns: Vec<Column>,
    /// Physical row count. Kept explicitly so zero-column batches (`SELECT`
    /// without a `FROM`) still carry a cardinality.
    pub rows: usize,
    /// Selection vector: ascending physical row indices that are logically
    /// present. `None` means all `rows` rows are present (a *dense* batch).
    pub sel: Option<Vec<u32>>,
}

impl Batch {
    /// A dense batch from per-column value buffers (all of length `rows`);
    /// each becomes a typed column, its variant decided by its values.
    pub fn new(columns: Vec<Vec<Value>>, rows: usize) -> Batch {
        Batch::from_columns(columns.into_iter().map(Column::from_values).collect(), rows)
    }

    /// A dense batch from typed columns (all of length `rows`).
    pub fn from_columns(columns: Vec<Column>, rows: usize) -> Batch {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Batch {
            columns,
            rows,
            sel: None,
        }
    }

    /// An empty batch of `width` columns.
    pub fn empty(width: usize) -> Batch {
        Batch::from_columns(vec![Column::new(); width], 0)
    }

    /// Transpose row-major rows into a dense batch of `width` columns.
    pub fn from_rows(width: usize, rows: Vec<Row>) -> Batch {
        let n = rows.len();
        // one `with_capacity` each: a cloned column keeps none of its room
        let mut columns: Vec<Column> = (0..width).map(|_| Column::with_capacity(n)).collect();
        for row in &rows {
            for (c, col) in columns.iter_mut().enumerate() {
                col.push_value(row.values().get(c).unwrap_or(&Value::Null));
            }
        }
        Batch::from_columns(columns, n)
    }

    /// Logical row count (`sel` length when selected, else `rows`).
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// True when no logical rows are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column count.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Physical row index of logical row `i`.
    pub fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// Replace the selection vector (indices are **physical** rows).
    pub fn with_sel(mut self, sel: Vec<u32>) -> Batch {
        self.sel = Some(sel);
        self
    }

    /// Narrow to the physical rows `keep` lists (ascending, a subset of the
    /// logical rows): `None` when none is left, the batch untouched when
    /// all are.
    pub fn narrowed(self, keep: Vec<u32>) -> Option<Batch> {
        if keep.is_empty() {
            None
        } else if keep.len() == self.len() {
            Some(self)
        } else {
            Some(self.with_sel(keep))
        }
    }

    /// Keep only the first `k` logical rows (LIMIT). Selected batches
    /// truncate the selection vector; dense batches truncate every column.
    pub fn truncate(&mut self, k: usize) {
        match &mut self.sel {
            Some(sel) => sel.truncate(k),
            None => {
                let k = k.min(self.rows);
                for col in &mut self.columns {
                    col.truncate(k);
                }
                self.rows = k;
            }
        }
    }

    /// Clone logical row `i` out as a [`Row`].
    pub fn row(&self, i: usize) -> Row {
        let p = self.phys(i);
        Row::new(self.columns.iter().map(|c| c.value(p)).collect())
    }

    /// Materialize all logical rows, cloning.
    pub fn to_rows(&self) -> Vec<Row> {
        self.clone().into_rows()
    }

    /// Materialize all logical rows, a column at a time; boxed cells of
    /// dense batches (the common case at the query root) are moved out.
    pub fn into_rows(self) -> Vec<Row> {
        let width = self.columns.len();
        let mut out: Vec<Vec<Value>> = (0..self.len()).map(|_| Vec::with_capacity(width)).collect();
        for col in self.columns {
            col.scatter_into(self.sel.as_deref(), &mut out);
        }
        out.into_iter().map(Row::new).collect()
    }
}

/// A [`BoundExpr`] with every column reference resolved to an ordinal.
///
/// Compiled once per plan, when it is prepared for execution
/// ([`crate::Executable`]); an execution binds its slot values into it
/// ([`PhysExpr::bind`]). Evaluation mirrors `BoundExpr::eval` exactly
/// (three-valued logic, NULL propagation, checked integer arithmetic,
/// timestamp arithmetic) minus the per-row `Schema::resolve` string
/// comparisons.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    /// Column reference by output ordinal.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// A statement slot: a constant that holds `value` until an execution
    /// binds its own ([`PhysExpr::bind`]).
    Slot {
        /// Slot number: index into the execution's value vector.
        index: u32,
        /// The value the plan was compiled for.
        value: Value,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<PhysExpr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<PhysExpr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<PhysExpr>,
    },
    /// `e BETWEEN low AND high`.
    Between {
        /// The operand.
        expr: Box<PhysExpr>,
        /// Lower bound (inclusive).
        low: Box<PhysExpr>,
        /// Upper bound (inclusive).
        high: Box<PhysExpr>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `e IN (list)`.
    InList {
        /// The operand.
        expr: Box<PhysExpr>,
        /// The literal list.
        list: Vec<PhysExpr>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `e IS NULL`.
    IsNull {
        /// The operand.
        expr: Box<PhysExpr>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `GETDATE()`.
    GetDate,
}

impl PhysExpr {
    /// Compile `expr`, resolving column references against `schema`.
    pub fn compile(expr: &BoundExpr, schema: &Schema) -> Result<PhysExpr> {
        Ok(match expr {
            BoundExpr::Column { qualifier, name } => {
                PhysExpr::Col(schema.resolve(Some(qualifier), name)?)
            }
            BoundExpr::Literal(v) => PhysExpr::Lit(v.clone()),
            BoundExpr::Slot { index, value } => PhysExpr::Slot {
                index: *index,
                value: value.clone(),
            },
            BoundExpr::GetDate => PhysExpr::GetDate,
            BoundExpr::Binary { left, op, right } => PhysExpr::Binary {
                left: Box::new(PhysExpr::compile(left, schema)?),
                op: *op,
                right: Box::new(PhysExpr::compile(right, schema)?),
            },
            BoundExpr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(PhysExpr::compile(expr, schema)?),
            },
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => PhysExpr::Between {
                expr: Box::new(PhysExpr::compile(expr, schema)?),
                low: Box::new(PhysExpr::compile(low, schema)?),
                high: Box::new(PhysExpr::compile(high, schema)?),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => PhysExpr::InList {
                expr: Box::new(PhysExpr::compile(expr, schema)?),
                list: list
                    .iter()
                    .map(|e| PhysExpr::compile(e, schema))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            BoundExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(PhysExpr::compile(expr, schema)?),
                negated: *negated,
            },
        })
    }

    /// Compile a list of expressions against one schema.
    pub fn compile_all(exprs: &[BoundExpr], schema: &Schema) -> Result<Vec<PhysExpr>> {
        exprs.iter().map(|e| PhysExpr::compile(e, schema)).collect()
    }

    /// Rewrite every ordinal through `mapping` (`Col(i)` → `Col(mapping[i])`).
    ///
    /// Scans compile the residual against their *output* schema, then remap
    /// it into *stored* ordinals so the predicate runs directly against
    /// stored rows — rejected rows are never projected or copied.
    pub fn remap(&self, mapping: &[usize]) -> PhysExpr {
        self.map_leaves(&|leaf| match leaf {
            PhysExpr::Col(i) => Some(PhysExpr::Col(mapping[*i])),
            _ => None,
        })
    }

    /// The expression as an execution with value vector `slots` evaluates
    /// it: every slot holding its value there, resolved by
    /// [`slot_value`] as `BoundExpr::with_slots` resolves it. Borrowed when
    /// the expression holds no slot or no values are given.
    pub fn bind(&self, slots: &[Value]) -> Cow<'_, PhysExpr> {
        if slots.is_empty() || !self.holds_slot() {
            return Cow::Borrowed(self);
        }
        Cow::Owned(self.map_leaves(&|leaf| match leaf {
            PhysExpr::Slot { index, value } => Some(PhysExpr::Slot {
                index: *index,
                value: slot_value(slots, *index, value).clone(),
            }),
            _ => None,
        }))
    }

    fn holds_slot(&self) -> bool {
        self.any_leaf(&|leaf| matches!(leaf, PhysExpr::Slot { .. }))
    }

    /// A copy in which every leaf `f` maps is replaced by its image.
    fn map_leaves(&self, f: &impl Fn(&PhysExpr) -> Option<PhysExpr>) -> PhysExpr {
        let sub = |e: &PhysExpr| Box::new(e.map_leaves(f));
        match self {
            PhysExpr::Col(_) | PhysExpr::Lit(_) | PhysExpr::Slot { .. } | PhysExpr::GetDate => {
                f(self).unwrap_or_else(|| self.clone())
            }
            PhysExpr::Binary { left, op, right } => PhysExpr::Binary {
                left: sub(left),
                op: *op,
                right: sub(right),
            },
            PhysExpr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: sub(expr),
            },
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => PhysExpr::Between {
                expr: sub(expr),
                low: sub(low),
                high: sub(high),
                negated: *negated,
            },
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => PhysExpr::InList {
                expr: sub(expr),
                list: list.iter().map(|e| e.map_leaves(f)).collect(),
                negated: *negated,
            },
            PhysExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: sub(expr),
                negated: *negated,
            },
        }
    }

    /// Does `f` hold for any leaf of the expression?
    fn any_leaf(&self, f: &impl Fn(&PhysExpr) -> bool) -> bool {
        match self {
            PhysExpr::Col(_) | PhysExpr::Lit(_) | PhysExpr::Slot { .. } | PhysExpr::GetDate => {
                f(self)
            }
            PhysExpr::Binary { left, right, .. } => left.any_leaf(f) || right.any_leaf(f),
            PhysExpr::Unary { expr, .. } | PhysExpr::IsNull { expr, .. } => expr.any_leaf(f),
            PhysExpr::Between {
                expr, low, high, ..
            } => expr.any_leaf(f) || low.any_leaf(f) || high.any_leaf(f),
            PhysExpr::InList { expr, list, .. } => {
                expr.any_leaf(f) || list.iter().any(|e| e.any_leaf(f))
            }
        }
    }

    /// `Some(ordinal)` when the whole expression is a bare column
    /// reference — the projection fast path moves or clones the column
    /// buffer wholesale instead of evaluating per row.
    pub fn as_column(&self) -> Option<usize> {
        match self {
            PhysExpr::Col(i) => Some(*i),
            _ => None,
        }
    }

    /// Does any part of the expression read a column? An expression that
    /// reads none has one value for every row of a batch.
    pub fn reads_column(&self) -> bool {
        self.any_leaf(&|leaf| matches!(leaf, PhysExpr::Col(_)))
    }

    /// Evaluate against one row. Semantics are identical to
    /// `BoundExpr::eval` over the same values. Nodes that yield a truth
    /// value (comparisons, AND/OR, BETWEEN, IN, IS NULL) are defined by
    /// [`PhysExpr::truth`]; everything else here.
    pub fn eval(&self, row: &[Value], now_millis: i64) -> Result<Value> {
        match self {
            PhysExpr::Col(i) => Ok(row[*i].clone()),
            PhysExpr::Lit(v) | PhysExpr::Slot { value: v, .. } => Ok(v.clone()),
            PhysExpr::GetDate => Ok(Value::Timestamp(now_millis)),
            PhysExpr::Unary { op, expr } => negate(*op, expr.eval(row, now_millis)?),
            PhysExpr::Binary { left, op, right }
                if !matches!(op, BinaryOp::And | BinaryOp::Or) && !op.is_comparison() =>
            {
                let l = left.cell(row, now_millis)?;
                let r = right.cell(row, now_millis)?;
                arithmetic(*op, &l, &r)
            }
            _ => Ok(match self.truth(row, now_millis)? {
                Some(b) => Value::Bool(b),
                None => Value::Null,
            }),
        }
    }

    /// The value of an operand, borrowed from the row or the expression
    /// when it is a bare column or literal — no clone on the scan path.
    fn cell<'a>(&'a self, row: &'a [Value], now_millis: i64) -> Result<Cow<'a, Value>> {
        match self {
            PhysExpr::Col(i) => Ok(Cow::Borrowed(&row[*i])),
            PhysExpr::Lit(v) | PhysExpr::Slot { value: v, .. } => Ok(Cow::Borrowed(v)),
            other => other.eval(row, now_millis).map(Cow::Owned),
        }
    }

    /// Three-valued truth of the expression on one row: `Some(b)` exactly
    /// when [`PhysExpr::eval`] yields `Bool(b)`, `None` when it yields NULL
    /// or a value that is not a boolean (which AND/OR treat as unknown and
    /// WHERE as not true). Fails exactly when `eval` fails.
    pub fn truth(&self, row: &[Value], now_millis: i64) -> Result<Option<bool>> {
        match self {
            PhysExpr::Binary { left, op, right } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
                // three-valued short circuit: the right side is evaluated
                // only when the left has not decided
                let decides = *op == BinaryOp::Or;
                let l = left.truth(row, now_millis)?;
                if l == Some(decides) {
                    return Ok(l);
                }
                let r = right.truth(row, now_millis)?;
                Ok(connect(decides, l, r))
            }
            PhysExpr::Binary { left, op, right } if op.is_comparison() => {
                let l = left.cell(row, now_millis)?;
                let r = right.cell(row, now_millis)?;
                Ok(compare(&l, &r)?.map(|ord| ordering_passes(*op, ord)))
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.cell(row, now_millis)?;
                let lo = low.cell(row, now_millis)?;
                let hi = high.cell(row, now_millis)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(None);
                }
                let inside = compare(&v, &lo)? != Some(Ordering::Less)
                    && compare(&v, &hi)? != Some(Ordering::Greater);
                Ok(Some(inside != *negated))
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.cell(row, now_millis)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.cell(row, now_millis)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if compare(&v, &iv)? == Some(Ordering::Equal) {
                        return Ok(Some(!*negated));
                    }
                }
                Ok(if saw_null { None } else { Some(*negated) })
            }
            PhysExpr::IsNull { expr, negated } => {
                Ok(Some(expr.cell(row, now_millis)?.is_null() != *negated))
            }
            other => Ok(match other.eval(row, now_millis)? {
                Value::Bool(b) => Some(b),
                _ => None,
            }),
        }
    }

    /// Evaluate as a predicate (SQL truthiness: TRUE passes).
    pub fn eval_predicate(&self, row: &[Value], now_millis: i64) -> Result<bool> {
        Ok(self.truth(row, now_millis)? == Some(true))
    }
}

/// [`PhysExpr::bind`] of every expression of `exprs`: the list itself when
/// none holds a slot.
pub(crate) fn bind_all<'a>(exprs: &'a [PhysExpr], slots: &[Value]) -> Cow<'a, [PhysExpr]> {
    match slots.is_empty() || !exprs.iter().any(PhysExpr::holds_slot) {
        true => Cow::Borrowed(exprs),
        false => Cow::Owned(exprs.iter().map(|e| e.bind(slots).into_owned()).collect()),
    }
}

/// [`Value::compare`], with the integer / float pairings — what scans
/// test row after row — decided here instead of behind two calls into
/// another crate. Both go through `f64::total_cmp`, as `compare` does.
#[inline]
fn compare(l: &Value, r: &Value) -> Result<Option<Ordering>> {
    fn number(v: &Value) -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
    match (number(l), number(r)) {
        (Some(a), Some(b)) => Ok(Some(a.total_cmp(&b))),
        _ => l.compare(r),
    }
}

/// AND (`decides` = false) / OR (`decides` = true) of two three-valued
/// operands: the deciding value on either side wins, two of the other
/// value give that value, anything else is unknown.
pub(crate) fn connect(decides: bool, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    if l == Some(decides) || r == Some(decides) {
        Some(decides)
    } else if l == Some(!decides) && r == Some(!decides) {
        Some(!decides)
    } else {
        None
    }
}

/// Does an ordering satisfy comparison operator `op`?
pub(crate) fn ordering_passes(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => false,
    }
}

/// `NOT v` / `-v`.
fn negate(op: UnaryOp, v: Value) -> Result<Value> {
    match (op, v) {
        (_, Value::Null) => Ok(Value::Null),
        (UnaryOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnaryOp::Not, other) => Err(Error::Type(format!("NOT applied to {other}"))),
        (UnaryOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnaryOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
        (UnaryOp::Neg, other) => Err(Error::Type(format!("- applied to {other}"))),
    }
}

/// `l op r` for `+ - * /`: checked on integers, timestamp ± integer keeps
/// the timestamp type (and wraps, as `-i64::MIN` does, in every build),
/// everything else goes through `f64`.
fn arithmetic(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => int_arithmetic(op, *a, *b).map(Value::Int),
        // timestamp arithmetic: ts ± int keeps the timestamp type, which is
        // what the currency-guard predicate `getdate() - B` needs.
        (Value::Timestamp(a), Value::Int(b)) => match op {
            BinaryOp::Add => Ok(Value::Timestamp(a.wrapping_add(*b))),
            BinaryOp::Sub => Ok(Value::Timestamp(a.wrapping_sub(*b))),
            _ => Err(Error::Type("unsupported timestamp arithmetic".into())),
        },
        _ => float_arithmetic(op, l.as_float()?, r.as_float()?).map(Value::Float),
    }
}

/// Checked `a op b` on integers.
pub(crate) fn int_arithmetic(op: BinaryOp, a: i64, b: i64) -> Result<i64> {
    let v = match op {
        BinaryOp::Add => a.checked_add(b),
        BinaryOp::Sub => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Div if b == 0 => return Err(Error::Execution("division by zero".into())),
        BinaryOp::Div => a.checked_div(b),
        _ => None,
    };
    v.ok_or_else(|| Error::Execution("integer overflow".into()))
}

/// `a op b` on floats.
pub(crate) fn float_arithmetic(op: BinaryOp, a: f64, b: f64) -> Result<f64> {
    match op {
        BinaryOp::Add => Ok(a + b),
        BinaryOp::Sub => Ok(a - b),
        BinaryOp::Mul => Ok(a * b),
        BinaryOp::Div if b == 0.0 => Err(Error::Execution("division by zero".into())),
        BinaryOp::Div => Ok(a / b),
        _ => Err(Error::Type(format!("bad operands for {}", op.sql()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rcc_common::{Column, DataType};
    use rcc_optimizer::BoundExpr;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("a", DataType::Int).with_qualifier("t"),
            Column::new("b", DataType::Float).with_qualifier("t"),
            Column::new("s", DataType::Str).with_qualifier("t"),
        ])
    }

    fn row() -> Row {
        Row::new(vec![Value::Int(10), Value::Float(2.5), Value::from("x")])
    }

    /// Compile + evaluate against the row and, a column at a time, against
    /// a one-row batch; both must agree with `BoundExpr::eval`.
    fn assert_mirrors(e: &BoundExpr) {
        let s = schema();
        let r = row();
        let reference = e.eval(&r, &s, 1234);
        let compiled = PhysExpr::compile(e, &s).unwrap();
        let via_row = compiled.eval(r.values(), 1234);
        let batch = Batch::from_rows(3, vec![r.clone()]);
        let via_batch = compiled.eval_column(&batch, 1234).map(|c| c.value(0));
        match reference {
            Ok(v) => {
                assert_eq!(via_row.unwrap(), v);
                assert_eq!(via_batch.unwrap(), v);
            }
            Err(_) => {
                assert!(via_row.is_err());
                assert!(via_batch.is_err());
            }
        }
    }

    #[test]
    fn mirrors_bound_expr_eval() {
        let cases = vec![
            BoundExpr::col("t", "a"),
            BoundExpr::Literal(Value::Int(7)),
            BoundExpr::GetDate,
            BoundExpr::binary(
                BoundExpr::col("t", "a"),
                BinaryOp::Add,
                BoundExpr::Literal(Value::Int(5)),
            ),
            BoundExpr::binary(
                BoundExpr::col("t", "a"),
                BinaryOp::Mul,
                BoundExpr::col("t", "b"),
            ),
            BoundExpr::binary(
                BoundExpr::Literal(Value::Int(1)),
                BinaryOp::Div,
                BoundExpr::Literal(Value::Int(0)),
            ),
            BoundExpr::binary(
                BoundExpr::GetDate,
                BinaryOp::Sub,
                BoundExpr::Literal(Value::Int(234)),
            ),
            BoundExpr::binary(
                BoundExpr::col("t", "a"),
                BinaryOp::GtEq,
                BoundExpr::Literal(Value::Int(10)),
            ),
            BoundExpr::binary(
                BoundExpr::col("t", "s"),
                BinaryOp::Eq,
                BoundExpr::Literal(Value::from("x")),
            ),
            BoundExpr::binary(
                BoundExpr::Literal(Value::Null),
                BinaryOp::And,
                BoundExpr::Literal(Value::Bool(false)),
            ),
            BoundExpr::binary(
                BoundExpr::Literal(Value::Null),
                BinaryOp::Or,
                BoundExpr::Literal(Value::Bool(true)),
            ),
            BoundExpr::binary(
                BoundExpr::Literal(Value::Null),
                BinaryOp::Eq,
                BoundExpr::Literal(Value::Int(1)),
            ),
            BoundExpr::Between {
                expr: Box::new(BoundExpr::col("t", "a")),
                low: Box::new(BoundExpr::Literal(Value::Int(5))),
                high: Box::new(BoundExpr::Literal(Value::Int(15))),
                negated: false,
            },
            BoundExpr::Between {
                expr: Box::new(BoundExpr::col("t", "a")),
                low: Box::new(BoundExpr::Literal(Value::Int(5))),
                high: Box::new(BoundExpr::Literal(Value::Int(15))),
                negated: true,
            },
            BoundExpr::InList {
                expr: Box::new(BoundExpr::col("t", "a")),
                list: vec![
                    BoundExpr::Literal(Value::Int(9)),
                    BoundExpr::Literal(Value::Int(10)),
                ],
                negated: false,
            },
            BoundExpr::InList {
                expr: Box::new(BoundExpr::col("t", "a")),
                list: vec![BoundExpr::Literal(Value::Null)],
                negated: true,
            },
            BoundExpr::IsNull {
                expr: Box::new(BoundExpr::Literal(Value::Null)),
                negated: false,
            },
            BoundExpr::IsNull {
                expr: Box::new(BoundExpr::col("t", "a")),
                negated: true,
            },
            BoundExpr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(BoundExpr::Literal(Value::Bool(true))),
            },
            BoundExpr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(BoundExpr::col("t", "b")),
            },
            BoundExpr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(BoundExpr::Literal(Value::Int(3))),
            },
        ];
        for e in &cases {
            assert_mirrors(e);
        }
    }

    proptest! {
        /// Randomized comparison sweep: every (op, lhs) pair agrees with
        /// the reference interpreter, including NULL propagation.
        #[test]
        fn comparisons_mirror_reference(lhs in proptest::option::of(-20i64..20), rhs in -20i64..20) {
            let ops = [BinaryOp::Eq, BinaryOp::NotEq, BinaryOp::Lt, BinaryOp::LtEq, BinaryOp::Gt, BinaryOp::GtEq];
            for op in ops {
                let e = BoundExpr::binary(
                    BoundExpr::Literal(lhs.map(Value::Int).unwrap_or(Value::Null)),
                    op,
                    BoundExpr::Literal(Value::Int(rhs)),
                );
                assert_mirrors(&e);
            }
        }
    }

    #[test]
    fn remap_rewrites_ordinals() {
        let s = schema();
        let e = BoundExpr::binary(
            BoundExpr::col("t", "b"),
            BinaryOp::Gt,
            BoundExpr::Literal(Value::Float(1.0)),
        );
        // pretend the stored row is (pad, pad, a, b, s): output 1 → stored 3
        let compiled = PhysExpr::compile(&e, &s).unwrap().remap(&[2, 3, 4]);
        let stored = Row::new(vec![
            Value::Null,
            Value::Null,
            Value::Int(10),
            Value::Float(2.5),
            Value::from("x"),
        ]);
        assert!(compiled.eval_predicate(stored.values(), 0).unwrap());
    }

    #[test]
    fn batch_selection_and_materialization() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::from("a")]),
            Row::new(vec![Value::Int(2), Value::from("b")]),
            Row::new(vec![Value::Int(3), Value::from("c")]),
        ];
        let b = Batch::from_rows(2, rows.clone());
        assert_eq!(b.len(), 3);
        assert_eq!(b.width(), 2);
        assert_eq!(b.to_rows(), rows);
        assert_eq!(b.clone().into_rows(), rows);

        let narrowed = b.with_sel(vec![0, 2]);
        assert_eq!(narrowed.len(), 2);
        assert_eq!(narrowed.phys(1), 2);
        assert_eq!(narrowed.to_rows(), vec![rows[0].clone(), rows[2].clone()]);
        assert_eq!(narrowed.into_rows(), vec![rows[0].clone(), rows[2].clone()]);
    }

    #[test]
    fn truncate_respects_selection() {
        let rows = vec![
            Row::new(vec![Value::Int(1)]),
            Row::new(vec![Value::Int(2)]),
            Row::new(vec![Value::Int(3)]),
        ];
        let mut dense = Batch::from_rows(1, rows.clone());
        dense.truncate(2);
        assert_eq!(dense.to_rows(), rows[..2]);
        dense.truncate(10); // over-truncate is a no-op
        assert_eq!(dense.len(), 2);

        let mut selected = Batch::from_rows(1, rows.clone()).with_sel(vec![0, 2]);
        selected.truncate(1);
        assert_eq!(selected.to_rows(), vec![rows[0].clone()]);
    }

    #[test]
    fn zero_width_batch_keeps_cardinality() {
        let b = Batch::new(vec![], 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.into_rows(), vec![Row::new(vec![])]);
    }
}
