//! Column-at-a-time evaluation of [`PhysExpr`] over a [`Batch`].
//!
//! [`PhysExpr::select`] and [`PhysExpr::eval_column`] produce, for the
//! logical rows of a batch, exactly what [`PhysExpr::eval`] would produce
//! row by row — same cells, and an error exactly when some row's `eval`
//! fails. Each node is evaluated once per batch over a *row list* (the
//! batch's selection vector, or every physical row):
//!
//! * an expression that reads no column is evaluated once, as a scalar;
//! * comparisons, BETWEEN, IN, IS NULL, NOT, negation and arithmetic run
//!   as loops over typed vectors when their operands have the types the
//!   loop is written for (all numeric comparisons go through `f64`
//!   `total_cmp`, as `Value::compare` does; integer arithmetic is checked;
//!   NULL in, NULL out, tested before anything can fail);
//! * AND / OR evaluate their right side only on the rows the left side did
//!   not decide, so `false AND 1/0` raises nothing here either;
//! * every other shape — boxed [`ColumnData::Any`] operands, operand types
//!   a comparison rejects, IN lists that are not literals — falls back to
//!   `eval` on the materialized rows, which is the definition.

use crate::batch::{connect, float_arithmetic, int_arithmetic, ordering_passes, Batch, PhysExpr};
use crate::column::{Column, ColumnData, StrVec, ValueRef};
use rcc_common::{Result, Value};
use rcc_sql::{BinaryOp, UnaryOp};
use std::cmp::Ordering;

/// What a node evaluates to over a row list of `n` rows.
enum Operand<'a> {
    /// The same value on every row.
    Scalar(Value),
    /// A column of the batch, to be read at the row list's physical rows.
    Ref(&'a Column),
    /// A computed column, one cell per row of the list.
    Dense(Column),
}

/// How the cells of a vector are reached: through an optional index list
/// (the row list, for a batch column) and an optional validity mask.
#[derive(Clone, Copy)]
struct Reach<'a> {
    valid: Option<&'a [bool]>,
    idx: Option<&'a [u32]>,
}

impl Reach<'_> {
    /// Where cell `k` lives, or `None` when it is NULL.
    #[inline]
    fn slot(&self, k: usize) -> Option<usize> {
        let i = self.idx.map_or(k, |idx| idx[k] as usize);
        match self.valid {
            Some(valid) if !valid[i] => None,
            _ => Some(i),
        }
    }
}

/// One operand as cells of type `T`: a constant, or a typed vector.
enum Lane<'a, T> {
    Const(T),
    Slice(&'a [T], Reach<'a>),
}

impl<T: Copy> Lane<'_, T> {
    /// Cell `k`; `None` is NULL.
    #[inline]
    fn get(&self, k: usize) -> Option<T> {
        match self {
            Lane::Const(c) => Some(*c),
            Lane::Slice(s, reach) => reach.slot(k).map(|i| s[i]),
        }
    }
}

/// [`Lane`] for strings, whose vector is a [`StrVec`].
enum StrLane<'a> {
    Const(&'a str),
    Strs(&'a StrVec, Reach<'a>),
}

impl<'a> StrLane<'a> {
    #[inline]
    fn get(&self, k: usize) -> Option<&'a str> {
        match self {
            StrLane::Const(c) => Some(c),
            StrLane::Strs(s, reach) => reach.slot(k).map(|i| s.get(i)),
        }
    }
}

/// A numeric operand as `Value::compare` sees it: integers, floats or
/// timestamps, each compared through `f64`.
enum Num<'a> {
    Int(Lane<'a, i64>),
    Timestamp(Lane<'a, i64>),
    Float(Lane<'a, f64>),
}

impl Num<'_> {
    #[inline]
    fn get(&self, k: usize) -> Option<f64> {
        match self {
            Num::Int(l) | Num::Timestamp(l) => l.get(k).map(|i| i as f64),
            Num::Float(l) => l.get(k),
        }
    }

    /// `Value::compare` accepts every numeric pairing but float with
    /// timestamp.
    fn comparable(&self, other: &Num<'_>) -> bool {
        !matches!(
            (self, other),
            (Num::Float(_), Num::Timestamp(_)) | (Num::Timestamp(_), Num::Float(_))
        )
    }
}

/// `fn $name`: the operand as a [`Lane`] of `$t`, when it is a
/// `Value::$variant` scalar or a `ColumnData::$variant` column.
macro_rules! lane_of {
    ($name:ident, $t:ty, $variant:ident) => {
        fn $name<'s>(&'s self, rows: Option<&'s [u32]>) -> Option<Lane<'s, $t>> {
            self.lane(
                rows,
                |v| match v {
                    Value::$variant(x) => Some(*x),
                    _ => None,
                },
                |d| match d {
                    ColumnData::$variant(d) => Some(d.as_slice()),
                    _ => None,
                },
            )
        }
    };
}

impl<'a> Operand<'a> {
    fn column(&self) -> Option<&Column> {
        match self {
            Operand::Scalar(_) => None,
            Operand::Ref(col) => Some(col),
            Operand::Dense(col) => Some(col),
        }
    }

    /// The index list cells of this operand are read through: the row list
    /// for a batch column, none for a computed one.
    fn idx<'r>(&self, rows: Option<&'r [u32]>) -> Option<&'r [u32]> {
        match self {
            Operand::Ref(_) => rows,
            _ => None,
        }
    }

    /// The operand's column and how its cells are reached; `None` for a
    /// scalar.
    fn reach<'s>(&'s self, rows: Option<&'s [u32]>) -> Option<(&'s Column, Reach<'s>)> {
        let col = self.column()?;
        let reach = Reach {
            valid: col.validity(),
            idx: self.idx(rows),
        };
        Some((col, reach))
    }

    fn is_null_scalar(&self) -> bool {
        matches!(self, Operand::Scalar(Value::Null))
    }

    /// The operand as cells of `T`, when it is a scalar `scalar` accepts or
    /// a column whose vector `slice` accepts.
    fn lane<'s, T: Copy>(
        &'s self,
        rows: Option<&'s [u32]>,
        scalar: impl Fn(&Value) -> Option<T>,
        slice: impl Fn(&'s ColumnData) -> Option<&'s [T]>,
    ) -> Option<Lane<'s, T>> {
        match self {
            Operand::Scalar(v) => scalar(v).map(Lane::Const),
            _ => {
                let (col, reach) = self.reach(rows)?;
                Some(Lane::Slice(slice(col.data())?, reach))
            }
        }
    }

    lane_of!(ints, i64, Int);
    lane_of!(timestamps, i64, Timestamp);
    lane_of!(floats, f64, Float);
    lane_of!(bools, bool, Bool);

    fn strs<'s>(&'s self, rows: Option<&'s [u32]>) -> Option<StrLane<'s>> {
        match self {
            Operand::Scalar(Value::Str(s)) => Some(StrLane::Const(s)),
            Operand::Scalar(_) => None,
            _ => {
                let (col, reach) = self.reach(rows)?;
                match col.data() {
                    ColumnData::Str(strs) => Some(StrLane::Strs(strs, reach)),
                    _ => None,
                }
            }
        }
    }

    fn nums<'s>(&'s self, rows: Option<&'s [u32]>) -> Option<Num<'s>> {
        None.or_else(|| self.ints(rows).map(Num::Int))
            .or_else(|| self.floats(rows).map(Num::Float))
            .or_else(|| self.timestamps(rows).map(Num::Timestamp))
    }

    /// Three-valued truth per row, as AND / OR / WHERE read an operand:
    /// a boolean cell is its value, anything else is unknown.
    fn truths(&self, rows: Option<&[u32]>, n: usize) -> Vec<Option<bool>> {
        if let Some(lane) = self.bools(rows) {
            return (0..n).map(|k| lane.get(k)).collect();
        }
        match (self.column(), self.idx(rows)) {
            (Some(col), idx) if matches!(col.data(), ColumnData::Any(_)) => (0..n)
                .map(|k| match col.get(idx.map_or(k, |idx| idx[k] as usize)) {
                    ValueRef::Bool(b) => Some(b),
                    _ => None,
                })
                .collect(),
            _ => vec![None; n],
        }
    }

    /// The operand as a column of its own, one cell per row of the list.
    fn into_column(self, rows: Option<&[u32]>, n: usize) -> Column {
        match (self, rows) {
            (Operand::Scalar(v), _) => {
                let mut col = Column::with_capacity(n);
                (0..n).for_each(|_| col.push(ValueRef::of(&v)));
                col
            }
            (Operand::Ref(col), None) => col.clone(),
            (Operand::Ref(col), Some(rows)) => col.gather(rows),
            (Operand::Dense(col), _) => col,
        }
    }
}

/// Build a typed vector and its validity mask from a per-row cell function.
fn build<T: Default>(
    n: usize,
    mut cell: impl FnMut(usize) -> Result<Option<T>>,
) -> Result<(Vec<T>, Option<Vec<bool>>)> {
    let mut vals = Vec::with_capacity(n);
    let mut valid: Option<Vec<bool>> = None;
    for k in 0..n {
        match cell(k)? {
            Some(v) => {
                vals.push(v);
                if let Some(valid) = &mut valid {
                    valid.push(true);
                }
            }
            None => {
                vals.push(T::default());
                valid.get_or_insert_with(|| vec![true; k]).push(false);
            }
        }
    }
    Ok((vals, valid))
}

fn bool_column(n: usize, mut cell: impl FnMut(usize) -> Option<bool>) -> Operand<'static> {
    let (vals, valid) = build(n, |k| Ok(cell(k))).expect("infallible cells");
    Operand::Dense(Column::from_parts(ColumnData::Bool(vals), valid))
}

fn all_null(n: usize) -> Operand<'static> {
    bool_column(n, |_| None)
}

impl PhysExpr {
    /// The physical indices of the logical rows of `batch` on which the
    /// expression is TRUE, ascending — the refined selection vector a
    /// filter narrows the batch to.
    pub fn select(&self, batch: &Batch, now_millis: i64) -> Result<Vec<u32>> {
        let (rows, n) = (batch.sel.as_deref(), batch.len());
        let truths = self.eval_rows(batch, rows, n, now_millis)?.truths(rows, n);
        Ok((0..n)
            .filter(|&k| truths[k] == Some(true))
            .map(|k| batch.phys(k) as u32)
            .collect())
    }

    /// The expression's value on every logical row of `batch`, as a dense
    /// column in logical row order.
    pub fn eval_column(&self, batch: &Batch, now_millis: i64) -> Result<Column> {
        let (rows, n) = (batch.sel.as_deref(), batch.len());
        Ok(self
            .eval_rows(batch, rows, n, now_millis)?
            .into_column(rows, n))
    }

    /// Evaluate over the `n` physical rows `rows` lists (`None`: all of
    /// them, in order).
    fn eval_rows<'a>(
        &'a self,
        batch: &'a Batch,
        rows: Option<&[u32]>,
        n: usize,
        now: i64,
    ) -> Result<Operand<'a>> {
        if n == 0 {
            // no row, so nothing is evaluated and nothing can fail
            return Ok(Operand::Dense(Column::new()));
        }
        if let PhysExpr::Col(i) = self {
            return Ok(Operand::Ref(&batch.columns[*i]));
        }
        if !self.reads_column() {
            return self.eval(&[], now).map(Operand::Scalar);
        }
        let fast = match self {
            PhysExpr::Binary { left, op, right } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
                return connective(*op == BinaryOp::Or, left, right, batch, rows, n, now);
            }
            PhysExpr::Binary { left, op, right } => {
                let l = left.eval_rows(batch, rows, n, now)?;
                let r = right.eval_rows(batch, rows, n, now)?;
                if l.is_null_scalar() || r.is_null_scalar() {
                    Some(all_null(n))
                } else if op.is_comparison() {
                    compare(*op, &l, &r, rows, n)
                } else {
                    arithmetic(*op, &l, &r, rows, n)?
                }
            }
            PhysExpr::Unary { op, expr } => {
                let v = expr.eval_rows(batch, rows, n, now)?;
                negate(*op, &v, rows, n)
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval_rows(batch, rows, n, now)?;
                let lo = low.eval_rows(batch, rows, n, now)?;
                let hi = high.eval_rows(batch, rows, n, now)?;
                if v.is_null_scalar() || lo.is_null_scalar() || hi.is_null_scalar() {
                    Some(all_null(n))
                } else {
                    between(&v, &lo, &hi, *negated, rows, n)
                }
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_rows(batch, rows, n, now)?;
                in_list(&v, list, *negated, rows, n)
            }
            PhysExpr::IsNull { expr, negated } => {
                let v = expr.eval_rows(batch, rows, n, now)?;
                v.column().map(|col| {
                    let idx = v.idx(rows);
                    bool_column(n, |k| {
                        let null = col.is_null(idx.map_or(k, |idx| idx[k] as usize));
                        Some(null != *negated)
                    })
                })
            }
            PhysExpr::Col(_) | PhysExpr::Lit(_) | PhysExpr::GetDate => None,
        };
        match fast {
            Some(operand) => Ok(operand),
            None => self.eval_rowwise(batch, rows, n, now).map(Operand::Dense),
        }
    }

    /// The definition: `eval` on each row of the list, materialized.
    fn eval_rowwise(
        &self,
        batch: &Batch,
        rows: Option<&[u32]>,
        n: usize,
        now: i64,
    ) -> Result<Column> {
        let mut row = vec![Value::Null; batch.width()];
        let mut out = Column::with_capacity(n);
        for k in 0..n {
            let p = rows.map_or(k, |rows| rows[k] as usize);
            for (cell, col) in row.iter_mut().zip(&batch.columns) {
                *cell = col.value(p);
            }
            out.push(ValueRef::of(&self.eval(&row, now)?));
        }
        Ok(out)
    }
}

/// AND (`decides` = false) / OR (`decides` = true): the right side runs
/// only over the rows the left side left undecided.
fn connective<'a>(
    decides: bool,
    left: &'a PhysExpr,
    right: &'a PhysExpr,
    batch: &'a Batch,
    rows: Option<&[u32]>,
    n: usize,
    now: i64,
) -> Result<Operand<'a>> {
    let mut truths = left.eval_rows(batch, rows, n, now)?.truths(rows, n);
    let open: Vec<usize> = (0..n).filter(|&k| truths[k] != Some(decides)).collect();
    let open_rows: Vec<u32> = open
        .iter()
        .map(|&k| rows.map_or(k as u32, |rows| rows[k]))
        .collect();
    let right = right
        .eval_rows(batch, Some(&open_rows), open.len(), now)?
        .truths(Some(&open_rows), open.len());
    for (&k, r) in open.iter().zip(right) {
        truths[k] = connect(decides, truths[k], r);
    }
    Ok(bool_column(n, |k| truths[k]))
}

fn compare(
    op: BinaryOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    rows: Option<&[u32]>,
    n: usize,
) -> Option<Operand<'static>> {
    fn test<T>(
        op: BinaryOp,
        n: usize,
        l: impl Fn(usize) -> Option<T>,
        r: impl Fn(usize) -> Option<T>,
        cmp: impl Fn(&T, &T) -> Ordering,
    ) -> Operand<'static> {
        bool_column(n, |k| Some(ordering_passes(op, cmp(&l(k)?, &r(k)?))))
    }
    if let (Some(a), Some(b)) = (l.nums(rows), r.nums(rows)) {
        return a
            .comparable(&b)
            .then(|| test(op, n, |k| a.get(k), |k| b.get(k), f64::total_cmp));
    }
    if let (Some(a), Some(b)) = (l.strs(rows), r.strs(rows)) {
        return Some(test(op, n, |k| a.get(k), |k| b.get(k), |x, y| x.cmp(y)));
    }
    if let (Some(a), Some(b)) = (l.bools(rows), r.bools(rows)) {
        return Some(test(op, n, |k| a.get(k), |k| b.get(k), bool::cmp));
    }
    None
}

fn between(
    v: &Operand<'_>,
    lo: &Operand<'_>,
    hi: &Operand<'_>,
    negated: bool,
    rows: Option<&[u32]>,
    n: usize,
) -> Option<Operand<'static>> {
    fn test<T>(
        n: usize,
        negated: bool,
        cells: impl Fn(usize) -> Option<(T, T, T)>,
        cmp: impl Fn(&T, &T) -> Ordering,
    ) -> Operand<'static> {
        bool_column(n, |k| {
            let (v, lo, hi) = cells(k)?;
            let inside = cmp(&v, &lo) != Ordering::Less && cmp(&v, &hi) != Ordering::Greater;
            Some(inside != negated)
        })
    }
    if let (Some(a), Some(b), Some(c)) = (v.nums(rows), lo.nums(rows), hi.nums(rows)) {
        return (a.comparable(&b) && a.comparable(&c)).then(|| {
            test(
                n,
                negated,
                |k| Some((a.get(k)?, b.get(k)?, c.get(k)?)),
                f64::total_cmp,
            )
        });
    }
    if let (Some(a), Some(b), Some(c)) = (v.strs(rows), lo.strs(rows), hi.strs(rows)) {
        return Some(test(
            n,
            negated,
            |k| Some((a.get(k)?, b.get(k)?, c.get(k)?)),
            |x, y| x.cmp(y),
        ));
    }
    None
}

/// `v IN (literals)`, when every non-NULL literal can be compared with
/// `v`'s type — otherwise reaching the odd one out is a type error that
/// depends on the row, which the row form reports.
fn in_list(
    v: &Operand<'_>,
    list: &[PhysExpr],
    negated: bool,
    rows: Option<&[u32]>,
    n: usize,
) -> Option<Operand<'static>> {
    let literals: Vec<Operand<'static>> = list
        .iter()
        .map(|item| match item {
            PhysExpr::Lit(v) => Some(Operand::Scalar(v.clone())),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let saw_null = literals.iter().any(Operand::is_null_scalar);
    let found = |hit: bool| match (hit, saw_null) {
        (true, _) => Some(!negated),
        (false, true) => None,
        (false, false) => Some(negated),
    };
    let items = || literals.iter().filter(|item| !item.is_null_scalar());
    if let Some(a) = v.nums(rows) {
        let wanted: Vec<f64> = items()
            .map(|item| item.nums(None).filter(|b| a.comparable(b))?.get(0))
            .collect::<Option<_>>()?;
        return Some(bool_column(n, |k| {
            let x = a.get(k)?;
            found(wanted.iter().any(|w| x.total_cmp(w) == Ordering::Equal))
        }));
    }
    if let Some(a) = v.strs(rows) {
        let wanted: Vec<&str> = items()
            .map(|item| item.strs(None)?.get(0))
            .collect::<Option<_>>()?;
        return Some(bool_column(n, |k| {
            let x = a.get(k)?;
            found(wanted.contains(&x))
        }));
    }
    None
}

fn negate(
    op: UnaryOp,
    v: &Operand<'_>,
    rows: Option<&[u32]>,
    n: usize,
) -> Option<Operand<'static>> {
    fn map<T: Copy + Default>(
        n: usize,
        a: Lane<'_, T>,
        f: impl Fn(T) -> T,
        wrap: impl Fn(Vec<T>) -> ColumnData,
    ) -> Operand<'static> {
        let (vals, valid) = build(n, |k| Ok(a.get(k).map(&f))).expect("infallible cells");
        Operand::Dense(Column::from_parts(wrap(vals), valid))
    }
    match op {
        UnaryOp::Not => Some(map(n, v.bools(rows)?, |b| !b, ColumnData::Bool)),
        UnaryOp::Neg => match v.ints(rows) {
            Some(a) => Some(map(n, a, i64::wrapping_neg, ColumnData::Int)),
            None => Some(map(n, v.floats(rows)?, |f| -f, ColumnData::Float)),
        },
    }
}

/// `+ - * /` on typed operands: integer with integer (checked), timestamp
/// ± integer, and any integer / float mixture through `f64`.
fn arithmetic(
    op: BinaryOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    rows: Option<&[u32]>,
    n: usize,
) -> Result<Option<Operand<'static>>> {
    fn cells<A: Copy, B: Copy>(a: &Lane<'_, A>, b: &Lane<'_, B>, k: usize) -> Option<(A, B)> {
        Some((a.get(k)?, b.get(k)?))
    }
    let (data, valid) = if let (Some(a), Some(b)) = (l.ints(rows), r.ints(rows)) {
        let (vals, valid) = build(n, |k| {
            cells(&a, &b, k)
                .map(|(x, y)| int_arithmetic(op, x, y))
                .transpose()
        })?;
        (ColumnData::Int(vals), valid)
    } else if let (Some(a), Some(b), BinaryOp::Add | BinaryOp::Sub) =
        (l.timestamps(rows), r.ints(rows), op)
    {
        let (vals, valid) = build(n, |k| {
            Ok(cells(&a, &b, k).map(|(t, i)| match op {
                BinaryOp::Add => t.wrapping_add(i),
                _ => t.wrapping_sub(i),
            }))
        })?;
        (ColumnData::Timestamp(vals), valid)
    } else {
        let (Some(a), Some(b)) = (l.nums(rows), r.nums(rows)) else {
            return Ok(None);
        };
        if matches!(a, Num::Timestamp(_)) || matches!(b, Num::Timestamp(_)) {
            return Ok(None);
        }
        let (vals, valid) = build(n, |k| match (a.get(k), b.get(k)) {
            (Some(x), Some(y)) => float_arithmetic(op, x, y).map(Some),
            _ => Ok(None),
        })?;
        (ColumnData::Float(vals), valid)
    };
    Ok(Some(Operand::Dense(Column::from_parts(data, valid))))
}
