//! Column-at-a-time evaluation of [`PhysExpr`] over typed columns.
//!
//! [`PhysExpr::select`] and [`PhysExpr::eval_column`] produce, for the
//! logical rows of a batch, exactly what [`PhysExpr::eval`] would produce
//! row by row — same cells, and an error exactly when some row's `eval`
//! fails; [`PhysExpr::select_rows`] does the same over any set of columns,
//! such as a storage chunk's image. Each node is evaluated once per call
//! over a *row list* (a selection vector, or every physical row):
//!
//! * an expression that reads no column is evaluated once, as a scalar;
//! * the operands of a comparison, BETWEEN, IN, NOT, negation or
//!   arithmetic are first reduced to *lanes* — a constant, or one machine
//!   value per row of the list, borrowed when the column already is that
//!   and gathered or converted in one pass when it is not — plus one mask
//!   of the rows where no operand is NULL. The operator then runs one loop,
//!   compiled for the shapes of its lanes and chosen once per call, so no
//!   cell pays a dispatch. All numeric comparisons go through `f64`
//!   `total_cmp`, as `Value::compare` does; integer arithmetic is checked;
//!   NULL in, NULL out, tested before anything can fail;
//! * a comparison or BETWEEN at the top of a predicate writes the selected
//!   rows straight into the selection vector;
//! * AND / OR evaluate their right side only on the rows the left side did
//!   not decide, so `false AND 1/0` raises nothing here either;
//! * every other shape — boxed [`ColumnData::Any`] operands, operand types
//!   a comparison rejects, IN lists that are not literals — falls back to
//!   `eval` on the materialized rows, which is the definition.

use crate::batch::{connect, float_arithmetic, int_arithmetic, ordering_passes, Batch, PhysExpr};
use rcc_common::{Result, Value};
use rcc_sql::{BinaryOp, UnaryOp};
use rcc_storage::column::{Column, ColumnData, ValueRef};
use std::borrow::Cow;
use std::cmp::Ordering;

/// What a node evaluates to over a row list of `n` rows.
enum Operand<'a> {
    /// The same value on every row.
    Scalar(Value),
    /// An input column, to be read at the row list's physical rows.
    Ref(&'a Column),
    /// A computed column, one cell per row of the list.
    Dense(Column),
}

/// An operand's cells of one machine type, one per row of the list. NULL
/// cells hold placeholders; [`valid_rows`] says which rows they are.
enum Lane<'a, T: Clone + 'a> {
    /// The same value on every row.
    Splat(T),
    /// Row `k`'s cell is `cells[k]`.
    Cells(Cow<'a, [T]>),
}

/// Cell `k` of a lane, in the shape a loop is compiled for.
trait At<T>: Copy {
    fn at(self, k: usize) -> T;
}

#[derive(Clone, Copy)]
struct Splat<T>(T);

impl<T: Copy> At<T> for Splat<T> {
    #[inline]
    fn at(self, _: usize) -> T {
        self.0
    }
}

impl<T: Copy> At<T> for &[T] {
    #[inline]
    fn at(self, k: usize) -> T {
        self[k]
    }
}

/// Run `$body` with `$x` bound to `$lane` in its loop shape: one compiled
/// copy of `$body` per shape, picked once per call.
macro_rules! shape {
    ($lane:expr, $x:ident => $body:expr) => {
        match $lane {
            Lane::Splat(c) => {
                let $x = Splat(c.clone());
                $body
            }
            Lane::Cells(cells) => {
                let $x: &[_] = cells;
                $body
            }
        }
    };
}

/// The numeric type behind a lane of `f64`s.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Num {
    Int,
    Float,
    Timestamp,
}

impl Num {
    /// `Value::compare` accepts every numeric pairing but float with
    /// timestamp.
    fn comparable(self, other: Num) -> bool {
        !matches!(
            (self, other),
            (Num::Float, Num::Timestamp) | (Num::Timestamp, Num::Float)
        )
    }
}

/// `fn $name`: the operand as a [`Lane`] of `$t`, when it is a
/// `Value::$variant` scalar or a `ColumnData::$variant` column.
macro_rules! lane_of {
    ($name:ident, $t:ty, $variant:ident) => {
        fn $name(&self, rows: Option<&[u32]>) -> Option<Lane<'_, $t>> {
            match self {
                Operand::Scalar(Value::$variant(x)) => Some(Lane::Splat(*x)),
                Operand::Scalar(_) => None,
                _ => self
                    .cells(rows, |d| match d {
                        ColumnData::$variant(d) => Some(d.as_slice()),
                        _ => None,
                    })
                    .map(Lane::Cells),
            }
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
    /// for an input column, none for a computed one.
    fn idx<'r>(&self, rows: Option<&'r [u32]>) -> Option<&'r [u32]> {
        match self {
            Operand::Ref(_) => rows,
            _ => None,
        }
    }

    fn is_null_scalar(&self) -> bool {
        matches!(self, Operand::Scalar(Value::Null))
    }

    /// The column's typed vector, when `slice` accepts it, as one cell per
    /// row of the list: borrowed when the column is read in full, gathered
    /// through the row list when not.
    fn cells<'s, T: Copy>(
        &'s self,
        rows: Option<&[u32]>,
        slice: impl Fn(&'s ColumnData) -> Option<&'s [T]>,
    ) -> Option<Cow<'s, [T]>> {
        let cells = slice(self.column()?.data())?;
        Some(match self.idx(rows) {
            None => Cow::Borrowed(cells),
            Some(idx) => Cow::Owned(idx.iter().map(|&i| cells[i as usize]).collect()),
        })
    }

    lane_of!(ints, i64, Int);
    lane_of!(timestamps, i64, Timestamp);
    lane_of!(floats, f64, Float);
    lane_of!(bools, bool, Bool);

    /// The operand as `Value::compare` sees a number: every integer, float
    /// or timestamp through `f64`.
    fn nums(&self, rows: Option<&[u32]>) -> Option<(Num, Lane<'_, f64>)> {
        let (num, ints) = match self {
            Operand::Scalar(Value::Int(i)) => return Some((Num::Int, Lane::Splat(*i as f64))),
            Operand::Scalar(Value::Timestamp(t)) => {
                return Some((Num::Timestamp, Lane::Splat(*t as f64)))
            }
            Operand::Scalar(_) => return Some((Num::Float, self.floats(rows)?)),
            _ => match self.column()?.data() {
                ColumnData::Int(d) => (Num::Int, d),
                ColumnData::Timestamp(d) => (Num::Timestamp, d),
                _ => return Some((Num::Float, self.floats(rows)?)),
            },
        };
        let converted = match self.idx(rows) {
            None => ints.iter().map(|&i| i as f64).collect(),
            Some(idx) => idx.iter().map(|&i| ints[i as usize] as f64).collect(),
        };
        Some((num, Lane::Cells(Cow::Owned(converted))))
    }

    fn strs(&self, rows: Option<&[u32]>) -> Option<Lane<'_, &str>> {
        match self {
            Operand::Scalar(Value::Str(s)) => Some(Lane::Splat(s.as_str())),
            Operand::Scalar(_) => None,
            _ => match self.column()?.data() {
                ColumnData::Str(strs) => Some(Lane::Cells(Cow::Owned(match self.idx(rows) {
                    None => (0..strs.len()).map(|i| strs.get(i)).collect(),
                    Some(idx) => idx.iter().map(|&i| strs.get(i as usize)).collect(),
                }))),
                _ => None,
            },
        }
    }

    /// Three-valued truth per row, as AND / OR / WHERE read an operand:
    /// a boolean cell is its value, anything else is unknown.
    fn truths(&self, rows: Option<&[u32]>, n: usize) -> Vec<Option<bool>> {
        let mut truths = Vec::with_capacity(n);
        if let Some(lane) = self.bools(rows) {
            let valid = valid_rows(&[self], rows);
            let valid = valid.as_deref();
            shape!(&lane, x => verdicts(n, valid, &mut truths, |k| Some(x.at(k))));
            return truths;
        }
        match (self.column(), self.idx(rows)) {
            (Some(col), idx) if matches!(col.data(), ColumnData::Any(_)) => {
                truths.extend((0..n).map(
                    |k| match col.get(idx.map_or(k, |idx| idx[k] as usize)) {
                        ValueRef::Bool(b) => Some(b),
                        _ => None,
                    },
                ));
                truths
            }
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

/// The rows of the list on which every one of `operands` holds a value:
/// `None` when no operand has a NULL anywhere.
fn valid_rows<'s>(operands: &[&'s Operand<'_>], rows: Option<&[u32]>) -> Option<Cow<'s, [bool]>> {
    let mut mask: Option<Cow<'s, [bool]>> = None;
    for operand in operands {
        let Some(valid) = operand.column().and_then(Column::validity) else {
            continue;
        };
        let valid = match operand.idx(rows) {
            None => Cow::Borrowed(valid),
            Some(idx) => Cow::Owned(idx.iter().map(|&i| valid[i as usize]).collect()),
        };
        mask = Some(match mask {
            None => valid,
            Some(mask) => Cow::Owned(
                mask.iter()
                    .zip(valid.iter())
                    .map(|(a, b)| *a && *b)
                    .collect(),
            ),
        });
    }
    mask
}

/// Is row `k` NULL in some operand?
#[inline]
fn null_at(valid: Option<&[bool]>, k: usize) -> bool {
    valid.is_some_and(|valid| !valid[k])
}

/// Where a predicate loop puts its verdict on row `k` of the list; rows
/// come in order.
trait Verdicts {
    fn put(&mut self, k: usize, truth: Option<bool>);
}

impl Verdicts for Vec<Option<bool>> {
    #[inline]
    fn put(&mut self, _: usize, truth: Option<bool>) {
        self.push(truth);
    }
}

/// The physical rows whose verdict is TRUE, ascending: a selection vector.
/// Every row is written to `picked[len]` and only a TRUE one moves `len`
/// on, so the loop carries no branch on the verdict.
struct Selection<'r> {
    rows: Option<&'r [u32]>,
    picked: Vec<u32>,
    len: usize,
}

impl<'r> Selection<'r> {
    fn new(rows: Option<&'r [u32]>, n: usize) -> Selection<'r> {
        Selection {
            rows,
            picked: vec![0; n],
            len: 0,
        }
    }

    fn into_rows(mut self) -> Vec<u32> {
        self.picked.truncate(self.len);
        self.picked
    }
}

impl Verdicts for Selection<'_> {
    #[inline]
    fn put(&mut self, k: usize, truth: Option<bool>) {
        self.picked[self.len] = self.rows.map_or(k as u32, |rows| rows[k]);
        self.len += usize::from(truth == Some(true));
    }
}

/// The verdicts as a boolean column.
struct Truths {
    vals: Vec<bool>,
    valid: Option<Vec<bool>>,
}

impl Truths {
    fn with_capacity(n: usize) -> Truths {
        Truths {
            vals: Vec::with_capacity(n),
            valid: None,
        }
    }

    fn into_operand(self) -> Operand<'static> {
        Operand::Dense(Column::from_parts(ColumnData::Bool(self.vals), self.valid))
    }
}

impl Verdicts for Truths {
    #[inline]
    fn put(&mut self, k: usize, truth: Option<bool>) {
        self.vals.push(truth.unwrap_or(false));
        match (&mut self.valid, truth) {
            (Some(valid), _) => valid.push(truth.is_some()),
            (None, None) => self.valid = Some((0..=k).map(|i| i < k).collect()),
            (None, Some(_)) => {}
        }
    }
}

/// Put `verdict(k)` for every row of the list, unknown on a row where an
/// operand is NULL. `verdict` must be pure and total: it is called on
/// every row, NULL ones included (their cells are placeholders), so the
/// loop carries no branch on which rows are NULL.
#[inline]
fn verdicts(
    n: usize,
    valid: Option<&[bool]>,
    out: &mut impl Verdicts,
    verdict: impl Fn(usize) -> Option<bool>,
) {
    match valid {
        None => (0..n).for_each(|k| out.put(k, verdict(k))),
        Some(valid) => {
            let valid = &valid[..n];
            (0..n).for_each(|k| out.put(k, verdict(k).filter(|_| valid[k])))
        }
    }
}

fn bool_column(n: usize, mut cell: impl FnMut(usize) -> Option<bool>) -> Operand<'static> {
    let mut truths = Truths::with_capacity(n);
    (0..n).for_each(|k| truths.put(k, cell(k)));
    truths.into_operand()
}

fn all_null(n: usize) -> Operand<'static> {
    bool_column(n, |_| None)
}

/// One cell per row of the list, `T::default()` on a row where an operand
/// is NULL — `cell` is not called there, so a NULL never fails.
fn fill<T: Default>(
    n: usize,
    valid: Option<&[bool]>,
    mut cell: impl FnMut(usize) -> Result<T>,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        out.push(match null_at(valid, k) {
            true => T::default(),
            false => cell(k)?,
        });
    }
    Ok(out)
}

/// A computed column over the list, NULL where an operand was.
fn dense(data: ColumnData, valid: Option<&[bool]>) -> Operand<'static> {
    Operand::Dense(Column::from_parts(data, valid.map(<[bool]>::to_vec)))
}

impl PhysExpr {
    /// The physical indices of the logical rows of `batch` on which the
    /// expression is TRUE, ascending — the refined selection vector a
    /// filter narrows the batch to.
    pub fn select(&self, batch: &Batch, now_millis: i64) -> Result<Vec<u32>> {
        let columns: Vec<&Column> = batch.columns.iter().collect();
        self.select_rows(&columns, batch.sel.as_deref(), batch.len(), now_millis)
    }

    /// [`PhysExpr::select`] over `columns`, whose `Col(i)` is
    /// `columns[i]`: of the `n` physical rows `rows` lists (ascending), or
    /// of rows `0..n` when it is `None`, those on which the expression is
    /// TRUE.
    pub fn select_rows(
        &self,
        columns: &[&Column],
        rows: Option<&[u32]>,
        n: usize,
        now_millis: i64,
    ) -> Result<Vec<u32>> {
        let mut selection = Selection::new(rows, n);
        if n == 0 {
            return Ok(selection.into_rows());
        }
        if self.reads_column() && self.predicate(columns, rows, n, now_millis, &mut selection)? {
            return Ok(selection.into_rows());
        }
        let truths = self
            .eval_rows(columns, rows, n, now_millis)?
            .truths(rows, n);
        for (k, truth) in truths.into_iter().enumerate() {
            selection.put(k, truth);
        }
        Ok(selection.into_rows())
    }

    /// The expression's value on every logical row of `batch`, as a dense
    /// column in logical row order.
    pub fn eval_column(&self, batch: &Batch, now_millis: i64) -> Result<Column> {
        let columns: Vec<&Column> = batch.columns.iter().collect();
        let (rows, n) = (batch.sel.as_deref(), batch.len());
        Ok(self
            .eval_rows(&columns, rows, n, now_millis)?
            .into_column(rows, n))
    }

    /// Evaluate over the `n` physical rows `rows` lists (`None`: all of
    /// them, in order).
    fn eval_rows<'a>(
        &'a self,
        columns: &[&'a Column],
        rows: Option<&[u32]>,
        n: usize,
        now: i64,
    ) -> Result<Operand<'a>> {
        if n == 0 {
            // no row, so nothing is evaluated and nothing can fail
            return Ok(Operand::Dense(Column::new()));
        }
        if let PhysExpr::Col(i) = self {
            return Ok(Operand::Ref(columns[*i]));
        }
        if !self.reads_column() {
            return self.eval(&[], now).map(Operand::Scalar);
        }
        let fast = match self {
            PhysExpr::Binary { left, op, right } if matches!(op, BinaryOp::And | BinaryOp::Or) => {
                return connective(*op == BinaryOp::Or, left, right, columns, rows, n, now);
            }
            PhysExpr::Binary { left, op, right } if !op.is_comparison() => {
                let l = left.eval_rows(columns, rows, n, now)?;
                let r = right.eval_rows(columns, rows, n, now)?;
                if l.is_null_scalar() || r.is_null_scalar() {
                    Some(all_null(n))
                } else {
                    arithmetic(*op, &l, &r, rows, n)?
                }
            }
            PhysExpr::Binary { .. } | PhysExpr::Between { .. } => {
                let mut truths = Truths::with_capacity(n);
                self.predicate(columns, rows, n, now, &mut truths)?
                    .then(|| truths.into_operand())
            }
            PhysExpr::Unary { op, expr } => {
                let v = expr.eval_rows(columns, rows, n, now)?;
                negate(*op, &v, rows, n)
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_rows(columns, rows, n, now)?;
                in_list(&v, list, *negated, rows, n)
            }
            PhysExpr::IsNull { expr, negated } => {
                let v = expr.eval_rows(columns, rows, n, now)?;
                let negated = *negated;
                v.column().map(|col| {
                    let truths = match (col.data(), valid_rows(&[&v], rows)) {
                        (ColumnData::Any(cells), _) => {
                            let idx = v.idx(rows);
                            let at = |k| &cells[idx.map_or(k, |idx| idx[k] as usize)];
                            (0..n).map(|k| at(k).is_null() != negated).collect()
                        }
                        (_, None) => vec![negated; n],
                        (_, Some(valid)) => valid.iter().map(|&valid| valid == negated).collect(),
                    };
                    dense(ColumnData::Bool(truths), None)
                })
            }
            PhysExpr::Col(_) | PhysExpr::Lit(_) | PhysExpr::Slot { .. } | PhysExpr::GetDate => None,
        };
        match fast {
            Some(operand) => Ok(operand),
            None => self.eval_rowwise(columns, rows, n, now).map(Operand::Dense),
        }
    }

    /// A comparison or BETWEEN over typed lanes, its verdicts written to
    /// `out`. `Ok(false)`, with nothing written, for any other node, and
    /// for operand types only the row form handles.
    fn predicate(
        &self,
        columns: &[&Column],
        rows: Option<&[u32]>,
        n: usize,
        now: i64,
        out: &mut impl Verdicts,
    ) -> Result<bool> {
        let operands = match self {
            PhysExpr::Binary { left, op, right } if op.is_comparison() => vec![
                left.eval_rows(columns, rows, n, now)?,
                right.eval_rows(columns, rows, n, now)?,
            ],
            PhysExpr::Between {
                expr, low, high, ..
            } => vec![
                expr.eval_rows(columns, rows, n, now)?,
                low.eval_rows(columns, rows, n, now)?,
                high.eval_rows(columns, rows, n, now)?,
            ],
            _ => return Ok(false),
        };
        if operands.iter().any(Operand::is_null_scalar) {
            (0..n).for_each(|k| out.put(k, None));
            return Ok(true);
        }
        Ok(match (self, &operands[..]) {
            (PhysExpr::Binary { op, .. }, [l, r]) => compare(*op, l, r, rows, n, out),
            (PhysExpr::Between { negated, .. }, [v, lo, hi]) => {
                between([v, lo, hi], *negated, rows, n, out)
            }
            _ => false,
        })
    }

    /// The definition: `eval` on each row of the list, materialized.
    fn eval_rowwise(
        &self,
        columns: &[&Column],
        rows: Option<&[u32]>,
        n: usize,
        now: i64,
    ) -> Result<Column> {
        let mut row = vec![Value::Null; columns.len()];
        let mut out = Column::with_capacity(n);
        for k in 0..n {
            let p = rows.map_or(k, |rows| rows[k] as usize);
            for (cell, col) in row.iter_mut().zip(columns) {
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
    columns: &[&'a Column],
    rows: Option<&[u32]>,
    n: usize,
    now: i64,
) -> Result<Operand<'a>> {
    let mut truths = left.eval_rows(columns, rows, n, now)?.truths(rows, n);
    let open: Vec<usize> = (0..n).filter(|&k| truths[k] != Some(decides)).collect();
    let open_rows: Vec<u32> = open
        .iter()
        .map(|&k| rows.map_or(k as u32, |rows| rows[k]))
        .collect();
    let right = right
        .eval_rows(columns, Some(&open_rows), open.len(), now)?
        .truths(Some(&open_rows), open.len());
    for (&k, r) in open.iter().zip(right) {
        truths[k] = connect(decides, truths[k], r);
    }
    Ok(bool_column(n, |k| truths[k]))
}

/// `l op r` on every row of the list, into `out`; false (nothing written)
/// when the operand types are not ones a loop is written for.
fn compare(
    op: BinaryOp,
    l: &Operand<'_>,
    r: &Operand<'_>,
    rows: Option<&[u32]>,
    n: usize,
    out: &mut impl Verdicts,
) -> bool {
    // which orderings pass, indexed by `ordering as i8 + 1`
    let accept =
        [Ordering::Less, Ordering::Equal, Ordering::Greater].map(|o| ordering_passes(op, o));
    let passes = |ord: Ordering| Some(accept[(ord as i8 + 1) as usize]);
    let valid = || valid_rows(&[l, r], rows);
    if let (Some((ka, a)), Some((kb, b))) = (l.nums(rows), r.nums(rows)) {
        if !ka.comparable(kb) {
            return false;
        }
        let valid = valid();
        shape!(&a, x => shape!(&b, y => {
            verdicts(n, valid.as_deref(), out, |k| passes(x.at(k).total_cmp(&y.at(k))))
        }));
    } else if let (Some(a), Some(b)) = (l.strs(rows), r.strs(rows)) {
        let valid = valid();
        shape!(&a, x => shape!(&b, y => {
            verdicts(n, valid.as_deref(), out, |k| passes(x.at(k).cmp(y.at(k))))
        }));
    } else if let (Some(a), Some(b)) = (l.bools(rows), r.bools(rows)) {
        let valid = valid();
        shape!(&a, x => shape!(&b, y => {
            verdicts(n, valid.as_deref(), out, |k| passes(x.at(k).cmp(&y.at(k))))
        }));
    } else {
        return false;
    }
    true
}

/// `v [NOT] BETWEEN lo AND hi` on every row of the list, into `out`;
/// false (nothing written) when the operand types are not ones a loop is
/// written for.
fn between(
    [v, lo, hi]: [&Operand<'_>; 3],
    negated: bool,
    rows: Option<&[u32]>,
    n: usize,
    out: &mut impl Verdicts,
) -> bool {
    // `&`, not `&&`: both orderings are at hand, and a short circuit would
    // branch on the data
    let inside = |below: Ordering, above: Ordering| {
        Some(((below != Ordering::Less) & (above != Ordering::Greater)) != negated)
    };
    let valid = || valid_rows(&[v, lo, hi], rows);
    if let (Some((ka, a)), Some((kb, b)), Some((kc, c))) =
        (v.nums(rows), lo.nums(rows), hi.nums(rows))
    {
        if !(ka.comparable(kb) && ka.comparable(kc)) {
            return false;
        }
        let valid = valid();
        shape!(&a, x => shape!(&b, y => shape!(&c, z => {
            verdicts(n, valid.as_deref(), out, |k| {
                let v = x.at(k);
                inside(v.total_cmp(&y.at(k)), v.total_cmp(&z.at(k)))
            })
        })));
    } else if let (Some(a), Some(b), Some(c)) = (v.strs(rows), lo.strs(rows), hi.strs(rows)) {
        let valid = valid();
        shape!(&a, x => shape!(&b, y => shape!(&c, z => {
            verdicts(n, valid.as_deref(), out, |k| {
                let v = x.at(k);
                inside(v.cmp(y.at(k)), v.cmp(z.at(k)))
            })
        })));
    } else {
        return false;
    }
    true
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
            PhysExpr::Lit(v) | PhysExpr::Slot { value: v, .. } => Some(Operand::Scalar(v.clone())),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let saw_null = literals.iter().any(Operand::is_null_scalar);
    // a miss is unknown when the list holds a NULL; the list is walked
    // whole, with `|`, so no row branches on where it matched
    let found = |hit: bool| (hit | !saw_null).then_some(hit != negated);
    let items = || literals.iter().filter(|item| !item.is_null_scalar());
    let valid = valid_rows(&[v], rows);
    let valid = valid.as_deref();
    let mut truths = Truths::with_capacity(n);
    if let Some((num, a)) = v.nums(rows) {
        let wanted: Vec<f64> = items()
            .map(|item| match item.nums(None)? {
                (other, Lane::Splat(w)) if num.comparable(other) => Some(w),
                _ => None,
            })
            .collect::<Option<_>>()?;
        shape!(&a, x => verdicts(n, valid, &mut truths, |k| {
            found(wanted.iter().fold(false, |hit, w| hit | x.at(k).total_cmp(w).is_eq()))
        }));
    } else if let Some(a) = v.strs(rows) {
        let wanted: Vec<&str> = items()
            .map(|item| match item.strs(None)? {
                Lane::Splat(w) => Some(w),
                Lane::Cells(_) => None,
            })
            .collect::<Option<_>>()?;
        shape!(&a, x => verdicts(n, valid, &mut truths, |k| {
            found(wanted.iter().fold(false, |hit, w| hit | (*w == x.at(k))))
        }));
    } else {
        return None;
    }
    Some(truths.into_operand())
}

fn negate(
    op: UnaryOp,
    v: &Operand<'_>,
    rows: Option<&[u32]>,
    n: usize,
) -> Option<Operand<'static>> {
    fn map<T: Copy + Default>(
        n: usize,
        lane: Lane<'_, T>,
        valid: Option<&[bool]>,
        f: impl Fn(T) -> T,
        wrap: impl Fn(Vec<T>) -> ColumnData,
    ) -> Operand<'static> {
        let vals = shape!(&lane, x => fill(n, valid, |k| Ok(f(x.at(k)))));
        dense(wrap(vals.expect("infallible cells")), valid)
    }
    let valid = valid_rows(&[v], rows);
    let valid = valid.as_deref();
    match op {
        UnaryOp::Not => Some(map(n, v.bools(rows)?, valid, |b| !b, ColumnData::Bool)),
        UnaryOp::Neg => match v.ints(rows) {
            Some(a) => Some(map(n, a, valid, i64::wrapping_neg, ColumnData::Int)),
            None => Some(map(n, v.floats(rows)?, valid, |f| -f, ColumnData::Float)),
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
    let valid = valid_rows(&[l, r], rows);
    let valid = valid.as_deref();
    let data = if let (Some(a), Some(b)) = (l.ints(rows), r.ints(rows)) {
        ColumnData::Int(shape!(&a, x => shape!(&b, y => {
            fill(n, valid, |k| int_arithmetic(op, x.at(k), y.at(k)))
        }))?)
    } else if let (Some(a), Some(b), BinaryOp::Add | BinaryOp::Sub) =
        (l.timestamps(rows), r.ints(rows), op)
    {
        let shift = |t: i64, i: i64| match op {
            BinaryOp::Add => t.wrapping_add(i),
            _ => t.wrapping_sub(i),
        };
        ColumnData::Timestamp(shape!(&a, x => shape!(&b, y => {
            fill(n, valid, |k| Ok(shift(x.at(k), y.at(k))))
        }))?)
    } else {
        let (Some((ka, a)), Some((kb, b))) = (l.nums(rows), r.nums(rows)) else {
            return Ok(None);
        };
        if ka == Num::Timestamp || kb == Num::Timestamp {
            return Ok(None);
        }
        ColumnData::Float(shape!(&a, x => shape!(&b, y => {
            fill(n, valid, |k| float_arithmetic(op, x.at(k), y.at(k)))
        }))?)
    };
    Ok(Some(dense(data, valid)))
}
