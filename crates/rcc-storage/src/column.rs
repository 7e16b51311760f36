//! Typed column vectors — what a chunk image and an executor batch are
//! made of.
//!
//! A [`Column`] holds one column of a run of rows as a vector of its
//! *native* type (`i64`, `f64`, `bool`, string bytes behind offsets) plus a
//! validity mask, so scans, filters, joins and aggregates read and write
//! machine values instead of cloning a 32-byte boxed [`Value`] per cell.
//! A storage chunk keeps its image in columns ([`crate::cowmap`]), and the
//! executor's batches are columns too, so a scan copies typed slices from
//! one into the other.
//!
//! The variant is decided by the **data**, never by a schema: a column
//! takes the type of the first non-NULL value pushed into it and *demotes*
//! to [`ColumnData::Any`] — a plain `Vec<Value>` — the moment a value of a
//! different type arrives (`SUM` yielding `Int` for one group and `Float`
//! for another, a projected `CASE`-like mix, a remote result that does not
//! keep its declared type). `Int` and `Timestamp` are different variants
//! because `Value` tells them apart on the wire. Turning a column into
//! values and back reproduces it exactly, NULLs and type tags included.

use rcc_common::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// One cell of a column, borrowed: what [`Value`] is to a row. Orders and
/// hashes exactly as the `Value` it stands for, so group keys, DISTINCT and
/// sorts can work on cells without materializing them.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
    /// Timestamp in clock ticks.
    Timestamp(i64),
}

impl<'a> ValueRef<'a> {
    /// Borrow a `Value` as a cell.
    #[inline]
    pub fn of(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Timestamp(t) => ValueRef::Timestamp(*t),
        }
    }

    /// The owned `Value` this cell stands for.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(s.to_string()),
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Timestamp(t) => Value::Timestamp(t),
        }
    }

    /// True for SQL NULL.
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// The numeric value every numeric cell compares and hashes by
    /// (`Value::total_cmp` unifies Int / Float / Timestamp through `f64`).
    pub fn numeric(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) | ValueRef::Timestamp(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            _ => None,
        }
    }

    /// [`Value::total_cmp`] on cells.
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Bool(_) => 1,
                ValueRef::Int(_) | ValueRef::Float(_) | ValueRef::Timestamp(_) => 2,
                ValueRef::Str(_) => 3,
            }
        }
        match (self, other) {
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a.cmp(&b),
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            (a, b) => match (a.numeric(), b.numeric()) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                _ => rank(a).cmp(&rank(b)),
            },
        }
    }
}

/// `Value`'s `Hash` on cells: equal cells (under [`ValueRef::total_cmp`])
/// hash equally, across numeric types too.
impl Hash for ValueRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ValueRef::Null => 0u8.hash(state),
            ValueRef::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            ValueRef::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            numeric => {
                2u8.hash(state);
                let value = numeric.numeric().expect("Int, Float or Timestamp");
                value.to_bits().hash(state);
            }
        }
    }
}

/// A vector of strings in one allocation: the bytes back to back, plus the
/// end offset of each string.
#[derive(Debug, Clone, Default)]
pub struct StrVec {
    data: String,
    ends: Vec<usize>,
}

impl StrVec {
    fn with_capacity(n: usize) -> StrVec {
        StrVec {
            data: String::new(),
            ends: Vec::with_capacity(n),
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no string is held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// String `i`.
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.data[start..self.ends[i]]
    }

    fn push(&mut self, s: &str) {
        self.data.push_str(s);
        self.ends.push(self.data.len());
    }

    /// Append strings `range` of `other`: one copy of their bytes.
    fn extend_range(&mut self, other: &StrVec, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let start = if range.start == 0 {
            0
        } else {
            other.ends[range.start - 1]
        };
        let base = self.data.len();
        self.data
            .push_str(&other.data[start..other.ends[range.end - 1]]);
        self.ends
            .extend(other.ends[range].iter().map(|&end| base + (end - start)));
    }

    fn truncate(&mut self, k: usize) {
        if k < self.ends.len() {
            self.data
                .truncate(if k == 0 { 0 } else { self.ends[k - 1] });
            self.ends.truncate(k);
        }
    }
}

/// The values of a [`Column`], by variant.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `Value::Int` cells.
    Int(Vec<i64>),
    /// `Value::Timestamp` cells.
    Timestamp(Vec<i64>),
    /// `Value::Float` cells.
    Float(Vec<f64>),
    /// `Value::Bool` cells.
    Bool(Vec<bool>),
    /// `Value::Str` cells.
    Str(StrVec),
    /// Cells of more than one type, boxed. NULLs are `Value::Null` here;
    /// the column carries no validity mask.
    Any(Vec<Value>),
}

/// One column of a batch: typed values plus a validity mask.
///
/// `valid` is `None` while the column holds no NULL (and always for
/// [`ColumnData::Any`]); otherwise `valid[i]` says whether cell `i` holds a
/// value, and the typed slot of a NULL cell holds a placeholder (`0`,
/// `false`, `""`). An empty or all-NULL column is typeless: it is held as
/// `Int` and takes the type of the first value pushed.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    valid: Option<Vec<bool>>,
}

impl Default for Column {
    fn default() -> Self {
        Column::with_capacity(0)
    }
}

/// Run `$body` with `$d` bound to the typed vector of whichever non-`Any`
/// variant `$data` is; `$any` handles the boxed one.
macro_rules! each_typed {
    ($data:expr, $d:ident => $body:expr, $a:ident => $any:expr) => {
        match $data {
            ColumnData::Int($d) | ColumnData::Timestamp($d) => $body,
            ColumnData::Float($d) => $body,
            ColumnData::Bool($d) => $body,
            ColumnData::Str($d) => $body,
            ColumnData::Any($a) => $any,
        }
    };
}

impl ColumnData {
    /// An empty vector of the same variant, with room for `n` cells.
    fn empty(&self, n: usize) -> ColumnData {
        match self {
            ColumnData::Int(_) => ColumnData::Int(Vec::with_capacity(n)),
            ColumnData::Timestamp(_) => ColumnData::Timestamp(Vec::with_capacity(n)),
            ColumnData::Float(_) => ColumnData::Float(Vec::with_capacity(n)),
            ColumnData::Bool(_) => ColumnData::Bool(Vec::with_capacity(n)),
            ColumnData::Str(_) => ColumnData::Str(StrVec::with_capacity(n)),
            ColumnData::Any(_) => ColumnData::Any(Vec::with_capacity(n)),
        }
    }

    /// Cells the vector has room for without growing.
    fn capacity(&self) -> usize {
        match self {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.capacity(),
            ColumnData::Float(d) => d.capacity(),
            ColumnData::Bool(d) => d.capacity(),
            ColumnData::Str(d) => d.ends.capacity(),
            ColumnData::Any(d) => d.capacity(),
        }
    }

    fn same_variant(&self, other: &ColumnData) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }
}

/// Which cells of a column an append copies: a contiguous run, or the
/// slots of a selection vector in its order.
enum Pick<'a> {
    Range(Range<usize>),
    Rows(&'a [u32]),
}

impl Pick<'_> {
    fn len(&self) -> usize {
        match self {
            Pick::Range(range) => range.len(),
            Pick::Rows(rows) => rows.len(),
        }
    }

    fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        let (range, rows) = match self {
            Pick::Range(range) => (Some(range.clone()), None),
            Pick::Rows(rows) => (None, Some(rows.iter().map(|&i| i as usize))),
        };
        range
            .into_iter()
            .flatten()
            .chain(rows.into_iter().flatten())
    }

    /// Append the picked elements of `from` to `to`.
    fn copy<T: Copy>(&self, from: &[T], to: &mut Vec<T>) {
        match self {
            Pick::Range(range) => to.extend_from_slice(&from[range.clone()]),
            Pick::Rows(rows) => to.extend(rows.iter().map(|&i| from[i as usize])),
        }
    }
}

impl Column {
    /// An empty column.
    pub fn new() -> Column {
        Column::default()
    }

    /// An empty column with room for `n` cells.
    pub fn with_capacity(n: usize) -> Column {
        Column {
            data: ColumnData::Int(Vec::with_capacity(n)),
            valid: None,
        }
    }

    /// A column from its typed vector and a validity mask of the same
    /// length. `data` must not be [`ColumnData::Any`], whose NULLs are
    /// values.
    pub fn from_parts(data: ColumnData, valid: Option<Vec<bool>>) -> Column {
        let col = Column { data, valid };
        debug_assert!(!matches!(col.data, ColumnData::Any(_)) || col.valid.is_none());
        debug_assert!(col.valid.as_ref().is_none_or(|v| v.len() == col.len()));
        col
    }

    /// Build a column from values; the data decides the variant.
    pub fn from_values(values: Vec<Value>) -> Column {
        Column::from_cells(values.iter())
    }

    /// Build a column from borrowed cells, copying each once.
    pub fn from_cells<'v>(cells: impl ExactSizeIterator<Item = &'v Value>) -> Column {
        let mut col = Column::with_capacity(cells.len());
        for v in cells {
            col.push_value(v);
        }
        col
    }

    /// The typed values.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity mask; `None` when no cell is NULL (for
    /// [`ColumnData::Any`], NULLs are `Value::Null` cells instead).
    pub fn validity(&self) -> Option<&[bool]> {
        self.valid.as_deref()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        each_typed!(&self.data, d => d.len(), a => a.len())
    }

    /// True when the column holds no cell.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is cell `i` NULL?
    pub fn is_null(&self, i: usize) -> bool {
        match (&self.valid, &self.data) {
            (Some(valid), _) => !valid[i],
            (None, ColumnData::Any(a)) => a[i].is_null(),
            (None, _) => false,
        }
    }

    /// Cell `i`, borrowed.
    pub fn get(&self, i: usize) -> ValueRef<'_> {
        if self.valid.as_ref().is_some_and(|valid| !valid[i]) {
            return ValueRef::Null;
        }
        match &self.data {
            ColumnData::Int(d) => ValueRef::Int(d[i]),
            ColumnData::Timestamp(d) => ValueRef::Timestamp(d[i]),
            ColumnData::Float(d) => ValueRef::Float(d[i]),
            ColumnData::Bool(d) => ValueRef::Bool(d[i]),
            ColumnData::Str(d) => ValueRef::Str(d.get(i)),
            ColumnData::Any(d) => ValueRef::of(&d[i]),
        }
    }

    /// Cell `i` as an owned value.
    pub fn value(&self, i: usize) -> Value {
        self.get(i).to_value()
    }

    /// All cells as owned values.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }

    /// Append one cell. A value whose type differs from the column's
    /// retypes a column that holds only NULLs so far and demotes any other
    /// to [`ColumnData::Any`].
    #[inline]
    pub fn push(&mut self, v: ValueRef<'_>) {
        // the hot path: a value of the column's own type
        match (&mut self.data, v) {
            (ColumnData::Int(d), ValueRef::Int(x)) => d.push(x),
            (ColumnData::Timestamp(d), ValueRef::Timestamp(x)) => d.push(x),
            (ColumnData::Float(d), ValueRef::Float(x)) => d.push(x),
            (ColumnData::Bool(d), ValueRef::Bool(x)) => d.push(x),
            (ColumnData::Str(d), ValueRef::Str(x)) => d.push(x),
            _ => return self.push_other(v),
        }
        if let Some(valid) = &mut self.valid {
            valid.push(true);
        }
    }

    /// [`Column::push`] for a cell held as a `Value` — the scan path, which
    /// copies stored rows into columns and so skips building the borrowed
    /// cell when the value has the column's type.
    #[inline]
    pub fn push_value(&mut self, v: &Value) {
        match (&mut self.data, v) {
            (ColumnData::Int(d), Value::Int(x)) => d.push(*x),
            (ColumnData::Timestamp(d), Value::Timestamp(x)) => d.push(*x),
            (ColumnData::Float(d), Value::Float(x)) => d.push(*x),
            (ColumnData::Bool(d), Value::Bool(x)) => d.push(*x),
            (ColumnData::Str(d), Value::Str(x)) => d.push(x),
            _ => return self.push_other(ValueRef::of(v)),
        }
        if let Some(valid) = &mut self.valid {
            valid.push(true);
        }
    }

    /// [`Column::push`] off the hot path: a boxed column, a NULL, or a
    /// value of a type the column does not hold.
    #[cold]
    fn push_other(&mut self, v: ValueRef<'_>) {
        match (&mut self.data, v) {
            (ColumnData::Any(d), v) => d.push(v.to_value()),
            (_, ValueRef::Null) => self.push_null(),
            _ => {
                self.retype_for(v);
                self.push(v);
            }
        }
    }

    fn push_null(&mut self) {
        let len = self.len();
        match &mut self.data {
            ColumnData::Int(d) | ColumnData::Timestamp(d) => d.push(0),
            ColumnData::Float(d) => d.push(0.0),
            ColumnData::Bool(d) => d.push(false),
            ColumnData::Str(d) => d.push(""),
            ColumnData::Any(d) => return d.push(Value::Null),
        }
        self.valid
            .get_or_insert_with(|| vec![true; len])
            .push(false);
    }

    /// Make room for a value of a type the column does not hold: a column
    /// of NULLs only takes that type, any other becomes `Any`.
    fn retype_for(&mut self, v: ValueRef<'_>) {
        let len = self.len();
        let all_null = match &self.valid {
            Some(valid) => !valid.contains(&true),
            None => len == 0,
        };
        if !all_null {
            self.data = ColumnData::Any(self.to_values());
            self.valid = None;
            return;
        }
        let room = self.data.capacity();
        fn filled<T: Clone>(room: usize, len: usize, placeholder: T) -> Vec<T> {
            let mut d = Vec::with_capacity(room);
            d.resize(len, placeholder);
            d
        }
        self.data = match v {
            ValueRef::Int(_) => ColumnData::Int(filled(room, len, 0)),
            ValueRef::Timestamp(_) => ColumnData::Timestamp(filled(room, len, 0)),
            ValueRef::Float(_) => ColumnData::Float(filled(room, len, 0.0)),
            ValueRef::Bool(_) => ColumnData::Bool(filled(room, len, false)),
            ValueRef::Str(_) => {
                let mut d = StrVec::with_capacity(room);
                (0..len).for_each(|_| d.push(""));
                ColumnData::Str(d)
            }
            ValueRef::Null => unreachable!("NULL fits every column"),
        };
    }

    /// Append the cells of `other` — all of them, or those `sel` lists.
    pub fn extend_from(&mut self, other: &Column, sel: Option<&[u32]>) {
        match sel {
            None => self.append(other, Pick::Range(0..other.len())),
            Some(rows) => self.append(other, Pick::Rows(rows)),
        }
    }

    /// Append cells `range` of `other`.
    pub fn extend_range(&mut self, other: &Column, range: Range<usize>) {
        self.append(other, Pick::Range(range));
    }

    /// Where in `cells` — a stretch this column holds in ascending
    /// [`ValueRef::total_cmp`] order — the first cell ordering above `key`
    /// stands (`or_equal`), or else the first not below it; `cells.end`
    /// when there is none. Gallops from `cells.start`, comparing typed
    /// values when the column holds no NULL and `key` is of its kind:
    /// an integer key within ±2⁵³ against `i64`s (exactly where
    /// `total_cmp`'s trip through `f64` orders them the same), any other
    /// number against numbers through `f64`, a string against strings.
    pub(crate) fn partition_point(
        &self,
        cells: Range<usize>,
        key: ValueRef<'_>,
        or_equal: bool,
    ) -> usize {
        let below = |o: Ordering| o.is_lt() || (or_equal && o.is_eq());
        let (from, n) = (cells.start, cells.len());
        let exact = match key {
            ValueRef::Int(k) | ValueRef::Timestamp(k) => (k.unsigned_abs() < 1 << 53).then_some(k),
            _ => None,
        };
        from + match (&self.data, &self.valid, exact, key.numeric(), key) {
            (ColumnData::Int(d) | ColumnData::Timestamp(d), None, Some(k), _, _) => {
                crate::cowmap::gallop(n, |i| below(d[from + i].cmp(&k)))
            }
            (ColumnData::Int(d) | ColumnData::Timestamp(d), None, None, Some(k), _) => {
                crate::cowmap::gallop(n, |i| below((d[from + i] as f64).total_cmp(&k)))
            }
            (ColumnData::Float(d), None, _, Some(k), _) => {
                crate::cowmap::gallop(n, |i| below(d[from + i].total_cmp(&k)))
            }
            (ColumnData::Str(d), None, _, _, ValueRef::Str(k)) => {
                crate::cowmap::gallop(n, |i| below(d.get(from + i).cmp(k)))
            }
            _ => crate::cowmap::gallop(n, |i| below(self.get(from + i).total_cmp(key))),
        }
    }

    /// The cells at `idx`, in that order, as a new column of the same
    /// variant.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let mut out = Column {
            data: self.data.empty(idx.len()),
            valid: None,
        };
        out.append(self, Pick::Rows(idx));
        out
    }

    /// Append the cells `pick` names: one typed copy per vector when the
    /// two columns hold the same variant (an empty column takes `other`'s),
    /// cell by cell — retyping or boxing as [`Column::push`] does — when
    /// they do not.
    fn append(&mut self, other: &Column, pick: Pick<'_>) {
        if pick.len() == 0 {
            return;
        }
        let before = self.len();
        if before == 0 && !self.data.same_variant(&other.data) {
            // keep the room reserved for the column (`with_capacity`)
            self.data = other.data.empty(pick.len().max(self.data.capacity()));
            self.valid = None;
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Int(d), ColumnData::Int(o))
            | (ColumnData::Timestamp(d), ColumnData::Timestamp(o)) => pick.copy(o, d),
            (ColumnData::Float(d), ColumnData::Float(o)) => pick.copy(o, d),
            (ColumnData::Bool(d), ColumnData::Bool(o)) => pick.copy(o, d),
            (ColumnData::Str(d), ColumnData::Str(o)) => match &pick {
                Pick::Range(range) => d.extend_range(o, range.clone()),
                Pick::Rows(rows) => rows.iter().for_each(|&i| d.push(o.get(i as usize))),
            },
            (ColumnData::Any(d), ColumnData::Any(o)) => {
                d.extend(pick.slots().map(|i| o[i].clone()));
            }
            _ => {
                for i in pick.slots() {
                    self.push(other.get(i));
                }
                return;
            }
        }
        match (&mut self.valid, &other.valid) {
            (None, None) => {}
            (Some(valid), None) => valid.resize(before + pick.len(), true),
            (valid, Some(theirs)) => {
                pick.copy(theirs, valid.get_or_insert_with(|| vec![true; before]))
            }
        }
    }

    /// Keep the first `k` cells.
    pub fn truncate(&mut self, k: usize) {
        each_typed!(&mut self.data, d => d.truncate(k), a => a.truncate(k));
        if let Some(valid) = &mut self.valid {
            valid.truncate(k);
        }
    }

    /// Push this column's cells — all of them, or those `sel` lists — onto
    /// the rows of `out`, one cell per row in order. Boxed cells of a
    /// dense column are moved, not cloned.
    pub fn scatter_into(self, sel: Option<&[u32]>, out: &mut [Vec<Value>]) {
        match (self.data, sel) {
            (ColumnData::Any(d), None) => {
                for (row, v) in out.iter_mut().zip(d) {
                    row.push(v);
                }
            }
            (data, sel) => {
                let col = Column {
                    data,
                    valid: self.valid,
                };
                for (k, row) in out.iter_mut().enumerate() {
                    row.push(col.value(sel.map_or(k, |s| s[k] as usize)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn samples() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int(-1),
            Value::Int(1),
            Value::Int(i64::MAX),
            Value::Int(i64::MAX - 1),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::from(""),
            Value::from("a"),
            Value::from("a\0"),
            Value::Bool(false),
            Value::Bool(true),
            Value::Timestamp(1),
            Value::Timestamp(2),
        ]
    }

    #[test]
    fn cells_order_and_hash_as_their_values() {
        fn hash_of(f: impl FnOnce(&mut DefaultHasher)) -> u64 {
            let mut h = DefaultHasher::new();
            f(&mut h);
            h.finish()
        }
        for a in &samples() {
            for b in &samples() {
                let (ra, rb) = (ValueRef::of(a), ValueRef::of(b));
                assert_eq!(ra.total_cmp(rb), a.total_cmp(b), "{a} vs {b}");
            }
            let cell = ValueRef::of(a);
            assert_eq!(hash_of(|h| cell.hash(h)), hash_of(|h| a.hash(h)), "{a}");
            assert_eq!(cell.to_value().data_type(), a.data_type());
        }
    }

    #[test]
    fn leading_nulls_do_not_box_the_column() {
        let mut col = Column::new();
        col.push(ValueRef::Null);
        col.push(ValueRef::Null);
        col.push(ValueRef::Str("x"));
        assert!(matches!(col.data(), ColumnData::Str(_)));
        assert_eq!(col.validity(), Some(&[false, false, true][..]));
        col.push(ValueRef::Int(1));
        assert!(matches!(col.data(), ColumnData::Any(_)));
        assert!(col.validity().is_none());
        assert!(col.is_null(1) && !col.is_null(3));
        assert_eq!(col.len(), 4);
    }

    #[test]
    fn gather_truncate_and_extend_keep_cells() {
        let cells = vec![
            Value::from("a\0b"),
            Value::from(""),
            Value::Null,
            Value::from("\0"),
        ];
        let col = Column::from_values(cells.clone());
        assert!(matches!(col.data(), ColumnData::Str(_)));
        assert_eq!(col.to_values(), cells);
        let picked = col.gather(&[3, 2, 0, 0]);
        assert_eq!(
            picked.to_values(),
            vec![
                cells[3].clone(),
                Value::Null,
                cells[0].clone(),
                cells[0].clone()
            ]
        );
        let mut cut = col.clone();
        cut.truncate(2);
        assert_eq!(cut.to_values(), cells[..2]);
        cut.truncate(9);
        assert_eq!(cut.len(), 2);
        // same type: stays typed; another type: boxed, cells intact
        let mut joined = col.clone();
        joined.extend_from(&picked, Some(&[1, 2]));
        assert!(matches!(joined.data(), ColumnData::Str(_)));
        assert_eq!(joined.len(), 6);
        assert!(joined.is_null(4));
        joined.extend_from(&Column::from_values(vec![Value::Int(7)]), None);
        assert!(matches!(joined.data(), ColumnData::Any(_)));
        assert_eq!(joined.value(6), Value::Int(7));
        assert_eq!(joined.value(0), cells[0]);
        let mut empty = Column::new();
        empty.extend_from(&col, None);
        assert_eq!(empty.to_values(), cells);
    }

    #[test]
    fn an_empty_column_keeps_its_room_when_it_takes_another_type() {
        let floats = Column::from_values((0..33).map(|i| Value::Float(i as f64)).collect());
        let strs = Column::from_values((0..33).map(|i| Value::from(i.to_string())).collect());
        for other in [&floats, &strs] {
            let mut col = Column::with_capacity(2048);
            col.extend_from(other, None);
            assert!(col.data().same_variant(other.data()));
            assert_eq!(col.to_values(), other.to_values());
            assert!(
                col.data().capacity() >= 2048,
                "room for {}",
                col.data().capacity()
            );
        }
    }
}
