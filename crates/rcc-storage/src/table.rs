//! Tables organized by a clustered index over a structurally shared map.

use crate::column::ValueRef;
use crate::cowmap::{CowMap, Cursor, Entry, OccupiedEntry, Run, VacantEntry};
use crate::index::SecondaryIndex;
use crate::range::KeyRange;
use rcc_common::{Error, Result, Row, Schema, Value};
use std::borrow::Borrow;
use std::cmp::Ordering;

/// A logged change to a single row, the unit shipped through the
/// replication log and applied by distribution agents in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum RowChange {
    /// Insert a full row.
    Insert(Row),
    /// Replace the row with clustered key `key` by `row`.
    Update {
        /// Clustered key of the target row.
        key: Vec<Value>,
        /// The (new) row value.
        row: Row,
    },
    /// Delete the row with clustered key `key`.
    Delete {
        /// Clustered key of the target row.
        key: Vec<Value>,
    },
}

/// An in-memory table: rows stored in clustered-key order in a
/// [`CowMap`], plus any number of secondary indexes kept in sync on every
/// mutation. Cloning a table shares every row and index chunk with the
/// original (O(chunks) refcount bumps); a mutation then copies only the
/// chunks it lands in. That is what makes a [`crate::TableCell`] write cost
/// the rows it changes, not the table's size.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Ordinals of the clustered key columns, in key order.
    key: Vec<usize>,
    rows: CowMap<ClusterKey, Row>,
    indexes: Vec<SecondaryIndex>,
}

/// A clustered key as the row map stores it. Tables are clustered on one
/// or two columns as a rule; keeping those values inline saves an
/// allocation per row and a pointer chase per comparison in every seek.
/// Orders exactly as the `[Value]` slice it borrows as, which is what
/// lookups are made with.
#[derive(Debug, Clone)]
enum ClusterKey {
    One(Value),
    Two([Value; 2]),
    Many(Vec<Value>),
}

impl ClusterKey {
    fn as_slice(&self) -> &[Value] {
        match self {
            ClusterKey::One(v) => std::slice::from_ref(v),
            ClusterKey::Two(vs) => vs,
            ClusterKey::Many(vs) => vs,
        }
    }
}

impl Borrow<[Value]> for ClusterKey {
    fn borrow(&self) -> &[Value] {
        self.as_slice()
    }
}

impl Ord for ClusterKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for ClusterKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ClusterKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ClusterKey {}

/// The clustered key of `row` in a table clustered on the columns `key`,
/// as stored.
fn cluster_key(key: &[usize], row: &Row) -> ClusterKey {
    match *key {
        [i] => ClusterKey::One(row.get(i).clone()),
        [i, j] => ClusterKey::Two([row.get(i).clone(), row.get(j).clone()]),
        _ => ClusterKey::Many(key.iter().map(|&i| row.get(i).clone()).collect()),
    }
}

/// Store `row` in a vacant clustered-key slot and add its index entries.
fn insert_at(indexes: &mut [SecondaryIndex], slot: VacantEntry<'_, ClusterKey, Row>, row: Row) {
    for ix in indexes {
        ix.insert(&row, slot.key().as_slice());
    }
    slot.insert(row);
}

/// Replace the row in an occupied slot. An index is touched only when one
/// of its columns differs between the old and the new row.
fn replace_at(
    indexes: &mut [SecondaryIndex],
    mut slot: OccupiedEntry<'_, ClusterKey, Row>,
    row: Row,
) {
    for ix in indexes {
        ix.replace(slot.get(), &row, slot.key().as_slice());
    }
    slot.insert(row);
}

impl Table {
    /// Create an empty table clustered on the given key-column ordinals.
    ///
    /// # Panics
    /// Panics if `key` is empty or references columns outside the schema —
    /// both are construction-time programming errors.
    pub fn new(name: impl Into<String>, schema: Schema, key: Vec<usize>) -> Table {
        assert!(!key.is_empty(), "a table needs a clustered key");
        assert!(
            key.iter().all(|&k| k < schema.len()),
            "key ordinal out of range"
        );
        Table {
            name: name.into(),
            schema,
            key,
            rows: CowMap::new(),
            indexes: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema of stored rows.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Clustered key column ordinals.
    pub fn key_ordinals(&self) -> &[usize] {
        &self.key
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Extract the clustered key of a row.
    pub fn key_of(&self, row: &Row) -> Vec<Value> {
        self.key.iter().map(|&i| row.get(i).clone()).collect()
    }

    /// The clustered key of a row, as stored.
    fn cluster_key(&self, row: &Row) -> ClusterKey {
        cluster_key(&self.key, row)
    }

    /// Add a secondary index over the given column ordinals. Existing rows
    /// are indexed immediately.
    pub fn create_index(&mut self, name: impl Into<String>, columns: Vec<usize>) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|ix| ix.name() == name) {
            return Err(Error::AlreadyExists(format!("index {name}")));
        }
        let mut ix = SecondaryIndex::new(name, columns);
        ix.load(self.iter(), &self.key);
        self.indexes.push(ix);
        Ok(())
    }

    /// Add `rows` in one sorted pass: the one way a table is filled in
    /// bulk. The rows are sorted in place by clustered key (only when an
    /// O(n) check finds them out of order), moved into full chunks
    /// ([`CowMap::merge_sorted`], which keeps every chunk no new key falls
    /// into), and each secondary index is built the same way from its own
    /// sorted entries. Rows already in the table stay; no row is copied.
    ///
    /// Fails, changing nothing, where inserting the rows one at a time
    /// would fail — a wrong arity, or a clustered key already stored or
    /// repeated in the batch — with the error `insert` gives that row. A
    /// batch with more than one such row reports its first wrong-arity row
    /// unless a duplicate comes before it, and of several duplicates the
    /// one with the smallest key.
    pub fn load(&mut self, mut rows: Vec<Row>) -> Result<()> {
        let arity = match rows.iter().position(|row| row.len() != self.schema.len()) {
            Some(at) => {
                let err = self.check_arity(&rows[at]);
                // only the rows before it can fail first, as duplicates
                rows.truncate(at);
                err
            }
            None => Ok(()),
        };
        let key = &self.key;
        let order = |a: &Row, b: &Row| {
            key.iter()
                .map(|&i| a.get(i))
                .cmp(key.iter().map(|&i| b.get(i)))
        };
        if !rows.is_sorted_by(|a, b| order(a, b).is_le()) {
            rows.sort_unstable_by(order);
        }
        self.check_new_keys(&rows)?;
        arity?;
        for ix in &mut self.indexes {
            ix.load(rows.iter(), &self.key);
        }
        let key = &self.key;
        self.rows
            .merge_sorted(rows.into_iter().map(|row| (cluster_key(key, &row), row)));
        Ok(())
    }

    /// The error `insert` gives the first of `rows` — sorted by clustered
    /// key — whose key is already stored or is its predecessor's.
    fn check_new_keys(&self, rows: &[Row]) -> Result<()> {
        let duplicate = |stored: &[Value]| {
            Err(Error::Storage(format!(
                "duplicate clustered key {stored:?} in table {}",
                self.name
            )))
        };
        for (i, row) in rows.iter().enumerate() {
            if !self.rows.is_empty() {
                if let Some((stored, _)) = self.rows.get_key_value(self.key_of(row).as_slice()) {
                    return duplicate(stored.as_slice());
                }
            }
            let prev = i.checked_sub(1).map(|j| &rows[j]);
            if let Some(prev) =
                prev.filter(|prev| self.key.iter().all(|&k| prev.get(k) == row.get(k)))
            {
                return duplicate(&self.key_of(prev));
            }
        }
        Ok(())
    }

    /// All secondary indexes.
    pub fn indexes(&self) -> &[SecondaryIndex] {
        &self.indexes
    }

    /// Find a secondary index whose *first* column is `col`, if any.
    pub fn index_on(&self, col: usize) -> Option<&SecondaryIndex> {
        self.indexes
            .iter()
            .find(|ix| ix.columns().first() == Some(&col))
    }

    fn check_arity(&self, row: &Row) -> Result<()> {
        if row.len() == self.schema.len() {
            return Ok(());
        }
        Err(Error::Storage(format!(
            "row arity {} does not match schema arity {} for table {}",
            row.len(),
            self.schema.len(),
            self.name
        )))
    }

    /// Insert a row; errors on duplicate clustered key.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.check_arity(&row)?;
        let key = self.cluster_key(&row);
        match self.rows.entry(key) {
            Entry::Occupied(slot) => Err(Error::Storage(format!(
                "duplicate clustered key {:?} in table {}",
                slot.key().as_slice(),
                self.name
            ))),
            Entry::Vacant(slot) => {
                insert_at(&mut self.indexes, slot, row);
                Ok(())
            }
        }
    }

    /// Insert or replace by clustered key (used by replication apply).
    pub fn upsert(&mut self, row: Row) -> Result<()> {
        self.check_arity(&row)?;
        let key = self.cluster_key(&row);
        match self.rows.entry(key) {
            Entry::Occupied(slot) => replace_at(&mut self.indexes, slot, row),
            Entry::Vacant(slot) => insert_at(&mut self.indexes, slot, row),
        }
        Ok(())
    }

    /// Delete by clustered key; returns the old row if present.
    pub fn delete(&mut self, key: &[Value]) -> Option<Row> {
        let old = self.rows.remove(key)?;
        for ix in &mut self.indexes {
            ix.remove(&old, key);
        }
        Some(old)
    }

    /// Replace the row at `key` with `row` (key columns of `row` must match
    /// `key`; enforced).
    pub fn update(&mut self, key: &[Value], row: Row) -> Result<()> {
        self.check_arity(&row)?;
        let row_key = self.cluster_key(&row);
        if row_key.as_slice() != key {
            return Err(Error::Storage(
                "update row's key columns do not match the target key".into(),
            ));
        }
        match self.rows.entry(row_key) {
            Entry::Occupied(slot) => {
                replace_at(&mut self.indexes, slot, row);
                Ok(())
            }
            Entry::Vacant(_) => Err(Error::Storage(format!("update target {key:?} not found"))),
        }
    }

    /// Apply a logged [`RowChange`]. Replication delivers these in commit
    /// order; apply is idempotent for inserts (they degrade to upserts) so a
    /// re-delivered batch cannot wedge an agent.
    pub fn apply(&mut self, change: &RowChange) -> Result<()> {
        match change {
            RowChange::Insert(row) => self.upsert(row.clone()),
            RowChange::Update { row, .. } => self.upsert(row.clone()),
            RowChange::Delete { key } => {
                self.delete(key);
                Ok(())
            }
        }
    }

    /// Point lookup by full clustered key.
    pub fn get(&self, key: &[Value]) -> Option<&Row> {
        self.rows.get(key)
    }

    /// Visit every row that falls in `range` on the *first* clustered key
    /// column and passes `filter`; `emit` receives survivors.
    ///
    /// This is the single scan primitive: executors push residual predicates
    /// down as `filter` so only qualifying rows are materialized.
    pub fn scan_range<F, E>(&self, range: &KeyRange, mut filter: F, mut emit: E)
    where
        F: FnMut(&Row) -> bool,
        E: FnMut(&Row),
    {
        let (from, to) = range.span(&self.rows);
        for (_, rows) in self.rows.slices(from, to) {
            for row in rows {
                if filter(row) {
                    emit(row);
                }
            }
        }
    }

    /// Open a resumable scan of `range` in clustered-key order — the rows
    /// [`Table::scan_range`] visits, in the same order, handed out a
    /// stretch at a time by [`Table::next_run`].
    pub fn scan_cursor(&self, range: &KeyRange) -> ScanCursor {
        let span = range.span(&self.rows);
        ScanCursor {
            index: None,
            span,
            at: span.0,
        }
    }

    /// Open a resumable scan of the secondary index named `index` over
    /// `range`: the rows [`Table::index_scan`] returns, in the same order.
    pub fn index_cursor(&self, index: &str, range: &KeyRange) -> Result<ScanCursor> {
        let i = self.index_position(index)?;
        let span = self.indexes[i].span(range);
        Ok(ScanCursor {
            index: Some(i),
            span,
            at: span.0,
        })
    }

    /// The rows a scan reaches next, by reference and in scan order: the
    /// rest of one storage chunk's part of a clustered span, or the next
    /// row of an index scan (a one-row run). `None` once the scan is
    /// exhausted. A clustered run whose span covers its whole chunk also
    /// reads as typed columns ([`Run::column`]); every other run is walked
    /// row by row. The cursor does not move until [`Table::advance`]; it
    /// must come from this same table state — scans hold the snapshot they
    /// opened it on.
    pub fn next_run(&self, cursor: &mut ScanCursor) -> Option<Run<'_, Row>> {
        let Some(ix) = cursor.index.map(|i| &self.indexes[i]) else {
            return self.rows.run(cursor.span, cursor.at);
        };
        while cursor.at < cursor.span.1 {
            if let Some(run) = self.rows.run_of(ix.pk_at(cursor.at)?) {
                return Some(run);
            }
            // an entry whose row is gone: nothing to read
            cursor.at = ix.step(cursor.at);
        }
        None
    }

    /// Move the cursor past the first `n` rows of the run
    /// [`Table::next_run`] handed out last.
    pub fn advance(&self, cursor: &mut ScanCursor, n: usize) {
        cursor.at = match cursor.index {
            None => self.rows.step(cursor.at, n),
            Some(_) if n == 0 => cursor.at,
            Some(i) => self.indexes[i].step(cursor.at),
        };
    }

    /// A finder of the rows each of a rising sequence of values leads the
    /// clustered key with ([`SpanFinder::find`]): what an index
    /// nested-loop join probes a sorted batch of keys with.
    pub fn span_finder(&self) -> SpanFinder<'_> {
        SpanFinder {
            table: self,
            at: Cursor::START,
        }
    }

    /// The rows of `span` as one run per storage chunk, in key order. Each
    /// run reads through its chunk's image ([`Run::column`]), whether it
    /// covers the chunk or not.
    pub fn span_runs(&self, span: KeySpan) -> impl Iterator<Item = Run<'_, Row>> {
        let mut at = span.from;
        std::iter::from_fn(move || {
            let run = self.rows.run((span.from, span.to), at)?;
            at = self.rows.step(at, run.vals().len());
            Some(run)
        })
    }

    /// Where in `indexes` the secondary index named `index` is.
    fn index_position(&self, index: &str) -> Result<usize> {
        self.indexes
            .iter()
            .position(|ix| ix.name() == index)
            .ok_or_else(|| Error::NotFound(format!("index {index} on table {}", self.name)))
    }

    /// The secondary index named `index`.
    fn index_named(&self, index: &str) -> Result<&SecondaryIndex> {
        Ok(&self.indexes[self.index_position(index)?])
    }

    /// Resolve the clustered keys selected by seeking the secondary index
    /// named `index` with `range`, in index order (then clustered-key
    /// order): what an index holds, for tests to compare with.
    pub fn index_pks(&self, index: &str, range: &KeyRange) -> Result<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        self.index_named(index)?
            .scan(range, |pk| out.push(pk.to_vec()));
        Ok(out)
    }

    /// Collect rows in `range` passing `filter` into a vector.
    pub fn collect_range<F>(&self, range: &KeyRange, filter: F) -> Vec<Row>
    where
        F: FnMut(&Row) -> bool,
    {
        let mut out = Vec::new();
        let mut filter = filter;
        self.scan_range(range, |r| filter(r), |r| out.push(r.clone()));
        out
    }

    /// Full-table scan collecting everything.
    pub fn collect_all(&self) -> Vec<Row> {
        self.iter().cloned().collect()
    }

    /// Seek a secondary index named `index` with `range`, returning matching
    /// rows in index order (then clustered-key order).
    pub fn index_scan(&self, index: &str, range: &KeyRange) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.index_named(index)?.scan(range, |pk| {
            if let Some(row) = self.rows.get(pk) {
                out.push(row.clone());
            }
        });
        Ok(out)
    }

    /// Iterate all rows in clustered order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().map(|(_, row)| row)
    }

    /// Remove all rows (keeps schema and index definitions).
    pub fn truncate(&mut self) {
        self.rows.clear();
        for ix in &mut self.indexes {
            ix.clear();
        }
    }
}

/// The rows whose first clustered-key column holds one value, as
/// [`SpanFinder::find`] locates them; read by [`Table::span_runs`].
/// Meaningful only for the table state it was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySpan {
    from: Cursor,
    to: Cursor,
}

impl KeySpan {
    /// A span of no row.
    pub const EMPTY: KeySpan = KeySpan {
        from: Cursor::START,
        to: Cursor::START,
    };

    /// True when the span holds no row.
    pub fn is_empty(&self) -> bool {
        self.from >= self.to
    }

    /// `self` and `next` as one span, when `next` starts where `self`
    /// ends (or either is empty).
    pub fn followed_by(self, next: KeySpan) -> Option<KeySpan> {
        match (self.is_empty(), next.is_empty()) {
            (true, _) => Some(next),
            (_, true) => Some(self),
            _ => (self.to == next.from).then_some(KeySpan {
                from: self.from,
                to: next.to,
            }),
        }
    }
}

/// Finds the spans of a rising sequence of first-clustered-key values in
/// one forward pass over a table: each search gallops on from where the
/// previous value's rows start — over the chunk fences to skip whole
/// chunks, then through the typed image of the first key column inside
/// the one chunk the rows start (or end) in — so a batch of sorted keys
/// costs O(log gap) comparisons a key, not two descents from the root.
/// Made by [`Table::span_finder`].
#[derive(Debug)]
pub struct SpanFinder<'t> {
    table: &'t Table,
    /// Where the previous value's rows start.
    at: Cursor,
}

impl SpanFinder<'_> {
    /// The rows whose first clustered-key column equals `key` under
    /// [`Value::total_cmp`] (a NULL finds the rows holding NULL there), in
    /// clustered order. `key` must not order below the previous call's: a
    /// search never looks back.
    pub fn find(&mut self, key: ValueRef<'_>) -> KeySpan {
        let from = self.partition(self.at, key, false);
        let to = self.partition(from, key, true);
        self.at = from;
        KeySpan { from, to }
    }

    /// The first position at or after `at` whose first key column orders
    /// above `key` (`or_equal`), or else not below it.
    fn partition(&self, at: Cursor, key: ValueRef<'_>, or_equal: bool) -> Cursor {
        let lead = self.table.key[0];
        let fence_below = |fence: &ClusterKey| {
            let o = ValueRef::of(&fence.as_slice()[0]).total_cmp(key);
            o.is_lt() || (or_equal && o.is_eq())
        };
        self.table.rows.gallop_from(at, fence_below, |run| {
            let from = run.offset();
            let cells = from..from + run.vals().len();
            run.column(lead).partition_point(cells, key, or_equal) - from
        })
    }
}

/// Where a resumable scan stands: a span of the clustered row map, or of
/// one secondary index, of which a prefix has been visited. Made by
/// [`Table::scan_cursor`] / [`Table::index_cursor`], advanced by
/// [`Table::advance`].
#[derive(Debug, Clone)]
pub struct ScanCursor {
    /// Position in `Table::indexes` of the index walked; `None` walks the
    /// clustered rows.
    index: Option<usize>,
    /// The whole span the scan was opened on, `[start, end)`.
    span: (Cursor, Cursor),
    at: Cursor,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType};

    fn books() -> Table {
        let schema = Schema::new(vec![
            Column::new("isbn", DataType::Int),
            Column::new("title", DataType::Str),
            Column::new("price", DataType::Float),
        ]);
        let mut t = Table::new("books", schema, vec![0]);
        for (isbn, title, price) in [
            (3, "c", 30.0),
            (1, "a", 10.0),
            (2, "b", 20.0),
            (5, "e", 50.0),
            (4, "d", 40.0),
        ] {
            t.insert(Row::new(vec![
                Value::Int(isbn),
                Value::from(title),
                Value::Float(price),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_maintains_clustered_order() {
        let t = books();
        let isbns: Vec<i64> = t.iter().map(|r| r.get(0).as_int().unwrap()).collect();
        assert_eq!(isbns, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = books();
        let err = t
            .insert(Row::new(vec![
                Value::Int(1),
                Value::from("dup"),
                Value::Float(0.0),
            ]))
            .unwrap_err();
        assert!(matches!(err, Error::Storage(_)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = books();
        assert!(t.insert(Row::new(vec![Value::Int(9)])).is_err());
    }

    #[test]
    fn point_lookup() {
        let t = books();
        let r = t.get(&[Value::Int(3)]).unwrap();
        assert_eq!(r.get(1).as_str().unwrap(), "c");
        assert!(t.get(&[Value::Int(99)]).is_none());
    }

    #[test]
    fn range_scan_half_open() {
        let t = books();
        let rows = t.collect_range(&KeyRange::less_than(Value::Int(3)), |_| true);
        assert_eq!(rows.len(), 2);
        let rows = t.collect_range(&KeyRange::between(Value::Int(2), Value::Int(4)), |_| true);
        assert_eq!(rows.len(), 3);
        let rows = t.collect_range(&KeyRange::greater_than(Value::Int(4)), |_| true);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn scan_filter_pushdown() {
        let t = books();
        let rows = t.collect_range(&KeyRange::all(), |r| r.get(2).as_float().unwrap() > 25.0);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn update_and_delete_maintain_state() {
        let mut t = books();
        t.update(
            &[Value::Int(2)],
            Row::new(vec![Value::Int(2), Value::from("b2"), Value::Float(21.0)]),
        )
        .unwrap();
        assert_eq!(
            t.get(&[Value::Int(2)]).unwrap().get(1).as_str().unwrap(),
            "b2"
        );
        assert!(t
            .update(
                &[Value::Int(2)],
                Row::new(vec![Value::Int(3), Value::from("x"), Value::Float(0.0)])
            )
            .is_err());
        let old = t.delete(&[Value::Int(2)]).unwrap();
        assert_eq!(old.get(1).as_str().unwrap(), "b2");
        assert_eq!(t.row_count(), 4);
        assert!(t.delete(&[Value::Int(2)]).is_none());
    }

    #[test]
    fn secondary_index_scan() {
        let mut t = books();
        t.create_index("ix_price", vec![2]).unwrap();
        let rows = t
            .index_scan(
                "ix_price",
                &KeyRange::between(Value::Float(15.0), Value::Float(45.0)),
            )
            .unwrap();
        let prices: Vec<f64> = rows.iter().map(|r| r.get(2).as_float().unwrap()).collect();
        assert_eq!(prices, vec![20.0, 30.0, 40.0]);
        assert!(t.index_scan("nope", &KeyRange::all()).is_err());
    }

    #[test]
    fn index_tracks_mutations() {
        let mut t = books();
        t.create_index("ix_price", vec![2]).unwrap();
        t.upsert(Row::new(vec![
            Value::Int(1),
            Value::from("a"),
            Value::Float(99.0),
        ]))
        .unwrap();
        t.delete(&[Value::Int(5)]);
        let rows = t
            .index_scan("ix_price", &KeyRange::at_least(Value::Float(45.0)))
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).as_int().unwrap(), 1);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = books();
        t.create_index("ix", vec![2]).unwrap();
        assert!(t.create_index("ix", vec![1]).is_err());
    }

    #[test]
    fn apply_row_changes() {
        let mut t = books();
        t.apply(&RowChange::Delete {
            key: vec![Value::Int(1)],
        })
        .unwrap();
        t.apply(&RowChange::Insert(Row::new(vec![
            Value::Int(10),
            Value::from("j"),
            Value::Float(1.0),
        ])))
        .unwrap();
        t.apply(&RowChange::Update {
            key: vec![Value::Int(10)],
            row: Row::new(vec![Value::Int(10), Value::from("j2"), Value::Float(2.0)]),
        })
        .unwrap();
        assert_eq!(
            t.get(&[Value::Int(10)]).unwrap().get(1).as_str().unwrap(),
            "j2"
        );
        assert!(t.get(&[Value::Int(1)]).is_none());
        // idempotent re-delivery
        t.apply(&RowChange::Insert(Row::new(vec![
            Value::Int(10),
            Value::from("j2"),
            Value::Float(2.0),
        ])))
        .unwrap();
        assert_eq!(t.row_count(), 5);
    }

    #[test]
    fn truncate_clears_rows_and_indexes() {
        let mut t = books();
        t.create_index("ix_price", vec![2]).unwrap();
        t.truncate();
        assert_eq!(t.row_count(), 0);
        assert!(t
            .index_scan("ix_price", &KeyRange::all())
            .unwrap()
            .is_empty());
    }

    /// A cursor scan visits what the one-shot scans return, in their order,
    /// whatever the stretch taken per run; a scan stopped after a row
    /// resumes right after it.
    #[test]
    fn cursor_scans_resume_and_agree_with_one_shot_scans() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int),
        ]);
        let mut t = Table::new("t", schema, vec![0]);
        for i in 0..700i64 {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 7)]))
                .unwrap();
        }
        t.create_index("ix_grp", vec![1]).unwrap();
        // take at most `stride` rows of each run handed out
        let drain = |mut cursor: ScanCursor, stride: usize| {
            let mut out = Vec::new();
            while let Some(run) = t.next_run(&mut cursor) {
                let taken = &run.vals()[..run.vals().len().min(stride)];
                out.extend_from_slice(taken);
                t.advance(&mut cursor, taken.len());
            }
            out
        };
        let range = KeyRange::between(Value::Int(100), Value::Int(650));
        let clustered = t.collect_range(&range, |_| true);
        let grp_range = KeyRange::between(Value::Int(2), Value::Int(4));
        let indexed = t.index_scan("ix_grp", &grp_range).unwrap();
        assert_eq!((clustered.len(), indexed.len()), (551, 300));
        for stride in [1, 5, 256, 10_000] {
            assert_eq!(drain(t.scan_cursor(&range), stride), clustered);
            let cursor = t.index_cursor("ix_grp", &grp_range).unwrap();
            assert_eq!(drain(cursor, stride), indexed);
        }
        assert!(t.index_cursor("nope", &KeyRange::all()).is_err());
        // the cursor stays until advanced, and resumes after the rows taken
        let mut cursor = t.scan_cursor(&range);
        let first = t.next_run(&mut cursor).map(|run| run.vals()[0].clone());
        assert_eq!(first.as_ref(), Some(&clustered[0]));
        let again = t.next_run(&mut cursor).map(|run| run.vals()[0].clone());
        assert_eq!(again, first);
        t.advance(&mut cursor, 1);
        assert_eq!(drain(cursor, 1000), clustered[1..]);
    }

    #[test]
    fn index_pks_follow_index_order() {
        let mut t = books();
        t.create_index("ix_price", vec![2]).unwrap();
        let pks = t
            .index_pks(
                "ix_price",
                &KeyRange::between(Value::Float(15.0), Value::Float(45.0)),
            )
            .unwrap();
        assert_eq!(
            pks,
            vec![
                vec![Value::Int(2)],
                vec![Value::Int(3)],
                vec![Value::Int(4)]
            ]
        );
        assert!(t.index_pks("nope", &KeyRange::all()).is_err());
    }

    #[test]
    fn one_row_update_shares_all_other_chunks() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("bal", DataType::Float),
        ]);
        let mut t = Table::new("customer", schema, vec![0]);
        t.create_index("ix_name", vec![1]).unwrap();
        t.create_index("ix_bal", vec![2]).unwrap();
        let row = |id: i64, bal: f64| {
            Row::new(vec![
                Value::Int(id),
                Value::from(format!("c{id:05}").as_str()),
                Value::Float(bal),
            ])
        };
        for id in 0..30_000 {
            t.insert(row(id, id as f64)).unwrap();
        }
        let before = t.clone();
        assert!(t.rows.chunk_count() > 100);
        assert_eq!(t.rows.shared_chunks(&before.rows), t.rows.chunk_count());

        t.update(&[Value::Int(12_345)], row(12_345, -1.0)).unwrap();

        /// Chunks of the old snapshot the new one no longer shares.
        fn unshared<K, V>(now: &CowMap<K, V>, then: &CowMap<K, V>) -> usize {
            then.chunk_count() - then.shared_chunks(now)
        }
        assert!(unshared(&t.rows, &before.rows) <= 2);
        // `name` did not change, so its index copied nothing; `bal` moved
        // one entry out of one chunk and into another (splitting it)
        assert_eq!(
            unshared(t.indexes[0].entries(), before.indexes[0].entries()),
            0
        );
        let moved = unshared(t.indexes[1].entries(), before.indexes[1].entries());
        assert!((1..=2).contains(&moved), "{moved} ix_bal chunks copied");
        // the old snapshot still reads the old row, through either path
        let key = [Value::Int(12_345)];
        assert_eq!(before.get(&key).unwrap().get(2), &Value::Float(12_345.0));
        assert_eq!(t.get(&key).unwrap().get(2), &Value::Float(-1.0));
        let at = |t: &Table, bal: f64| {
            t.index_pks("ix_bal", &KeyRange::eq(Value::Float(bal)))
                .unwrap()
        };
        assert_eq!(at(&before, 12_345.0), vec![key.to_vec()]);
        assert!(at(&before, -1.0).is_empty());
        assert_eq!(at(&t, -1.0), vec![key.to_vec()]);
        assert!(at(&t, 12_345.0).is_empty());
        assert_eq!(before.row_count(), 30_000);
    }

    #[test]
    fn excluded_low_bound_skips_a_key_run_across_chunks() {
        let schema = Schema::new(vec![
            Column::new("cust", DataType::Int),
            Column::new("order", DataType::Int),
        ]);
        let mut t = Table::new("orders", schema, vec![0, 1]);
        // customer 2's run is longer than a chunk, so it straddles at least
        // one chunk boundary and the scan must resume in a later chunk
        for (cust, orders) in [(1, 10), (2, 700), (3, 10)] {
            for o in 0..orders {
                t.insert(Row::new(vec![Value::Int(cust), Value::Int(o)]))
                    .unwrap();
            }
        }
        assert!(t.rows.chunk_count() >= 3);
        let custs = |range: &KeyRange| -> Vec<i64> {
            let rows = t.collect_range(range, |_| true);
            rows.iter().map(|r| r.get(0).as_int().unwrap()).collect()
        };
        assert_eq!(custs(&KeyRange::greater_than(Value::Int(2))), vec![3; 10]);
        assert_eq!(custs(&KeyRange::greater_than(Value::Int(1))).len(), 710);
        assert_eq!(custs(&KeyRange::less_than(Value::Int(2))), vec![1; 10]);
        let mid = KeyRange {
            low: std::ops::Bound::Excluded(Value::Int(1)),
            high: std::ops::Bound::Excluded(Value::Int(3)),
        };
        assert_eq!(custs(&mid), vec![2; 700]);
        // a cursor over the straddling run resumes in each later chunk
        let mut cursor = t.scan_cursor(&mid);
        let mut walked = Vec::new();
        while let Some(run) = t.next_run(&mut cursor) {
            walked.extend_from_slice(run.vals());
            t.advance(&mut cursor, run.vals().len());
        }
        assert_eq!(walked, t.collect_range(&mid, |_| true));
    }

    #[test]
    fn composite_key_prefix_scan() {
        let schema = Schema::new(vec![
            Column::new("cust", DataType::Int),
            Column::new("order", DataType::Int),
        ]);
        let mut t = Table::new("orders", schema, vec![0, 1]);
        for c in 1..=3 {
            for o in 1..=4 {
                t.insert(Row::new(vec![Value::Int(c), Value::Int(o * 10)]))
                    .unwrap();
            }
        }
        let rows = t.collect_range(&KeyRange::eq(Value::Int(2)), |_| true);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.get(0).as_int().unwrap() == 2));
        // prefix scan respects excluded lower bound
        let rows = t.collect_range(&KeyRange::greater_than(Value::Int(2)), |_| true);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.get(0).as_int().unwrap() == 3));
    }

    /// The spans a finder walks to, key by key over rising keys, hold the
    /// rows an equality scan returns: runs shorter than, as long as and
    /// longer than a chunk, absent keys, repeated keys, NULLs, a key of
    /// another numeric type, integers past 2⁵³, and a first key column that
    /// is typed, holds NULLs, mixes types or holds strings.
    #[test]
    fn span_finder_agrees_with_equality_scans() {
        let lengths = [1usize, 3, 300, 7, 600, 256, 2, 513, 40];
        let lead = |i: usize, kind: u8| match (kind, i) {
            (1, 0) => Value::Null,
            (2, 0 | 3 | 6 | 9) => Value::Float(i as f64 * 10.0 + 0.5),
            (3, _) => Value::Str(format!("k{:03}", i * 10)),
            (4, _) => Value::Int((1 << 53) + i as i64 * 2),
            _ => Value::Int(i as i64 * 10),
        };
        for kind in 0..5u8 {
            let schema = Schema::new(vec![
                Column::new("g", DataType::Int),
                Column::new("id", DataType::Int),
            ]);
            let mut t = Table::new("t", schema, vec![0, 1]);
            let mut id = 0i64;
            for (i, &n) in lengths.iter().enumerate() {
                for _ in 0..n {
                    t.insert(Row::new(vec![lead(i, kind), Value::Int(id)]))
                        .unwrap();
                    id += 1;
                }
            }
            // present keys, absent ones between and around them, repeats
            let mut keys: Vec<Value> = vec![Value::Null, Value::Int(-5)];
            for i in 0..lengths.len() + 2 {
                let key = lead(i, kind);
                keys.push(match &key {
                    Value::Int(k) => Value::Int(k + 1),
                    Value::Float(f) => Value::Float(f + 0.25),
                    other => Value::Str(format!("{other}~")),
                });
                keys.push(key.clone());
                if i % 2 == 0 {
                    keys.push(key);
                }
            }
            keys.push(Value::Float(20.0));
            keys.push(Value::Str("zz".into()));
            keys.sort();
            let mut finder = t.span_finder();
            for key in &keys {
                let span = finder.find(ValueRef::of(key));
                let rows: Vec<Row> = (t.span_runs(span))
                    .flat_map(|run| run.vals().to_vec())
                    .collect();
                let expected = t.collect_range(&KeyRange::eq(key.clone()), |_| true);
                assert_eq!(rows, expected, "kind {kind}, key {key:?}");
                assert_eq!(span.is_empty(), expected.is_empty());
            }
        }
    }
}
