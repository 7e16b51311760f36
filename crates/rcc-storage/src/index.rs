//! Secondary indexes.

use crate::cowmap::{CowMap, Cursor};
use crate::range::KeyRange;
use rcc_common::{Row, Value};

/// A secondary index: an ordered set of (index-key ++ clustered-key)
/// entries. Including the clustered key in the entry makes duplicate index
/// keys unambiguous, the same trick real engines use. Entries live in a
/// [`CowMap`], so cloning the index (a table snapshot) shares every chunk
/// and a write copies only the chunk it lands in.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    name: String,
    /// Ordinals (into the table schema) of the indexed columns, then of the
    /// table's clustered-key columns: the cells an entry holds, in order.
    ordinals: Vec<usize>,
    /// How many of `ordinals` are indexed columns.
    width: usize,
    /// Index key values followed by the clustered key values, each entry a
    /// row ordered by all of its cells.
    entries: CowMap,
}

impl SecondaryIndex {
    /// Create an empty index over the column ordinals `columns` of a table
    /// clustered on the ordinals `key`.
    ///
    /// # Panics
    /// Panics if `columns` is empty.
    pub fn new(name: impl Into<String>, columns: Vec<usize>, key: &[usize]) -> SecondaryIndex {
        assert!(!columns.is_empty(), "an index needs at least one column");
        let width = columns.len();
        let mut ordinals = columns;
        ordinals.extend_from_slice(key);
        SecondaryIndex {
            name: name.into(),
            entries: CowMap::new((0..ordinals.len()).collect()),
            ordinals,
            width,
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed column ordinals.
    pub fn columns(&self) -> &[usize] {
        &self.ordinals[..self.width]
    }

    /// Number of entries (== table row count once synced).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry of `row`: its indexed cells, then its clustered key.
    fn entry_of(&self, row: &Row) -> Row {
        self.ordinals.iter().map(|&i| row.get(i).clone()).collect()
    }

    /// Add the entry of `row`.
    pub fn insert(&mut self, row: &Row) {
        self.entries.insert(self.entry_of(row));
    }

    /// Add the entries of `rows`, none indexed yet, in one sorted pass
    /// ([`CowMap::merge_sorted`]).
    pub fn load<'a>(&mut self, rows: impl Iterator<Item = &'a Row>) {
        let mut entries: Vec<Row> = rows.map(|row| self.entry_of(row)).collect();
        entries.sort_unstable_by(|a, b| a.values().cmp(b.values()));
        self.entries.merge_sorted(entries);
    }

    /// Remove the entry of `row`.
    pub fn remove(&mut self, row: &Row) {
        self.entries.remove(self.entry_of(row).values());
    }

    /// Re-point the entry of the row stored as `old` to `new`, which has
    /// the same clustered key. A no-op — no chunk is copied — when no
    /// indexed column differs between the two rows.
    pub fn replace(&mut self, old: &Row, new: &Row) {
        if self.columns().iter().any(|&i| old.get(i) != new.get(i)) {
            self.remove(old);
            self.insert(new);
        }
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Visit the clustered keys of all rows whose *first* indexed column
    /// falls in `range`, in index order.
    pub fn scan<E>(&self, range: &KeyRange, mut emit: E)
    where
        E: FnMut(&[Value]),
    {
        let (from, to) = range.span(&self.entries);
        for entries in self.entries.slices(from, to) {
            for entry in entries {
                emit(&entry.values()[self.width..]);
            }
        }
    }

    /// The span of entries whose *first* indexed column falls in `range`.
    pub(crate) fn span(&self, range: &KeyRange) -> (Cursor, Cursor) {
        range.span(&self.entries)
    }

    /// The clustered key of the entry at `at`, if there is one.
    pub(crate) fn pk_at(&self, at: Cursor) -> Option<&[Value]> {
        let entry = self.entries.entry_at(at)?;
        Some(&entry.values()[self.width..])
    }

    /// The position after the entry at `at`.
    pub(crate) fn step(&self, at: Cursor) -> Cursor {
        self.entries.step(at, 1)
    }

    /// Estimate of entries in `range` (exact here, since we can count).
    pub fn count_in(&self, range: &KeyRange) -> usize {
        let (from, to) = range.span(&self.entries);
        self.entries.slices(from, to).map(<[_]>::len).sum()
    }

    /// The entry container, for structural-sharing assertions.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &CowMap {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::Row;

    fn row(k: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(k), Value::Int(v)])
    }

    fn sample() -> SecondaryIndex {
        // index on column 1 (v); clustered key = column 0 (k)
        let mut ix = SecondaryIndex::new("ix", vec![1], &[0]);
        for (k, v) in [(1, 30), (2, 10), (3, 20), (4, 10)] {
            ix.insert(&row(k, v));
        }
        ix
    }

    #[test]
    fn scan_in_index_order_with_duplicates() {
        let ix = sample();
        let mut pks = Vec::new();
        ix.scan(&KeyRange::all(), |pk| pks.push(pk[0].as_int().unwrap()));
        // v=10 twice (pk 2 then 4), v=20 (pk 3), v=30 (pk 1)
        assert_eq!(pks, vec![2, 4, 3, 1]);
    }

    #[test]
    fn range_scans() {
        let ix = sample();
        assert_eq!(ix.count_in(&KeyRange::eq(Value::Int(10))), 2);
        assert_eq!(
            ix.count_in(&KeyRange::between(Value::Int(10), Value::Int(20))),
            3
        );
        assert_eq!(ix.count_in(&KeyRange::greater_than(Value::Int(20))), 1);
        assert_eq!(ix.count_in(&KeyRange::less_than(Value::Int(10))), 0);
    }

    #[test]
    fn remove_specific_entry() {
        let mut ix = sample();
        ix.remove(&row(4, 10));
        assert_eq!(ix.count_in(&KeyRange::eq(Value::Int(10))), 1);
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn clear_empties() {
        let mut ix = sample();
        ix.clear();
        assert!(ix.is_empty());
    }
}
