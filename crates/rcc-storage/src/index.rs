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
    /// Ordinals (into the table schema) of the indexed columns.
    columns: Vec<usize>,
    /// Index key values followed by the clustered key values.
    entries: CowMap<Vec<Value>, ()>,
}

impl SecondaryIndex {
    /// Create an empty index over the given column ordinals.
    ///
    /// # Panics
    /// Panics if `columns` is empty.
    pub fn new(name: impl Into<String>, columns: Vec<usize>) -> SecondaryIndex {
        assert!(!columns.is_empty(), "an index needs at least one column");
        SecondaryIndex {
            name: name.into(),
            columns,
            entries: CowMap::new(),
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed column ordinals.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// Number of entries (== table row count once synced).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn entry_of(&self, row: &Row, pk: &[Value]) -> Vec<Value> {
        let mut entry = Vec::with_capacity(self.columns.len() + pk.len());
        entry.extend(self.columns.iter().map(|&i| row.get(i).clone()));
        entry.extend_from_slice(pk);
        entry
    }

    /// Add an entry for `row` stored at clustered key `pk`.
    pub fn insert(&mut self, row: &Row, pk: &[Value]) {
        self.entries.insert(self.entry_of(row, pk), ());
    }

    /// Add the entries of `rows`, each stored at the clustered key its
    /// `key` columns hold and none indexed yet, in one sorted pass
    /// ([`CowMap::merge_sorted`]).
    pub fn load<'a>(&mut self, rows: impl Iterator<Item = &'a Row>, key: &[usize]) {
        let mut entries: Vec<Vec<Value>> = rows
            .map(|row| {
                let mut entry = Vec::with_capacity(self.columns.len() + key.len());
                entry.extend(self.columns.iter().chain(key).map(|&i| row.get(i).clone()));
                entry
            })
            .collect();
        entries.sort_unstable();
        self.entries
            .merge_sorted(entries.into_iter().map(|entry| (entry, ())));
    }

    /// Remove the entry for `row` stored at clustered key `pk`.
    pub fn remove(&mut self, row: &Row, pk: &[Value]) {
        self.entries.remove(self.entry_of(row, pk).as_slice());
    }

    /// Re-point the entry at `pk` from `old` to `new`. A no-op — no chunk
    /// is copied — when no indexed column differs between the two rows.
    pub fn replace(&mut self, old: &Row, new: &Row, pk: &[Value]) {
        if self.columns.iter().any(|&i| old.get(i) != new.get(i)) {
            self.remove(old, pk);
            self.insert(new, pk);
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
        for (entries, _) in self.entries.slices(from, to) {
            for entry in entries {
                emit(&entry[self.columns.len()..]);
            }
        }
    }

    /// The span of entries whose *first* indexed column falls in `range`.
    pub(crate) fn span(&self, range: &KeyRange) -> (Cursor, Cursor) {
        range.span(&self.entries)
    }

    /// The clustered key of the entry at `at`, if there is one.
    pub(crate) fn pk_at(&self, at: Cursor) -> Option<&[Value]> {
        let entry = self.entries.key_at(at)?;
        Some(&entry[self.columns.len()..])
    }

    /// The position after the entry at `at`.
    pub(crate) fn step(&self, at: Cursor) -> Cursor {
        self.entries.step(at, 1)
    }

    /// Estimate of entries in `range` (exact here, since we can count).
    pub fn count_in(&self, range: &KeyRange) -> usize {
        let (from, to) = range.span(&self.entries);
        self.entries.slices(from, to).map(|(e, _)| e.len()).sum()
    }

    /// The entry container, for structural-sharing assertions.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &CowMap<Vec<Value>, ()> {
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
        let mut ix = SecondaryIndex::new("ix", vec![1]);
        for (k, v) in [(1, 30), (2, 10), (3, 20), (4, 10)] {
            ix.insert(&row(k, v), &[Value::Int(k)]);
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
        ix.remove(&row(4, 10), &[Value::Int(4)]);
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
