//! Dense group ids for key tuples read straight out of columns.
//!
//! [`GroupTable`] is what `GROUP BY`, `DISTINCT` and the hash join's build
//! side share: it numbers distinct key tuples 0, 1, 2 … in first-seen
//! order and keeps one copy of each key in typed columns, so no `Vec<Value>`
//! key is built per input row. Keys are equal exactly when their `Value`s
//! are (`Int(1)` and `Float(1.0)` are one key, NULL equals NULL — callers
//! that must not match NULLs skip them before asking).
//!
//! A single numeric key is looked up by the bits of its `f64` value in one
//! keyed map. A batch of integer keys that fits a bounded [`Window`] reads
//! its ids by index instead and asks the map only for a key it has not
//! met, so the map stays the one authority that `find` reads. Every other
//! single numeric key — a float, an integer column with NULLs, an integer
//! the window refuses — is hashed on every row.

use rcc_storage::column::{Column, ColumnData};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

const NONE: u32 = u32::MAX;

/// Most integer keys a [`Window`] spans: 16 KiB of group ids.
const WINDOW: i64 = 4096;

/// Integers of smaller magnitude are exact in `f64`, so two of them have
/// the same `f64` bits — the same `Value` key — exactly when they are equal.
const EXACT: i64 = 1 << 53;

/// Distinct key tuples, numbered in first-seen order.
#[derive(Debug)]
pub(crate) struct GroupTable {
    /// One column per key part; cell `g` is group `g`'s (first-seen) key.
    keys: Vec<Column>,
    /// Groups whose key is a single number, by the bits of its `f64` value
    /// — which is what `Value` equality and hashing go by for every
    /// numeric type, so no key has to be compared again. The one authority
    /// on single-number groups: `window` only caches what is here.
    numbers: HashMap<u64, u32>,
    /// Group ids of a bounded run of integer keys, read by index.
    window: Window,
    /// Every other group: the hash of the key tuple leads to the newest
    /// group with that hash, `older[g]` to the one before it.
    heads: HashMap<u64, u32>,
    older: Vec<u32>,
}

/// A direct-indexed cache of [`GroupTable::numbers`] for the integer keys
/// `base .. base + ids.len()`, at most [`WINDOW`] of them and all inside
/// ±[`EXACT`]: `ids[k - base]` is key `k`'s group, `NONE` until key `k`
/// is first looked up. Integer key columns mostly hold a few distinct
/// values close together (nation, region, status codes), and an index
/// spares the keyed hash without a slot two keys can share.
#[derive(Debug, Default)]
struct Window {
    base: i64,
    ids: Vec<u32>,
}

impl Window {
    /// Where key `k`'s id is kept: an index into `ids` exactly when the
    /// window holds `k` (a key outside wraps to an index past any window).
    #[inline]
    fn slot(&self, k: i64) -> usize {
        usize::try_from(k.wrapping_sub(self.base) as u64).unwrap_or(usize::MAX)
    }

    /// Key `k`'s id — `NONE` if not met yet — when the window holds `k`.
    #[inline]
    fn id(&self, k: i64) -> Option<u32> {
        self.ids.get(self.slot(k)).copied()
    }

    /// Widen the window to hold the keys `lo ..= hi` as well, unless it
    /// would then span more than [`WINDOW`] keys or reach past ±[`EXACT`].
    fn cover(&mut self, lo: i64, hi: i64) {
        if lo <= -EXACT || hi >= EXACT {
            return;
        }
        if self.ids.is_empty() {
            self.base = lo;
        }
        let base = self.base.min(lo);
        let end = (self.base + self.ids.len() as i64 - 1).max(hi);
        let span = end - base + 1;
        if span <= WINDOW && span as usize > self.ids.len() {
            let mut ids = vec![NONE; span as usize];
            let at = (self.base - base) as usize;
            ids[at..at + self.ids.len()].copy_from_slice(&self.ids);
            (self.base, self.ids) = (base, ids);
        }
    }
}

impl Default for GroupTable {
    fn default() -> Self {
        GroupTable::new(0)
    }
}

impl GroupTable {
    /// A table for keys of `width` parts.
    pub(crate) fn new(width: usize) -> GroupTable {
        GroupTable {
            keys: vec![Column::new(); width],
            numbers: HashMap::new(),
            window: Window::default(),
            heads: HashMap::new(),
            older: Vec::new(),
        }
    }

    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        self.older.len()
    }

    /// The keys, one column per part, one cell per group.
    pub(crate) fn into_keys(self) -> Vec<Column> {
        self.keys
    }

    fn single_number(parts: &[&Column], row: usize) -> Option<u64> {
        match parts {
            [part] => part.get(row).numeric().map(f64::to_bits),
            _ => None,
        }
    }

    fn hash_of(parts: &[&Column], row: usize) -> u64 {
        let mut hasher = DefaultHasher::new();
        for part in parts {
            part.get(row).hash(&mut hasher);
        }
        hasher.finish()
    }

    /// Walk the groups sharing `hash` for one whose key equals the row's.
    fn find_hashed(&self, hash: u64, parts: &[&Column], row: usize) -> Option<u32> {
        let mut g = self.heads.get(&hash).copied().unwrap_or(NONE);
        while g != NONE {
            let same = |(key, part): (&Column, &&Column)| {
                key.get(g as usize).total_cmp(part.get(row)).is_eq()
            };
            if self.keys.iter().zip(parts).all(same) {
                return Some(g);
            }
            g = self.older[g as usize];
        }
        None
    }

    /// The group whose key is cell `row` of each of `parts`, if there is
    /// one.
    pub(crate) fn find(&self, parts: &[&Column], row: usize) -> Option<u32> {
        match Self::single_number(parts, row) {
            Some(bits) => self.numbers.get(&bits).copied(),
            None => self.find_hashed(Self::hash_of(parts, row), parts, row),
        }
    }

    /// The group whose key is cell `row` of each of `parts`, numbered now
    /// if the key is new (then it equals the previous [`Self::len`]).
    pub(crate) fn group_of(&mut self, parts: &[&Column], row: usize) -> u32 {
        match Self::single_number(parts, row) {
            Some(bits) => self.group_of_number(bits, parts[0], row),
            None => {
                let hash = Self::hash_of(parts, row);
                self.find_hashed(hash, parts, row).unwrap_or_else(|| {
                    let older = self.heads.insert(hash, self.older.len() as u32);
                    self.add_group(older.unwrap_or(NONE), parts, row)
                })
            }
        }
    }

    /// [`Self::group_of`] for the first `n` rows of `parts`. A single
    /// integer or float column without NULLs is read as the vector it is,
    /// an integer one through the window; a float one hashes every row.
    pub(crate) fn group_rows(&mut self, parts: &[&Column], n: usize) -> Vec<u32> {
        if let [part] = parts {
            match (part.data(), part.validity()) {
                (ColumnData::Int(d) | ColumnData::Timestamp(d), None) => {
                    return self.group_ints(part, &d[..n]);
                }
                (ColumnData::Float(d), None) => {
                    let number =
                        |(row, f): (usize, &f64)| self.group_of_number(f.to_bits(), part, row);
                    return d[..n].iter().enumerate().map(number).collect();
                }
                _ => {}
            }
        }
        (0..n).map(|row| self.group_of(parts, row)).collect()
    }

    /// The groups of the integer keys `d`, cells `0..` of `part`: by index
    /// into the window for a key it holds and has met; through the keyed
    /// map otherwise. The first key of a batch that falls outside the
    /// window widens it to the rest of the batch, when that fits.
    fn group_ints(&mut self, part: &Column, d: &[i64]) -> Vec<u32> {
        let mut out = vec![NONE; d.len()];
        let (mut row, mut widened) = (0, false);
        while row < d.len() {
            // the run of rows up to the next miss, by index alone
            let window = &self.window;
            for (g, &k) in out[row..].iter_mut().zip(&d[row..]) {
                match window.id(k) {
                    Some(id) if id != NONE => *g = id,
                    _ => break,
                }
                row += 1;
            }
            let Some(&k) = d.get(row) else { break };
            if !widened && self.window.id(k).is_none() {
                widened = true;
                let rest = d[row..].iter();
                let (lo, hi) = rest.fold((k, k), |(lo, hi), &k| (lo.min(k), hi.max(k)));
                self.window.cover(lo, hi);
            }
            let g = self.group_of_number((k as f64).to_bits(), part, row);
            let slot = self.window.slot(k);
            if let Some(id) = self.window.ids.get_mut(slot) {
                *id = g;
            }
            out[row] = g;
            row += 1;
        }
        out
    }

    /// The group of the single numeric key with these `f64` bits, which is
    /// cell `row` of `part`.
    fn group_of_number(&mut self, bits: u64, part: &Column, row: usize) -> u32 {
        if let Some(&g) = self.numbers.get(&bits) {
            return g;
        }
        let g = self.add_group(NONE, &[part], row);
        self.numbers.insert(bits, g);
        g
    }

    /// Number a new group keyed by cell `row` of each of `parts`, linked to
    /// the `older` group of the same hash.
    fn add_group(&mut self, older: u32, parts: &[&Column], row: usize) -> u32 {
        let g = self.older.len() as u32;
        assert!(g != NONE, "more than u32::MAX - 1 groups");
        self.older.push(older);
        for (key, part) in self.keys.iter_mut().zip(parts) {
            key.push(part.get(row));
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::Value;

    fn col(values: &[Value]) -> Column {
        Column::from_values(values.to_vec())
    }

    #[test]
    fn numbers_strings_nulls_and_tuples_group_like_values() {
        // one numeric part: Int, Float and Timestamp of one value are one key
        let a = col(&[
            Value::Int(1),
            Value::Float(1.0),
            Value::Timestamp(1),
            Value::Null,
            Value::from("x"),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Null,
            Value::from("x"),
        ]);
        let mut table = GroupTable::new(1);
        let ids: Vec<u32> = (0..a.len()).map(|r| table.group_of(&[&a], r)).collect();
        assert_eq!(ids, vec![0, 0, 0, 1, 2, 3, 4, 1, 2]);
        assert_eq!(table.len(), 5);
        assert_eq!(table.find(&[&a], 8), Some(2));
        let probe = col(&[Value::Int(7), Value::from("y")]);
        assert_eq!(table.find(&[&probe], 0), None);
        assert_eq!(table.find(&[&probe], 1), None);
        // the first-seen key is the one kept
        let keys = table.into_keys();
        assert!(matches!(keys[0].value(0), Value::Int(1)));
        assert!(keys[0].value(1).is_null());

        // two parts
        let b = col(&[Value::Int(1), Value::Int(2), Value::Int(1), Value::Int(1)]);
        let c = col(&[
            Value::from("p"),
            Value::from("p"),
            Value::from("q"),
            Value::from("p"),
        ]);
        let mut table = GroupTable::new(2);
        let ids: Vec<u32> = (0..4).map(|r| table.group_of(&[&b, &c], r)).collect();
        assert_eq!(ids, vec![0, 1, 2, 0]);

        // no part at all: every row is the one empty key
        let mut table = GroupTable::new(0);
        assert_eq!((table.group_of(&[], 0), table.group_of(&[], 5)), (0, 0));
    }

    #[test]
    fn nation_keys_are_numbered_in_first_seen_order_across_batches() {
        // the 25 nationkeys, each several times, shuffled over three batches
        let mut state = 17u64;
        let mut keys: Vec<i64> = (0..25).cycle().take(120).collect();
        for i in (1..keys.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            keys.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut first_seen: Vec<i64> = Vec::new();
        let mut table = GroupTable::new(1);
        for batch in keys.chunks(40) {
            let part = Column::from_values(batch.iter().map(|&k| Value::Int(k)).collect());
            let ids = table.group_rows(&[&part], batch.len());
            for (&k, &g) in batch.iter().zip(&ids) {
                if !first_seen.contains(&k) {
                    first_seen.push(k);
                }
                assert_eq!(first_seen[g as usize], k);
            }
        }
        assert_eq!(table.len(), 25);
        for (g, &k) in first_seen.iter().enumerate() {
            for key in [Value::Int(k), Value::Float(k as f64), Value::Timestamp(k)] {
                assert_eq!(table.find(&[&col(&[key])], 0), Some(g as u32));
            }
        }
    }

    #[test]
    fn keys_the_window_refuses_group_as_the_keyed_map_does() {
        let exact = 1i64 << 53;
        let batches: [&[i64]; 6] = [
            &[3, 1, 3],
            &[1, 4099],
            &[-4092, 2, 1],
            &[-1, -4092, 4000],
            &[exact, exact + 1, 1],
            &[-exact, 1 - exact, 3],
        ];
        let (mut batched, mut by_row) = (GroupTable::new(1), GroupTable::new(1));
        for batch in batches {
            let part = Column::from_values(batch.iter().map(|&k| Value::Int(k)).collect());
            let want: Vec<u32> = (0..batch.len())
                .map(|row| by_row.group_of(&[&part], row))
                .collect();
            assert_eq!(batched.group_rows(&[&part], batch.len()), want, "{batch:?}");
        }
        assert_eq!(batched.len(), by_row.len());
        // the third batch grew the window to its bound, no other moved it
        assert_eq!(
            (batched.window.base, batched.window.ids.len()),
            (-4092, 4096)
        );
    }
}
