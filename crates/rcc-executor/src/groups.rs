//! Dense group ids for key tuples read straight out of columns.
//!
//! [`GroupTable`] is what `GROUP BY`, `DISTINCT` and the hash join's build
//! side share: it numbers distinct key tuples 0, 1, 2 … in first-seen
//! order and keeps one copy of each key in typed columns, so no `Vec<Value>`
//! key is built per input row. Keys are equal exactly when their `Value`s
//! are (`Int(1)` and `Float(1.0)` are one key, NULL equals NULL — callers
//! that must not match NULLs skip them before asking).

use rcc_storage::column::{Column, ColumnData};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

const NONE: u32 = u32::MAX;

/// Distinct key tuples, numbered in first-seen order.
#[derive(Debug)]
pub(crate) struct GroupTable {
    /// One column per key part; cell `g` is group `g`'s (first-seen) key.
    keys: Vec<Column>,
    /// Groups whose key is a single number, by the bits of its `f64` value
    /// — which is what `Value` equality and hashing go by for every
    /// numeric type, so no key has to be compared again.
    numbers: HashMap<u64, u32>,
    /// A direct-mapped cache in front of `numbers`, by a cheap hash of the
    /// bits: grouping columns mostly hold few distinct values, and a hit
    /// spares the keyed hash. A slot is live when its group is not `NONE`.
    recent: [(u64, u32); RECENT],
    /// Every other group: the hash of the key tuple leads to the newest
    /// group with that hash, `older[g]` to the one before it.
    heads: HashMap<u64, u32>,
    older: Vec<u32>,
}

/// Slots in [`GroupTable::recent`] (a power of two).
const RECENT: usize = 64;

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
            recent: [(0, NONE); RECENT],
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
    /// integer or float column without NULLs is read as the vector it is.
    pub(crate) fn group_rows(&mut self, parts: &[&Column], n: usize) -> Vec<u32> {
        if let [part] = parts {
            let mut number = |(row, bits)| self.group_of_number(bits, part, row);
            match (part.data(), part.validity()) {
                (ColumnData::Int(d) | ColumnData::Timestamp(d), None) => {
                    let bits = d[..n].iter().map(|&i| (i as f64).to_bits());
                    return bits.enumerate().map(&mut number).collect();
                }
                (ColumnData::Float(d), None) => {
                    let bits = d[..n].iter().map(|f| f.to_bits());
                    return bits.enumerate().map(&mut number).collect();
                }
                _ => {}
            }
        }
        (0..n).map(|row| self.group_of(parts, row)).collect()
    }

    /// The group of the single numeric key with these `f64` bits, which is
    /// cell `row` of `part`.
    #[inline]
    fn group_of_number(&mut self, bits: u64, part: &Column, row: usize) -> u32 {
        let slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize;
        let (cached, g) = self.recent[slot];
        if cached == bits && g != NONE {
            return g;
        }
        let g = match self.numbers.get(&bits) {
            Some(&g) => g,
            None => {
                let g = self.add_group(NONE, &[part], row);
                self.numbers.insert(bits, g);
                g
            }
        };
        self.recent[slot] = (bits, g);
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
}
