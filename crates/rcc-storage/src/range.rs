//! Key ranges for index seeks.

use crate::cowmap::{CowMap, Cursor};
use rcc_common::Value;
use std::borrow::Borrow;
use std::ops::Bound;

/// A (possibly half-open) range over a single index key column, used to
/// drive clustered or secondary index seeks.
///
/// Multi-column clustered keys seek on a *prefix*: the range applies to the
/// first key column and the remaining columns are unconstrained, which is
/// exactly what the paper's workload needs (`c_custkey < $K`,
/// `o_custkey = ?`).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    /// Lower bound on the first key column.
    pub low: Bound<Value>,
    /// Upper bound on the first key column.
    pub high: Bound<Value>,
}

impl KeyRange {
    /// The full range (a scan).
    pub fn all() -> KeyRange {
        KeyRange {
            low: Bound::Unbounded,
            high: Bound::Unbounded,
        }
    }

    /// An exact-match range (`key = v`).
    pub fn eq(v: Value) -> KeyRange {
        KeyRange {
            low: Bound::Included(v.clone()),
            high: Bound::Included(v),
        }
    }

    /// `low <= key <= high`.
    pub fn between(low: Value, high: Value) -> KeyRange {
        KeyRange {
            low: Bound::Included(low),
            high: Bound::Included(high),
        }
    }

    /// `key < v`.
    pub fn less_than(v: Value) -> KeyRange {
        KeyRange {
            low: Bound::Unbounded,
            high: Bound::Excluded(v),
        }
    }

    /// `key <= v`.
    pub fn at_most(v: Value) -> KeyRange {
        KeyRange {
            low: Bound::Unbounded,
            high: Bound::Included(v),
        }
    }

    /// `key > v`.
    pub fn greater_than(v: Value) -> KeyRange {
        KeyRange {
            low: Bound::Excluded(v),
            high: Bound::Unbounded,
        }
    }

    /// `key >= v`.
    pub fn at_least(v: Value) -> KeyRange {
        KeyRange {
            low: Bound::Included(v),
            high: Bound::Unbounded,
        }
    }

    /// Does `v` fall inside this range?
    pub fn contains(&self, v: &Value) -> bool {
        let lo_ok = match &self.low {
            Bound::Unbounded => true,
            Bound::Included(l) => v >= l,
            Bound::Excluded(l) => v > l,
        };
        let hi_ok = match &self.high {
            Bound::Unbounded => true,
            Bound::Included(h) => v <= h,
            Bound::Excluded(h) => v < h,
        };
        lo_ok && hi_ok
    }

    /// The span `[from, to)` of `map` holding exactly the composite keys
    /// whose *first* component falls in this range. Keys sort by first
    /// component, so both ends are partition points: a seek for the start
    /// and a gallop from there to the end, no per-entry bound check and no
    /// skip loop for an excluded lower bound.
    pub(crate) fn span<K, V>(&self, map: &CowMap<K, V>) -> (Cursor, Cursor)
    where
        K: Borrow<[Value]>,
    {
        let from = match &self.low {
            Bound::Unbounded => Cursor::START,
            Bound::Included(l) => map.seek(|k| &k.borrow()[0] < l),
            Bound::Excluded(l) => map.seek(|k| &k.borrow()[0] <= l),
        };
        let to = match &self.high {
            Bound::Unbounded => map.end(),
            Bound::Included(h) => map.seek_from(from, |k| &k.borrow()[0] <= h),
            Bound::Excluded(h) => map.seek_from(from, |k| &k.borrow()[0] < h),
        };
        (from, to)
    }

    /// True when the range is the trivial full scan.
    pub fn is_full(&self) -> bool {
        matches!(
            (&self.low, &self.high),
            (Bound::Unbounded, Bound::Unbounded)
        )
    }

    /// Does this range contain every value of `other`? Used for view-match
    /// predicate subsumption: a selection view is usable only when its
    /// retained range covers the query's range on that column.
    pub fn contains_range(&self, other: &KeyRange) -> bool {
        let low_ok = match (&self.low, &other.low) {
            (Bound::Unbounded, _) => true,
            (_, Bound::Unbounded) => false,
            (Bound::Included(a), Bound::Included(b) | Bound::Excluded(b)) => b >= a,
            (Bound::Excluded(a), Bound::Excluded(b)) => b >= a,
            (Bound::Excluded(a), Bound::Included(b)) => b > a,
        };
        let high_ok = match (&self.high, &other.high) {
            (Bound::Unbounded, _) => true,
            (_, Bound::Unbounded) => false,
            (Bound::Included(a), Bound::Included(b) | Bound::Excluded(b)) => b <= a,
            (Bound::Excluded(a), Bound::Excluded(b)) => b <= a,
            (Bound::Excluded(a), Bound::Included(b)) => b < a,
        };
        low_ok && high_ok
    }

    /// Intersect two ranges (tightest bounds win).
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        fn tighter_low(a: &Bound<Value>, b: &Bound<Value>) -> Bound<Value> {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
                (Bound::Included(x), Bound::Included(y)) => {
                    Bound::Included(if x >= y { x.clone() } else { y.clone() })
                }
                (Bound::Excluded(x), Bound::Excluded(y)) => {
                    Bound::Excluded(if x >= y { x.clone() } else { y.clone() })
                }
                (Bound::Included(x), Bound::Excluded(y)) => {
                    if y >= x {
                        Bound::Excluded(y.clone())
                    } else {
                        Bound::Included(x.clone())
                    }
                }
                (Bound::Excluded(x), Bound::Included(y)) => {
                    if x >= y {
                        Bound::Excluded(x.clone())
                    } else {
                        Bound::Included(y.clone())
                    }
                }
            }
        }
        fn tighter_high(a: &Bound<Value>, b: &Bound<Value>) -> Bound<Value> {
            match (a, b) {
                (Bound::Unbounded, x) | (x, Bound::Unbounded) => x.clone(),
                (Bound::Included(x), Bound::Included(y)) => {
                    Bound::Included(if x <= y { x.clone() } else { y.clone() })
                }
                (Bound::Excluded(x), Bound::Excluded(y)) => {
                    Bound::Excluded(if x <= y { x.clone() } else { y.clone() })
                }
                (Bound::Included(x), Bound::Excluded(y)) => {
                    if y <= x {
                        Bound::Excluded(y.clone())
                    } else {
                        Bound::Included(x.clone())
                    }
                }
                (Bound::Excluded(x), Bound::Included(y)) => {
                    if x <= y {
                        Bound::Excluded(x.clone())
                    } else {
                        Bound::Included(y.clone())
                    }
                }
            }
        }
        KeyRange {
            low: tighter_low(&self.low, &other.low),
            high: tighter_high(&self.high, &other.high),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn containment() {
        let r = KeyRange::between(i(10), i(20));
        assert!(r.contains(&i(10)));
        assert!(r.contains(&i(20)));
        assert!(!r.contains(&i(9)));
        assert!(!r.contains(&i(21)));
        assert!(KeyRange::less_than(i(5)).contains(&i(4)));
        assert!(!KeyRange::less_than(i(5)).contains(&i(5)));
        assert!(KeyRange::greater_than(i(5)).contains(&i(6)));
        assert!(!KeyRange::greater_than(i(5)).contains(&i(5)));
        assert!(KeyRange::at_least(i(5)).contains(&i(5)));
        assert!(KeyRange::at_most(i(5)).contains(&i(5)));
        assert!(KeyRange::all().contains(&i(0)));
    }

    #[test]
    fn eq_range_matches_single_value() {
        let r = KeyRange::eq(i(7));
        assert!(r.contains(&i(7)));
        assert!(!r.contains(&i(8)));
        assert!(!r.contains(&i(6)));
    }

    #[test]
    fn intersection_tightens() {
        let a = KeyRange::at_least(i(10));
        let b = KeyRange::less_than(i(20));
        let c = a.intersect(&b);
        assert!(c.contains(&i(10)));
        assert!(c.contains(&i(19)));
        assert!(!c.contains(&i(20)));
        assert!(!c.contains(&i(9)));

        // excluded beats included at the same point
        let d = KeyRange::at_least(i(10)).intersect(&KeyRange::greater_than(i(10)));
        assert!(!d.contains(&i(10)));
        assert!(d.contains(&i(11)));
    }

    #[test]
    fn range_containment() {
        let all = KeyRange::all();
        let mid = KeyRange::between(i(10), i(20));
        assert!(all.contains_range(&mid));
        assert!(!mid.contains_range(&all));
        assert!(mid.contains_range(&KeyRange::between(i(12), i(18))));
        assert!(mid.contains_range(&mid));
        assert!(!mid.contains_range(&KeyRange::between(i(5), i(15))));
        assert!(KeyRange::at_least(i(0)).contains_range(&KeyRange::greater_than(i(0))));
        assert!(!KeyRange::greater_than(i(0)).contains_range(&KeyRange::at_least(i(0))));
        assert!(KeyRange::less_than(i(10)).contains_range(&KeyRange::at_most(i(9))));
        assert!(!KeyRange::less_than(i(10)).contains_range(&KeyRange::at_most(i(10))));
    }

    #[test]
    fn full_detection() {
        assert!(KeyRange::all().is_full());
        assert!(!KeyRange::eq(i(1)).is_full());
    }
}
