//! Table statistics for cost estimation.
//!
//! The paper's shadow database stores *back-end* statistics on the cache so
//! the optimizer costs plans against the real data distribution (Sec. 3
//! point 1). `TableStats` is that artifact: computed once on the master
//! table and installed in the cache catalog for both shadow tables and
//! cached views.

use crate::range::KeyRange;
use crate::table::Table;
use rcc_common::{DataType, Value};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;

/// Number of histogram buckets kept per numeric column.
const HISTOGRAM_BUCKETS: usize = 64;

/// Per-column statistics: min/max, distinct estimate and an equi-width
/// histogram for numeric columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest non-null value.
    pub min: Option<Value>,
    /// Largest non-null value.
    pub max: Option<Value>,
    /// Number of distinct values observed.
    pub distinct: u64,
    /// Count of NULLs.
    pub nulls: u64,
    /// Equi-width bucket counts over `[min, max]` (numeric columns only).
    pub histogram: Vec<u64>,
}

/// What [`TableStats::column`] answers with for a column it has no
/// statistics on.
static NO_COLUMN_STATS: ColumnStats = ColumnStats {
    min: None,
    max: None,
    distinct: 0,
    nulls: 0,
    histogram: Vec::new(),
};

impl ColumnStats {
    fn numeric_bounds(&self) -> Option<(f64, f64)> {
        let lo = self.min.as_ref()?.as_float().ok()?;
        let hi = self.max.as_ref()?.as_float().ok()?;
        Some((lo, hi))
    }

    /// Fraction of rows whose value falls in `range`, estimated from the
    /// histogram (with linear interpolation inside boundary buckets) or, for
    /// non-numeric columns, from a uniform min/max assumption.
    pub fn range_selectivity(&self, range: &KeyRange, row_count: u64) -> f64 {
        if row_count == 0 {
            return 0.0;
        }
        if range.is_full() {
            return 1.0;
        }
        let Some((min, max)) = self.numeric_bounds() else {
            // Non-numeric or empty: fall back to a fixed guess.
            return 0.33;
        };
        let lo = match &range.low {
            Bound::Unbounded => min,
            Bound::Included(v) | Bound::Excluded(v) => v.as_float().unwrap_or(min),
        };
        let hi = match &range.high {
            Bound::Unbounded => max,
            Bound::Included(v) | Bound::Excluded(v) => v.as_float().unwrap_or(max),
        };
        let lo = lo.max(min);
        let hi = hi.min(max);
        if hi < lo {
            return 0.0;
        }
        if self.histogram.is_empty() || max <= min {
            // Degenerate: uniform assumption over [min, max].
            let width = (max - min).max(f64::EPSILON);
            return ((hi - lo) / width).clamp(0.0, 1.0);
        }
        let total: u64 = self.histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let nbuckets = self.histogram.len() as f64;
        let bucket_width = (max - min) / nbuckets;
        let mut covered = 0.0;
        for (i, &count) in self.histogram.iter().enumerate() {
            let b_lo = min + i as f64 * bucket_width;
            let b_hi = b_lo + bucket_width;
            let overlap = (hi.min(b_hi) - lo.max(b_lo)).max(0.0);
            if overlap > 0.0 {
                covered += count as f64 * (overlap / bucket_width).min(1.0);
            }
        }
        // Point ranges (lo == hi) get the equality estimate instead.
        if hi == lo {
            return self.eq_selectivity(row_count);
        }
        (covered / total as f64).clamp(0.0, 1.0)
    }

    /// The stretch of the value line on which [`ColumnStats::range_selectivity`]
    /// treats a bound `v` as it treats it now: the histogram bucket it
    /// interpolates in, or the half-line beyond `min` / `max` (every bound
    /// out there is clamped to the same end). Everything when the
    /// statistics or `v` are not numeric — the estimate is then a fixed
    /// guess, whatever `v` is.
    pub fn bucket_of(&self, v: &Value) -> KeyRange {
        let (Some((min, max)), Ok(x)) = (self.numeric_bounds(), v.as_float()) else {
            return KeyRange::all();
        };
        if x < min {
            return KeyRange::less_than(Value::Float(min));
        }
        if x > max {
            return KeyRange::greater_than(Value::Float(max));
        }
        let buckets = self.histogram.len();
        if buckets == 0 || max <= min {
            return KeyRange::between(Value::Float(min), Value::Float(max));
        }
        let width = (max - min) / buckets as f64;
        let i = (((x - min) / width) as usize).min(buckets - 1);
        let low = min + i as f64 * width;
        KeyRange {
            low: Bound::Included(Value::Float(low)),
            high: if i + 1 == buckets {
                Bound::Included(Value::Float(max))
            } else {
                Bound::Excluded(Value::Float(low + width))
            },
        }
    }

    /// Fraction of rows expected to match an equality predicate.
    pub fn eq_selectivity(&self, row_count: u64) -> f64 {
        if row_count == 0 {
            return 0.0;
        }
        if self.distinct == 0 {
            return 1.0 / row_count as f64;
        }
        1.0 / self.distinct as f64
    }
}

/// Distinct values counted exactly per column; at or past this many, a
/// column counts as all distinct. The leading clustered-key column's count
/// (its runs) is exact at any size.
const DISTINCT_CAP: usize = 100_000;

/// A column's numeric bit patterns are sorted and deduplicated whenever
/// this many have gathered, so at most this many are held at once.
const COMPACT_AT: usize = 2 * DISTINCT_CAP;

/// The smallest and largest cell of one class of values (the classes
/// `Value`'s order ranks: booleans, numbers, strings), each with the key it
/// orders by and the first cell, in clustered order, that reached it.
struct Extremes<'a, K> {
    min: Option<(K, &'a Value)>,
    max: Option<(K, &'a Value)>,
}

impl<'a, K: Copy> Extremes<'a, K> {
    const NONE: Self = Extremes {
        min: None,
        max: None,
    };

    fn add(&mut self, k: K, v: &'a Value, less: impl Fn(K, K) -> bool) {
        if self.min.is_none_or(|(m, _)| less(k, m)) {
            self.min = Some((k, v));
        }
        if self.max.is_none_or(|(m, _)| less(m, k)) {
            self.max = Some((k, v));
        }
    }
}

/// One column's running statistics over borrowed cells, dispatched once
/// per cell on its type.
struct Tally<'a> {
    nulls: u64,
    bools: Extremes<'a, bool>,
    /// `Int`, `Float` and `Timestamp` cells, keyed by their value as `f64`
    /// under `f64::total_cmp` — exactly how `Value` orders them.
    numbers: Extremes<'a, f64>,
    strings: Extremes<'a, &'a str>,
    distinct: Distinct<'a>,
}

/// How a column's distinct values are counted.
enum Distinct<'a> {
    /// A sorted column: a value unequal to its predecessor starts a run.
    Runs { runs: u64, last: Option<&'a Value> },
    /// Any other column, below [`DISTINCT_CAP`] distinct values so far.
    /// Numbers are kept as `f64` bit patterns: two are equal under
    /// `Value`'s `Eq` exactly when their bit patterns are, so sorting
    /// counts them with no hashing. Strings go in a set under the standard
    /// keyed hasher; booleans are counted from their extremes.
    Seen {
        numbers: Vec<u64>,
        strings: HashSet<&'a str>,
    },
    /// Any other column that reached [`DISTINCT_CAP`].
    Capped,
}

impl<'a> Tally<'a> {
    /// `numeric_rows`: how many numeric cells to make room for at once.
    fn new(sorted: bool, numeric_rows: usize) -> Tally<'a> {
        Tally {
            nulls: 0,
            bools: Extremes::NONE,
            numbers: Extremes::NONE,
            strings: Extremes::NONE,
            distinct: if sorted {
                Distinct::Runs {
                    runs: 0,
                    last: None,
                }
            } else {
                Distinct::Seen {
                    numbers: Vec::with_capacity(numeric_rows.min(COMPACT_AT)),
                    strings: HashSet::new(),
                }
            },
        }
    }

    fn add(&mut self, v: &'a Value) {
        match v {
            Value::Null => {
                self.nulls += 1;
                return;
            }
            Value::Int(i) => self.number(*i as f64, v),
            Value::Float(f) => self.number(*f, v),
            Value::Timestamp(t) => self.number(*t as f64, v),
            Value::Bool(b) => self.bools.add(*b, v, |a, b| a.lt(&b)),
            Value::Str(s) => {
                self.strings.add(s, v, |a, b| a < b);
                if let Distinct::Seen { strings, .. } = &mut self.distinct {
                    strings.insert(s);
                    if strings.len() >= DISTINCT_CAP {
                        self.distinct = Distinct::Capped;
                    }
                }
            }
        }
        if let Distinct::Runs { runs, last } = &mut self.distinct {
            if last.is_none_or(|l| l != v) {
                *runs += 1;
            }
            *last = Some(v);
        }
    }

    /// A numeric cell `v` of value `x`.
    fn number(&mut self, x: f64, v: &'a Value) {
        self.numbers.add(x, v, |a, b| a.total_cmp(&b).is_lt());
        if let Distinct::Seen { numbers, .. } = &mut self.distinct {
            numbers.push(x.to_bits());
            if numbers.len() == COMPACT_AT {
                numbers.sort_unstable();
                numbers.dedup();
                if numbers.len() >= DISTINCT_CAP {
                    self.distinct = Distinct::Capped;
                }
            }
        }
    }

    /// The smallest non-NULL cell: classes rank booleans, then numbers,
    /// then strings.
    fn min(&self) -> Option<&'a Value> {
        let bools = self.bools.min.map(|(_, v)| v);
        bools
            .or(self.numbers.min.map(|(_, v)| v))
            .or(self.strings.min.map(|(_, v)| v))
    }

    /// The largest non-NULL cell.
    fn max(&self) -> Option<&'a Value> {
        let strings = self.strings.max.map(|(_, v)| v);
        strings
            .or(self.numbers.max.map(|(_, v)| v))
            .or(self.bools.max.map(|(_, v)| v))
    }

    /// The histogram's range: `[min, max]` when both are `Int` or `Float`
    /// cells and differ.
    fn histogram_bounds(&self) -> Option<(f64, f64)> {
        let lo = self.min()?.as_float().ok()?;
        let hi = self.max()?.as_float().ok()?;
        (hi > lo).then_some((lo, hi))
    }

    /// The distinct count over `n` rows. A sorted column's runs are exact;
    /// any other column's count is exact below the cap and every non-NULL
    /// value at or above it. Values of different classes are never equal,
    /// so the classes' counts add up.
    fn distinct(self, n: u64) -> u64 {
        let seen = match self.distinct {
            Distinct::Runs { runs, .. } => return runs,
            Distinct::Seen {
                mut numbers,
                strings,
            } => {
                numbers.sort_unstable();
                numbers.dedup();
                let bools = match (self.bools.min, self.bools.max) {
                    (Some((lo, _)), Some((hi, _))) => 1 + usize::from(lo != hi),
                    _ => 0,
                };
                numbers.len() + strings.len() + bools
            }
            Distinct::Capped => DISTINCT_CAP,
        };
        if seen >= DISTINCT_CAP {
            n.saturating_sub(self.nulls)
        } else {
            seen as u64
        }
    }
}

/// Statistics for one table (or materialized view).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableStats {
    /// Total rows.
    pub row_count: u64,
    /// Average serialized row width in bytes.
    pub avg_row_bytes: f64,
    /// Per-column stats, keyed by column name.
    pub columns: HashMap<String, ColumnStats>,
}

impl TableStats {
    /// Compute full statistics by scanning `table`: one pass over its
    /// cells, by reference, dispatching once per cell on its type, and one
    /// more for every numeric column's histogram at once.
    pub fn compute(table: &Table) -> TableStats {
        let schema = table.schema();
        // the leading clustered-key column arrives sorted: its distinct
        // values are its runs, counted without hashing
        let lead = table.key_ordinals()[0];
        let mut tallies: Vec<Tally<'_>> = schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let numeric = matches!(
                    c.data_type,
                    DataType::Int | DataType::Float | DataType::Timestamp
                );
                Tally::new(i == lead, if numeric { table.row_count() } else { 0 })
            })
            .collect();
        let mut total_bytes = 0usize;
        let mut n = 0u64;
        for row in table.rows() {
            n += 1;
            total_bytes += row.iter().map(Value::byte_width).sum::<usize>();
            for (tally, v) in tallies.iter_mut().zip(row) {
                tally.add(v);
            }
        }

        // Histogram pass for numeric columns: `Int` and `Float` cells.
        let numeric: Vec<(usize, f64, f64)> = tallies
            .iter()
            .enumerate()
            .filter_map(|(i, t)| {
                let (lo, hi) = t.histogram_bounds()?;
                Some((i, lo, (hi - lo) / HISTOGRAM_BUCKETS as f64))
            })
            .collect();
        let mut histograms = vec![Vec::new(); tallies.len()];
        for &(i, ..) in &numeric {
            histograms[i] = vec![0u64; HISTOGRAM_BUCKETS];
        }
        if !numeric.is_empty() {
            for row in table.rows() {
                for &(i, lo, width) in &numeric {
                    let x = match &row[i] {
                        Value::Int(v) => *v as f64,
                        Value::Float(v) => *v,
                        _ => continue,
                    };
                    let b = (((x - lo) / width) as usize).min(HISTOGRAM_BUCKETS - 1);
                    histograms[i][b] += 1;
                }
            }
        }

        let columns = tallies
            .into_iter()
            .zip(histograms)
            .enumerate()
            .map(|(i, (tally, histogram))| {
                let stats = ColumnStats {
                    min: tally.min().cloned(),
                    max: tally.max().cloned(),
                    nulls: tally.nulls,
                    histogram,
                    distinct: tally.distinct(n),
                };
                (schema.column(i).name.clone(), stats)
            })
            .collect();

        TableStats {
            row_count: n,
            avg_row_bytes: if n > 0 {
                total_bytes as f64 / n as f64
            } else {
                0.0
            },
            columns,
        }
    }

    /// Stats for a column by name (falls back to an empty placeholder).
    pub fn column(&self, name: &str) -> &ColumnStats {
        self.columns.get(name).unwrap_or(&NO_COLUMN_STATS)
    }

    /// Estimated rows matching a range predicate on `column`.
    pub fn estimate_range_rows(&self, column: &str, range: &KeyRange) -> f64 {
        self.row_count as f64 * self.column(column).range_selectivity(range, self.row_count)
    }

    /// Estimated rows matching an equality predicate on `column`.
    pub fn estimate_eq_rows(&self, column: &str) -> f64 {
        self.row_count as f64 * self.column(column).eq_selectivity(self.row_count)
    }

    /// Estimated total bytes in the table.
    pub fn total_bytes(&self) -> f64 {
        self.row_count as f64 * self.avg_row_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType, Row, Schema};

    fn numbered(n: i64) -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int),
            Column::new("name", DataType::Str),
        ]);
        let mut t = Table::new("t", schema, vec![0]);
        for i in 0..n {
            t.insert(Row::new(vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Str(format!("name{i}")),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn basic_counts() {
        let stats = TableStats::compute(&numbered(1000));
        assert_eq!(stats.row_count, 1000);
        assert!(stats.avg_row_bytes > 16.0);
        assert_eq!(stats.column("id").distinct, 1000);
        assert_eq!(stats.column("grp").distinct, 10);
    }

    #[test]
    fn range_selectivity_tracks_fraction() {
        let stats = TableStats::compute(&numbered(1000));
        let sel = stats
            .column("id")
            .range_selectivity(&KeyRange::less_than(Value::Int(100)), stats.row_count);
        assert!((sel - 0.1).abs() < 0.03, "sel={sel}");
        let rows =
            stats.estimate_range_rows("id", &KeyRange::between(Value::Int(250), Value::Int(749)));
        assert!((rows - 500.0).abs() < 40.0, "rows={rows}");
    }

    #[test]
    fn eq_selectivity_uses_distinct() {
        let stats = TableStats::compute(&numbered(1000));
        assert!((stats.estimate_eq_rows("grp") - 100.0).abs() < 1.0);
        assert!((stats.estimate_eq_rows("id") - 1.0).abs() < 0.01);
    }

    #[test]
    fn full_range_is_one() {
        let stats = TableStats::compute(&numbered(100));
        let sel = stats.column("id").range_selectivity(&KeyRange::all(), 100);
        assert_eq!(sel, 1.0);
    }

    #[test]
    fn out_of_domain_range_is_zero() {
        let stats = TableStats::compute(&numbered(100));
        let sel = stats
            .column("id")
            .range_selectivity(&KeyRange::between(Value::Int(500), Value::Int(600)), 100);
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn empty_table_stats() {
        let stats = TableStats::compute(&numbered(0));
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.estimate_eq_rows("id"), 0.0);
    }

    #[test]
    fn nulls_counted() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("x", DataType::Int),
        ]);
        let mut t = Table::new("t", schema, vec![0]);
        t.insert(Row::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        t.insert(Row::new(vec![Value::Int(2), Value::Int(5)]))
            .unwrap();
        let stats = TableStats::compute(&t);
        assert_eq!(stats.column("x").nulls, 1);
        assert_eq!(stats.column("x").distinct, 1);
    }

    #[test]
    fn missing_column_is_placeholder() {
        let stats = TableStats::compute(&numbered(10));
        let c = stats.column("ghost");
        assert_eq!(c.distinct, 0);
        assert!(c.min.is_none());
    }
}
