//! Table statistics for cost estimation.
//!
//! The paper's shadow database stores *back-end* statistics on the cache so
//! the optimizer costs plans against the real data distribution (Sec. 3
//! point 1). `TableStats` is that artifact: computed once on the master
//! table and installed in the cache catalog for both shadow tables and
//! cached views.

use crate::range::KeyRange;
use crate::table::Table;
use rcc_common::Value;
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

/// Distinct values tracked per column; past this many, a column counts
/// as all distinct.
const DISTINCT_CAP: usize = 100_000;

/// One column's running statistics over borrowed cells.
struct Tally<'a> {
    min: Option<&'a Value>,
    max: Option<&'a Value>,
    nulls: u64,
    distinct: Distinct<'a>,
}

/// How a column's distinct values are counted.
enum Distinct<'a> {
    /// A sorted column: a value unequal to its predecessor starts a run.
    Runs {
        runs: usize,
        last: Option<&'a Value>,
    },
    /// Any other column: the values seen, up to [`DISTINCT_CAP`].
    Set(HashSet<&'a Value>),
}

impl<'a> Tally<'a> {
    fn new(sorted: bool) -> Tally<'a> {
        Tally {
            min: None,
            max: None,
            nulls: 0,
            distinct: if sorted {
                Distinct::Runs {
                    runs: 0,
                    last: None,
                }
            } else {
                Distinct::Set(HashSet::new())
            },
        }
    }

    fn add(&mut self, v: &'a Value) {
        if v.is_null() {
            self.nulls += 1;
            return;
        }
        if self.min.is_none_or(|m| v < m) {
            self.min = Some(v);
        }
        if self.max.is_none_or(|m| v > m) {
            self.max = Some(v);
        }
        match &mut self.distinct {
            Distinct::Runs { runs, last } => {
                if last.is_none_or(|l| l != v) {
                    *runs += 1;
                }
                *last = Some(v);
            }
            Distinct::Set(seen) => {
                if seen.len() < DISTINCT_CAP {
                    seen.insert(v);
                }
            }
        }
    }

    /// The distinct count over `n` rows: exact below the cap, every
    /// non-NULL value at or above it.
    fn distinct(&self, n: u64) -> u64 {
        let seen = match &self.distinct {
            Distinct::Runs { runs, .. } => *runs,
            Distinct::Set(seen) => seen.len(),
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
    /// cells, by reference, for everything but the histograms, and one
    /// more for every numeric column's histogram at once.
    pub fn compute(table: &Table) -> TableStats {
        let schema = table.schema();
        let ncols = schema.len();
        // the leading clustered-key column arrives sorted: its distinct
        // values are its runs, counted without hashing
        let lead = table.key_ordinals()[0];
        let mut tallies: Vec<Tally<'_>> = (0..ncols).map(|i| Tally::new(i == lead)).collect();
        let mut total_bytes = 0usize;
        let mut n = 0u64;
        for row in table.iter() {
            n += 1;
            total_bytes += row.byte_width();
            for (tally, v) in tallies.iter_mut().zip(row.values()) {
                tally.add(v);
            }
        }

        // Histogram pass for numeric columns.
        let bounds: Vec<Option<(f64, f64)>> = tallies
            .iter()
            .map(|t| {
                let lo = t.min?.as_float().ok()?;
                let hi = t.max?.as_float().ok()?;
                (hi > lo).then_some((lo, hi))
            })
            .collect();
        let mut histograms: Vec<Vec<u64>> = bounds
            .iter()
            .map(|b| match b {
                Some(_) => vec![0u64; HISTOGRAM_BUCKETS],
                None => Vec::new(),
            })
            .collect();
        let numeric: Vec<(usize, f64, f64)> = bounds
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|(lo, hi)| (i, lo, (hi - lo) / HISTOGRAM_BUCKETS as f64)))
            .collect();
        if !numeric.is_empty() {
            for row in table.iter() {
                for &(i, lo, width) in &numeric {
                    if let Ok(v) = row.get(i).as_float() {
                        let b = (((v - lo) / width) as usize).min(HISTOGRAM_BUCKETS - 1);
                        histograms[i][b] += 1;
                    }
                }
            }
        }

        let columns = tallies
            .into_iter()
            .zip(histograms)
            .enumerate()
            .map(|(i, (tally, histogram))| {
                let stats = ColumnStats {
                    min: tally.min.cloned(),
                    max: tally.max.cloned(),
                    distinct: tally.distinct(n),
                    nulls: tally.nulls,
                    histogram,
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
