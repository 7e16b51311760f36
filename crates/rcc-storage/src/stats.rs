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
use std::collections::HashMap;
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
    /// Compute full statistics by scanning `table`.
    pub fn compute(table: &Table) -> TableStats {
        let schema = table.schema();
        let ncols = schema.len();
        let mut mins: Vec<Option<Value>> = vec![None; ncols];
        let mut maxs: Vec<Option<Value>> = vec![None; ncols];
        let mut nulls = vec![0u64; ncols];
        let mut distinct: Vec<std::collections::HashSet<Value>> = (0..ncols)
            .map(|_| std::collections::HashSet::new())
            .collect();
        let mut total_bytes = 0usize;
        let mut n = 0u64;

        for row in table.iter() {
            n += 1;
            total_bytes += row.byte_width();
            for (i, v) in row.values().iter().enumerate() {
                if v.is_null() {
                    nulls[i] += 1;
                    continue;
                }
                if mins[i].as_ref().map(|m| v < m).unwrap_or(true) {
                    mins[i] = Some(v.clone());
                }
                if maxs[i].as_ref().map(|m| v > m).unwrap_or(true) {
                    maxs[i] = Some(v.clone());
                }
                // Cap the distinct tracker so giant tables don't blow memory;
                // beyond the cap we extrapolate as "all distinct".
                if distinct[i].len() < 100_000 {
                    distinct[i].insert(v.clone());
                }
            }
        }

        // Histogram pass for numeric columns.
        let mut histograms: Vec<Vec<u64>> = vec![Vec::new(); ncols];
        for i in 0..ncols {
            let (Some(lo), Some(hi)) = (&mins[i], &maxs[i]) else {
                continue;
            };
            let (Ok(lo), Ok(hi)) = (lo.as_float(), hi.as_float()) else {
                continue;
            };
            if hi > lo {
                histograms[i] = vec![0u64; HISTOGRAM_BUCKETS];
                let width = (hi - lo) / HISTOGRAM_BUCKETS as f64;
                for row in table.iter() {
                    if let Ok(v) = row.get(i).as_float() {
                        let mut b = ((v - lo) / width) as usize;
                        if b >= HISTOGRAM_BUCKETS {
                            b = HISTOGRAM_BUCKETS - 1;
                        }
                        histograms[i][b] += 1;
                    }
                }
            }
        }

        let mut columns = HashMap::with_capacity(ncols);
        for i in 0..ncols {
            let d = if distinct[i].len() >= 100_000 {
                n.saturating_sub(nulls[i])
            } else {
                distinct[i].len() as u64
            };
            columns.insert(
                schema.column(i).name.clone(),
                ColumnStats {
                    min: mins[i].clone(),
                    max: maxs[i].clone(),
                    distinct: d,
                    nulls: nulls[i],
                    histogram: std::mem::take(&mut histograms[i]),
                },
            );
        }

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
