//! Cost model (paper Sec. 3.2.4).
//!
//! Abstract cost units: roughly "one in-memory row touch". The constants
//! are calibrated so that the *relative* trade-offs the paper's experiments
//! hinge on hold:
//!
//! * shipping a row from the back-end costs ~its byte width, so wide/many
//!   rows make remote plans expensive (Q2: 72 MB join result vs. 42 MB of
//!   base tables ⇒ fetch the tables and join locally);
//! * a remote round trip has a large fixed cost, so tiny selective queries
//!   prefer one shipped query over several (Q1), yet a full local scan of a
//!   large view can still beat an indexed remote fetch only when enough
//!   rows come back (Q6 vs. Q7);
//! * a SwitchUnion costs `p·c_local + (1−p)·c_remote + c_cg` with
//!   `p = clamp((B−d)/f, 0, 1)` — formula (1) of the paper, including the
//!   continuous-propagation special case `f = 0`.

use crate::expr::BoundExpr;
use crate::physical::SeekRange;
use rcc_catalog::CurrencyRegion;
use rcc_common::Duration;
#[cfg(test)]
use rcc_common::Value;
use rcc_sql::BinaryOp;
use rcc_storage::{KeyRange, TableStats};
use std::collections::BTreeMap;

/// Tunable cost constants.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// Cost of touching one row in a scan/filter.
    pub cpu_row: f64,
    /// Cost of descending a BTree (clustered or secondary seek).
    pub seek: f64,
    /// Per-row cost of inserting into a hash table.
    pub hash_build: f64,
    /// Per-row cost of probing a hash table.
    pub hash_probe: f64,
    /// Per-output-row cost.
    pub output_row: f64,
    /// Fixed cost of one round trip to the back-end server.
    pub remote_roundtrip: f64,
    /// Per-byte cost of shipping result data from the back-end.
    pub remote_byte: f64,
    /// Cost of evaluating one currency guard (heartbeat lookup + filter).
    pub guard: f64,
    /// Per-row overhead of rows passing through a SwitchUnion.
    pub switch_row: f64,
    /// Per-row cost of sorting (× log₂ n).
    pub sort_row: f64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            cpu_row: 1.0,
            seek: 25.0,
            hash_build: 2.0,
            hash_probe: 1.5,
            output_row: 0.5,
            remote_roundtrip: 50_000.0,
            remote_byte: 1.0,
            guard: 300.0,
            switch_row: 0.05,
            sort_row: 1.0,
        }
    }
}

impl CostParams {
    /// Probability that the local branch of a guarded access is taken —
    /// the paper's formula (1):
    ///
    /// ```text
    /// p = 0             if B − d ≤ 0
    /// p = (B − d) / f   if 0 < B − d ≤ f
    /// p = 1             if B − d > f
    /// ```
    ///
    /// `f = 0` (continuous propagation) degenerates to the step function
    /// `p = [B > d]`, which the paper notes is modeled correctly.
    pub fn p_local(&self, bound: Duration, region: &CurrencyRegion) -> f64 {
        let b_minus_d = (bound.millis() - region.update_delay.millis()) as f64;
        let f = region.update_interval.millis() as f64;
        if b_minus_d <= 0.0 {
            0.0
        } else if f <= 0.0 || b_minus_d > f {
            1.0
        } else {
            b_minus_d / f
        }
    }

    /// Cost of a SwitchUnion given branch costs and the local probability.
    pub fn switch_union(&self, p: f64, c_local: f64, c_remote: f64, rows: f64) -> f64 {
        p * c_local + (1.0 - p) * c_remote + self.guard + rows * self.switch_row
    }

    /// Cost of shipping `rows` rows of `bytes_per_row` from the back-end,
    /// on top of executing `backend_cost` there.
    pub fn remote(&self, backend_cost: f64, rows: f64, bytes_per_row: f64) -> f64 {
        self.remote_roundtrip + backend_cost + rows * bytes_per_row * self.remote_byte
    }

    /// Cost of a full scan emitting `out` of `total` rows.
    pub fn scan(&self, total: f64, out: f64) -> f64 {
        total * self.cpu_row + out * self.output_row
    }

    /// Cost of a range seek touching `touched` rows.
    pub fn range_seek(&self, touched: f64) -> f64 {
        self.seek + touched * self.cpu_row + touched * self.output_row
    }

    /// Cost of a secondary-index range scan: per matching row, one pk
    /// lookup back into the clustered index.
    pub fn index_range(&self, matched: f64) -> f64 {
        self.seek + matched * (self.cpu_row + self.seek * 0.2) + matched * self.output_row
    }

    /// Cost of a hash join producing `out` rows.
    pub fn hash_join(&self, left_rows: f64, right_rows: f64, out: f64) -> f64 {
        right_rows * self.hash_build + left_rows * self.hash_probe + out * self.output_row
    }

    /// Cost of an index nested-loop join: one seek per outer row.
    pub fn index_nl_join(&self, outer_rows: f64, per_probe: f64) -> f64 {
        outer_rows * (self.seek + per_probe * (self.cpu_row + self.output_row))
    }

    /// Cost of hash aggregation.
    pub fn aggregate(&self, input_rows: f64, groups: f64) -> f64 {
        input_rows * self.hash_build + groups * self.output_row
    }

    /// Cost of sorting `rows` rows.
    pub fn sort(&self, rows: f64) -> f64 {
        if rows <= 1.0 {
            rows * self.sort_row
        } else {
            rows * rows.log2() * self.sort_row
        }
    }
}

/// The range one conjunct implies on one column, when it is a simple
/// predicate (`col op constant`, `constant op col`, `col BETWEEN a AND b`;
/// a constant is a literal or a statement slot). An end that is a slot's
/// value names the slot.
pub fn conjunct_range(f: &BoundExpr) -> Option<(&str, SeekRange)> {
    let slot_of = |e: &BoundExpr| match e {
        BoundExpr::Slot { index, .. } => Some(*index),
        _ => None,
    };
    match f {
        BoundExpr::Binary { left, op, right } if op.is_comparison() => {
            let (col, constant, op) = match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Column { name, .. }, c) => (name.as_str(), c, *op),
                (c, BoundExpr::Column { name, .. }) => (name.as_str(), c, op.flip()),
                _ => return None,
            };
            let lit = constant.constant()?.clone();
            let slot = slot_of(constant);
            let (range, low_slot, high_slot) = match op {
                BinaryOp::Eq => (KeyRange::eq(lit), slot, slot),
                BinaryOp::Lt => (KeyRange::less_than(lit), None, slot),
                BinaryOp::LtEq => (KeyRange::at_most(lit), None, slot),
                BinaryOp::Gt => (KeyRange::greater_than(lit), slot, None),
                BinaryOp::GtEq => (KeyRange::at_least(lit), slot, None),
                _ => return None, // <> gives no useful range
            };
            Some((
                col,
                SeekRange {
                    range,
                    low_slot,
                    high_slot,
                },
            ))
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } => match (expr.as_ref(), low.constant(), high.constant()) {
            (BoundExpr::Column { name, .. }, Some(lo), Some(hi)) => Some((
                name,
                SeekRange {
                    range: KeyRange::between(lo.clone(), hi.clone()),
                    low_slot: slot_of(low),
                    high_slot: slot_of(high),
                },
            )),
            _ => None,
        },
        _ => None,
    }
}

/// Extract per-column ranges implied by a conjunction of simple predicates
/// ([`conjunct_range`]). Multiple conjuncts on one column intersect. Used
/// for access-path selection, selectivity estimation and view subsumption —
/// ordered by column name, so that which index a scan picks and the order
/// selectivities multiply in are functions of the query, not of a hash
/// seed.
pub fn column_ranges(filters: &[BoundExpr]) -> BTreeMap<String, SeekRange> {
    let mut out: BTreeMap<String, SeekRange> = BTreeMap::new();
    for (col, range) in filters.iter().filter_map(conjunct_range) {
        out.entry(col.to_string())
            .and_modify(|r| *r = r.intersect(&range))
            .or_insert(range);
    }
    out
}

/// Estimate the fraction of rows surviving `filters`, given their
/// [`column_ranges`] and table stats. Range-expressible conjuncts use
/// histogram estimates; everything else gets a default selectivity of 1/3.
pub fn filter_selectivity(
    filters: &[BoundExpr],
    ranges: &BTreeMap<String, SeekRange>,
    stats: &TableStats,
) -> f64 {
    if filters.is_empty() {
        return 1.0;
    }
    let mut sel = 1.0;
    for (col, range) in ranges {
        let s = if matches!((&range.low, &range.high),
            (std::ops::Bound::Included(a), std::ops::Bound::Included(b)) if a == b)
        {
            stats.column(col).eq_selectivity(stats.row_count)
        } else {
            stats.column(col).range_selectivity(range, stats.row_count)
        };
        sel *= s;
    }
    // conjuncts that produced no range (e.g. IS NULL, string compares on
    // non-literals) get the default
    let mut unranged = 0usize;
    for f in filters {
        let produced = match f {
            BoundExpr::Binary { left, op, right } if op.is_comparison() => matches!(
                (left.as_ref(), right.as_ref()),
                (BoundExpr::Column { .. }, c) | (c, BoundExpr::Column { .. })
                    if c.constant().is_some()
            ),
            BoundExpr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                matches!(expr.as_ref(), BoundExpr::Column { .. })
                    && low.constant().is_some()
                    && high.constant().is_some()
            }
            _ => false,
        };
        if !produced {
            unranged += 1;
        }
    }
    sel * 0.33f64.powi(unranged as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::RegionId;

    fn region(f_secs: i64, d_secs: i64) -> CurrencyRegion {
        CurrencyRegion::new(
            RegionId(1),
            "CR1",
            Duration::from_secs(f_secs),
            Duration::from_secs(d_secs),
        )
    }

    #[test]
    fn p_local_matches_formula_one() {
        let p = CostParams::default();
        let r = region(100, 5);
        // B ≤ d → 0
        assert_eq!(p.p_local(Duration::from_secs(5), &r), 0.0);
        assert_eq!(p.p_local(Duration::from_secs(2), &r), 0.0);
        assert_eq!(p.p_local(Duration::ZERO, &r), 0.0);
        // linear ramp
        assert!((p.p_local(Duration::from_secs(55), &r) - 0.5).abs() < 1e-9);
        assert!((p.p_local(Duration::from_secs(30), &r) - 0.25).abs() < 1e-9);
        // saturation at B = d + f
        assert_eq!(p.p_local(Duration::from_secs(105), &r), 1.0);
        assert_eq!(p.p_local(Duration::from_secs(500), &r), 1.0);
    }

    #[test]
    fn p_local_continuous_propagation() {
        let p = CostParams::default();
        let r = region(0, 5);
        assert_eq!(p.p_local(Duration::from_secs(5), &r), 0.0);
        assert_eq!(p.p_local(Duration::from_secs(6), &r), 1.0);
    }

    #[test]
    fn switch_union_blends_branch_costs() {
        let p = CostParams::default();
        let c = p.switch_union(0.5, 100.0, 1000.0, 0.0);
        assert!((c - (550.0 + p.guard)).abs() < 1e-9);
        // p=1 ignores the remote branch except the guard itself
        let c = p.switch_union(1.0, 100.0, 1_000_000.0, 0.0);
        assert!((c - (100.0 + p.guard)).abs() < 1e-9);
    }

    #[test]
    fn remote_costs_scale_with_bytes() {
        let p = CostParams::default();
        let small = p.remote(0.0, 10.0, 50.0);
        let big = p.remote(0.0, 1_000_000.0, 50.0);
        assert!(big > small * 100.0);
        assert!(small >= p.remote_roundtrip);
    }

    #[test]
    fn ranges_from_conjuncts_intersect() {
        let filters = vec![
            BoundExpr::binary(
                BoundExpr::col("c", "k"),
                BinaryOp::GtEq,
                BoundExpr::Literal(Value::Int(10)),
            ),
            BoundExpr::binary(
                BoundExpr::Literal(Value::Int(20)),
                BinaryOp::Gt,
                BoundExpr::col("c", "k"),
            ),
        ];
        let ranges = column_ranges(&filters);
        let r = &ranges["k"];
        assert!(r.contains(&Value::Int(10)));
        assert!(r.contains(&Value::Int(19)));
        assert!(!r.contains(&Value::Int(20)));
        assert!(!r.contains(&Value::Int(9)));
    }

    #[test]
    fn between_produces_range() {
        let filters = vec![BoundExpr::Between {
            expr: Box::new(BoundExpr::col("c", "bal")),
            low: Box::new(BoundExpr::Literal(Value::Float(1.0))),
            high: Box::new(BoundExpr::Literal(Value::Float(2.0))),
            negated: false,
        }];
        let ranges = column_ranges(&filters);
        assert!(ranges["bal"].contains(&Value::Float(1.5)));
        assert!(!ranges["bal"].contains(&Value::Float(2.5)));
    }

    #[test]
    fn eq_produces_point_range() {
        let filters = vec![BoundExpr::binary(
            BoundExpr::col("c", "k"),
            BinaryOp::Eq,
            BoundExpr::Literal(Value::Int(7)),
        )];
        let ranges = column_ranges(&filters);
        assert_eq!(ranges["k"].range, KeyRange::eq(Value::Int(7)));
    }

    #[test]
    fn non_range_predicates_ignored_by_ranges() {
        let filters = vec![BoundExpr::IsNull {
            expr: Box::new(BoundExpr::col("c", "k")),
            negated: false,
        }];
        assert!(column_ranges(&filters).is_empty());
    }

    #[test]
    fn selectivity_defaults_for_opaque_predicates() {
        let stats = TableStats::default();
        let filters = vec![BoundExpr::IsNull {
            expr: Box::new(BoundExpr::col("c", "k")),
            negated: false,
        }];
        let s = filter_selectivity(&filters, &column_ranges(&filters), &stats);
        assert!((s - 0.33).abs() < 1e-9);
        assert_eq!(filter_selectivity(&[], &BTreeMap::new(), &stats), 1.0);
    }

    #[test]
    fn sort_cost_grows_superlinearly() {
        let p = CostParams::default();
        assert!(p.sort(1000.0) > 2.0 * p.sort(500.0));
        assert_eq!(p.sort(0.0), 0.0);
    }
}
