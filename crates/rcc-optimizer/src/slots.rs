//! Slot domains: for which values of its statement slots a compiled plan
//! *is* the plan.
//!
//! A plan is compiled for the values its statement happened to hold, and
//! served to every later statement of the same shape whose values lie in
//! the plan's **domains** — one [`KeyRange`] per slot, derived here. The
//! default is the point range `[v, v]`: the plan is proven for exactly the
//! value it was compiled with. A slot gets more room only where the
//! compilation looked at its value through a window this module can name:
//!
//! the slot is the lone constant of a top-level `column op slot` /
//! `column BETWEEN slot AND slot` conjunct of a base-table operand, it
//! occurs nowhere else in the statement, and the end of the column's seek
//! range it supplies is supplied by it alone
//! ([`SeekRange::intersect`](crate::physical::SeekRange::intersect) keeps
//! the slot's name exactly then). What the compilation read of such a value
//! is then:
//!
//! * **view matching** — does each cached view's predicate range on that
//!   column contain the query's range? A threshold at each end of the
//!   view's range: the domain is clipped to the side of every such end the
//!   value is on (or to the end itself), so which views match cannot
//!   change;
//! * **selectivity** — for range operators, `ColumnStats::range_selectivity`
//!   interpolates inside the equal-width histogram bucket the value falls
//!   in (or reads nothing beyond `min`/`max`): the domain is clipped to
//!   that bucket or half-line (`ColumnStats::bucket_of`), in the base
//!   table's statistics and in every view's. Within it estimates move continuously with the value;
//!   `est_rows` and `est_cost` of a served plan are those of the values it
//!   was compiled for. `=` reads `eq_selectivity`, which looks at no value,
//!   and is not clipped;
//! * **the seek and its residual** — `scan_residual` drops a conjunct the
//!   seek enforces, which depends on the constant's type (part of the
//!   shape) and on it not being NULL (a NULL keeps the point domain).
//!
//! Nothing else of a compilation reads such a value: the currency clause
//! holds no slot, so constraints, guards and flow certificates are the
//! shape's.

use crate::cost::{column_ranges, conjunct_range};
use crate::expr::BoundExpr;
use crate::graph::QueryGraph;
use rcc_catalog::Catalog;
use rcc_common::Value;
use rcc_storage::KeyRange;
use std::cmp::Ordering;
use std::ops::Bound;

/// The side of `cut` that `v` is on, or `cut` itself.
fn side_of(cut: &Value, v: &Value) -> KeyRange {
    match v.cmp(cut) {
        Ordering::Less => KeyRange::less_than(cut.clone()),
        Ordering::Equal => KeyRange::eq(cut.clone()),
        Ordering::Greater => KeyRange::greater_than(cut.clone()),
    }
}

/// How often each slot occurs in `e`.
fn count_slots(e: &BoundExpr, counts: &mut [usize]) {
    e.visit(&mut |x| {
        if let BoundExpr::Slot { index, .. } = x {
            counts[*index as usize] += 1;
        }
    });
}

/// One domain per slot of `graph` (see the module documentation). The
/// values `graph` was bound with lie in their domains.
pub fn slot_domains(catalog: &Catalog, graph: &QueryGraph) -> Vec<KeyRange> {
    let n = graph.slots.len();
    let mut domains = vec![KeyRange::all(); n];
    // occurrences as the lone supplier of a seek-range end, and all of them
    let mut windowed = vec![0usize; n];
    let mut uses = vec![0usize; n];
    for e in graph.exprs() {
        count_slots(e, &mut uses);
    }
    for op in &graph.operands {
        let ranges = column_ranges(&op.filters);
        let views = catalog.views_over(op.table.id);
        let stats: Vec<_> = std::iter::once(op.table.name.as_str())
            .chain(views.iter().map(|v| v.name.as_str()))
            .map(|object| catalog.stats(object))
            .collect();
        for f in &op.filters {
            let Some((column, own)) = conjunct_range(f) else {
                continue;
            };
            let whole = &ranges[column];
            let ends = [
                (own.low_slot, whole.low_slot),
                (own.high_slot, whole.high_slot),
            ];
            if ends
                .iter()
                .any(|(own, whole)| own.is_some() && own != whole)
            {
                continue; // an end is shared with another conjunct
            }
            let is_equality = matches!(
                f,
                BoundExpr::Binary {
                    op: rcc_sql::BinaryOp::Eq,
                    ..
                }
            );
            count_slots(f, &mut windowed);
            for slot in ends.iter().filter_map(|(own, _)| *own) {
                let v = &graph.slots[slot as usize];
                let domain = &mut domains[slot as usize];
                let cuts = views
                    .iter()
                    .filter_map(|view| view.predicate.as_ref())
                    .filter(|pred| pred.column.eq_ignore_ascii_case(column))
                    .flat_map(|pred| [&pred.range.low, &pred.range.high]);
                for cut in cuts {
                    if let Bound::Included(cut) | Bound::Excluded(cut) = cut {
                        *domain = domain.intersect(&side_of(cut, v));
                    }
                }
                if !is_equality {
                    for stats in &stats {
                        *domain = domain.intersect(&stats.column(column).bucket_of(v));
                    }
                }
            }
        }
    }
    for (slot, domain) in domains.iter_mut().enumerate() {
        let v = &graph.slots[slot];
        let has_window = windowed[slot] > 0 && windowed[slot] == uses[slot];
        if !has_window || v.is_null() || !domain.contains(v) {
            *domain = KeyRange::eq(v.clone());
        }
    }
    domains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::bind_select_slots;
    use rcc_catalog::{CachedViewDef, CurrencyRegion, TableMeta, ViewPredicate};
    use rcc_common::{Column, DataType, Duration, RegionId, Row, Schema, TableId, ViewId};
    use rcc_storage::{Table, TableStats};
    use std::collections::HashMap;

    /// `t (k INT key, x FLOAT)`, k = 0..100, x = k / 2 (so 64 buckets of
    /// width 99/64 on k), a second table `u (k INT)`, and one cached view
    /// of `t` keeping `k <= 40`.
    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("x", DataType::Float),
        ]);
        let mut data = Table::new("t", schema.clone(), vec![0]);
        for k in 0..100 {
            data.insert(Row::new(vec![Value::Int(k), Value::Float(k as f64 / 2.0)]))
                .unwrap();
        }
        cat.register_table(
            TableMeta::new(TableId(1), "t", schema.clone(), vec!["k".into()]).unwrap(),
        )
        .unwrap();
        cat.set_stats("t", TableStats::compute(&data));
        let u = Schema::new(vec![Column::new("k", DataType::Int)]);
        cat.register_table(TableMeta::new(TableId(2), "u", u, vec!["k".into()]).unwrap())
            .unwrap();
        cat.register_region(CurrencyRegion::new(
            RegionId(1),
            "r",
            Duration::from_secs(10),
            Duration::from_secs(2),
        ))
        .unwrap();
        cat.register_view(CachedViewDef {
            id: ViewId(1),
            name: "t_low".into(),
            region: RegionId(1),
            base_table: TableId(1),
            base_table_name: "t".into(),
            columns: vec!["k".into(), "x".into()],
            predicate: Some(ViewPredicate {
                column: "k".into(),
                range: KeyRange::at_most(Value::Int(40)),
            }),
            schema: schema.with_qualifier("t_low"),
            key_ordinals: vec![0],
            local_indexes: vec![],
        })
        .unwrap();
        cat
    }

    fn domains(sql: &str, params: &[(&str, Value)]) -> Vec<KeyRange> {
        let cat = catalog();
        let params: HashMap<String, Value> = params
            .iter()
            .map(|(name, v)| (name.to_string(), v.clone()))
            .collect();
        let shape = rcc_sql::shape(sql, &params).expect("a SELECT");
        let select = rcc_sql::parse_shape(sql, &params).unwrap();
        let graph = bind_select_slots(&cat, &select, &params, &shape.values).unwrap();
        let domains = slot_domains(&cat, &graph);
        for (d, v) in domains.iter().zip(&shape.values) {
            assert!(d.contains(v), "{sql}: {v} outside {d:?}");
        }
        domains
    }

    fn point(v: i64) -> KeyRange {
        KeyRange::eq(Value::Int(v))
    }

    #[test]
    fn an_equality_is_clipped_by_view_predicates_only() {
        // either side of the view's `k <= 40`, and its end itself
        let below = KeyRange::less_than(Value::Int(40));
        assert_eq!(
            domains("SELECT x FROM t WHERE k = 7", &[]),
            std::slice::from_ref(&below)
        );
        assert_eq!(
            domains("SELECT x FROM t WHERE k = 41", &[]),
            [KeyRange::greater_than(Value::Int(40))]
        );
        assert_eq!(domains("SELECT x FROM t WHERE k = 40", &[]), [point(40)]);
        // through a parameter, and on a column no view restricts
        let key = [("key", Value::Int(7))];
        for sql in [
            "SELECT x FROM t WHERE k = $key",
            "SELECT x FROM t WHERE $key = k",
        ] {
            assert_eq!(domains(sql, &key), std::slice::from_ref(&below), "{sql}");
        }
        assert_eq!(
            domains("SELECT k FROM t WHERE x = 3.5", &[]),
            [KeyRange::all()]
        );
        assert_eq!(
            domains("SELECT k FROM u WHERE k = 3", &[]),
            [KeyRange::all()]
        );
    }

    #[test]
    fn a_range_operator_is_clipped_to_its_histogram_bucket_too() {
        // k in 0..=99: bucket width 99/64; 7 falls in bucket 4
        let width = 99.0 / 64.0;
        let bucket = KeyRange {
            low: Bound::Included(Value::Float(4.0 * width)),
            high: Bound::Excluded(Value::Float(5.0 * width)),
        };
        for sql in [
            "SELECT x FROM t WHERE k < 7",
            "SELECT x FROM t WHERE k >= 7",
        ] {
            assert_eq!(domains(sql, &[]), std::slice::from_ref(&bucket), "{sql}");
        }
        // beyond the statistics' ends: a half-line (cut at the view's end
        // where that comes first)
        assert_eq!(
            domains("SELECT x FROM t WHERE k > -5", &[]),
            [KeyRange::less_than(Value::Float(0.0))]
        );
        assert_eq!(
            domains("SELECT x FROM t WHERE k < 500", &[]),
            [KeyRange::greater_than(Value::Float(99.0))]
        );
        // both ends of a BETWEEN, each in its own bucket
        let both = domains("SELECT x FROM t WHERE k BETWEEN 7 AND 8", &[]);
        assert_eq!(both[0], bucket);
        assert!(both[1].contains(&Value::Int(8)) && !both[1].contains(&Value::Int(7)));
        // one conjunct per end of the seek range: both still have a window
        let ends = domains("SELECT x FROM t WHERE k >= 7 AND k < 60", &[]);
        assert_eq!(ends[0], bucket);
        assert!(ends[1].contains(&Value::Int(60)) && !ends[1].contains(&Value::Int(61)));
    }

    #[test]
    fn everything_else_is_pinned_to_its_value() {
        for (sql, expected) in [
            // two conjuncts bound the same end: which is tighter is the values'
            (
                "SELECT x FROM t WHERE k < 30 AND k < 45",
                vec![point(30), point(45)],
            ),
            (
                "SELECT x FROM t WHERE k = 7 AND k < 45",
                vec![point(7), point(45)],
            ),
            // not a top-level conjunct, no range, not against a column
            (
                "SELECT x FROM t WHERE k = 7 OR k = 8",
                vec![point(7), point(8)],
            ),
            ("SELECT x FROM t WHERE NOT k = 7", vec![point(7)]),
            ("SELECT x FROM t WHERE k <> 7", vec![point(7)]),
            ("SELECT x FROM t WHERE k + 1 = 7", vec![point(7)]),
            ("SELECT k = 7 FROM t", vec![point(7)]),
            (
                "SELECT COUNT(*) FROM t GROUP BY k HAVING COUNT(*) > 2",
                vec![point(2)],
            ),
            // a join predicate between two tables is no operand filter
            (
                "SELECT t.x FROM t, u WHERE t.k = u.k AND t.x > u.k + 2",
                vec![],
            ),
        ] {
            assert_eq!(domains(sql, &[]), expected, "{sql}");
        }
        // a parameter used twice is one slot seen twice
        let k = [("key", Value::Int(7))];
        assert_eq!(
            domains("SELECT k + $key FROM t WHERE k = $key", &k),
            [point(7)]
        );
        // NULL never compares: the seek keeps its conjunct as a residual
        let null = [("key", Value::Null)];
        assert_eq!(
            domains("SELECT x FROM t WHERE k = $key", &null),
            [KeyRange::eq(Value::Null)]
        );
    }

    #[test]
    fn a_filter_mirrored_across_a_join_edge_keeps_its_window() {
        // `t.k = 7` is derived for `u.k` as well: the slot occurs twice, both
        // times as the lone constant of an operand's seek
        let d = domains("SELECT t.x FROM t, u WHERE t.k = u.k AND t.k = 7", &[]);
        assert_eq!(d, [KeyRange::less_than(Value::Int(40))]);
        // spelled out on both sides it is two slots that happen to agree,
        // each other's rival for the same seek
        let d = domains(
            "SELECT t.x FROM t, u WHERE t.k = u.k AND t.k = 7 AND u.k = 7",
            &[],
        );
        assert_eq!(d, [point(7), point(7)]);
    }
}
