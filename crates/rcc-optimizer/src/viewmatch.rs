//! View matching (paper Sec. 3.2.3, after Goldstein & Larson, SIGMOD'01).
//!
//! "Logical plans making use of a local view are always created through
//! view matching: the view matching algorithm finds an expression that can
//! be computed from a local view and produces a new substitute exploiting
//! the view." Our cached views are projections (with optional single-column
//! range selections) of one base table, so matching an operand reduces to:
//!
//! 1. the view is over the operand's base table;
//! 2. the view **covers** every column the query needs from the operand;
//! 3. the view's selection range **subsumes** the query's range on that
//!    column (the substitute re-applies the query predicate as a residual,
//!    so a wider view is always safe — a narrower one never is).
//!
//! The substitute is a [`LocalScanNode`]; the optimizer wraps it in a
//! SwitchUnion with a currency guard.

use crate::constraint::OperandId;
use crate::cost::{column_ranges, conjunct_range, filter_selectivity};
use crate::expr::BoundExpr;
use crate::graph::QueryGraph;
use crate::physical::{AccessPath, LocalScanNode, SeekRange};
use rcc_catalog::{CachedViewDef, Catalog, CurrencyRegion};
use rcc_common::{DataType, Schema, Value};
use rcc_storage::{KeyRange, TableStats};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// What every access path of one operand is derived from: the columns the
/// query needs of it, the ranges its filters imply, and its base table's
/// statistics. Derived once per operand and handed to [`match_views`] and
/// [`master_scan`].
#[derive(Debug, Clone)]
pub struct OperandProfile {
    /// [`QueryGraph::required_columns`] of the operand.
    pub required: BTreeSet<String>,
    /// [`operand_schema`] over `required`.
    pub schema: Schema,
    /// [`column_ranges`] of the operand's filters.
    pub ranges: BTreeMap<String, SeekRange>,
    /// The base table's statistics.
    pub stats: Arc<TableStats>,
    /// [`filter_selectivity`] of the operand's filters against `stats`.
    pub selectivity: f64,
}

impl OperandProfile {
    /// Derive the profile of `operand`.
    pub fn derive(catalog: &Catalog, graph: &QueryGraph, operand: OperandId) -> OperandProfile {
        let op = graph.operand(operand);
        let required = graph.required_columns(operand);
        let schema = operand_schema(graph, operand, &required);
        let ranges = column_ranges(&op.filters);
        let stats = catalog.stats(&op.table.name);
        let selectivity = filter_selectivity(&op.filters, &ranges, &stats);
        OperandProfile {
            required,
            schema,
            ranges,
            stats,
            selectivity,
        }
    }
}

/// A successful view match for one operand.
#[derive(Debug, Clone)]
pub struct ViewMatch {
    /// The matched view.
    pub view: Arc<CachedViewDef>,
    /// The view's currency region.
    pub region: Arc<CurrencyRegion>,
    /// Ready-to-use scan substitute.
    pub scan: LocalScanNode,
    /// Row count in the view's own statistics; 0 when it was never analyzed.
    pub analyzed_rows: u64,
    /// Row count of the statistics `scan.est_rows` was estimated from: the
    /// view's own, or the base table's when the view was never analyzed.
    pub stats_rows: u64,
}

/// Find every cached view that can substitute for `operand`.
pub fn match_views(
    catalog: &Catalog,
    graph: &QueryGraph,
    operand: OperandId,
    profile: &OperandProfile,
) -> Vec<ViewMatch> {
    let op = graph.operand(operand);
    let mut out = Vec::new();

    for view in catalog.views_over(op.table.id) {
        if !profile.required.iter().all(|c| view.covers_column(c)) {
            continue;
        }
        if let Some(pred) = &view.predicate {
            let query_range = profile.ranges.get(&pred.column.to_ascii_lowercase());
            if !pred
                .range
                .contains_range(query_range.map_or(&KeyRange::all(), |r| &r.range))
            {
                continue;
            }
        }
        let Ok(region) = catalog.region(view.region) else {
            continue;
        };

        let view_key_lead = view
            .key_ordinals
            .first()
            .map(|&k| view.columns[k].as_str())
            .unwrap_or_default();
        let access = pick_access(&profile.ranges, view_key_lead, |col| {
            view.local_index_on(col).map(str::to_string)
        });

        let view_stats = catalog.stats(&view.name);
        let analyzed_rows = view_stats.row_count;
        let (stats_rows, selectivity) = if analyzed_rows > 0 {
            (
                analyzed_rows,
                filter_selectivity(&op.filters, &profile.ranges, &view_stats),
            )
        } else {
            (profile.stats.row_count, profile.selectivity)
        };

        out.push(ViewMatch {
            region,
            scan: LocalScanNode {
                object: view.name.clone(),
                residual: scan_residual(&op.filters, &access, &profile.schema),
                schema: profile.schema.clone(),
                access,
                operand,
                est_rows: stats_rows as f64 * selectivity,
            },
            view,
            analyzed_rows,
            stats_rows,
        });
    }
    out
}

/// Scan substitute over the *master* table itself — used when planning in
/// back-end role, and to estimate the back-end's cost of serving a remote
/// fetch. Uses the back-end's clustered layout and secondary indexes.
pub fn master_scan(
    graph: &QueryGraph,
    operand: OperandId,
    profile: &OperandProfile,
) -> LocalScanNode {
    let op = graph.operand(operand);
    let leading = op.table.key.first().map(String::as_str).unwrap_or_default();
    let access = pick_access(&profile.ranges, leading, |col| {
        op.table.index_on(col).map(|ix| ix.name.clone())
    });
    LocalScanNode {
        object: op.table.name.clone(),
        residual: scan_residual(&op.filters, &access, &profile.schema),
        schema: profile.schema.clone(),
        access,
        operand,
        est_rows: profile.stats.row_count as f64 * profile.selectivity,
    }
}

/// Output schema for an operand scan: the required columns (sorted for
/// determinism), typed from the base table and qualified by the operand
/// binding.
pub fn operand_schema(
    graph: &QueryGraph,
    operand: OperandId,
    required: &BTreeSet<String>,
) -> Schema {
    let op = graph.operand(operand);
    Schema::new(
        required
            .iter()
            .map(|c| {
                let ord = op
                    .table
                    .schema
                    .resolve(None, c)
                    .expect("required column exists");
                let mut col = op.table.schema.column(ord).clone();
                col.qualifier = Some(op.binding.clone());
                col.source = Some(op.table.id);
                col
            })
            .collect(),
    )
}

/// What a scan through `access` still has to test on each row it fetches:
/// the operand's filters minus the conjuncts the seek already enforces.
///
/// The path's `KeyRange` is the intersection of the ranges of the simple
/// conjuncts on the seek column ([`conjunct_range`]), so every fetched key
/// lies in each of them. Such a conjunct is dropped when lying in its range
/// is the same as passing it: its literals are not NULL and of a type
/// `Value::compare` accepts against the column's (the range orders by
/// `Value::total_cmp`, which is what `compare` then answers with), and the
/// seek has a lower bound — NULL keys sort first, inside any range that is
/// open below, and pass no comparison. Anything else stays: other columns,
/// `<>`, an upper bound alone.
fn scan_residual(filters: &[BoundExpr], access: &AccessPath, schema: &Schema) -> Option<BoundExpr> {
    let (column, range) = match access {
        AccessPath::ClusteredRange { column, range }
        | AccessPath::IndexRange { column, range, .. } => (column, range),
        AccessPath::FullScan => return BoundExpr::and_all(filters.to_vec()),
    };
    let lower_bounded =
        matches!(&range.low, Bound::Included(v) | Bound::Excluded(v) if !v.is_null());
    let seek_type = schema
        .resolve(None, column)
        .ok()
        .filter(|_| lower_bounded)
        .map(|i| schema.column(i).data_type);
    let enforced = |f: &BoundExpr| match (conjunct_range(f), seek_type) {
        (Some((col, r)), Some(t)) => {
            col.eq_ignore_ascii_case(column)
                && [&r.low, &r.high].into_iter().all(|b| match b {
                    Bound::Unbounded => true,
                    Bound::Included(v) | Bound::Excluded(v) => comparable(t, v),
                })
        }
        _ => false,
    };
    BoundExpr::and_all(filters.iter().filter(|f| !enforced(f)).cloned().collect())
}

/// Does `Value::compare` accept a non-NULL `literal` against values of a
/// column declared `column`?
fn comparable(column: DataType, literal: &Value) -> bool {
    matches!(
        (column, literal),
        (
            DataType::Int | DataType::Float,
            Value::Int(_) | Value::Float(_)
        ) | (DataType::Str, Value::Str(_))
            | (DataType::Bool, Value::Bool(_))
            | (DataType::Timestamp, Value::Timestamp(_) | Value::Int(_))
            | (DataType::Int, Value::Timestamp(_))
    )
}

/// Choose the best access path given the filter-implied ranges: leading
/// clustered-key range beats a secondary index beats a full scan.
fn pick_access(
    ranges: &BTreeMap<String, SeekRange>,
    leading_key: &str,
    index_on: impl Fn(&str) -> Option<String>,
) -> AccessPath {
    if !leading_key.is_empty() {
        if let Some(r) = ranges.get(&leading_key.to_ascii_lowercase()) {
            if !r.is_full() {
                return AccessPath::ClusteredRange {
                    column: leading_key.to_string(),
                    range: r.clone(),
                };
            }
        }
    }
    for (col, r) in ranges {
        if r.is_full() {
            continue;
        }
        if let Some(index) = index_on(col) {
            return AccessPath::IndexRange {
                index,
                column: col.clone(),
                range: r.clone(),
            };
        }
    }
    AccessPath::FullScan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::bind_select;
    use rcc_catalog::{TableMeta, ViewPredicate};
    use rcc_common::{Column, DataType, Duration, RegionId, TableId, Value, ViewId};
    use rcc_sql::parse_statement;

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let customer = Schema::new(vec![
            Column::new("c_custkey", DataType::Int),
            Column::new("c_name", DataType::Str),
            Column::new("c_nationkey", DataType::Int),
            Column::new("c_acctbal", DataType::Float),
        ]);
        let mut meta =
            TableMeta::new(TableId(1), "customer", customer, vec!["c_custkey".into()]).unwrap();
        meta.add_index(
            rcc_common::IndexId(1),
            "ix_acctbal",
            vec!["c_acctbal".into()],
        )
        .unwrap();
        cat.register_table(meta).unwrap();
        cat.register_region(CurrencyRegion::new(
            RegionId(1),
            "CR1",
            Duration::from_secs(15),
            Duration::from_secs(5),
        ))
        .unwrap();
        // cust_prj: projection of customer WITHOUT c_nationkey, no indexes
        let schema = Schema::new(vec![
            Column::new("c_custkey", DataType::Int).with_source(TableId(1)),
            Column::new("c_name", DataType::Str).with_source(TableId(1)),
            Column::new("c_acctbal", DataType::Float).with_source(TableId(1)),
        ])
        .with_qualifier("cust_prj");
        cat.register_view(CachedViewDef {
            id: ViewId(1),
            name: "cust_prj".into(),
            region: RegionId(1),
            base_table: TableId(1),
            base_table_name: "customer".into(),
            columns: vec!["c_custkey".into(), "c_name".into(), "c_acctbal".into()],
            predicate: None,
            schema,
            key_ordinals: vec![0],
            local_indexes: vec![],
        })
        .unwrap();
        cat
    }

    fn match_views(cat: &Catalog, g: &QueryGraph, operand: OperandId) -> Vec<ViewMatch> {
        super::match_views(cat, g, operand, &OperandProfile::derive(cat, g, operand))
    }

    fn master_scan(cat: &Catalog, g: &QueryGraph, operand: OperandId) -> LocalScanNode {
        super::master_scan(g, operand, &OperandProfile::derive(cat, g, operand))
    }

    fn graph(cat: &Catalog, sql: &str) -> QueryGraph {
        let stmt = match parse_statement(sql).unwrap() {
            rcc_sql::Statement::Select(s) => *s,
            other => panic!("{other:?}"),
        };
        bind_select(cat, &stmt, &std::collections::HashMap::new()).unwrap()
    }

    #[test]
    fn covering_view_matches() {
        let cat = setup();
        let g = graph(&cat, "SELECT c_name FROM customer WHERE c_custkey <= 10");
        let ms = match_views(&cat, &g, 0);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].view.name, "cust_prj");
        assert!(matches!(
            ms[0].scan.access,
            AccessPath::ClusteredRange { ref column, .. } if column == "c_custkey"
        ));
    }

    #[test]
    fn uncovered_column_rejects_view() {
        let cat = setup();
        let g = graph(&cat, "SELECT c_nationkey FROM customer");
        assert!(match_views(&cat, &g, 0).is_empty());
    }

    #[test]
    fn no_local_index_means_full_scan() {
        let cat = setup();
        let g = graph(
            &cat,
            "SELECT c_name FROM customer WHERE c_acctbal BETWEEN 1.0 AND 2.0",
        );
        let ms = match_views(&cat, &g, 0);
        assert_eq!(ms.len(), 1);
        assert!(
            matches!(ms[0].scan.access, AccessPath::FullScan),
            "view has no ix_acctbal"
        );
        // but the master table does
        let m = master_scan(&cat, &g, 0);
        assert!(matches!(
            m.access,
            AccessPath::IndexRange { ref index, .. } if index == "ix_acctbal"
        ));
    }

    #[test]
    fn selection_view_subsumption() {
        let cat = setup();
        // add a selection view keeping only c_custkey <= 100
        let schema = Schema::new(vec![
            Column::new("c_custkey", DataType::Int).with_source(TableId(1)),
            Column::new("c_name", DataType::Str).with_source(TableId(1)),
            Column::new("c_acctbal", DataType::Float).with_source(TableId(1)),
        ])
        .with_qualifier("cust_top");
        cat.register_view(CachedViewDef {
            id: ViewId(2),
            name: "cust_top".into(),
            region: RegionId(1),
            base_table: TableId(1),
            base_table_name: "customer".into(),
            columns: vec!["c_custkey".into(), "c_name".into(), "c_acctbal".into()],
            predicate: Some(ViewPredicate {
                column: "c_custkey".into(),
                range: KeyRange::at_most(Value::Int(100)),
            }),
            schema,
            key_ordinals: vec![0],
            local_indexes: vec![],
        })
        .unwrap();

        // narrow query: both views match
        let g = graph(&cat, "SELECT c_name FROM customer WHERE c_custkey <= 50");
        let names: Vec<String> = match_views(&cat, &g, 0)
            .into_iter()
            .map(|m| m.view.name.clone())
            .collect();
        assert!(names.contains(&"cust_prj".to_string()));
        assert!(names.contains(&"cust_top".to_string()));

        // wide query: only the full projection matches
        let g = graph(&cat, "SELECT c_name FROM customer WHERE c_custkey <= 500");
        let names: Vec<String> = match_views(&cat, &g, 0)
            .into_iter()
            .map(|m| m.view.name.clone())
            .collect();
        assert_eq!(names, vec!["cust_prj".to_string()]);

        // unrestricted query: selection view cannot serve it
        let g = graph(&cat, "SELECT c_name FROM customer");
        let names: Vec<String> = match_views(&cat, &g, 0)
            .into_iter()
            .map(|m| m.view.name.clone())
            .collect();
        assert_eq!(names, vec!["cust_prj".to_string()]);
    }

    #[test]
    fn scan_schema_qualified_by_binding() {
        let cat = setup();
        let g = graph(
            &cat,
            "SELECT c.c_name FROM customer c WHERE c.c_custkey = 5",
        );
        let ms = match_views(&cat, &g, 0);
        let schema = &ms[0].scan.schema;
        assert!(schema.resolve(Some("c"), "c_name").is_ok());
        assert!(
            schema.resolve(Some("c"), "c_custkey").is_ok(),
            "key always carried"
        );
    }

    /// The conjuncts a scan's seek enforces are not tested again on the
    /// rows it fetches; everything the seek does not enforce still is.
    #[test]
    fn seek_conjuncts_leave_the_residual() {
        let cat = setup();
        let scan = |sql: &str| {
            let g = graph(&cat, sql);
            match_views(&cat, &g, 0).remove(0).scan
        };
        let shown = |residual: &Option<BoundExpr>| residual.as_ref().map(|r| r.to_string());

        // clustered path, one lower bound: nothing left to test
        let s = scan("SELECT c_name FROM customer WHERE c_custkey >= 17");
        assert!(matches!(s.access, AccessPath::ClusteredRange { .. }));
        assert_eq!(s.residual, None);
        // two-sided (as two conjuncts and as BETWEEN), plus another column
        for sql in [
            "SELECT c_name FROM customer WHERE c_custkey >= 17 AND c_custkey < 90 AND c_acctbal > 0",
            "SELECT c_name FROM customer WHERE c_acctbal > 0 AND c_custkey BETWEEN 17 AND 89",
        ] {
            let s = scan(sql);
            assert!(matches!(s.access, AccessPath::ClusteredRange { .. }));
            let g = graph(&cat, "SELECT c_name FROM customer WHERE c_acctbal > 0");
            assert_eq!(s.residual, BoundExpr::and_all(g.operand(0).filters.clone()));
        }
        // an equality seek, a float literal against the integer key
        assert_eq!(
            scan("SELECT c_name FROM customer WHERE c_custkey = 5").residual,
            None
        );
        assert_eq!(
            scan("SELECT c_name FROM customer WHERE c_custkey > 4.5").residual,
            None
        );
        // an upper bound alone stays: a NULL key sorts first, inside the
        // range, and passes no comparison
        let s = scan("SELECT c_name FROM customer WHERE c_custkey <= 10");
        assert!(matches!(s.access, AccessPath::ClusteredRange { .. }));
        assert!(s.residual.is_some(), "{:?}", shown(&s.residual));
        // ... and so does `<>`, which the range does not express
        let s = scan("SELECT c_name FROM customer WHERE c_custkey >= 3 AND c_custkey <> 7");
        let g = graph(&cat, "SELECT c_name FROM customer WHERE c_custkey <> 7");
        assert_eq!(s.residual, BoundExpr::and_all(g.operand(0).filters.clone()));
        // a full scan tests everything
        let s = scan("SELECT c_name FROM customer WHERE c_acctbal BETWEEN 1.0 AND 2.0");
        assert!(matches!(s.access, AccessPath::FullScan));
        assert!(s.residual.is_some());

        // index path at the back-end: the BETWEEN goes, the name test stays
        let g = graph(
            &cat,
            "SELECT c_custkey FROM customer WHERE c_acctbal BETWEEN 1.0 AND 2.0 AND c_name = 'x'",
        );
        let m = master_scan(&cat, &g, 0);
        assert!(matches!(m.access, AccessPath::IndexRange { .. }));
        let name_only = graph(&cat, "SELECT c_custkey FROM customer WHERE c_name = 'x'");
        assert_eq!(
            m.residual,
            BoundExpr::and_all(name_only.operand(0).filters.clone())
        );

        // literals the seek orders but the comparison rejects or never
        // passes keep their conjunct
        let schema = &scan("SELECT c_name FROM customer WHERE c_custkey >= 1").schema;
        let key = |op, lit| {
            BoundExpr::binary(
                BoundExpr::col("customer", "c_custkey"),
                op,
                BoundExpr::Literal(lit),
            )
        };
        for odd in [Value::from("abc"), Value::Null, Value::Bool(true)] {
            let filters = vec![
                key(rcc_sql::BinaryOp::GtEq, Value::Int(1)),
                key(rcc_sql::BinaryOp::Lt, odd),
            ];
            let access = AccessPath::ClusteredRange {
                column: "c_custkey".into(),
                range: column_ranges(&filters)["c_custkey"].clone(),
            };
            assert_eq!(
                scan_residual(&filters, &access, schema),
                Some(filters[1].clone())
            );
        }
    }

    #[test]
    fn local_index_used_when_present() {
        let cat = setup();
        // register a second view WITH a local index on c_acctbal
        let schema = Schema::new(vec![
            Column::new("c_custkey", DataType::Int).with_source(TableId(1)),
            Column::new("c_acctbal", DataType::Float).with_source(TableId(1)),
            Column::new("c_name", DataType::Str).with_source(TableId(1)),
        ])
        .with_qualifier("cust_ix");
        cat.register_view(CachedViewDef {
            id: ViewId(3),
            name: "cust_ix".into(),
            region: RegionId(1),
            base_table: TableId(1),
            base_table_name: "customer".into(),
            columns: vec!["c_custkey".into(), "c_acctbal".into(), "c_name".into()],
            predicate: None,
            schema,
            key_ordinals: vec![0],
            local_indexes: vec![("ix_bal_local".into(), "c_acctbal".into())],
        })
        .unwrap();
        let g = graph(
            &cat,
            "SELECT c_name FROM customer WHERE c_acctbal BETWEEN 1.0 AND 2.0",
        );
        let ms = match_views(&cat, &g, 0);
        let with_ix = ms.iter().find(|m| m.view.name == "cust_ix").unwrap();
        assert!(matches!(
            with_ix.scan.access,
            AccessPath::IndexRange { ref index, .. } if index == "ix_bal_local"
        ));
    }
}
