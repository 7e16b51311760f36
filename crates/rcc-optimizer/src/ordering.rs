//! Delivered sort-order properties.
//!
//! The paper introduces plan properties with the *sort property*: "a merge
//! join operator requires that its inputs be sorted on the join columns...
//! every physical plan includes a delivered sort property." This module
//! computes the (single-column, ascending) order a physical plan delivers,
//! which is what lets the optimizer build merge joins without explicit
//! sorts: clustered BTree scans deliver their leading-key order for free.

use crate::expr::BoundExpr;
use crate::physical::{AccessPath, LocalScanNode, PhysicalPlan};

/// A delivered ordering: rows are non-decreasing in `qualifier.column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderProp {
    /// Operand binding the ordered column belongs to.
    pub qualifier: String,
    /// Ordered column name.
    pub column: String,
}

impl OrderProp {
    /// Does `expr` reference exactly this ordered column?
    pub fn matches(&self, expr: &BoundExpr) -> bool {
        matches!(expr, BoundExpr::Column { qualifier, name } if self.names(qualifier, name))
    }

    /// Is this the order of column `qualifier.name`?
    pub fn names(&self, qualifier: &str, name: &str) -> bool {
        qualifier == self.qualifier && name.eq_ignore_ascii_case(&self.column)
    }
}

/// The ordering a plan delivers, or `None` when no order is guaranteed.
///
/// Conservative by construction:
/// * local range scans deliver their access path's key order (BTree
///   iteration); full scans claim none;
/// * filters and limits preserve their input's order;
/// * projections preserve it only if the ordered column survives;
/// * merge joins deliver the left input's order;
/// * everything else — hash operators, SwitchUnion (the remote branch gives
///   no guarantee), remote queries, sorts on output ordinals — delivers
///   nothing. (`Sort` orders by *output ordinal*, which has no stable
///   qualifier to name here; treated as unordered for merge-join purposes.)
pub fn delivered_order(plan: &PhysicalPlan) -> Option<OrderProp> {
    match plan {
        PhysicalPlan::LocalScan(n) => scan_order(n),
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Limit { input, .. } => {
            delivered_order(input)
        }
        PhysicalPlan::Project { input, exprs } => {
            let inner = delivered_order(input)?;
            // the ordered column must pass through unchanged
            exprs.iter().any(|(e, _)| inner.matches(e)).then_some(inner)
        }
        PhysicalPlan::MergeJoin { left, .. } => delivered_order(left),
        _ => None,
    }
}

/// The order a local scan delivers: its access path's key order. A full
/// scan iterates in clustered order too, but the scan node does not record
/// the clustered key, so it claims none.
pub fn scan_order(n: &LocalScanNode) -> Option<OrderProp> {
    let column = match &n.access {
        AccessPath::FullScan => return None,
        AccessPath::ClusteredRange { column, .. } => column.clone(),
        AccessPath::IndexRange { column, .. } => column.clone(),
    };
    let qualifier = n.schema.columns().first()?.qualifier.clone()?;
    Some(OrderProp { qualifier, column })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType, Schema, Value};
    use rcc_storage::KeyRange;

    fn scan(access: AccessPath) -> PhysicalPlan {
        PhysicalPlan::LocalScan(LocalScanNode {
            object: "v".into(),
            schema: Schema::new(vec![
                Column::new("id", DataType::Int).with_qualifier("t"),
                Column::new("x", DataType::Int).with_qualifier("t"),
            ]),
            access,
            residual: None,
            operand: 0,
            est_rows: 10.0,
        })
    }

    #[test]
    fn clustered_range_delivers_key_order() {
        let p = scan(AccessPath::ClusteredRange {
            column: "id".into(),
            range: KeyRange::less_than(Value::Int(10)).into(),
        });
        let o = delivered_order(&p).unwrap();
        assert_eq!((o.qualifier.as_str(), o.column.as_str()), ("t", "id"));
        assert!(o.matches(&BoundExpr::col("t", "id")));
        assert!(!o.matches(&BoundExpr::col("t", "x")));
        assert!(!o.matches(&BoundExpr::col("u", "id")));
    }

    #[test]
    fn index_range_delivers_index_order() {
        let p = scan(AccessPath::IndexRange {
            index: "ix".into(),
            column: "x".into(),
            range: KeyRange::all().into(),
        });
        assert_eq!(delivered_order(&p).unwrap().column, "x");
    }

    #[test]
    fn full_scan_claims_nothing() {
        assert!(delivered_order(&scan(AccessPath::FullScan)).is_none());
    }

    #[test]
    fn filter_preserves_projection_guards() {
        let base = scan(AccessPath::ClusteredRange {
            column: "id".into(),
            range: KeyRange::all().into(),
        });
        let filtered = PhysicalPlan::Filter {
            input: Box::new(base.clone()),
            predicate: BoundExpr::Literal(Value::Bool(true)),
        };
        assert!(delivered_order(&filtered).is_some());
        // projection keeping the column preserves the order
        let kept = PhysicalPlan::Project {
            input: Box::new(base.clone()),
            exprs: vec![(BoundExpr::col("t", "id"), "id".into())],
        };
        assert!(delivered_order(&kept).is_some());
        // projection dropping it loses the order
        let dropped = PhysicalPlan::Project {
            input: Box::new(base),
            exprs: vec![(BoundExpr::col("t", "x"), "x".into())],
        };
        assert!(delivered_order(&dropped).is_none());
    }

    #[test]
    fn hash_join_and_remote_deliver_nothing() {
        let base = scan(AccessPath::ClusteredRange {
            column: "id".into(),
            range: KeyRange::all().into(),
        });
        let hj = PhysicalPlan::HashJoin {
            left: Box::new(base.clone()),
            right: Box::new(base.clone()),
            left_keys: vec![],
            right_keys: vec![],
            kind: crate::graph::JoinKind::Inner,
        };
        assert!(delivered_order(&hj).is_none());
        let mj = PhysicalPlan::MergeJoin {
            left: Box::new(base.clone()),
            right: Box::new(base),
            left_key: BoundExpr::col("t", "id"),
            right_key: BoundExpr::col("t", "id"),
            kind: crate::graph::JoinKind::Inner,
        };
        assert_eq!(delivered_order(&mj).unwrap().column, "id");
    }
}
