//! Remote SQL generation.
//!
//! "The remote plan consists of a remote SQL query created from the
//! original expression E" (paper Sec. 3.2.3). Given a bound
//! [`QueryGraph`], this module regenerates SQL text for either one operand
//! (the remote branch of a leaf SwitchUnion / a base-table fetch) or the
//! whole query (the fully remote plan). The generated text is parsed and
//! planned by the back-end server, which always serves the latest snapshot,
//! so no currency clause is attached.

use crate::constraint::OperandId;
use crate::expr::BoundExpr;
use crate::graph::{JoinKind, QueryGraph};
use crate::physical::SqlText;
#[cfg(test)]
use rcc_common::Column;
use rcc_common::Schema;
use rcc_sql::unparse::select_sql;
use rcc_sql::{Expr, SelectItem, SelectStmt, TableRef};
use std::collections::BTreeSet;

/// Convert a bound expression back to AST form.
pub fn bound_to_ast(e: &BoundExpr) -> Expr {
    match e {
        BoundExpr::Column { qualifier, name } => Expr::Column {
            qualifier: Some(qualifier.clone()),
            name: name.clone(),
        },
        BoundExpr::Literal(v) => Expr::Literal(v.clone()),
        // rendered `$?n`, which `SqlText::from_marked` turns back into the
        // slot's value and its place in the text
        BoundExpr::Slot { index, .. } => Expr::Parameter(format!("?{index}")),
        BoundExpr::GetDate => Expr::Function {
            name: "getdate".into(),
            args: vec![],
            distinct: false,
            star: false,
        },
        BoundExpr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(bound_to_ast(left)),
            op: *op,
            right: Box::new(bound_to_ast(right)),
        },
        BoundExpr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(bound_to_ast(expr)),
        },
        BoundExpr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(bound_to_ast(expr)),
            low: Box::new(bound_to_ast(low)),
            high: Box::new(bound_to_ast(high)),
            negated: *negated,
        },
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(bound_to_ast(expr)),
            list: list.iter().map(bound_to_ast).collect(),
            negated: *negated,
        },
        BoundExpr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(bound_to_ast(expr)),
            negated: *negated,
        },
    }
}

/// SQL and result schema for fetching one operand from the back-end:
/// `SELECT <cols> FROM <table> <binding> WHERE <operand filters>`.
/// Columns are emitted in sorted order so the schema is deterministic.
pub fn operand_sql(
    graph: &QueryGraph,
    operand: OperandId,
    columns: &BTreeSet<String>,
) -> (SqlText, Schema) {
    let op = graph.operand(operand);
    let mut stmt = SelectStmt::empty();
    for c in columns {
        stmt.projections.push(SelectItem::Expr {
            expr: Expr::Column {
                qualifier: Some(op.binding.clone()),
                name: c.clone(),
            },
            alias: None,
        });
    }
    stmt.from.push(TableRef::Named {
        name: op.table.name.clone(),
        alias: Some(op.binding.clone()),
    });
    stmt.filter = BoundExpr::and_all(op.filters.clone())
        .as_ref()
        .map(bound_to_ast);

    let schema = Schema::new(
        columns
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
    );
    (
        SqlText::from_marked(&select_sql(&stmt), &graph.slots),
        schema,
    )
}

/// SQL and result schema for shipping the *entire* query to the back-end
/// (the paper's plan 1). Aggregation, DISTINCT, ORDER BY and LIMIT execute
/// remotely; the cache just forwards rows.
pub fn full_query_sql(graph: &QueryGraph) -> (SqlText, Schema) {
    let mut stmt = SelectStmt::empty();
    stmt.distinct = graph.distinct;

    // FROM: non-existential operands
    for op in graph.operands.iter().filter(|o| !o.existential) {
        stmt.from.push(TableRef::Named {
            name: op.table.name.clone(),
            alias: Some(op.binding.clone()),
        });
    }

    // WHERE: filters of non-existential operands, inner edges between
    // non-existential operands, residuals, plus EXISTS per existential
    // operand.
    let mut conjuncts: Vec<Expr> = Vec::new();
    for op in graph.operands.iter().filter(|o| !o.existential) {
        for f in &op.filters {
            conjuncts.push(bound_to_ast(f));
        }
    }
    let is_existential = |id: OperandId| graph.operand(id).existential;
    for edge in &graph.edges {
        if edge.kind == JoinKind::Inner && !is_existential(edge.left) && !is_existential(edge.right)
        {
            conjuncts.push(Expr::binary(
                Expr::Column {
                    qualifier: Some(graph.operand(edge.left).binding.clone()),
                    name: edge.left_col.clone(),
                },
                rcc_sql::BinaryOp::Eq,
                Expr::Column {
                    qualifier: Some(graph.operand(edge.right).binding.clone()),
                    name: edge.right_col.clone(),
                },
            ));
        }
    }
    for r in &graph.residuals {
        conjuncts.push(bound_to_ast(r));
    }
    for op in graph.operands.iter().filter(|o| o.existential) {
        let mut inner = SelectStmt::empty();
        inner.projections.push(SelectItem::Wildcard);
        inner.from.push(TableRef::Named {
            name: op.table.name.clone(),
            alias: Some(op.binding.clone()),
        });
        let mut inner_conjuncts: Vec<Expr> = op.filters.iter().map(bound_to_ast).collect();
        let (mut negated, mut not_in) = (false, None);
        for edge in graph.edges.iter().filter(|e| e.right == op.id) {
            let (inner_col, outer_col) = (
                Expr::Column {
                    qualifier: Some(op.binding.clone()),
                    name: edge.right_col.clone(),
                },
                Expr::Column {
                    qualifier: Some(graph.operand(edge.left).binding.clone()),
                    name: edge.left_col.clone(),
                },
            );
            match edge.kind {
                // the binder ties a NOT IN's table to the outer query by
                // this one edge; only `NOT IN` itself keeps its NULL rules
                JoinKind::NullAwareAnti => not_in = Some((outer_col, inner_col)),
                kind => {
                    inner_conjuncts.push(Expr::binary(inner_col, rcc_sql::BinaryOp::Eq, outer_col));
                    negated = kind == JoinKind::Anti;
                }
            }
        }
        inner.filter = inner_conjuncts
            .into_iter()
            .reduce(|a, b| Expr::binary(a, rcc_sql::BinaryOp::And, b));
        conjuncts.push(match not_in {
            Some((outer_col, inner_col)) => {
                inner.projections = vec![SelectItem::Expr {
                    expr: inner_col,
                    alias: None,
                }];
                Expr::InSubquery {
                    expr: Box::new(outer_col),
                    subquery: Box::new(inner),
                    negated: true,
                }
            }
            None => Expr::Exists {
                subquery: Box::new(inner),
                negated,
            },
        });
    }
    stmt.filter = conjuncts
        .into_iter()
        .reduce(|a, b| Expr::binary(a, rcc_sql::BinaryOp::And, b));

    // projections / aggregation
    match &graph.aggregate {
        Some(agg) => {
            for (g, name) in &agg.group_by {
                stmt.projections.push(SelectItem::Expr {
                    expr: bound_to_ast(g),
                    alias: Some(name.clone()),
                });
                stmt.group_by.push(bound_to_ast(g));
            }
            for a in &agg.aggs {
                stmt.projections.push(SelectItem::Expr {
                    expr: Expr::Function {
                        name: a.func.sql().to_lowercase(),
                        args: a.arg.as_ref().map(bound_to_ast).into_iter().collect(),
                        distinct: false,
                        star: a.arg.is_none(),
                    },
                    alias: Some(a.output_name.clone()),
                });
            }
            stmt.having = agg.having.as_ref().map(|h| having_to_ast(h, agg));
        }
        None => {
            for (e, name) in &graph.projections {
                stmt.projections.push(SelectItem::Expr {
                    expr: bound_to_ast(e),
                    alias: Some(name.clone()),
                });
            }
        }
    }

    // ORDER BY by output name, LIMIT verbatim
    let out_schema = graph.output_schema();
    for (ordinal, asc) in &graph.order_by {
        stmt.order_by.push((
            Expr::Column {
                qualifier: None,
                name: out_schema.column(*ordinal).name.clone(),
            },
            *asc,
        ));
    }
    stmt.limit = graph.limit;

    (
        SqlText::from_marked(&select_sql(&stmt), &graph.slots),
        out_schema,
    )
}

/// Rebuild a HAVING expression (over the `#agg` output) into AST form by
/// substituting aggregate output references with their defining calls.
fn having_to_ast(h: &BoundExpr, agg: &crate::graph::AggregateSpec) -> Expr {
    match h {
        BoundExpr::Column { qualifier, name } if qualifier == "#agg" => {
            if let Some(call) = agg.aggs.iter().find(|a| &a.output_name == name) {
                Expr::Function {
                    name: call.func.sql().to_lowercase(),
                    args: call.arg.as_ref().map(bound_to_ast).into_iter().collect(),
                    distinct: false,
                    star: call.arg.is_none(),
                }
            } else if let Some((g, _)) = agg.group_by.iter().find(|(_, n)| n == name) {
                bound_to_ast(g)
            } else {
                Expr::Column {
                    qualifier: None,
                    name: name.clone(),
                }
            }
        }
        BoundExpr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(having_to_ast(left, agg)),
            op: *op,
            right: Box::new(having_to_ast(right, agg)),
        },
        BoundExpr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(having_to_ast(expr, agg)),
        },
        other => bound_to_ast(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::bind_select;
    use rcc_catalog::{Catalog, TableMeta};
    use rcc_common::{DataType, TableId, Value};
    use rcc_sql::parse_statement;
    use std::collections::HashMap;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let customer = Schema::new(vec![
            Column::new("c_custkey", DataType::Int),
            Column::new("c_name", DataType::Str),
            Column::new("c_acctbal", DataType::Float),
        ]);
        cat.register_table(
            TableMeta::new(TableId(1), "customer", customer, vec!["c_custkey".into()]).unwrap(),
        )
        .unwrap();
        let orders = Schema::new(vec![
            Column::new("o_custkey", DataType::Int),
            Column::new("o_orderkey", DataType::Int),
            Column::new("o_totalprice", DataType::Float),
        ]);
        cat.register_table(
            TableMeta::new(
                TableId(2),
                "orders",
                orders,
                vec!["o_custkey".into(), "o_orderkey".into()],
            )
            .unwrap(),
        )
        .unwrap();
        cat
    }

    fn graph(sql: &str) -> QueryGraph {
        let stmt = match parse_statement(sql).unwrap() {
            rcc_sql::Statement::Select(s) => *s,
            other => panic!("{other:?}"),
        };
        bind_select(&catalog(), &stmt, &HashMap::new()).unwrap()
    }

    fn reparses(sql: &str) {
        parse_statement(sql).unwrap_or_else(|e| panic!("generated SQL does not parse: {sql}: {e}"));
    }

    #[test]
    fn operand_fetch_sql() {
        let g = graph("SELECT c.c_name FROM customer c WHERE c.c_custkey <= 10");
        let cols = g.required_columns(0);
        let (sql, schema) = operand_sql(&g, 0, &cols);
        assert!(sql.contains("FROM customer c"), "{sql}");
        assert!(sql.contains("c.c_custkey"), "{sql}");
        assert!(sql.contains("<= 10"), "{sql}");
        assert_eq!(schema.len(), cols.len());
        assert_eq!(schema.column(0).qualifier.as_deref(), Some("c"));
        reparses(&sql);
    }

    #[test]
    fn full_query_join_sql() {
        let g = graph(
            "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 10 \
             CURRENCY BOUND 10 SEC ON (c, o)",
        );
        let (sql, schema) = full_query_sql(&g);
        assert!(sql.contains("FROM customer c, orders o"), "{sql}");
        assert!(sql.contains("(c.c_custkey = o.o_custkey)"), "{sql}");
        assert!(
            !sql.to_uppercase().contains("CURRENCY"),
            "no clause remotely: {sql}"
        );
        assert_eq!(schema.len(), 2);
        reparses(&sql);
    }

    #[test]
    fn full_query_with_exists() {
        let g = graph(
            "SELECT c.c_name FROM customer c WHERE \
             EXISTS (SELECT * FROM orders s WHERE s.o_custkey = c.c_custkey)",
        );
        let (sql, _) = full_query_sql(&g);
        assert!(sql.contains("EXISTS"), "{sql}");
        assert!(sql.contains("FROM orders s"), "{sql}");
        reparses(&sql);
    }

    #[test]
    fn full_query_with_anti_join() {
        let g = graph(
            "SELECT c.c_name FROM customer c WHERE \
             NOT EXISTS (SELECT * FROM orders s WHERE s.o_custkey = c.c_custkey)",
        );
        let (sql, _) = full_query_sql(&g);
        assert!(sql.contains("NOT EXISTS"), "{sql}");
        reparses(&sql);
    }

    #[test]
    fn full_query_keeps_not_in() {
        let g = graph(
            "SELECT c.c_name FROM customer c WHERE c.c_custkey NOT IN \
             (SELECT s.o_custkey FROM orders s WHERE s.o_totalprice > 5.0)",
        );
        let (sql, _) = full_query_sql(&g);
        assert!(!sql.contains("EXISTS"), "{sql}");
        assert!(
            sql.contains("c.c_custkey NOT IN (SELECT s.o_custkey FROM orders s WHERE"),
            "{sql}"
        );
        // and the back-end binds it to the same null-aware join
        let shipped = graph(&sql.to_string());
        assert_eq!(shipped.edges[0].kind, JoinKind::NullAwareAnti);
    }

    #[test]
    fn full_query_with_aggregation() {
        let g = graph(
            "SELECT o_custkey, COUNT(*) AS n FROM orders GROUP BY o_custkey \
             HAVING COUNT(*) > 5 ORDER BY n DESC LIMIT 3",
        );
        let (sql, schema) = full_query_sql(&g);
        assert!(sql.contains("GROUP BY"), "{sql}");
        assert!(sql.contains("HAVING (COUNT(*) > 5)"), "{sql}");
        assert!(sql.contains("ORDER BY n DESC"), "{sql}");
        assert!(sql.contains("LIMIT 3"), "{sql}");
        assert_eq!(schema.len(), 2);
        reparses(&sql);
    }

    #[test]
    fn ast_roundtrip_of_bound_exprs() {
        let e = BoundExpr::Between {
            expr: Box::new(BoundExpr::col("c", "c_acctbal")),
            low: Box::new(BoundExpr::Literal(Value::Float(1.0))),
            high: Box::new(BoundExpr::Literal(Value::Float(2.0))),
            negated: true,
        };
        let ast = bound_to_ast(&e);
        let sql = rcc_sql::unparse::expr_sql(&ast);
        assert!(sql.contains("NOT BETWEEN"), "{sql}");
    }
}
