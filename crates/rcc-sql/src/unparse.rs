//! SQL unparser: regenerate SQL text from the AST.
//!
//! The cache uses this to build the *remote branch* of SwitchUnion plans —
//! the original (sub)expression is rendered back to SQL and shipped to the
//! back-end server (paper Sec. 3.2.3: "the remote plan consists of a remote
//! SQL query created from the original expression E"). Unparsing must
//! round-trip: `parse(unparse(parse(q))) == parse(q)`, which the tests and
//! a property test enforce.

use crate::ast::*;
use std::fmt::Write;

/// Render a statement as SQL text.
pub fn statement_sql(stmt: &Statement) -> String {
    match stmt {
        Statement::Select(s) => select_sql(s),
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let mut out = format!("INSERT INTO {table}");
            if !columns.is_empty() {
                let _ = write!(out, " ({})", columns.join(", "));
            }
            out.push_str(" VALUES ");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let vals: Vec<String> = row.iter().map(expr_sql).collect();
                let _ = write!(out, "({})", vals.join(", "));
            }
            out
        }
        Statement::Update {
            table,
            assignments,
            filter,
        } => {
            let sets: Vec<String> = assignments
                .iter()
                .map(|(c, e)| format!("{c} = {}", expr_sql(e)))
                .collect();
            let mut out = format!("UPDATE {table} SET {}", sets.join(", "));
            if let Some(f) = filter {
                let _ = write!(out, " WHERE {}", expr_sql(f));
            }
            out
        }
        Statement::Delete { table, filter } => {
            let mut out = format!("DELETE FROM {table}");
            if let Some(f) = filter {
                let _ = write!(out, " WHERE {}", expr_sql(f));
            }
            out
        }
        Statement::CreateTable {
            name,
            columns,
            primary_key,
        } => {
            let cols: Vec<String> = columns.iter().map(|(c, t)| format!("{c} {t}")).collect();
            format!(
                "CREATE TABLE {name} ({}, PRIMARY KEY ({}))",
                cols.join(", "),
                primary_key.join(", ")
            )
        }
        Statement::CreateIndex {
            name,
            table,
            columns,
        } => {
            format!("CREATE INDEX {name} ON {table} ({})", columns.join(", "))
        }
        Statement::CreateCachedView {
            name,
            region,
            query,
        } => {
            format!(
                "CREATE CACHED VIEW {name} REGION {region} AS {}",
                select_sql(query)
            )
        }
        Statement::CreateRegion {
            name,
            interval,
            delay,
        } => {
            format!(
                "CREATE REGION {name} INTERVAL {} MS DELAY {} MS",
                interval.millis(),
                delay.millis()
            )
        }
        Statement::DropCachedView { name } => format!("DROP CACHED VIEW {name}"),
        Statement::BeginTimeordered => "BEGIN TIMEORDERED".to_string(),
        Statement::EndTimeordered => "END TIMEORDERED".to_string(),
        Statement::Verify(s) => format!("VERIFY {}", select_sql(s)),
        Statement::Lint(s) => format!("LINT {}", select_sql(s)),
        Statement::ExplainFlow(s) => format!("EXPLAIN FLOW {}", select_sql(s)),
        Statement::ExplainAnalyze(s) => format!("EXPLAIN ANALYZE {}", select_sql(s)),
        Statement::ShowEvents => "SHOW EVENTS".to_string(),
        Statement::ShowTrace => "SHOW TRACE".to_string(),
        Statement::CreateTemplate(t) => {
            let mut out = format!("CREATE TEMPLATE {}", t.name);
            if !t.params.is_empty() {
                let ps: Vec<String> = t.params.iter().map(|p| format!("${p}")).collect();
                let _ = write!(out, " ({})", ps.join(", "));
            }
            out.push_str(" AS ");
            for (stmt, _) in &t.statements {
                let _ = write!(out, "{}; ", statement_sql(stmt));
            }
            out.push_str("END");
            out
        }
        Statement::AuditTemplates => "AUDIT TEMPLATES".to_string(),
    }
}

/// Render a SELECT block as SQL text.
pub fn select_sql(s: &SelectStmt) -> String {
    let mut out = String::from("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    for (i, item) in s.projections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(q) => {
                let _ = write!(out, "{q}.*");
            }
            SelectItem::Expr { expr, alias } => {
                out.push_str(&expr_sql(expr));
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
            }
        }
    }
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        for (i, t) in s.from.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&table_ref_sql(t));
        }
    }
    if let Some(f) = &s.filter {
        let _ = write!(out, " WHERE {}", expr_sql(f));
    }
    if !s.group_by.is_empty() {
        let gs: Vec<String> = s.group_by.iter().map(expr_sql).collect();
        let _ = write!(out, " GROUP BY {}", gs.join(", "));
    }
    if let Some(h) = &s.having {
        let _ = write!(out, " HAVING {}", expr_sql(h));
    }
    if !s.order_by.is_empty() {
        let os: Vec<String> = s
            .order_by
            .iter()
            .map(|(e, asc)| format!("{}{}", expr_sql(e), if *asc { "" } else { " DESC" }))
            .collect();
        let _ = write!(out, " ORDER BY {}", os.join(", "));
    }
    if let Some(n) = s.limit {
        let _ = write!(out, " LIMIT {n}");
    }
    if let Some(c) = &s.currency {
        let _ = write!(out, " {}", currency_sql(c));
    }
    out
}

/// Render a currency clause.
pub fn currency_sql(c: &CurrencyClause) -> String {
    let mut out = String::from("CURRENCY BOUND ");
    for (i, spec) in c.specs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let ms = spec.bound.millis();
        if ms % 60_000 == 0 && ms > 0 {
            let _ = write!(out, "{} MIN", ms / 60_000);
        } else if ms % 1_000 == 0 && ms > 0 {
            let _ = write!(out, "{} SEC", ms / 1_000);
        } else {
            let _ = write!(out, "{ms} MS");
        }
        let _ = write!(out, " ON ({})", spec.tables.join(", "));
        if !spec.by.is_empty() {
            let cols: Vec<String> = spec
                .by
                .iter()
                .map(|(q, c)| match q {
                    Some(q) => format!("{q}.{c}"),
                    None => c.clone(),
                })
                .collect();
            let _ = write!(out, " BY {}", cols.join(", "));
        }
    }
    out
}

fn table_ref_sql(t: &TableRef) -> String {
    match t {
        TableRef::Named { name, alias } => match alias {
            Some(a) if a != name => format!("{name} {a}"),
            _ => name.clone(),
        },
        TableRef::Subquery { query, alias } => format!("({}) {alias}", select_sql(query)),
        TableRef::Join { left, right, on } => format!(
            "{} JOIN {} ON {}",
            table_ref_sql(left),
            table_ref_sql(right),
            expr_sql(on)
        ),
    }
}

/// Render an expression. Parenthesizes conservatively: every binary
/// operation gets parens, which is verbose but unambiguous and keeps
/// round-tripping trivially correct.
pub fn expr_sql(e: &Expr) -> String {
    match e {
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Literal(v) => v.to_string(),
        Expr::Parameter(p) => format!("${p}"),
        Expr::Binary { left, op, right } => {
            format!("({} {} {})", expr_sql(left), op.sql(), expr_sql(right))
        }
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("(NOT {})", expr_sql(expr)),
            UnaryOp::Neg => format!("(-{})", expr_sql(expr)),
        },
        Expr::Function {
            name,
            args,
            distinct,
            star,
        } => {
            if *star {
                format!("{}(*)", name.to_ascii_uppercase())
            } else {
                let args: Vec<String> = args.iter().map(expr_sql).collect();
                format!(
                    "{}({}{})",
                    name.to_ascii_uppercase(),
                    if *distinct { "DISTINCT " } else { "" },
                    args.join(", ")
                )
            }
        }
        Expr::Exists { subquery, negated } => {
            format!(
                "{}EXISTS ({})",
                if *negated { "NOT " } else { "" },
                select_sql(subquery)
            )
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => format!(
            "{} {}IN ({})",
            expr_sql(expr),
            if *negated { "NOT " } else { "" },
            select_sql(subquery)
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<String> = list.iter().map(expr_sql).collect();
            format!(
                "{} {}IN ({})",
                expr_sql(expr),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "{} {}BETWEEN {} AND {}",
            expr_sql(expr),
            if *negated { "NOT " } else { "" },
            expr_sql(low),
            expr_sql(high)
        ),
        Expr::IsNull { expr, negated } => {
            format!(
                "{} IS {}NULL",
                expr_sql(expr),
                if *negated { "NOT " } else { "" }
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn roundtrip(sql: &str) {
        let first = parse_statement(sql).unwrap();
        let rendered = statement_sql(&first);
        let second = parse_statement(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of '{rendered}' failed: {e}"));
        // The ASTs need not be byte-identical (parens become explicit
        // Binary nesting identical to the original), but re-rendering must
        // reach a fixpoint.
        let third = statement_sql(&second);
        assert_eq!(rendered, third, "unparse not a fixpoint for {sql}");
    }

    #[test]
    fn roundtrips() {
        for sql in [
            "SELECT c_name FROM customer WHERE c_custkey = 42",
            "SELECT * FROM books b, reviews r WHERE b.isbn = r.isbn CURRENCY BOUND 10 MIN ON (b, r)",
            "SELECT b.title FROM books b WHERE EXISTS (SELECT * FROM sales s WHERE s.isbn = b.isbn CURRENCY BOUND 10 MIN ON (s, b)) CURRENCY BOUND 10 MIN ON (b)",
            "SELECT o_custkey, COUNT(*) AS n FROM orders GROUP BY o_custkey HAVING COUNT(*) > 5 ORDER BY o_custkey DESC LIMIT 3",
            "SELECT c_custkey FROM customer WHERE c_acctbal BETWEEN $a AND $b",
            "SELECT DISTINCT c_nationkey FROM customer",
            "SELECT * FROM a JOIN b ON a.x = b.x",
            "SELECT x FROM (SELECT y AS x FROM t CURRENCY BOUND 5 SEC ON (t)) q",
            "INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, NULL)",
            "UPDATE t SET a = a + 1, b = 'x' WHERE c IS NOT NULL",
            "DELETE FROM t WHERE a IN (1, 2, 3)",
            "CREATE TABLE t (a INT, b VARCHAR, PRIMARY KEY (a))",
            "CREATE INDEX ix ON t (b)",
            "CREATE CACHED VIEW v REGION cr1 AS SELECT a FROM t",
            "BEGIN TIMEORDERED",
            "DROP CACHED VIEW old_view",
            "CREATE REGION r INTERVAL 10 SEC DELAY 2 SEC",
            "END TIMEORDERED",
            "SELECT * FROM t CURRENCY BOUND 10 MIN ON (t) BY t.id",
            "SELECT * FROM t WHERE ts > GETDATE() - 5000",
            "CREATE TEMPLATE pay ($c, $amt) AS SELECT c_acctbal FROM customer WHERE c_custkey = $c CURRENCY BOUND 10 SEC ON (customer); UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; END",
            "AUDIT TEMPLATES",
            "EXPLAIN FLOW SELECT c_name FROM customer CURRENCY BOUND 30 SEC ON (customer)",
        ] {
            roundtrip(sql);
        }
    }

    #[test]
    fn currency_units_render_compactly() {
        let s = parse_statement("SELECT * FROM t CURRENCY BOUND 600 SEC ON (t)").unwrap();
        assert!(statement_sql(&s).contains("10 MIN"));
        let s = parse_statement("SELECT * FROM t CURRENCY BOUND 1500 MS ON (t)").unwrap();
        assert!(statement_sql(&s).contains("1500 MS"));
    }

    #[test]
    fn aliases_rendered() {
        let s = parse_statement("SELECT c.c_name AS name FROM customer c").unwrap();
        let sql = statement_sql(&s);
        assert!(sql.contains("AS name"));
        assert!(sql.contains("customer c"));
    }

    #[test]
    fn redundant_self_alias_skipped() {
        let s = parse_statement("SELECT * FROM customer customer").unwrap();
        assert_eq!(statement_sql(&s), "SELECT * FROM customer");
    }
}
