//! Abstract syntax tree for the RCC SQL dialect.

use rcc_common::{DataType, Duration, Value};

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query.
    Select(Box<SelectStmt>),
    /// `INSERT INTO t [(cols)] VALUES (...), (...)`.
    Insert {
        /// Target table name.
        table: String,
        /// Column names.
        columns: Vec<String>,
        /// Literal row tuples.
        rows: Vec<Vec<Expr>>,
    },
    /// `UPDATE t SET c = e [, ...] [WHERE p]`.
    Update {
        /// Target table name.
        table: String,
        /// Column assignments, in statement order.
        assignments: Vec<(String, Expr)>,
        /// Optional WHERE predicate.
        filter: Option<Expr>,
    },
    /// `DELETE FROM t [WHERE p]`.
    Delete {
        /// Target table name.
        table: String,
        /// Optional WHERE predicate.
        filter: Option<Expr>,
    },
    /// `CREATE TABLE t (c TYPE, ..., PRIMARY KEY (c, ...))`.
    CreateTable {
        /// Object name.
        name: String,
        /// Column names.
        columns: Vec<(String, DataType)>,
        /// Clustered-key column names.
        primary_key: Vec<String>,
    },
    /// `CREATE INDEX ix ON t (c, ...)`.
    CreateIndex {
        /// Object name.
        name: String,
        /// Target table name.
        table: String,
        /// Column names.
        columns: Vec<String>,
    },
    /// `CREATE CACHED VIEW v REGION r AS SELECT ...` — cache DDL defining a
    /// local materialized view (paper Sec. 3, point 2) and the currency
    /// region it is maintained by.
    CreateCachedView {
        /// Object name.
        name: String,
        /// Currency region name.
        region: String,
        /// The defining query.
        query: Box<SelectStmt>,
    },
    /// `CREATE REGION r INTERVAL 10 SEC DELAY 2 SEC` — cache DDL declaring
    /// a currency region (its distribution agent's propagation interval
    /// `f` and delivery delay `d`, Sec. 3.1).
    CreateRegion {
        /// Object name.
        name: String,
        /// Distribution agent's propagation interval `f`.
        interval: rcc_common::Duration,
        /// Delivery delay `d`.
        delay: rcc_common::Duration,
    },
    /// `DROP CACHED VIEW v` — remove a cached materialized view (its
    /// replication subscription ends and dependent plans recompile).
    DropCachedView {
        /// View name.
        name: String,
    },
    /// `BEGIN TIMEORDERED` — start a timeline-consistent query sequence
    /// (paper Sec. 2.3).
    BeginTimeordered,
    /// `END TIMEORDERED`.
    EndTimeordered,
    /// `VERIFY SELECT ...` — optimize the query, then statically verify the
    /// optimized plan against its currency clause and report each proof
    /// obligation instead of executing.
    Verify(Box<SelectStmt>),
    /// `LINT SELECT ...` — run the currency-clause semantic linter over the
    /// query and report each diagnostic as a result row instead of
    /// executing (the front-end complement of [`Statement::Verify`], which
    /// checks optimized plans).
    Lint(Box<SelectStmt>),
    /// `EXPLAIN FLOW SELECT ...` — optimize the query, run the currency
    /// dataflow analysis, and report one row per plan node (operator,
    /// delivered staleness interval, guard verdict, elision decision)
    /// instead of executing.
    ExplainFlow(Box<SelectStmt>),
    /// `EXPLAIN ANALYZE SELECT ...` — execute the query with per-operator
    /// metering; the result carries the rows plus the instrumented plan
    /// printout (actual row counts and wall times per operator).
    ExplainAnalyze(Box<SelectStmt>),
    /// `SHOW EVENTS` — read the cache's bounded event journal
    /// (degradations, violations, failovers, lint findings) as a result
    /// set.
    ShowEvents,
    /// `SHOW TRACE` — dump the most recently finished query trace
    /// (including spans merged back from the back-end) as a result set.
    ShowTrace,
    /// `CREATE TEMPLATE name ($p, ...) AS stmt; stmt; ... END` — declare a
    /// named parameterized transaction template (a statement sequence the
    /// robustness analyzer reasons about as one unit).
    CreateTemplate(Box<TemplateDecl>),
    /// `AUDIT TEMPLATES` — run the template robustness analyzer over every
    /// declared template and report one verdict row per template instead of
    /// executing anything.
    AuditTemplates,
}

/// A transaction template: a named, parameterized sequence of statements
/// (SELECTs with currency clauses plus INSERT/UPDATE/DELETE skeletons).
///
/// Templates are the unit of the robustness analysis in `rcc-robust`: the
/// analyzer decides per template whether every interleaving its relaxed
/// currency reads allow is serializable, or whether the template must be
/// pinned to the strict (bound-0) path.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateDecl {
    /// Template name (lower-cased, unique per cache).
    pub name: String,
    /// Declared `$` parameter names, in declaration order. Declaration
    /// order is documentation only: the analysis is invariant under
    /// parameter reordering.
    pub params: Vec<String>,
    /// The statement sequence, each with the 1-based source line its first
    /// token starts on (0 if synthesized) — robustness witnesses are
    /// line-addressable through these.
    pub statements: Vec<(Statement, u32)>,
    /// 1-based source line of the template name token (0 if synthesized).
    pub line: u32,
    /// 1-based source column of the template name token (0 if synthesized).
    pub col: u32,
}

/// One Select-From-Where block. The currency clause "occurs last in an SFW
/// block and follows the same scoping rules as the WHERE clause" (Sec. 2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// Projection list.
    pub projections: Vec<SelectItem>,
    /// FROM clause (comma list and/or explicit JOINs).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY (expression, ascending) pairs.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// The paper's currency clause, if present.
    pub currency: Option<CurrencyClause>,
}

impl SelectStmt {
    /// An empty single-block SELECT skeleton, for programmatic construction.
    pub fn empty() -> SelectStmt {
        SelectStmt {
            distinct: false,
            projections: Vec::new(),
            from: Vec::new(),
            filter: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            currency: None,
        }
    }
}

/// A projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `t.*`.
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The operand expression.
        expr: Expr,
        /// Binding alias.
        alias: Option<String>,
    },
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table or view with an optional alias.
    Named {
        /// Object name.
        name: String,
        /// Binding alias.
        alias: Option<String>,
    },
    /// A derived table: `(SELECT ...) alias`.
    Subquery {
        /// The defining query.
        query: Box<SelectStmt>,
        /// Binding alias.
        alias: String,
    },
    /// `left [INNER] JOIN right ON condition`.
    Join {
        /// Left operand.
        left: Box<TableRef>,
        /// Right operand.
        right: Box<TableRef>,
        /// Join condition.
        on: Expr,
    },
}

impl TableRef {
    /// The binding name this FROM item is visible under (alias if given).
    pub fn binding_name(&self) -> Option<&str> {
        match self {
            TableRef::Named { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => Some(alias),
            TableRef::Join { .. } => None,
        }
    }
}

/// Scalar and boolean expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference, optionally qualified (`b.isbn`).
    Column {
        /// Table alias / binding qualifier, if any.
        qualifier: Option<String>,
        /// Object name.
        name: String,
    },
    /// A literal value.
    Literal(Value),
    /// A `$name` parameter, bound at execution time.
    Parameter(String),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation (`NOT e`, `-e`).
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand expression.
        expr: Box<Expr>,
    },
    /// Aggregate or scalar function call. `COUNT(*)` is `Function` with
    /// `star = true` and empty args.
    Function {
        /// Object name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// `DISTINCT` inside the call.
        distinct: bool,
        /// True for `COUNT(*)`.
        star: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The subquery block.
        subquery: Box<SelectStmt>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `e [NOT] IN (subquery)`.
    InSubquery {
        /// The operand expression.
        expr: Box<Expr>,
        /// The subquery block.
        subquery: Box<SelectStmt>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `e [NOT] IN (v1, v2, ...)`.
    InList {
        /// The operand expression.
        expr: Box<Expr>,
        /// The literal list.
        list: Vec<Expr>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `e [NOT] BETWEEN low AND high`.
    Between {
        /// The operand expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for the NOT form.
        negated: bool,
    },
    /// `e IS [NOT] NULL`.
    IsNull {
        /// The operand expression.
        expr: Box<Expr>,
        /// True for the NOT form.
        negated: bool,
    },
}

impl Expr {
    /// Convenience constructor for a column reference.
    pub fn col(qualifier: Option<&str>, name: &str) -> Expr {
        Expr::Column {
            qualifier: qualifier.map(str::to_string),
            name: name.to_string(),
        }
    }

    /// Convenience constructor for a binary expression.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// AND two optional predicates together.
    pub fn and_opt(a: Option<Expr>, b: Option<Expr>) -> Option<Expr> {
        match (a, b) {
            (Some(a), Some(b)) => Some(Expr::binary(a, BinaryOp::And, b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Visit every sub-expression (pre-order), including `self`.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.visit(f),
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::Column { .. } | Expr::Literal(_) | Expr::Parameter(_) | Expr::Exists { .. } => {}
        }
    }

    /// True if this expression (transitively) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if is_aggregate(name) {
                    found = true;
                }
            }
        });
        found
    }
}

/// Is `name` one of the supported aggregate functions?
pub fn is_aggregate(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
    )
}

/// Binary operators, in SQL semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinaryOp {
    /// SQL spelling.
    pub fn sql(&self) -> &'static str {
        match self {
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }

    /// Is this a comparison producing a boolean?
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(&self) -> BinaryOp {
        match self {
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::LtEq => BinaryOp::GtEq,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::GtEq => BinaryOp::LtEq,
            other => *other,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `NOT`
    Not,
    /// `-`
    Neg,
}

/// The paper's currency clause: a list of C&C specifications.
///
/// "A C&C constraint in a query consists of a set of triples where each
/// triple specifies 1) a currency bound 2) a set of tables forming a
/// consistency class 3) a set of columns defining how to group the rows of
/// the consistency class into consistency groups." (Sec. 2.1)
#[derive(Debug, Clone, PartialEq)]
pub struct CurrencyClause {
    /// The individual `bound ON (tables) [BY cols]` specs.
    pub specs: Vec<CurrencySpec>,
}

/// One `<bound> ON (t1, t2, ...) [BY t.c, ...]` triple.
///
/// Equality ignores the source span (`line`/`col`): two specs parsed from
/// different renderings of the same clause compare equal.
#[derive(Debug, Clone)]
pub struct CurrencySpec {
    /// Maximum acceptable staleness of the inputs in this class.
    pub bound: Duration,
    /// Table bindings (aliases, resolved against this block's and enclosing
    /// blocks' FROM lists) forming one consistency class.
    pub tables: Vec<String>,
    /// Optional grouping columns: rows grouped on these columns must come
    /// from one snapshot, but different groups may come from different
    /// snapshots (E3/E4 in the paper).
    pub by: Vec<(Option<String>, String)>,
    /// 1-based source line of the spec's bound token (0 if synthesized).
    pub line: u32,
    /// 1-based source column of the spec's bound token (0 if synthesized).
    pub col: u32,
}

impl PartialEq for CurrencySpec {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.tables == other.tables && self.by == other.by
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_names() {
        let t = TableRef::Named {
            name: "books".into(),
            alias: Some("b".into()),
        };
        assert_eq!(t.binding_name(), Some("b"));
        let t = TableRef::Named {
            name: "books".into(),
            alias: None,
        };
        assert_eq!(t.binding_name(), Some("books"));
        let q = TableRef::Subquery {
            query: Box::new(SelectStmt::empty()),
            alias: "t".into(),
        };
        assert_eq!(q.binding_name(), Some("t"));
    }

    #[test]
    fn and_opt_combinations() {
        let a = Expr::Literal(Value::Bool(true));
        assert_eq!(Expr::and_opt(None, None), None);
        assert_eq!(Expr::and_opt(Some(a.clone()), None), Some(a.clone()));
        let combined = Expr::and_opt(Some(a.clone()), Some(a.clone())).unwrap();
        assert!(matches!(
            combined,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn aggregate_detection() {
        assert!(is_aggregate("count"));
        assert!(is_aggregate("SUM"));
        assert!(!is_aggregate("getdate"));
        let e = Expr::Function {
            name: "sum".into(),
            args: vec![Expr::col(None, "x")],
            distinct: false,
            star: false,
        };
        assert!(e.contains_aggregate());
        assert!(!Expr::col(None, "x").contains_aggregate());
        let nested = Expr::binary(Expr::Literal(Value::Int(1)), BinaryOp::Add, e);
        assert!(nested.contains_aggregate());
    }

    #[test]
    fn op_flip_and_kind() {
        assert_eq!(BinaryOp::Lt.flip(), BinaryOp::Gt);
        assert_eq!(BinaryOp::GtEq.flip(), BinaryOp::LtEq);
        assert_eq!(BinaryOp::Eq.flip(), BinaryOp::Eq);
        assert!(BinaryOp::Lt.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
        assert_eq!(BinaryOp::NotEq.sql(), "<>");
    }

    #[test]
    fn visit_reaches_nested() {
        let e = Expr::Between {
            expr: Box::new(Expr::col(Some("c"), "acctbal")),
            low: Box::new(Expr::Parameter("a".into())),
            high: Box::new(Expr::Parameter("b".into())),
            negated: false,
        };
        let mut params = Vec::new();
        e.visit(&mut |x| {
            if let Expr::Parameter(p) = x {
                params.push(p.clone());
            }
        });
        assert_eq!(params, vec!["a".to_string(), "b".to_string()]);
    }
}
