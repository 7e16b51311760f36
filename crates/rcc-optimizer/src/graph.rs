//! Binding: from a parsed SELECT to a query graph.
//!
//! The binder resolves names against the catalog and flattens the query
//! into a [`QueryGraph`] — the internal form the optimizer enumerates over:
//!
//! * every base-table reference becomes an [`Operand`] with a unique
//!   binding qualifier;
//! * FROM-clause subqueries (SPJ only) are **inlined**: their operands and
//!   predicates merge into the parent graph and their output columns become
//!   a substitution map, mirroring view expansion in the paper's
//!   normalization step;
//! * `EXISTS` / `IN (SELECT ...)` predicates are **decorrelated** into
//!   semi/anti-join edges;
//! * WHERE/ON conjuncts are classified into per-operand filters, equi-join
//!   edges, and residual predicates;
//! * currency clauses from *every* block are resolved to operand sets
//!   (derived-table names expand to the operands beneath them — Sec. 2.2)
//!   and normalized into a [`CCConstraint`].

use crate::constraint::{CCConstraint, OperandId};
use crate::expr::{AggCall, AggFunc, BoundExpr};
use rcc_catalog::{Catalog, TableMeta};
use rcc_common::{Column, Duration, Error, Result, Schema, Value};
use rcc_sql::{BinaryOp, Expr, SelectItem, SelectStmt, TableRef};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// One base-table instance in the query.
#[derive(Debug, Clone)]
pub struct Operand {
    /// Operand id (index into `QueryGraph::operands`).
    pub id: OperandId,
    /// Base-table metadata.
    pub table: Arc<TableMeta>,
    /// Unique binding qualifier for this operand's columns.
    pub binding: String,
    /// Single-operand filter conjuncts.
    pub filters: Vec<BoundExpr>,
    /// True when the operand exists only to support a semi/anti join
    /// (came from EXISTS / IN) — its columns never reach the output.
    pub existential: bool,
}

impl Operand {
    /// Schema of this operand, qualified by its binding.
    pub fn schema(&self) -> Schema {
        let cols: Vec<Column> = self
            .table
            .schema
            .columns()
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.qualifier = Some(self.binding.clone());
                c.source = Some(self.table.id);
                c
            })
            .collect();
        Schema::new(cols)
    }
}

/// Join edge kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Plain inner equi join.
    Inner,
    /// Left semi join (EXISTS / IN).
    Semi,
    /// Left anti join (NOT EXISTS).
    Anti,
    /// Left anti join with `NOT IN`'s NULL rules: an outer row whose key is
    /// NULL survives only when the right side is empty, and a NULL key on
    /// the right side drops every outer row without a match — so with one
    /// there, nothing survives.
    NullAwareAnti,
}

/// An equi-join edge between two operands.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    /// Left (outer/probe) operand.
    pub left: OperandId,
    /// Right operand (the existential side for semi/anti).
    pub right: OperandId,
    /// Equi-join column on the left operand.
    pub left_col: String,
    /// Equi-join column on the right operand.
    pub right_col: String,
    /// Edge kind.
    pub kind: JoinKind,
}

/// Aggregation portion of the query.
#[derive(Debug, Clone, Default)]
pub struct AggregateSpec {
    /// GROUP BY expressions with output names.
    pub group_by: Vec<(BoundExpr, String)>,
    /// Aggregate calls.
    pub aggs: Vec<AggCall>,
    /// HAVING predicate over the aggregate output schema (qualifier-free
    /// column references by output name).
    pub having: Option<BoundExpr>,
}

/// The bound query: what the optimizer works on.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    /// Base-table operands.
    pub operands: Vec<Operand>,
    /// Equi-join (and semi/anti) edges.
    pub edges: Vec<JoinEdge>,
    /// Cross-operand predicates that are not simple equi joins; evaluated
    /// once every referenced operand has been joined.
    pub residuals: Vec<BoundExpr>,
    /// Output expressions with names (empty for pure-aggregate queries).
    pub projections: Vec<(BoundExpr, String)>,
    /// Aggregation, if any.
    pub aggregate: Option<AggregateSpec>,
    /// SELECT DISTINCT.
    pub distinct: bool,
    /// ORDER BY over the output schema: (output ordinal, ascending).
    pub order_by: Vec<(usize, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
    /// Normalized C&C constraint over the operands.
    pub constraint: CCConstraint,
    /// The statement-slot values this graph was bound with, by slot number
    /// (empty for a statement bound without slots).
    pub slots: Vec<Value>,
}

impl QueryGraph {
    /// The operand with the given id.
    pub fn operand(&self, id: OperandId) -> &Operand {
        &self.operands[id as usize]
    }

    /// Every expression the query holds — operand filters, residuals,
    /// projections, grouping keys, aggregate arguments and HAVING (join
    /// edges are column pairs, not expressions).
    pub fn exprs(&self) -> impl Iterator<Item = &BoundExpr> {
        let agg = self.aggregate.iter().flat_map(|agg| {
            let keys = agg.group_by.iter().map(|(e, _)| e);
            let args = agg.aggs.iter().filter_map(|a| a.arg.as_ref());
            keys.chain(args).chain(&agg.having)
        });
        self.operands
            .iter()
            .flat_map(|op| &op.filters)
            .chain(&self.residuals)
            .chain(self.projections.iter().map(|(e, _)| e))
            .chain(agg)
    }

    /// Columns of `operand` referenced anywhere in the query (filters,
    /// edges, residuals, projections, aggregates) — the column set a
    /// matching view must cover.
    pub fn required_columns(&self, id: OperandId) -> BTreeSet<String> {
        let binding = &self.operands[id as usize].binding;
        let mut cols = BTreeSet::new();
        for e in self.exprs() {
            e.visit(&mut |x| {
                if let BoundExpr::Column { qualifier, name } = x {
                    if qualifier == binding {
                        cols.insert(name.clone());
                    }
                }
            });
        }
        for edge in &self.edges {
            if edge.left == id {
                cols.insert(edge.left_col.clone());
            }
            if edge.right == id {
                cols.insert(edge.right_col.clone());
            }
        }
        // always keep the clustered key: replication/apply and row identity
        // depend on it, and views must retain it anyway
        for k in &self.operands[id as usize].table.key {
            cols.insert(k.clone());
        }
        cols
    }

    /// Output schema of the query (after projection/aggregation).
    pub fn output_schema(&self) -> Schema {
        use rcc_common::DataType;
        if let Some(agg) = &self.aggregate {
            let mut cols = Vec::new();
            for (_, name) in &agg.group_by {
                cols.push(Column::new(name.clone(), DataType::Int)); // type refined at exec
            }
            for a in &agg.aggs {
                cols.push(Column::new(a.output_name.clone(), DataType::Float));
            }
            Schema::new(cols)
        } else {
            Schema::new(
                self.projections
                    .iter()
                    .map(|(_, name)| Column::new(name.clone(), DataType::Int))
                    .collect(),
            )
        }
    }

    /// Join schema: concatenation of all non-existential operand schemas in
    /// operand order (the widest row the executor materializes before
    /// projection).
    pub fn join_schema(&self) -> Schema {
        let mut cols = Vec::new();
        for op in &self.operands {
            if !op.existential {
                cols.extend_from_slice(op.schema().columns());
            }
        }
        Schema::new(cols)
    }
}

// ------------------------------------------------------------------ binder

/// What a FROM-clause name is bound to.
#[derive(Debug, Clone)]
enum Binding {
    /// A base-table operand.
    Operand { id: OperandId },
    /// An inlined derived table: output column name → substitution
    /// expression, plus the operands it covers (for currency resolution).
    Derived {
        columns: Vec<(String, BoundExpr)>,
        covers: BTreeSet<OperandId>,
    },
}

#[derive(Debug, Default)]
struct ScopeFrame {
    /// block-local name → binding
    names: Vec<(String, Binding)>,
}

struct Binder<'a> {
    catalog: &'a Catalog,
    params: &'a HashMap<String, Value>,
    slots: &'a [Value],
    operands: Vec<Operand>,
    edges: Vec<JoinEdge>,
    residuals: Vec<BoundExpr>,
    /// raw currency specs resolved to operand sets
    #[allow(clippy::type_complexity)]
    specs: Vec<(Duration, BTreeSet<OperandId>, Vec<(String, String)>)>,
    /// any block carried a currency clause
    saw_clause: bool,
    scopes: Vec<ScopeFrame>,
    used_bindings: BTreeSet<String>,
}

/// Bind `stmt` against `catalog`, substituting `params` for `$name`
/// parameters. Returns the query graph ready for optimization.
pub fn bind_select(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &HashMap<String, Value>,
) -> Result<QueryGraph> {
    bind_select_slots(catalog, stmt, params, &[])
}

/// [`bind_select`] for a statement parsed from its shape
/// (`rcc_sql::parse_shape`): a parameter named `?<n>` is statement slot
/// `n`, bound as a [`BoundExpr::Slot`] holding `slots[n]` — everything
/// downstream plans for that value, and the plan keeps the slot so it can
/// be run with another.
pub fn bind_select_slots(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &HashMap<String, Value>,
    slots: &[Value],
) -> Result<QueryGraph> {
    let mut binder = Binder {
        catalog,
        params,
        slots,
        operands: Vec::new(),
        edges: Vec::new(),
        residuals: Vec::new(),
        specs: Vec::new(),
        saw_clause: false,
        scopes: Vec::new(),
        used_bindings: BTreeSet::new(),
    };
    binder.bind_top(stmt)
}

/// [`bind_select`] for a statement over one base table that aggregates
/// nothing — how UPDATE / DELETE and a cached view's definition bind, each
/// put as such a `SELECT`. Returns the graph and its `WHERE` conjuncts: the
/// operand's filters, then the constant ones (`1 = 1`), which the binder
/// keeps as residuals. A second operand (an `IN (SELECT …)` or `EXISTS`
/// decorrelates into one), a join edge or an aggregate is an error.
pub fn bind_one_table(
    catalog: &Catalog,
    stmt: &SelectStmt,
    params: &HashMap<String, Value>,
) -> Result<(QueryGraph, Vec<BoundExpr>)> {
    let graph = bind_select(catalog, stmt, params)?;
    if graph.operands.len() != 1 || !graph.edges.is_empty() {
        return Err(Error::analysis(
            "subqueries are not supported here: the statement reads one table",
        ));
    }
    if graph.aggregate.is_some() {
        return Err(Error::analysis("aggregates are not supported here"));
    }
    let conjuncts = graph.operands[0]
        .filters
        .iter()
        .chain(&graph.residuals)
        .cloned()
        .collect();
    Ok((graph, conjuncts))
}

impl<'a> Binder<'a> {
    fn bind_top(&mut self, stmt: &SelectStmt) -> Result<QueryGraph> {
        self.scopes.push(ScopeFrame::default());
        self.bind_from(&stmt.from)?;
        if let Some(filter) = &stmt.filter {
            self.classify_predicate(filter)?;
        }
        if let Some(clause) = &stmt.currency {
            self.resolve_currency(clause)?;
        }

        // ---- projections & aggregation
        let mut projections: Vec<(BoundExpr, String)> = Vec::new();
        let mut aggs: Vec<AggCall> = Vec::new();
        let mut group_by: Vec<(BoundExpr, String)> = Vec::new();
        let has_aggregation = !stmt.group_by.is_empty()
            || stmt.projections.iter().any(|p| match p {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            });

        for g in &stmt.group_by {
            let bound = self.bind_expr(g)?;
            let name = default_name(&bound, group_by.len());
            group_by.push((bound, name));
        }

        let mut unnamed = 0usize;
        for item in &stmt.projections {
            match item {
                SelectItem::Wildcard => {
                    if has_aggregation {
                        return Err(Error::analysis("SELECT * with aggregation"));
                    }
                    let frame = self
                        .scopes
                        .last()
                        .expect("binder scope stack is never empty");
                    let names: Vec<(String, Binding)> = frame.names.clone();
                    for (_, binding) in names {
                        self.expand_binding(&binding, &mut projections)?;
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    if has_aggregation {
                        return Err(Error::analysis("SELECT t.* with aggregation"));
                    }
                    let binding = self
                        .lookup_binding(q)
                        .ok_or_else(|| Error::Analysis(format!("unknown table alias {q}")))?;
                    self.expand_binding(&binding, &mut projections)?;
                }
                SelectItem::Expr { expr, alias } => {
                    if has_aggregation {
                        self.bind_agg_projection(expr, alias.as_deref(), &group_by, &mut aggs)?;
                    } else {
                        let bound = self.bind_expr(expr)?;
                        let name = alias.clone().unwrap_or_else(|| {
                            let n = default_name(&bound, unnamed);
                            unnamed += 1;
                            n
                        });
                        projections.push((bound, name));
                    }
                }
            }
        }

        let aggregate = if has_aggregation {
            let having = match &stmt.having {
                Some(h) => Some(self.bind_having(h, &group_by, &mut aggs)?),
                None => None,
            };
            Some(AggregateSpec {
                group_by,
                aggs,
                having,
            })
        } else {
            if stmt.having.is_some() {
                return Err(Error::analysis("HAVING without aggregation"));
            }
            None
        };

        // ---- ORDER BY: resolve against output names
        let output_names: Vec<String> = match &aggregate {
            Some(agg) => agg
                .group_by
                .iter()
                .map(|(_, n)| n.clone())
                .chain(agg.aggs.iter().map(|a| a.output_name.clone()))
                .collect(),
            None => projections.iter().map(|(_, n)| n.clone()).collect(),
        };
        let mut order_by = Vec::new();
        for (e, asc) in &stmt.order_by {
            let ordinal = match e {
                Expr::Column {
                    qualifier: None,
                    name,
                } => output_names
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(name)),
                Expr::Literal(Value::Int(i)) if *i >= 1 => Some((*i - 1) as usize),
                _ => None,
            };
            let ordinal = match ordinal {
                Some(o) if o < output_names.len() => o,
                _ => {
                    // fall back: bind as expression and match a projection
                    let bound = self.bind_expr(e)?;
                    projections
                        .iter()
                        .position(|(pe, _)| pe.same_value(&bound))
                        .ok_or_else(|| {
                            Error::analysis("ORDER BY expression must appear in the SELECT list")
                        })?
                }
            };
            order_by.push((ordinal, *asc));
        }

        self.scopes.pop();

        // ---- transitive predicate derivation: a range filter on one side
        // of an equi-join edge implies the same range on the other side
        // (`c.k <= 5 AND c.k = o.k` ⇒ `o.k <= 5`). This narrows remote
        // fetches and guarded fallbacks of join inners.
        self.derive_transitive_filters();

        // ---- constraint
        let all: Vec<OperandId> = (0..self.operands.len() as u32).collect();
        let constraint = if self.saw_clause {
            CCConstraint::normalize(std::mem::take(&mut self.specs), all)
        } else {
            CCConstraint::tight_default(all)
        };

        Ok(QueryGraph {
            operands: std::mem::take(&mut self.operands),
            edges: std::mem::take(&mut self.edges),
            residuals: std::mem::take(&mut self.residuals),
            projections,
            aggregate,
            distinct: stmt.distinct,
            order_by,
            limit: stmt.limit,
            constraint,
            slots: self.slots.to_vec(),
        })
    }

    fn expand_binding(
        &self,
        binding: &Binding,
        projections: &mut Vec<(BoundExpr, String)>,
    ) -> Result<()> {
        match binding {
            Binding::Operand { id } => {
                let op = &self.operands[*id as usize];
                for c in op.table.schema.columns() {
                    projections.push((BoundExpr::col(&op.binding, &c.name), c.name.clone()));
                }
            }
            Binding::Derived { columns, .. } => {
                for (name, expr) in columns {
                    projections.push((expr.clone(), name.clone()));
                }
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- FROM

    fn bind_from(&mut self, from: &[TableRef]) -> Result<()> {
        for item in from {
            self.bind_table_ref(item)?;
        }
        Ok(())
    }

    fn bind_table_ref(&mut self, item: &TableRef) -> Result<()> {
        match item {
            TableRef::Named { name, alias } => {
                let meta = self
                    .catalog
                    .table(name)
                    .map_err(|_| Error::Analysis(format!("unknown table '{name}'")))?;
                let local = alias.clone().unwrap_or_else(|| name.to_ascii_lowercase());
                let binding = self.fresh_binding(&local);
                let id = self.operands.len() as OperandId;
                self.operands.push(Operand {
                    id,
                    table: meta,
                    binding,
                    filters: Vec::new(),
                    existential: false,
                });
                self.declare(&local, Binding::Operand { id })?;
            }
            TableRef::Subquery { query, alias } => {
                let derived = self.bind_derived(query)?;
                self.declare(alias, derived)?;
            }
            TableRef::Join { left, right, on } => {
                self.bind_table_ref(left)?;
                self.bind_table_ref(right)?;
                self.classify_predicate(on)?;
            }
        }
        Ok(())
    }

    /// Inline an SPJ derived table.
    fn bind_derived(&mut self, query: &SelectStmt) -> Result<Binding> {
        if query.distinct
            || !query.group_by.is_empty()
            || query.having.is_some()
            || !query.order_by.is_empty()
            || query.limit.is_some()
        {
            return Err(Error::analysis(
                "derived tables are limited to select-project-join blocks",
            ));
        }
        let before = self.operands.len() as OperandId;
        self.scopes.push(ScopeFrame::default());
        self.bind_from(&query.from)?;
        if let Some(filter) = &query.filter {
            self.classify_predicate(filter)?;
        }
        if let Some(clause) = &query.currency {
            self.resolve_currency(clause)?;
        }
        // output columns
        let mut columns = Vec::new();
        let mut unnamed = 0usize;
        for item in &query.projections {
            match item {
                SelectItem::Wildcard => {
                    let frame = self
                        .scopes
                        .last()
                        .expect("binder scope stack is never empty");
                    let names: Vec<(String, Binding)> = frame.names.clone();
                    let mut proj = Vec::new();
                    for (_, b) in names {
                        self.expand_binding(&b, &mut proj)?;
                    }
                    columns.extend(proj);
                }
                SelectItem::QualifiedWildcard(q) => {
                    let b = self
                        .lookup_binding(q)
                        .ok_or_else(|| Error::Analysis(format!("unknown table alias {q}")))?;
                    let mut proj = Vec::new();
                    self.expand_binding(&b, &mut proj)?;
                    columns.extend(proj);
                }
                SelectItem::Expr { expr, alias } => {
                    if expr.contains_aggregate() {
                        return Err(Error::analysis(
                            "derived tables are limited to select-project-join blocks",
                        ));
                    }
                    let bound = self.bind_expr(expr)?;
                    let name = alias.clone().unwrap_or_else(|| {
                        let n = default_name(&bound, unnamed);
                        unnamed += 1;
                        n
                    });
                    columns.push((bound, name));
                }
            }
        }
        self.scopes.pop();
        let covers: BTreeSet<OperandId> = (before..self.operands.len() as OperandId).collect();
        Ok(Binding::Derived {
            columns: columns.into_iter().map(|(e, n)| (n, e)).collect(),
            covers,
        })
    }

    fn fresh_binding(&mut self, base: &str) -> String {
        let mut candidate = base.to_string();
        let mut i = 1;
        while !self.used_bindings.insert(candidate.clone()) {
            i += 1;
            candidate = format!("{base}_{i}");
        }
        candidate
    }

    fn declare(&mut self, name: &str, binding: Binding) -> Result<()> {
        let frame = self.scopes.last_mut().expect("scope underflow");
        if frame
            .names
            .iter()
            .any(|(n, _)| n.eq_ignore_ascii_case(name))
        {
            return Err(Error::Analysis(format!(
                "duplicate table alias '{name}' in FROM"
            )));
        }
        frame.names.push((name.to_ascii_lowercase(), binding));
        Ok(())
    }

    fn lookup_binding(&self, name: &str) -> Option<Binding> {
        for frame in self.scopes.iter().rev() {
            if let Some((_, b)) = frame
                .names
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
            {
                return Some(b.clone());
            }
        }
        None
    }

    // ------------------------------------------------------- predicates

    /// Walk an AND-tree, classifying each conjunct.
    fn classify_predicate(&mut self, expr: &Expr) -> Result<()> {
        match expr {
            Expr::Binary {
                left,
                op: BinaryOp::And,
                right,
            } => {
                self.classify_predicate(left)?;
                self.classify_predicate(right)?;
            }
            Expr::Exists { subquery, negated } => {
                self.bind_existential(subquery, *negated)?;
            }
            // the parser nests `NOT EXISTS` as Unary(Not, Exists)
            Expr::Unary {
                op: rcc_sql::UnaryOp::Not,
                expr,
            } if matches!(expr.as_ref(), Expr::Exists { .. } | Expr::InSubquery { .. }) => {
                match expr.as_ref() {
                    Expr::Exists { subquery, negated } => {
                        self.bind_existential(subquery, !negated)?;
                    }
                    Expr::InSubquery {
                        expr: probe,
                        subquery,
                        negated,
                    } => {
                        self.bind_in_subquery(probe, subquery, !negated)?;
                    }
                    _ => unreachable!(),
                }
            }
            Expr::InSubquery {
                expr: probe,
                subquery,
                negated,
            } => {
                self.bind_in_subquery(probe, subquery, *negated)?;
            }
            other => {
                let bound = self.bind_expr(other)?;
                self.place_conjunct(bound)?;
            }
        }
        Ok(())
    }

    /// Route a bound conjunct to the right bucket.
    fn place_conjunct(&mut self, bound: BoundExpr) -> Result<()> {
        let quals = bound.referenced_qualifiers();
        let ids: Vec<OperandId> = self
            .operands
            .iter()
            .filter(|o| quals.contains(&o.binding))
            .map(|o| o.id)
            .collect();
        match ids.len() {
            0 | 1 if ids.len() == 1 => {
                self.operands[ids[0] as usize].filters.push(bound);
            }
            0 => self.residuals.push(bound),
            2 => {
                // equi-join shape?
                if let BoundExpr::Binary {
                    left,
                    op: BinaryOp::Eq,
                    right,
                } = &bound
                {
                    if let (
                        BoundExpr::Column {
                            qualifier: ql,
                            name: nl,
                        },
                        BoundExpr::Column {
                            qualifier: qr,
                            name: nr,
                        },
                    ) = (left.as_ref(), right.as_ref())
                    {
                        if ql != qr {
                            let (l, r) = (self.operand_by_binding(ql), self.operand_by_binding(qr));
                            if let (Some(l), Some(r)) = (l, r) {
                                let (left_id, right_id, lc, rc) = (l, r, nl.clone(), nr.clone());
                                self.edges.push(JoinEdge {
                                    left: left_id,
                                    right: right_id,
                                    left_col: lc,
                                    right_col: rc,
                                    kind: JoinKind::Inner,
                                });
                                return Ok(());
                            }
                        }
                    }
                }
                self.residuals.push(bound);
            }
            _ => self.residuals.push(bound),
        }
        Ok(())
    }

    fn operand_by_binding(&self, binding: &str) -> Option<OperandId> {
        self.operands
            .iter()
            .find(|o| o.binding == binding)
            .map(|o| o.id)
    }

    /// Decorrelate an EXISTS subquery into semi/anti-join edges. The
    /// subquery's FROM operands are marked existential; its predicates are
    /// classified in the combined scope, and at least one resulting edge
    /// must link an existential operand to the outer query (otherwise the
    /// EXISTS is uncorrelated, which we reject as unsupported).
    fn bind_existential(&mut self, subquery: &SelectStmt, negated: bool) -> Result<()> {
        if subquery.distinct
            || !subquery.group_by.is_empty()
            || subquery.having.is_some()
            || !subquery.order_by.is_empty()
        {
            return Err(Error::analysis(
                "EXISTS subqueries are limited to SPJ blocks",
            ));
        }
        let before = self.operands.len();
        self.scopes.push(ScopeFrame::default());
        self.bind_from(&subquery.from)?;
        for op in &mut self.operands[before..] {
            op.existential = true;
        }
        if let Some(filter) = &subquery.filter {
            self.classify_predicate(filter)?;
        }
        if let Some(clause) = &subquery.currency {
            self.resolve_currency(clause)?;
        }
        self.scopes.pop();

        // edges created between an inner (existential) operand and an outer
        // operand carry the semi/anti kind, with the existential side on
        // the right.
        let inner: BTreeSet<OperandId> =
            (before as OperandId..self.operands.len() as OperandId).collect();
        let mut linked = false;
        for edge in &mut self.edges {
            let li = inner.contains(&edge.left);
            let ri = inner.contains(&edge.right);
            if li != ri {
                if li {
                    std::mem::swap(&mut edge.left, &mut edge.right);
                    std::mem::swap(&mut edge.left_col, &mut edge.right_col);
                }
                if edge.kind == JoinKind::Inner {
                    edge.kind = if negated {
                        JoinKind::Anti
                    } else {
                        JoinKind::Semi
                    };
                    linked = true;
                }
            }
        }
        if !linked {
            return Err(Error::analysis(
                "EXISTS subquery must be correlated through an equality predicate",
            ));
        }
        Ok(())
    }

    fn bind_in_subquery(
        &mut self,
        probe: &Expr,
        subquery: &SelectStmt,
        negated: bool,
    ) -> Result<()> {
        // `e IN (SELECT x FROM ...)` ≡ EXISTS (SELECT * FROM ... WHERE x = e)
        let inner_col = match subquery.projections.as_slice() {
            [SelectItem::Expr { expr, .. }] => expr.clone(),
            _ => {
                return Err(Error::analysis(
                    "IN subquery must project exactly one column",
                ))
            }
        };
        let mut rewritten = subquery.clone();
        rewritten.projections = vec![SelectItem::Wildcard];
        let eq = Expr::binary(inner_col, BinaryOp::Eq, probe.clone());
        rewritten.filter = Expr::and_opt(rewritten.filter.take(), Some(eq));
        let (operands, edges, residuals) =
            (self.operands.len(), self.edges.len(), self.residuals.len());
        let filters: Vec<usize> = self.operands.iter().map(|o| o.filters.len()).collect();
        self.bind_existential(&rewritten, negated)?;
        if !negated {
            return Ok(());
        }
        // `NOT IN` is not `NOT EXISTS` once a NULL is involved: its anti
        // join is null-aware, which takes one inner set for every outer
        // row — one table, tied to the outer query by the IN equality alone
        let correlated = self.edges.len() != edges + 1
            || self.residuals.len() != residuals
            || (self.operands.iter().zip(&filters)).any(|(o, &n)| o.filters.len() != n);
        if self.operands.len() != operands + 1 || correlated {
            return Err(Error::analysis(
                "NOT IN subqueries are limited to one table tied to the outer query \
                 by the IN equality alone",
            ));
        }
        self.edges[edges].kind = JoinKind::NullAwareAnti;
        Ok(())
    }

    // ----------------------------------------------------- expressions

    fn bind_expr(&mut self, expr: &Expr) -> Result<BoundExpr> {
        match expr {
            Expr::Column { qualifier, name } => self.resolve_column(qualifier.as_deref(), name),
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Parameter(p) => self.bind_parameter(p),
            Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
                left: Box::new(self.bind_expr(left)?),
                op: *op,
                right: Box::new(self.bind_expr(right)?),
            }),
            Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.bind_expr(expr)?),
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Ok(BoundExpr::Between {
                expr: Box::new(self.bind_expr(expr)?),
                low: Box::new(self.bind_expr(low)?),
                high: Box::new(self.bind_expr(high)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(BoundExpr::InList {
                expr: Box::new(self.bind_expr(expr)?),
                list: list
                    .iter()
                    .map(|e| self.bind_expr(e))
                    .collect::<Result<_>>()?,
                negated: *negated,
            }),
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.bind_expr(expr)?),
                negated: *negated,
            }),
            Expr::Function { name, args, .. } => {
                if name.eq_ignore_ascii_case("getdate") && args.is_empty() {
                    Ok(BoundExpr::GetDate)
                } else if AggFunc::from_name(name).is_some() {
                    Err(Error::analysis(format!(
                        "aggregate {name}() not allowed in this context"
                    )))
                } else {
                    Err(Error::Analysis(format!("unknown function {name}()")))
                }
            }
            Expr::Exists { .. } | Expr::InSubquery { .. } => Err(Error::analysis(
                "subquery predicates are only supported at the top level of WHERE conjuncts",
            )),
        }
    }

    /// `?<n>` is statement slot `n`; any other name is looked up in the
    /// caller's parameters and bound as the literal it stands for.
    fn bind_parameter(&self, p: &str) -> Result<BoundExpr> {
        let unbound = || Error::Analysis(format!("unbound parameter ${p}"));
        match p.strip_prefix('?') {
            Some(n) => {
                let index: u32 = n.parse().map_err(|_| unbound())?;
                let value = self.slots.get(index as usize).ok_or_else(unbound)?;
                Ok(BoundExpr::Slot {
                    index,
                    value: value.clone(),
                })
            }
            None => self
                .params
                .get(p)
                .cloned()
                .map(BoundExpr::Literal)
                .ok_or_else(unbound),
        }
    }

    fn resolve_column(&mut self, qualifier: Option<&str>, name: &str) -> Result<BoundExpr> {
        match qualifier {
            Some(q) => {
                let binding = self
                    .lookup_binding(q)
                    .ok_or_else(|| Error::Analysis(format!("unknown table alias '{q}'")))?;
                match binding {
                    Binding::Operand { id } => {
                        let op = &self.operands[id as usize];
                        op.table
                            .schema
                            .resolve(None, name)
                            .map_err(|_| Error::Analysis(format!("unknown column '{q}.{name}'")))?;
                        Ok(BoundExpr::col(&op.binding, name))
                    }
                    Binding::Derived { columns, .. } => columns
                        .iter()
                        .find(|(n, _)| n.eq_ignore_ascii_case(name))
                        .map(|(_, e)| e.clone())
                        .ok_or_else(|| Error::Analysis(format!("unknown column '{q}.{name}'"))),
                }
            }
            None => {
                // search every binding, innermost scope first; ambiguity
                // within the same scope level is an error
                for frame in self.scopes.iter().rev() {
                    let mut hit: Option<BoundExpr> = None;
                    for (_, binding) in &frame.names {
                        let candidate = match binding {
                            Binding::Operand { id } => {
                                let op = &self.operands[*id as usize];
                                op.table
                                    .schema
                                    .resolve(None, name)
                                    .ok()
                                    .map(|_| BoundExpr::col(&op.binding, name))
                            }
                            Binding::Derived { columns, .. } => columns
                                .iter()
                                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                                .map(|(_, e)| e.clone()),
                        };
                        if let Some(c) = candidate {
                            if hit.is_some() {
                                return Err(Error::Analysis(format!(
                                    "ambiguous column reference '{name}'"
                                )));
                            }
                            hit = Some(c);
                        }
                    }
                    if let Some(h) = hit {
                        return Ok(h);
                    }
                }
                Err(Error::Analysis(format!("unknown column '{name}'")))
            }
        }
    }

    // ------------------------------------------------------ aggregation

    fn bind_agg_projection(
        &mut self,
        expr: &Expr,
        alias: Option<&str>,
        group_by: &[(BoundExpr, String)],
        aggs: &mut Vec<AggCall>,
    ) -> Result<()> {
        if let Expr::Function {
            name, args, star, ..
        } = expr
        {
            if let Some(func) = AggFunc::from_name(name) {
                let arg =
                    if *star {
                        None
                    } else {
                        Some(self.bind_expr(args.first().ok_or_else(|| {
                            Error::analysis(format!("{name}() needs an argument"))
                        })?)?)
                    };
                let output_name = alias
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("{}_{}", name, aggs.len()));
                aggs.push(AggCall {
                    func,
                    arg,
                    output_name,
                });
                return Ok(());
            }
        }
        // non-aggregate projection in an aggregate query must match a
        // GROUP BY expression
        let bound = self.bind_expr(expr)?;
        if !group_by.iter().any(|(g, _)| g.same_value(&bound)) {
            return Err(Error::analysis(format!(
                "projection '{}' is neither an aggregate nor in GROUP BY",
                bound.as_written()
            )));
        }
        Ok(())
    }

    /// HAVING: aggregate calls become references into the agg output (new
    /// calls are appended); group expressions become references to their
    /// output columns. The result is an expression over the qualifier-free
    /// aggregate output schema.
    fn bind_having(
        &mut self,
        expr: &Expr,
        group_by: &[(BoundExpr, String)],
        aggs: &mut Vec<AggCall>,
    ) -> Result<BoundExpr> {
        match expr {
            Expr::Function {
                name, args, star, ..
            } if AggFunc::from_name(name).is_some() => {
                let func = AggFunc::from_name(name).expect("guard matched this aggregate name");
                let arg =
                    if *star {
                        None
                    } else {
                        Some(self.bind_expr(args.first().ok_or_else(|| {
                            Error::analysis(format!("{name}() needs an argument"))
                        })?)?)
                    };
                // reuse an existing identical call if present
                let existing = aggs.iter().position(|a| {
                    a.func == func
                        && match (&a.arg, &arg) {
                            (Some(a), Some(b)) => a.same_value(b),
                            (a, b) => a.is_none() && b.is_none(),
                        }
                });
                let name = match existing {
                    Some(i) => aggs[i].output_name.clone(),
                    None => {
                        let output_name = format!("{}_{}", func.sql().to_lowercase(), aggs.len());
                        aggs.push(AggCall {
                            func,
                            arg,
                            output_name: output_name.clone(),
                        });
                        output_name
                    }
                };
                Ok(BoundExpr::col("#agg", &name))
            }
            Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
                left: Box::new(self.bind_having(left, group_by, aggs)?),
                op: *op,
                right: Box::new(self.bind_having(right, group_by, aggs)?),
            }),
            Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.bind_having(expr, group_by, aggs)?),
            }),
            Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
            Expr::Parameter(p) => self.bind_parameter(p),
            other => {
                // must be a grouping expression
                let bound = self.bind_expr(other)?;
                group_by
                    .iter()
                    .find(|(g, _)| g.same_value(&bound))
                    .map(|(_, n)| BoundExpr::col("#agg", n))
                    .ok_or_else(|| {
                        Error::analysis("HAVING may reference only aggregates and GROUP BY columns")
                    })
            }
        }
    }

    /// Mirror simple range/equality filters across inner equi-join edges.
    fn derive_transitive_filters(&mut self) {
        let edges: Vec<(OperandId, String, OperandId, String)> = self
            .edges
            .iter()
            .filter(|e| !matches!(e.kind, JoinKind::Anti | JoinKind::NullAwareAnti))
            .map(|e| (e.left, e.left_col.clone(), e.right, e.right_col.clone()))
            .collect();
        for (l, lc, r, rc) in edges {
            self.mirror_filters(l, &lc, r, &rc);
            self.mirror_filters(r, &rc, l, &lc);
        }
    }

    /// Copy `src`'s simple predicates on `src_col` to `dst` as predicates
    /// on `dst_col`, skipping ones `dst` already has.
    fn mirror_filters(&mut self, src: OperandId, src_col: &str, dst: OperandId, dst_col: &str) {
        let src_binding = self.operands[src as usize].binding.clone();
        let dst_binding = self.operands[dst as usize].binding.clone();
        let mut derived = Vec::new();
        for f in &self.operands[src as usize].filters {
            if let Some(expr) = mirror_simple(f, &src_binding, src_col, &dst_binding, dst_col) {
                derived.push(expr);
            }
        }
        let dst_filters = &mut self.operands[dst as usize].filters;
        for d in derived {
            if !dst_filters.contains(&d) {
                dst_filters.push(d);
            }
        }
    }

    // ------------------------------------------------- currency clause

    fn resolve_currency(&mut self, clause: &rcc_sql::CurrencyClause) -> Result<()> {
        self.saw_clause = true;
        for spec in &clause.specs {
            let mut ops = BTreeSet::new();
            for t in &spec.tables {
                let binding = self.lookup_binding(t).ok_or_else(|| {
                    Error::Analysis(format!("currency clause references unknown table '{t}'"))
                })?;
                match binding {
                    Binding::Operand { id } => {
                        ops.insert(id);
                    }
                    Binding::Derived { covers, .. } => ops.extend(covers.iter().copied()),
                }
            }
            let by = spec
                .by
                .iter()
                .map(|(q, c)| (q.clone().unwrap_or_default(), c.clone()))
                .collect();
            self.specs.push((spec.bound, ops, by));
        }
        Ok(())
    }
}

/// If `f` is a simple comparison/BETWEEN on exactly `src.src_col` against
/// constants (literals or statement slots), rebuild it against
/// `dst.dst_col`; otherwise None.
fn mirror_simple(
    f: &BoundExpr,
    src: &str,
    src_col: &str,
    dst: &str,
    dst_col: &str,
) -> Option<BoundExpr> {
    let is_src = |e: &BoundExpr| {
        matches!(e, BoundExpr::Column { qualifier, name }
            if qualifier == src && name.eq_ignore_ascii_case(src_col))
    };
    let is_constant = |e: &BoundExpr| e.constant().is_some();
    match f {
        BoundExpr::Binary { left, op, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (l, c) if is_src(l) && is_constant(c) => Some(BoundExpr::binary(
                    BoundExpr::col(dst, dst_col),
                    *op,
                    c.clone(),
                )),
                (c, r) if is_src(r) && is_constant(c) => Some(BoundExpr::binary(
                    c.clone(),
                    *op,
                    BoundExpr::col(dst, dst_col),
                )),
                _ => None,
            }
        }
        BoundExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } if is_src(expr) && is_constant(low) && is_constant(high) => Some(BoundExpr::Between {
            expr: Box::new(BoundExpr::col(dst, dst_col)),
            low: low.clone(),
            high: high.clone(),
            negated: false,
        }),
        _ => None,
    }
}

fn default_name(e: &BoundExpr, n: usize) -> String {
    match e {
        BoundExpr::Column { name, .. } => name.clone(),
        _ => format!("col{n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{DataType, TableId};
    use rcc_sql::parse_statement;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let customer = Schema::new(vec![
            Column::new("c_custkey", DataType::Int),
            Column::new("c_name", DataType::Str),
            Column::new("c_nationkey", DataType::Int),
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

    fn bind(sql: &str) -> QueryGraph {
        bind_params(sql, &HashMap::new())
    }

    fn bind_params(sql: &str, params: &HashMap<String, Value>) -> QueryGraph {
        let stmt = match parse_statement(sql).unwrap() {
            rcc_sql::Statement::Select(s) => *s,
            other => panic!("{other:?}"),
        };
        bind_select(&catalog(), &stmt, params).unwrap()
    }

    fn bind_err(sql: &str) -> Error {
        let stmt = match parse_statement(sql).unwrap() {
            rcc_sql::Statement::Select(s) => *s,
            other => panic!("{other:?}"),
        };
        bind_select(&catalog(), &stmt, &HashMap::new()).unwrap_err()
    }

    /// Bound the way the statement path binds: from the shape, literals as
    /// slots.
    fn bind_shape(sql: &str) -> Result<QueryGraph> {
        let params = HashMap::new();
        let shape = rcc_sql::shape(sql, &params).expect("a SELECT");
        let stmt = rcc_sql::parse_shape(sql, &params)?;
        bind_select_slots(&catalog(), &stmt, &params, &shape.values)
    }

    #[test]
    fn a_constant_repeated_across_clauses_matches_by_value() {
        // each occurrence is its own slot; the clauses match on what they hold
        let g = bind_shape("SELECT c_acctbal > 10, COUNT(*) FROM customer GROUP BY c_acctbal > 10")
            .unwrap();
        assert_eq!(g.slots, [Value::Int(10), Value::Int(10)]);
        assert_eq!(g.aggregate.as_ref().unwrap().group_by.len(), 1);
        let g =
            bind_shape("SELECT c_name, c_custkey = 5 FROM customer ORDER BY c_custkey = 5 DESC")
                .unwrap();
        assert_eq!(g.order_by, [(1, false)]);
        let g = bind_shape(
            "SELECT c_nationkey BETWEEN 1 AND 5, SUM(c_acctbal) FROM customer \
             GROUP BY c_nationkey BETWEEN 1 AND 5 HAVING c_nationkey BETWEEN 1 AND 5",
        )
        .unwrap();
        assert!(g.aggregate.as_ref().unwrap().having.is_some());
        // HAVING reuses the select list's aggregate call, not a second one
        let g = bind_shape(
            "SELECT c_nationkey, COUNT(c_acctbal > 5) FROM customer GROUP BY c_nationkey \
             HAVING COUNT(c_acctbal > 5) > 1",
        )
        .unwrap();
        assert_eq!(g.aggregate.as_ref().unwrap().aggs.len(), 1);
        // other values in one of the clauses: no match, as for literals
        for sql in [
            "SELECT c_acctbal > 10, COUNT(*) FROM customer GROUP BY c_acctbal > 11",
            "SELECT c_name, c_custkey = 5 FROM customer ORDER BY c_custkey = 6",
        ] {
            assert!(matches!(bind_shape(sql), Err(Error::Analysis(_))), "{sql}");
        }
    }

    #[test]
    fn single_table_with_filter() {
        let g = bind("SELECT c_name FROM customer WHERE c_custkey <= 100");
        assert_eq!(g.operands.len(), 1);
        assert_eq!(g.operands[0].filters.len(), 1);
        assert_eq!(g.projections.len(), 1);
        assert!(g.constraint.is_tight_default());
    }

    #[test]
    fn join_edge_extracted() {
        let g = bind(
            "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 10",
        );
        assert_eq!(g.operands.len(), 2);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].kind, JoinKind::Inner);
        assert_eq!(
            g.operands[0].filters.len(),
            1,
            "selective filter pushed to customer"
        );
        assert!(g.residuals.is_empty());
    }

    #[test]
    fn explicit_join_syntax() {
        let g = bind("SELECT * FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey");
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.projections.len(), 7);
    }

    #[test]
    fn non_equi_cross_predicate_is_residual() {
        let g = bind(
            "SELECT c.c_name FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_acctbal < o.o_totalprice",
        );
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.residuals.len(), 1);
    }

    #[test]
    fn currency_clause_resolved_to_operands() {
        let g = bind(
            "SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey \
             CURRENCY BOUND 10 SEC ON (c), 15 SEC ON (o)",
        );
        assert_eq!(g.constraint.classes.len(), 2);
        assert_eq!(g.constraint.bound_of(0), Duration::from_secs(10));
        assert_eq!(g.constraint.bound_of(1), Duration::from_secs(15));
    }

    #[test]
    fn derived_table_inlined_and_clause_merged() {
        // paper Q2 shape (Sec. 2.2): outer 5min(S,T), inner 10min(B,R) over
        // T=(B⋈R) — least restrictive combined: 5 min (S,B,R)
        let g = bind(
            "SELECT t.c_name, s.o_totalprice FROM \
             (SELECT c.c_name, c.c_custkey FROM customer c, orders r \
              WHERE c.c_custkey = r.o_custkey CURRENCY BOUND 10 MIN ON (c, r)) t, \
             orders s WHERE t.c_custkey = s.o_custkey \
             CURRENCY BOUND 5 MIN ON (s, t)",
        );
        assert_eq!(g.operands.len(), 3);
        assert_eq!(g.constraint.classes.len(), 1);
        assert_eq!(g.constraint.classes[0].bound, Duration::from_mins(5));
        assert_eq!(g.constraint.classes[0].operands.len(), 3);
        // derived column references substituted: two inner-join edges exist
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn exists_decorrelated_to_semi_join() {
        // paper Q3 shape: subquery consistency class references outer table
        let g = bind(
            "SELECT c.c_name FROM customer c WHERE \
             EXISTS (SELECT * FROM orders s WHERE s.o_custkey = c.c_custkey \
                     CURRENCY BOUND 10 SEC ON (s, c)) \
             CURRENCY BOUND 10 SEC ON (c)",
        );
        assert_eq!(g.operands.len(), 2);
        assert!(g.operands[1].existential);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].kind, JoinKind::Semi);
        assert_eq!(g.edges[0].left, 0, "outer operand on the left");
        // inner clause referenced outer c: one merged class
        assert_eq!(g.constraint.classes.len(), 1);
        assert_eq!(g.constraint.classes[0].operands.len(), 2);
    }

    #[test]
    fn not_exists_is_anti_join() {
        let g = bind(
            "SELECT c.c_name FROM customer c WHERE \
             NOT EXISTS (SELECT * FROM orders s WHERE s.o_custkey = c.c_custkey)",
        );
        assert_eq!(g.edges[0].kind, JoinKind::Anti);
    }

    #[test]
    fn in_subquery_becomes_semi_join() {
        let g = bind(
            "SELECT c_name FROM customer WHERE c_custkey IN \
             (SELECT o_custkey FROM orders WHERE o_totalprice > 100.0)",
        );
        assert_eq!(g.operands.len(), 2);
        assert_eq!(g.edges[0].kind, JoinKind::Semi);
        assert_eq!(g.operands[1].filters.len(), 1);
    }

    #[test]
    fn not_in_subquery_is_a_null_aware_anti_join_or_refused() {
        let g = bind(
            "SELECT c_name FROM customer WHERE c_custkey NOT IN \
             (SELECT o_custkey FROM orders WHERE o_totalprice > 100.0)",
        );
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].kind, JoinKind::NullAwareAnti);
        // an inner set that depends on the outer row, or spans two tables
        for sql in [
            "SELECT c_name FROM customer c WHERE c_custkey NOT IN \
             (SELECT o_custkey FROM orders o WHERE o.o_orderkey = c.c_nationkey)",
            "SELECT c_name FROM customer c WHERE c_custkey NOT IN \
             (SELECT o_custkey FROM orders o WHERE o.o_totalprice > c.c_acctbal)",
            "SELECT c_name FROM customer c WHERE c_custkey NOT IN \
             (SELECT o_custkey FROM orders o WHERE c.c_acctbal > 0.0)",
            "SELECT c_name FROM customer c WHERE c_custkey NOT IN \
             (SELECT o.o_custkey FROM orders o, customer d WHERE o.o_custkey = d.c_custkey)",
        ] {
            let err = bind_err(sql);
            assert!(matches!(err, Error::Analysis(_)), "{sql}: {err}");
        }
    }

    #[test]
    fn uncorrelated_exists_rejected() {
        let err = bind_err("SELECT c_name FROM customer WHERE EXISTS (SELECT * FROM orders)");
        assert!(matches!(err, Error::Analysis(_)));
    }

    #[test]
    fn aggregation_binding() {
        let g = bind(
            "SELECT o_custkey, COUNT(*) AS n, SUM(o_totalprice) AS total FROM orders \
             GROUP BY o_custkey HAVING COUNT(*) > 5",
        );
        let agg = g.aggregate.unwrap();
        assert_eq!(agg.group_by.len(), 1);
        assert_eq!(agg.aggs.len(), 2);
        assert!(agg.having.is_some());
        // HAVING reused the COUNT(*) call instead of adding a third
        assert_eq!(agg.aggs[0].output_name, "n");
    }

    #[test]
    fn projection_must_be_grouped() {
        let err = bind_err("SELECT o_totalprice, COUNT(*) FROM orders GROUP BY o_custkey");
        assert!(matches!(err, Error::Analysis(_)));
    }

    #[test]
    fn params_substituted() {
        let mut params = HashMap::new();
        params.insert("k".to_string(), Value::Int(50));
        let g = bind_params("SELECT c_name FROM customer WHERE c_custkey <= $k", &params);
        let f = &g.operands[0].filters[0];
        assert!(f.to_string().contains("50"));
        let err = bind_err("SELECT c_name FROM customer WHERE c_custkey <= $k");
        assert!(matches!(err, Error::Analysis(_)));
    }

    #[test]
    fn duplicate_alias_rejected_but_same_table_twice_ok() {
        let err = bind_err("SELECT * FROM customer c, orders c");
        assert!(matches!(err, Error::Analysis(_)));
        let g = bind("SELECT a.c_name FROM customer a, customer b WHERE a.c_custkey = b.c_custkey");
        assert_eq!(g.operands.len(), 2);
        assert_ne!(g.operands[0].binding, g.operands[1].binding);
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        // both customer aliases have c_name
        let err = bind_err("SELECT c_name FROM customer a, customer b");
        assert!(matches!(err, Error::Analysis(_)));
    }

    #[test]
    fn required_columns_cover_everything() {
        let g = bind(
            "SELECT c.c_name FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > 5.0",
        );
        let cols = g.required_columns(0);
        assert!(cols.contains("c_name"));
        assert!(cols.contains("c_custkey"));
        assert!(cols.contains("c_acctbal"));
        assert!(!cols.contains("c_nationkey"));
        let ocols = g.required_columns(1);
        assert!(ocols.contains("o_custkey"));
        assert!(
            ocols.contains("o_orderkey"),
            "clustered key always required"
        );
    }

    #[test]
    fn order_by_resolution() {
        let g = bind("SELECT c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC, 1");
        assert_eq!(g.order_by, vec![(1, false), (0, true)]);
        let err = bind_err("SELECT c_name FROM customer ORDER BY c_nationkey");
        assert!(matches!(err, Error::Analysis(_)));
    }

    #[test]
    fn wildcards_expand() {
        let g = bind("SELECT * FROM customer");
        assert_eq!(g.projections.len(), 4);
        let g = bind("SELECT o.* FROM customer c, orders o WHERE c.c_custkey = o.o_custkey");
        assert_eq!(g.projections.len(), 3);
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(matches!(
            bind_err("SELECT x FROM customer"),
            Error::Analysis(_)
        ));
        assert!(matches!(
            bind_err("SELECT c_name FROM ghost"),
            Error::Analysis(_)
        ));
        assert!(matches!(
            bind_err("SELECT z.c_name FROM customer c"),
            Error::Analysis(_)
        ));
        assert!(matches!(
            bind_err("SELECT c_name FROM customer CURRENCY BOUND 5 SEC ON (zzz)"),
            Error::Analysis(_)
        ));
    }

    #[test]
    fn unmentioned_operand_gets_tight_default() {
        let g = bind(
            "SELECT c.c_name FROM customer c, orders o WHERE c.c_custkey = o.o_custkey \
             CURRENCY BOUND 10 SEC ON (c)",
        );
        assert_eq!(g.constraint.classes.len(), 2);
        assert_eq!(g.constraint.bound_of(1), Duration::ZERO);
    }

    #[test]
    fn join_schema_excludes_existential() {
        let g = bind(
            "SELECT c.c_name FROM customer c WHERE \
             EXISTS (SELECT * FROM orders s WHERE s.o_custkey = c.c_custkey)",
        );
        assert_eq!(g.join_schema().len(), 4, "only customer columns");
    }
}
