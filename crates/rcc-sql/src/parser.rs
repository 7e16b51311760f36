//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{tokenize, tokenize_shape, Token, TokenKind};
use rcc_common::{DataType, Duration, Error, Result, Value};
use std::collections::HashMap;

/// Parse a single SQL statement (trailing `;` allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.statement()?;
    p.eat_semi();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse the `SELECT` `original` through its [`shape`](crate::shape::shape)
/// for `params`: the statement of `original`, with an [`Expr::Parameter`]
/// named `?<n>` where slot `n` stands. Positions (currency-spec spans,
/// errors) are those of `original`. If the key does not parse, `original`
/// is parsed instead, so what is wrong with a text is reported exactly as
/// [`parse_statement`] reports it. (The lexical pass is run again here, this
/// time noting where each marker came from: the statement path keeps only
/// the key and the values, and gets here only when no plan was cached.)
pub fn parse_shape(original: &str, params: &HashMap<String, Value>) -> Result<SelectStmt> {
    let parsed = crate::shape::shape_and_spans(original, params)
        .ok_or_else(|| Error::internal("only a SELECT has a shape"))
        .and_then(|(shape, spans)| tokenize_shape(&shape.key, original, &spans))
        .and_then(|tokens| {
            let mut p = Parser { tokens, pos: 0 };
            let stmt = p.statement()?;
            p.eat_semi();
            p.expect_eof()?;
            Ok(stmt)
        });
    match parsed.or_else(|_| parse_statement(original))? {
        Statement::Select(select) => Ok(*select),
        other => Err(Error::internal(format!(
            "only a SELECT has a shape, got {other:?}"
        ))),
    }
}

/// Parse a `;`-separated script into statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_semi() {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let t = &self.tokens[self.pos];
        Error::Parse {
            pos: t.pos,
            line: t.line,
            col: t.col,
            message: msg.into(),
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn eat_semi(&mut self) -> bool {
        if matches!(self.peek(), TokenKind::Semi) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input '{}'", self.peek())))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if k == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found '{}'", self.peek())))
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected '{kind}', found '{}'", self.peek())))
        }
    }

    /// An identifier; some non-reserved keywords double as identifiers
    /// (column names like `region` never collide in our workloads, but
    /// `count` etc. are allowed as idents outside call position).
    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            TokenKind::Keyword(k)
                if matches!(
                    k.as_str(),
                    "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "REGION" | "KEY"
                ) =>
            {
                self.bump();
                Ok(k.to_ascii_lowercase())
            }
            other => Err(self.err(format!("expected identifier, found '{other}'"))),
        }
    }

    // ---------------------------------------------------------- statements

    fn statement(&mut self) -> Result<Statement> {
        match self.peek().clone() {
            TokenKind::Keyword(k) => match k.as_str() {
                "SELECT" => Ok(Statement::Select(Box::new(self.select_stmt()?))),
                "INSERT" => self.insert(),
                "UPDATE" => self.update(),
                "DELETE" => self.delete(),
                "CREATE" => self.create(),
                "DROP" => {
                    self.bump();
                    self.expect_kw("CACHED")?;
                    self.expect_kw("VIEW")?;
                    let name = self.ident()?;
                    Ok(Statement::DropCachedView { name })
                }
                "BEGIN" => {
                    self.bump();
                    self.expect_kw("TIMEORDERED")?;
                    Ok(Statement::BeginTimeordered)
                }
                "END" => {
                    self.bump();
                    self.expect_kw("TIMEORDERED")?;
                    Ok(Statement::EndTimeordered)
                }
                "VERIFY" => {
                    self.bump();
                    if !self.at_kw("SELECT") {
                        return Err(self.err("VERIFY expects a SELECT statement"));
                    }
                    Ok(Statement::Verify(Box::new(self.select_stmt()?)))
                }
                "LINT" => {
                    self.bump();
                    if !self.at_kw("SELECT") {
                        return Err(self.err("LINT expects a SELECT statement"));
                    }
                    Ok(Statement::Lint(Box::new(self.select_stmt()?)))
                }
                "AUDIT" => {
                    self.bump();
                    self.expect_kw("TEMPLATES")?;
                    Ok(Statement::AuditTemplates)
                }
                "EXPLAIN" => {
                    self.bump();
                    // ANALYZE is not reserved (it would shadow a column
                    // of that name), so it arrives as an identifier
                    let analyze = matches!(self.peek(), TokenKind::Ident(w) if w.eq_ignore_ascii_case("analyze"));
                    if analyze {
                        self.bump();
                    } else if !self.eat_kw("FLOW") {
                        return Err(
                            self.err(format!("expected FLOW or ANALYZE, found '{}'", self.peek()))
                        );
                    }
                    if !self.at_kw("SELECT") {
                        let which = if analyze { "ANALYZE" } else { "FLOW" };
                        return Err(self.err(format!("EXPLAIN {which} expects a SELECT statement")));
                    }
                    let select = Box::new(self.select_stmt()?);
                    Ok(if analyze {
                        Statement::ExplainAnalyze(select)
                    } else {
                        Statement::ExplainFlow(select)
                    })
                }
                "SHOW" => {
                    self.bump();
                    let what = self.ident()?;
                    if what.eq_ignore_ascii_case("events") {
                        Ok(Statement::ShowEvents)
                    } else if what.eq_ignore_ascii_case("trace") {
                        Ok(Statement::ShowTrace)
                    } else {
                        Err(self.err(format!("SHOW expects EVENTS or TRACE, got '{what}'")))
                    }
                }
                other => Err(self.err(format!("unexpected keyword '{other}' at statement start"))),
            },
            other => Err(self.err(format!("expected a statement, found '{other}'"))),
        }
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            loop {
                columns.push(self.ident()?);
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(&TokenKind::RParen)?;
            rows.push(row);
            if !matches!(self.peek(), TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&TokenKind::Op("=".into()))?;
            assignments.push((col, self.expr()?));
            if !matches!(self.peek(), TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = Vec::new();
            let mut primary_key = Vec::new();
            loop {
                if self.at_kw("PRIMARY") {
                    self.bump();
                    self.expect_kw("KEY")?;
                    self.expect(&TokenKind::LParen)?;
                    loop {
                        primary_key.push(self.ident()?);
                        if !matches!(self.peek(), TokenKind::Comma) {
                            break;
                        }
                        self.bump();
                    }
                    self.expect(&TokenKind::RParen)?;
                } else {
                    let col = self.ident()?;
                    let ty = self.data_type()?;
                    columns.push((col, ty));
                }
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(&TokenKind::RParen)?;
            if primary_key.is_empty() {
                return Err(self.err("CREATE TABLE requires a PRIMARY KEY clause"));
            }
            Ok(Statement::CreateTable {
                name,
                columns,
                primary_key,
            })
        } else if self.eat_kw("INDEX") || (self.eat_kw("CLUSTERED") && self.eat_kw("INDEX")) {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(&TokenKind::RParen)?;
            Ok(Statement::CreateIndex {
                name,
                table,
                columns,
            })
        } else if self.eat_kw("REGION") {
            let name = self.ident()?;
            self.expect_kw("INTERVAL")?;
            let interval = self.duration()?;
            self.expect_kw("DELAY")?;
            let delay = self.duration()?;
            Ok(Statement::CreateRegion {
                name,
                interval,
                delay,
            })
        } else if self.eat_kw("CACHED") {
            self.expect_kw("VIEW")?;
            let name = self.ident()?;
            self.expect_kw("REGION")?;
            let region = self.ident()?;
            self.expect_kw("AS")?;
            let query = self.select_stmt()?;
            Ok(Statement::CreateCachedView {
                name,
                region,
                query: Box::new(query),
            })
        } else if self.eat_kw("TEMPLATE") {
            self.create_template()
        } else {
            Err(self.err("expected TABLE, INDEX, REGION, TEMPLATE or CACHED VIEW after CREATE"))
        }
    }

    /// Body of `CREATE TEMPLATE name [($p, ...)] AS stmt; ...; END`.
    fn create_template(&mut self) -> Result<Statement> {
        let (line, col) = {
            let t = &self.tokens[self.pos];
            (t.line, t.col)
        };
        let name = self.ident()?;
        let mut params: Vec<String> = Vec::new();
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            if !matches!(self.peek(), TokenKind::RParen) {
                loop {
                    match self.peek().clone() {
                        TokenKind::Param(p) => {
                            if params.contains(&p) {
                                return Err(self.err(format!("duplicate template parameter ${p}")));
                            }
                            self.bump();
                            params.push(p);
                        }
                        other => {
                            return Err(self.err(format!("expected a $parameter, found '{other}'")))
                        }
                    }
                    if !matches!(self.peek(), TokenKind::Comma) {
                        break;
                    }
                    self.bump();
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        self.expect_kw("AS")?;
        let mut statements = Vec::new();
        loop {
            while self.eat_semi() {}
            if self.eat_kw("END") {
                break;
            }
            let stmt_line = self.tokens[self.pos].line;
            let stmt = self.statement()?;
            if !matches!(
                stmt,
                Statement::Select(_)
                    | Statement::Insert { .. }
                    | Statement::Update { .. }
                    | Statement::Delete { .. }
            ) {
                return Err(self.err("templates may contain only SELECT, INSERT, UPDATE or DELETE"));
            }
            statements.push((stmt, stmt_line));
        }
        if statements.is_empty() {
            return Err(self.err("template body must contain at least one statement"));
        }
        Ok(Statement::CreateTemplate(Box::new(TemplateDecl {
            name,
            params,
            statements,
            line,
            col,
        })))
    }

    fn data_type(&mut self) -> Result<DataType> {
        let t = match self.peek().clone() {
            TokenKind::Keyword(k) => match k.as_str() {
                "INT" => DataType::Int,
                "FLOAT" => DataType::Float,
                "VARCHAR" => DataType::Str,
                "BOOL" => DataType::Bool,
                "TIMESTAMP" => DataType::Timestamp,
                other => return Err(self.err(format!("unknown type '{other}'"))),
            },
            other => return Err(self.err(format!("expected a type, found '{other}'"))),
        };
        self.bump();
        // optional length, e.g. VARCHAR(25) — parsed and ignored
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            match self.bump() {
                TokenKind::Int(_) => {}
                other => return Err(self.err(format!("expected length, found '{other}'"))),
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(t)
    }

    // ------------------------------------------------------------- SELECT

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut projections = Vec::new();
        loop {
            projections.push(self.select_item()?);
            if !matches!(self.peek(), TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            loop {
                from.push(self.table_ref()?);
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.at_kw("GROUP") {
            self.bump();
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.at_kw("ORDER") {
            self.bump();
            self.expect_kw("BY")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push((e, asc));
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                other => return Err(self.err(format!("expected LIMIT count, found '{other}'"))),
            }
        } else {
            None
        };
        let currency = if self.at_kw("CURRENCY") {
            Some(self.currency_clause()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            projections,
            from,
            filter,
            group_by,
            having,
            order_by,
            limit,
            currency,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if matches!(self.peek(), TokenKind::Arith('*')) {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // t.*
        if let (TokenKind::Ident(q), TokenKind::Dot) = (self.peek().clone(), self.peek2().clone()) {
            if matches!(
                self.tokens.get(self.pos + 2).map(|t| &t.kind),
                Some(TokenKind::Arith('*'))
            ) {
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") || matches!(self.peek(), TokenKind::Ident(_)) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let is_join = self.at_kw("JOIN")
                || (self.at_kw("INNER")
                    && matches!(self.peek2(), TokenKind::Keyword(k) if k == "JOIN"));
            if !is_join {
                break;
            }
            self.eat_kw("INNER");
            self.expect_kw("JOIN")?;
            let right = self.table_primary()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                on,
            };
        }
        Ok(left)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if matches!(self.peek(), TokenKind::LParen) {
            self.bump();
            let query = self.select_stmt()?;
            self.expect(&TokenKind::RParen)?;
            self.eat_kw("AS");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("AS") || matches!(self.peek(), TokenKind::Ident(_)) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    // --------------------------------------------------- currency clause

    fn currency_clause(&mut self) -> Result<CurrencyClause> {
        self.expect_kw("CURRENCY")?;
        self.expect_kw("BOUND")?;
        let mut specs = Vec::new();
        loop {
            specs.push(self.currency_spec()?);
            if !matches!(self.peek(), TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        Ok(CurrencyClause { specs })
    }

    fn currency_spec(&mut self) -> Result<CurrencySpec> {
        let start = self.tokens[self.pos].clone();
        let bound = self.duration()?;
        self.expect_kw("ON")?;
        self.expect(&TokenKind::LParen)?;
        if matches!(self.peek(), TokenKind::RParen) {
            return Err(self.err("empty consistency class: ON () must name at least one table"));
        }
        let mut tables = Vec::new();
        loop {
            tables.push(self.ident()?);
            if !matches!(self.peek(), TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        self.expect(&TokenKind::RParen)?;
        let mut by = Vec::new();
        if self.eat_kw("BY") {
            loop {
                let first = self.ident()?;
                if matches!(self.peek(), TokenKind::Dot) {
                    self.bump();
                    let col = self.ident()?;
                    by.push((Some(first), col));
                } else {
                    by.push((None, first));
                }
                let added = by.last().expect("just pushed");
                if by.iter().filter(|c| c == &added).count() > 1 {
                    let (q, c) = added;
                    let shown = match q {
                        Some(q) => format!("{q}.{c}"),
                        None => c.clone(),
                    };
                    return Err(self.err(format!("duplicate BY column '{shown}'")));
                }
                // `BY a.x, 5 MIN ON ...` ambiguity: a comma followed by a
                // number starts the next spec, not another BY column.
                if matches!(self.peek(), TokenKind::Comma)
                    && matches!(self.peek2(), TokenKind::Ident(_) | TokenKind::Keyword(_))
                    && !matches!(self.peek2(), TokenKind::Keyword(k) if k == "MIN")
                {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        Ok(CurrencySpec {
            bound,
            tables,
            by,
            line: start.line,
            col: start.col,
        })
    }

    fn duration(&mut self) -> Result<Duration> {
        let n = match self.bump() {
            TokenKind::Int(n) => n,
            TokenKind::Float(f) => {
                // allow fractional durations, rounded to ms below
                return self.duration_unit_fractional(f);
            }
            other => return Err(self.err(format!("expected a duration, found '{other}'"))),
        };
        self.duration_unit(n)
    }

    fn duration_unit(&mut self, n: i64) -> Result<Duration> {
        match self.bump() {
            TokenKind::Keyword(k) => {
                let per_unit = match k.as_str() {
                    "MS" => 1,
                    "SEC" | "SECOND" | "SECONDS" => 1_000,
                    "MIN" | "MINUTE" | "MINUTES" => 60_000,
                    "HOUR" | "HOURS" => 3_600_000,
                    other => return Err(self.err(format!("unknown time unit '{other}'"))),
                };
                n.checked_mul(per_unit)
                    .map(Duration::from_millis)
                    .ok_or_else(|| self.err(format!("currency bound {n} {k} overflows")))
            }
            other => Err(self.err(format!("expected a time unit, found '{other}'"))),
        }
    }

    fn duration_unit_fractional(&mut self, f: f64) -> Result<Duration> {
        match self.bump() {
            TokenKind::Keyword(k) => {
                let ms = match k.as_str() {
                    "MS" => f,
                    "SEC" | "SECOND" | "SECONDS" => f * 1_000.0,
                    "MIN" | "MINUTE" | "MINUTES" => f * 60_000.0,
                    "HOUR" | "HOURS" => f * 3_600_000.0,
                    other => return Err(self.err(format!("unknown time unit '{other}'"))),
                };
                Ok(Duration::from_millis(ms.round() as i64))
            }
            other => Err(self.err(format!("expected a time unit, found '{other}'"))),
        }
    }

    // --------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.at_kw("IS") {
            self.bump();
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] BETWEEN / IN
        let negated = if self.at_kw("NOT")
            && matches!(self.peek2(), TokenKind::Keyword(k) if k == "BETWEEN" || k == "IN")
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect(&TokenKind::LParen)?;
            if self.at_kw("SELECT") {
                let sub = self.select_stmt()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(sub),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !matches!(self.peek(), TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err(self.err("expected BETWEEN or IN after NOT"));
        }
        if let TokenKind::Op(op) = self.peek().clone() {
            self.bump();
            let right = self.additive()?;
            let op = match op.as_str() {
                "=" => BinaryOp::Eq,
                "<>" => BinaryOp::NotEq,
                "<" => BinaryOp::Lt,
                "<=" => BinaryOp::LtEq,
                ">" => BinaryOp::Gt,
                ">=" => BinaryOp::GtEq,
                other => return Err(self.err(format!("unknown operator '{other}'"))),
            };
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Arith('+') => BinaryOp::Add,
                TokenKind::Arith('-') => BinaryOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Arith('*') => BinaryOp::Mul,
                TokenKind::Arith('/') => BinaryOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if matches!(self.peek(), TokenKind::Arith('-')) {
            self.bump();
            let inner = self.unary()?;
            // fold negative literals immediately
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                e => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(e),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(n) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(n)))
            }
            TokenKind::Float(f) => {
                self.bump();
                Ok(Expr::Literal(Value::Float(f)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s)))
            }
            TokenKind::Param(p) => {
                self.bump();
                Ok(Expr::Parameter(p))
            }
            TokenKind::LParen => {
                self.bump();
                if self.at_kw("SELECT") {
                    // scalar subquery is not supported; report clearly
                    return Err(self.err("scalar subqueries are not supported; use EXISTS or IN"));
                }
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Keyword(k) => match k.as_str() {
                "TRUE" => {
                    self.bump();
                    Ok(Expr::Literal(Value::Bool(true)))
                }
                "FALSE" => {
                    self.bump();
                    Ok(Expr::Literal(Value::Bool(false)))
                }
                "NULL" => {
                    self.bump();
                    Ok(Expr::Literal(Value::Null))
                }
                "EXISTS" => {
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    let sub = self.select_stmt()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Exists {
                        subquery: Box::new(sub),
                        negated: false,
                    })
                }
                "NOT" => {
                    self.bump();
                    self.expect_kw("EXISTS")?;
                    self.expect(&TokenKind::LParen)?;
                    let sub = self.select_stmt()?;
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Exists {
                        subquery: Box::new(sub),
                        negated: true,
                    })
                }
                "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "GETDATE" => {
                    if !matches!(self.peek2(), TokenKind::LParen) {
                        // not a call: treat as identifier (e.g. column `min`)
                        let name = self.ident()?;
                        return self.maybe_qualified(name);
                    }
                    let name = k.to_ascii_lowercase();
                    self.bump();
                    self.expect(&TokenKind::LParen)?;
                    if matches!(self.peek(), TokenKind::Arith('*')) {
                        self.bump();
                        self.expect(&TokenKind::RParen)?;
                        return Ok(Expr::Function {
                            name,
                            args: vec![],
                            distinct: false,
                            star: true,
                        });
                    }
                    if matches!(self.peek(), TokenKind::RParen) {
                        self.bump();
                        return Ok(Expr::Function {
                            name,
                            args: vec![],
                            distinct: false,
                            star: false,
                        });
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    loop {
                        args.push(self.expr()?);
                        if !matches!(self.peek(), TokenKind::Comma) {
                            break;
                        }
                        self.bump();
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Function {
                        name,
                        args,
                        distinct,
                        star: false,
                    })
                }
                other => Err(self.err(format!("unexpected keyword '{other}' in expression"))),
            },
            TokenKind::Ident(name) => {
                self.bump();
                self.maybe_qualified(name)
            }
            other => Err(self.err(format!("unexpected token '{other}' in expression"))),
        }
    }

    fn maybe_qualified(&mut self, first: String) -> Result<Expr> {
        if matches!(self.peek(), TokenKind::Dot) {
            self.bump();
            let name = self.ident()?;
            Ok(Expr::Column {
                qualifier: Some(first),
                name,
            })
        } else {
            Ok(Expr::Column {
                qualifier: None,
                name: first,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 42");
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert!(s.filter.is_some());
        assert!(s.currency.is_none());
    }

    #[test]
    fn verify_wraps_a_select() {
        let stmt = parse_statement("VERIFY SELECT a FROM t CURRENCY BOUND 10 SEC ON (t)").unwrap();
        let Statement::Verify(s) = stmt else {
            panic!("expected Statement::Verify, got {stmt:?}")
        };
        assert!(s.currency.is_some());
        // round-trips through the unparser with the prefix intact
        let sql = crate::unparse::statement_sql(&Statement::Verify(s));
        assert!(sql.starts_with("VERIFY SELECT"), "{sql}");

        parse_statement("VERIFY INSERT INTO t VALUES (1)")
            .expect_err("VERIFY must require a SELECT");
    }

    #[test]
    fn lint_wraps_a_select() {
        let stmt = parse_statement("LINT SELECT a FROM t CURRENCY BOUND 10 SEC ON (t)").unwrap();
        let Statement::Lint(s) = stmt else {
            panic!("expected Statement::Lint, got {stmt:?}")
        };
        assert!(s.currency.is_some());
        let sql = crate::unparse::statement_sql(&Statement::Lint(s));
        assert!(sql.starts_with("LINT SELECT"), "{sql}");

        parse_statement("LINT DELETE FROM t").expect_err("LINT must require a SELECT");
    }

    #[test]
    fn explain_flow_wraps_a_select() {
        let stmt =
            parse_statement("EXPLAIN FLOW SELECT a FROM t CURRENCY BOUND 10 SEC ON (t)").unwrap();
        let Statement::ExplainFlow(s) = stmt else {
            panic!("expected Statement::ExplainFlow, got {stmt:?}")
        };
        assert!(s.currency.is_some());
        let sql = crate::unparse::statement_sql(&Statement::ExplainFlow(s));
        assert!(sql.starts_with("EXPLAIN FLOW SELECT"), "{sql}");

        parse_statement("EXPLAIN SELECT a FROM t").expect_err("bare EXPLAIN must be rejected");
        parse_statement("EXPLAIN FLOW UPDATE t SET a = 1")
            .expect_err("EXPLAIN FLOW must require a SELECT");
    }

    #[test]
    fn explain_analyze_wraps_a_select() {
        let text = "explain Analyze SELECT a FROM t CURRENCY BOUND 10 SEC ON (t)";
        let stmt = parse_statement(text).unwrap();
        let Statement::ExplainAnalyze(s) = &stmt else {
            panic!("expected Statement::ExplainAnalyze, got {stmt:?}")
        };
        assert!(s.currency.is_some());
        // round-trips through the unparser with the prefix intact
        let sql = crate::unparse::statement_sql(&stmt);
        assert!(sql.starts_with("EXPLAIN ANALYZE SELECT"), "{sql}");
        assert_eq!(parse_statement(&sql).unwrap(), stmt);

        parse_statement("EXPLAIN ANALYZE DELETE FROM t")
            .expect_err("EXPLAIN ANALYZE must require a SELECT");
        // `analyze` stays usable as a column name
        parse_statement("SELECT analyze FROM t").unwrap();
    }

    #[test]
    fn currency_spec_records_its_span() {
        let stmt = parse_statement("SELECT a FROM t\nCURRENCY BOUND 10 SEC ON (t)").unwrap();
        let Statement::Select(s) = stmt else {
            panic!("expected Statement::Select, got {stmt:?}")
        };
        let spec = &s.currency.as_ref().unwrap().specs[0];
        assert_eq!(spec.line, 2);
        assert!(spec.col > 1, "col {}", spec.col);
    }

    #[test]
    fn currency_clause_single_class() {
        let s = sel("SELECT * FROM books b, reviews r WHERE b.isbn = r.isbn \
             CURRENCY BOUND 10 MIN ON (b, r)");
        let c = s.currency.unwrap();
        assert_eq!(c.specs.len(), 1);
        assert_eq!(c.specs[0].bound, Duration::from_mins(10));
        assert_eq!(c.specs[0].tables, vec!["b".to_string(), "r".to_string()]);
        assert!(c.specs[0].by.is_empty());
    }

    #[test]
    fn currency_clause_multiple_specs() {
        let s = sel("SELECT * FROM books b, reviews r WHERE b.isbn = r.isbn \
             CURRENCY BOUND 10 MIN ON (b), 30 MIN ON (r)");
        let c = s.currency.unwrap();
        assert_eq!(c.specs.len(), 2);
        assert_eq!(c.specs[1].bound, Duration::from_mins(30));
        assert_eq!(c.specs[1].tables, vec!["r".to_string()]);
    }

    #[test]
    fn currency_clause_with_by_grouping() {
        let s = sel("SELECT * FROM books b, reviews r WHERE b.isbn = r.isbn \
             CURRENCY BOUND 10 MIN ON (b, r) BY b.isbn");
        let c = s.currency.unwrap();
        assert_eq!(
            c.specs[0].by,
            vec![(Some("b".to_string()), "isbn".to_string())]
        );
    }

    #[test]
    fn currency_units() {
        for (sql, want) in [
            ("5 SEC", Duration::from_secs(5)),
            ("5 SECONDS", Duration::from_secs(5)),
            ("2 HOURS", Duration::from_hours(2)),
            ("250 MS", Duration::from_millis(250)),
            ("1 MINUTE", Duration::from_mins(1)),
        ] {
            let s = sel(&format!("SELECT * FROM t CURRENCY BOUND {sql} ON (t)"));
            assert_eq!(s.currency.unwrap().specs[0].bound, want, "{sql}");
        }
    }

    #[test]
    fn fractional_duration() {
        let s = sel("SELECT * FROM t CURRENCY BOUND 1.5 SEC ON (t)");
        assert_eq!(
            s.currency.unwrap().specs[0].bound,
            Duration::from_millis(1500)
        );
    }

    #[test]
    fn subquery_in_from_with_own_currency() {
        // paper Q2 (Sec 2.2)
        let s = sel("SELECT t.isbn, t.title, s.discount FROM \
             (SELECT b.isbn, b.title FROM books b, reviews r WHERE b.isbn = r.isbn \
              CURRENCY BOUND 10 MIN ON (b, r)) t, sales s \
             WHERE t.isbn = s.isbn CURRENCY BOUND 5 MIN ON (s, t)");
        assert!(s.currency.is_some());
        match &s.from[0] {
            TableRef::Subquery { query, alias } => {
                assert_eq!(alias, "t");
                assert!(query.currency.is_some());
            }
            other => panic!("expected subquery, got {other:?}"),
        }
    }

    #[test]
    fn exists_subquery_with_currency() {
        // paper Q3 (Sec 2.2)
        let s = sel(
            "SELECT b.title FROM books b, reviews r WHERE b.isbn = r.isbn AND \
             EXISTS (SELECT * FROM sales s WHERE s.isbn = b.isbn \
                     CURRENCY BOUND 10 MIN ON (s, b)) \
             CURRENCY BOUND 10 MIN ON (b, r)",
        );
        let filter = s.filter.unwrap();
        let mut found = false;
        filter.visit(&mut |e| {
            if let Expr::Exists { subquery, .. } = e {
                assert!(subquery.currency.is_some());
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn joins_explicit_and_implicit() {
        let s = sel("SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y");
        assert_eq!(s.from.len(), 1);
        assert!(matches!(&s.from[0], TableRef::Join { .. }));
        let s = sel("SELECT * FROM a, b WHERE a.x = b.x");
        assert_eq!(s.from.len(), 2);
    }

    #[test]
    fn group_having_order_limit() {
        let s = sel("SELECT o_custkey, COUNT(*), SUM(o_totalprice) FROM orders \
             GROUP BY o_custkey HAVING COUNT(*) > 5 ORDER BY o_custkey DESC LIMIT 10");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 1);
        assert!(!s.order_by[0].1, "DESC");
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn between_and_in() {
        let s =
            sel("SELECT * FROM c WHERE c_acctbal BETWEEN $a AND $b AND c_nationkey IN (1, 2, 3)");
        let f = s.filter.unwrap();
        let mut saw_between = false;
        let mut saw_in = false;
        f.visit(&mut |e| match e {
            Expr::Between { .. } => saw_between = true,
            Expr::InList { list, .. } => {
                saw_in = true;
                assert_eq!(list.len(), 3);
            }
            _ => {}
        });
        assert!(saw_between && saw_in);
    }

    #[test]
    fn not_between() {
        let s = sel("SELECT * FROM c WHERE x NOT BETWEEN 1 AND 2");
        let mut neg = false;
        s.filter.unwrap().visit(&mut |e| {
            if let Expr::Between { negated, .. } = e {
                neg = *negated;
            }
        });
        assert!(neg);
    }

    #[test]
    fn in_subquery() {
        let s = sel("SELECT * FROM c WHERE c_custkey IN (SELECT o_custkey FROM orders)");
        let mut ok = false;
        s.filter.unwrap().visit(&mut |e| {
            if matches!(e, Expr::InSubquery { .. }) {
                ok = true;
            }
        });
        assert!(ok);
    }

    #[test]
    fn operator_precedence() {
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match s.filter.unwrap() {
            Expr::Binary {
                op: BinaryOp::Or,
                right,
                ..
            } => {
                assert!(matches!(
                    *right,
                    Expr::Binary {
                        op: BinaryOp::And,
                        ..
                    }
                ));
            }
            other => panic!("wrong precedence: {other:?}"),
        }
        let s = sel("SELECT 1 + 2 * 3 x");
        match &s.projections[0] {
            SelectItem::Expr {
                expr:
                    Expr::Binary {
                        op: BinaryOp::Add,
                        right,
                        ..
                    },
                ..
            } => {
                assert!(matches!(
                    **right,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("wrong precedence: {other:?}"),
        }
    }

    #[test]
    fn negative_literals_folded() {
        let s = sel("SELECT -5, -2.5 FROM t");
        match &s.projections[0] {
            SelectItem::Expr {
                expr: Expr::Literal(Value::Int(-5)),
                ..
            } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcards() {
        let s = sel("SELECT *, b.* FROM books b");
        assert_eq!(s.projections[0], SelectItem::Wildcard);
        assert_eq!(s.projections[1], SelectItem::QualifiedWildcard("b".into()));
    }

    #[test]
    fn ddl_create_table() {
        let stmt = parse_statement(
            "CREATE TABLE customer (c_custkey INT, c_name VARCHAR(25), c_acctbal FLOAT, \
             PRIMARY KEY (c_custkey))",
        )
        .unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => {
                assert_eq!(name, "customer");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[1].1, DataType::Str);
                assert_eq!(primary_key, vec!["c_custkey".to_string()]);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_statement("CREATE TABLE t (a INT)").is_err(),
            "PK required"
        );
    }

    #[test]
    fn ddl_create_index_and_view() {
        let stmt = parse_statement("CREATE INDEX ix_bal ON customer (c_acctbal)").unwrap();
        assert!(matches!(stmt, Statement::CreateIndex { .. }));
        let stmt = parse_statement(
            "CREATE CACHED VIEW cust_prj REGION cr1 AS \
             SELECT c_custkey, c_name FROM customer",
        )
        .unwrap();
        match stmt {
            Statement::CreateCachedView {
                name,
                region,
                query,
            } => {
                assert_eq!(name, "cust_prj");
                assert_eq!(region, "cr1");
                assert_eq!(query.projections.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dml() {
        let stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            Statement::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns, vec!["a".to_string(), "b".to_string()]);
            }
            other => panic!("{other:?}"),
        }
        let stmt = parse_statement("UPDATE t SET a = a + 1 WHERE b = 2").unwrap();
        assert!(matches!(stmt, Statement::Update { .. }));
        let stmt = parse_statement("DELETE FROM t WHERE a = 1").unwrap();
        assert!(matches!(stmt, Statement::Delete { .. }));
    }

    #[test]
    fn ddl_create_region() {
        let stmt = parse_statement("CREATE REGION shop INTERVAL 10 SEC DELAY 2 SEC").unwrap();
        match stmt {
            Statement::CreateRegion {
                name,
                interval,
                delay,
            } => {
                assert_eq!(name, "shop");
                assert_eq!(interval, Duration::from_secs(10));
                assert_eq!(delay, Duration::from_secs(2));
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_statement("CREATE REGION r INTERVAL 10 SEC").is_err(),
            "DELAY required"
        );
        // round-trips through the unparser
        let sql = crate::unparse::statement_sql(
            &parse_statement("CREATE REGION r INTERVAL 1 MIN DELAY 5 SEC").unwrap(),
        );
        assert!(parse_statement(&sql).is_ok(), "{sql}");
    }

    #[test]
    fn ddl_drop_cached_view() {
        let stmt = parse_statement("DROP CACHED VIEW v").unwrap();
        assert_eq!(stmt, Statement::DropCachedView { name: "v".into() });
        assert!(parse_statement("DROP VIEW v").is_err(), "CACHED required");
    }

    #[test]
    fn timeordered_brackets() {
        assert_eq!(
            parse_statement("BEGIN TIMEORDERED").unwrap(),
            Statement::BeginTimeordered
        );
        assert_eq!(
            parse_statement("END TIMEORDERED;").unwrap(),
            Statement::EndTimeordered
        );
    }

    #[test]
    fn multiple_statements() {
        let stmts = parse_statements("SELECT 1 x; SELECT 2 y;").unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn errors_have_positions() {
        let err = parse_statement("SELECT FROM").unwrap_err();
        assert!(matches!(err, Error::Parse { .. }));
        assert!(parse_statement("SELECT * FROM t WHERE").is_err());
        assert!(
            parse_statement("SELECT * FROM t CURRENCY 5 MIN ON (t)").is_err(),
            "BOUND required"
        );
        assert!(parse_statement("SELECT * FROM t CURRENCY BOUND 5 FORTNIGHTS ON (t)").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT 1 x extra garbage !!!").is_err());
    }

    #[test]
    fn aggregate_keywords_usable_as_idents() {
        let s = sel("SELECT count FROM t WHERE min > 3");
        assert!(matches!(
            &s.projections[0],
            SelectItem::Expr { expr: Expr::Column { name, .. }, .. } if name == "count"
        ));
    }

    #[test]
    fn getdate_call() {
        let s = sel("SELECT * FROM hb WHERE ts > GETDATE() - 5000");
        let mut ok = false;
        s.filter.unwrap().visit(&mut |e| {
            if let Expr::Function {
                name, star, args, ..
            } = e
            {
                if name == "getdate" && !star && args.is_empty() {
                    ok = true;
                }
            }
        });
        assert!(ok);
    }
}
