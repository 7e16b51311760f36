//! The lexical shape pass is exact and hostile-input safe: for any text,
//! parsing the shape key and putting the slot values back gives the parse
//! of the original text node for node — currency-spec positions included —
//! and whatever the parser rejects is rejected through the shape with the
//! same typed error. Never a panic.

use proptest::prelude::*;
use rcc_common::Value;
use rcc_sql::{
    parse_shape, parse_statement, shape, Expr, SelectItem, SelectStmt, Statement, TableRef,
};
use std::collections::HashMap;

/// Replace every parameter `value_of` knows by its value.
fn fill(stmt: &mut SelectStmt, value_of: &impl Fn(&str) -> Option<Value>) {
    for item in &mut stmt.projections {
        if let SelectItem::Expr { expr, .. } = item {
            fill_expr(expr, value_of);
        }
    }
    for t in &mut stmt.from {
        fill_table(t, value_of);
    }
    let exprs = stmt
        .filter
        .iter_mut()
        .chain(&mut stmt.group_by)
        .chain(&mut stmt.having)
        .chain(stmt.order_by.iter_mut().map(|(e, _)| e));
    for e in exprs {
        fill_expr(e, value_of);
    }
}

fn fill_table(t: &mut TableRef, value_of: &impl Fn(&str) -> Option<Value>) {
    match t {
        TableRef::Named { .. } => {}
        TableRef::Subquery { query, .. } => fill(query, value_of),
        TableRef::Join { left, right, on } => {
            fill_table(left, value_of);
            fill_table(right, value_of);
            fill_expr(on, value_of);
        }
    }
}

fn fill_expr(e: &mut Expr, value_of: &impl Fn(&str) -> Option<Value>) {
    match e {
        Expr::Parameter(p) => {
            if let Some(v) = value_of(p) {
                *e = Expr::Literal(v);
            }
        }
        Expr::Column { .. } | Expr::Literal(_) => {}
        Expr::Binary { left, right, .. } => {
            fill_expr(left, value_of);
            fill_expr(right, value_of);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => fill_expr(expr, value_of),
        Expr::Function { args, .. } => args.iter_mut().for_each(|a| fill_expr(a, value_of)),
        Expr::Exists { subquery, .. } => fill(subquery, value_of),
        Expr::InSubquery { expr, subquery, .. } => {
            fill_expr(expr, value_of);
            fill(subquery, value_of);
        }
        Expr::InList { expr, list, .. } => {
            fill_expr(expr, value_of);
            list.iter_mut().for_each(|a| fill_expr(a, value_of));
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            fill_expr(expr, value_of);
            fill_expr(low, value_of);
            fill_expr(high, value_of);
        }
    }
}

/// The property, on one text. Returns how many slots it had.
fn check(sql: &str, params: &HashMap<String, Value>) -> usize {
    let direct = parse_statement(sql);
    let Some(shape) = shape(sql, params) else {
        assert!(
            !matches!(direct, Ok(Statement::Select(_))),
            "a SELECT without a shape: {sql:?}"
        );
        return 0;
    };
    match (direct, parse_shape(sql, params)) {
        (Err(a), Err(b)) => assert_eq!(a, b, "{sql:?}"),
        (Ok(Statement::Select(mut a)), Ok(mut b)) => {
            fill(&mut a, &|p| params.get(p).cloned());
            fill(&mut b, &|p| match p.strip_prefix('?') {
                Some(n) => Some(shape.values[n.parse::<usize>().expect("a slot number")].clone()),
                None => params.get(p).cloned(),
            });
            assert_eq!(*a, b, "{sql:?} through {:?}", shape.key);
        }
        (a, b) => panic!("{sql:?}: {a:?} directly, {b:?} through {:?}", shape.key),
    }
    shape.values.len()
}

fn no_params() -> HashMap<String, Value> {
    HashMap::new()
}

#[test]
fn hand_cases() {
    let params = HashMap::from([
        ("k".to_string(), Value::Int(7)),
        ("f".to_string(), Value::Float(-0.5)),
        ("s".to_string(), Value::from("it's")),
        ("n".to_string(), Value::Null),
        ("b".to_string(), Value::Bool(true)),
    ]);
    let slotted = [
        ("SELECT x FROM t WHERE a > -5", 1),
        ("SELECT x FROM t WHERE a > b -5", 0),
        ("SELECT x FROM t WHERE a > - -5", 0),
        ("SELECT x FROM t WHERE a > -5 + 3 * -2", 1),
        ("SELECT x FROM t WHERE a = 'it''s'", 1),
        ("SELECT x FROM t WHERE a = 1e3", 1),
        ("SELECT x FROM t WHERE a = 9223372036854775808", 0),
        ("SELECT x FROM t WHERE a = -9223372036854775808", 0),
        ("SELECT x FROM t WHERE a = 9223372036854775807", 1),
        ("SELECT x FROM t WHERE a = 'unterminated", 0),
        ("SELECT x FROM t WHERE a = 5 AND b = 'unterminated", 1),
        ("SELECT x FROM t -- WHERE a = 5\n WHERE b = 6", 1),
        ("SELECT x FROM t WHERE a = -- 7\n 5", 1),
        ("SELECT x FROM t WHERE a BETWEEN 1 AND 2 AND b = 3", 3),
        ("SELECT x FROM t WHERE a NOT BETWEEN -1.5 AND .5", 2),
        ("SELECT x FROM t WHERE a BETWEEN (1) AND 2", 0),
        ("SELECT x FROM t WHERE a BETWEEN 1 OR 2", 1),
        ("SELECT x FROM t WHERE a = 5 5", 1),
        ("SELECT x FROM t WHERE a = 5.5.5", 1),
        ("SELECT x FROM t WHERE a != 5 OR NOT a <> 6", 2),
        ("SELECT x FROM t WHERE a = 5;", 1),
        ("SELECT x FROM t WHERE a = 5; SELECT 1", 1),
        ("SELECT x FROM t WHERE a = ?0i", 0),
        ("SELECT x FROM t WHERE a = '?0i' AND b = 2", 2),
        ("SELECT x FROM t WHERE a = é", 0),
        ("SELECT x FROM t WHERE a = 'é' AND b = 2", 2),
        ("SELECT a = 5, b FROM t ORDER BY 1 LIMIT 3", 1),
        (
            "SELECT x FROM t JOIN u ON t.a = u.a AND u.b >= 10 WHERE t.c < 3",
            2,
        ),
        (
            "SELECT x FROM t WHERE a IN (SELECT y FROM u WHERE z > 4 \
             CURRENCY BOUND 5 SEC ON (u)) AND b = 2 CURRENCY BOUND 10 MIN ON (t) BY t.a",
            2,
        ),
        (
            "SELECT x FROM (SELECT y AS x FROM u WHERE z = 1) q WHERE x > 2",
            2,
        ),
        (
            "SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 5",
            1,
        ),
        ("SELECT x FROM t WHERE a = $k AND b = $K AND c = -$f", 2),
        ("SELECT $s, $n FROM t WHERE a = $b AND b = $missing", 3),
        ("SELECT x FROM t WHERE a = $", 0),
        ("select\tx\nfrom t\r\nwhere a=5and b<6", 2),
        (
            "SELECT x FROM t WHERE a = 5 CURRENCY BOUND 10 MIN ON (t)\n  , 5 SEC ON ()",
            1,
        ),
    ];
    for (sql, slots) in slotted {
        assert_eq!(check(sql, &params), slots, "{sql:?}");
    }
    let many: Vec<String> = (0..70).map(|i| format!("a{i} >= -{i}")).collect();
    let sql = format!("SELECT x FROM t WHERE {}", many.join(" AND "));
    assert_eq!(check(&sql, &no_params()), 70);
}

#[test]
fn the_currency_corpus() {
    let mut slots = 0;
    for sql in rcc_tpcd::currency_corpus(160, 7, 1500) {
        slots += check(&sql, &no_params());
    }
    assert!(slots >= 160, "only {slots} slots in the whole corpus");
}

#[test]
fn positions_point_into_the_original_text() {
    // the clause sits where it sits in what the client sent, whatever the
    // markers before it did to the key's length
    for sql in [
        "SELECT x FROM t WHERE a = 5 CURRENCY BOUND 10 SEC ON (t)",
        "SELECT x FROM t WHERE a = 123456789 AND b = 'long string'\n CURRENCY BOUND 10 SEC ON (t)",
    ] {
        let Ok(Statement::Select(direct)) = parse_statement(sql) else {
            panic!("{sql}")
        };
        let through = parse_shape(sql, &no_params()).unwrap();
        let at = |s: &SelectStmt| {
            let spec = &s.currency.as_ref().unwrap().specs[0];
            (spec.line, spec.col)
        };
        assert_eq!(at(&direct), at(&through), "{sql}");
        assert!(at(&direct).1 > 1);
    }
}

/// One operand of a comparison: columns, literals in every spelling the
/// lexer has, the minus forms, parameters, and some arithmetic.
fn operand() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("a"),
        Just("t.b"),
        Just("5"),
        Just("0"),
        Just("-5"),
        Just("- 5"),
        Just("- -5"),
        Just("-a"),
        Just("b -5"),
        Just("1.5"),
        Just("-.5"),
        Just("5."),
        Just("1e3"),
        Just("9223372036854775807"),
        Just("9223372036854775808"),
        Just("'x'"),
        Just("'it''s'"),
        Just("-'x'"),
        Just("(5)"),
        Just("5 + 3"),
        Just("-5 * a"),
        Just("$k"),
        Just("$K"),
        Just("-$k"),
        Just("$missing"),
        Just("NULL"),
        Just("GETDATE() - 5000"),
        Just("-- c = 5\n 7"),
    ]
}

fn conjunct() -> impl Strategy<Value = String> {
    let op = prop_oneof![
        Just("="),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">="),
        Just("<>"),
        Just("!=")
    ];
    prop_oneof![
        (operand(), op, operand(), 0u8..2).prop_map(|(l, op, r, tight)| if tight == 1 {
            format!("{l}{op}{r}")
        } else {
            format!("{l} {op} {r}")
        }),
        (operand(), operand(), operand(), 0u8..2).prop_map(|(e, lo, hi, not)| format!(
            "{e} {}BETWEEN {lo} AND {hi}",
            if not == 1 { "NOT " } else { "" }
        )),
        (operand(), operand(), operand()).prop_map(|(e, x, y)| format!("{e} IN ({x}, {y})")),
        operand().prop_map(|e| format!("{e} IS NOT NULL")),
    ]
}

/// Things that break a statement, or try to smuggle a marker in.
fn noise() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("'"),
        Just("?"),
        Just("?0i"),
        Just("$"),
        Just("--"),
        Just("é"),
        Just("5"),
        Just("AND"),
        Just("BETWEEN"),
        Just("("),
        Just(";"),
        Just("="),
    ]
}

/// Mostly well-formed statements around the constructs the pass has rules
/// for, with something hostile dropped in now and then.
fn soup() -> impl Strategy<Value = String> {
    let tail = prop_oneof![
        Just(""),
        Just(" ORDER BY 1 LIMIT 3"),
        Just(" GROUP BY a HAVING COUNT(*) > 5"),
        Just(" CURRENCY BOUND 10 SEC ON (t)"),
        Just("\n CURRENCY BOUND 10 MIN ON (t) BY t.a, 5 SEC ON (u)"),
    ];
    let glue = prop_oneof![
        Just(" AND "),
        Just(" AND "),
        Just(" OR "),
        Just(" AND NOT ")
    ];
    (
        proptest::collection::vec((conjunct(), glue, noise(), 0u8..12), 1..5),
        tail,
    )
        .prop_map(|(conjuncts, tail)| {
            let mut sql = String::from("SELECT a = 5, x FROM t WHERE ");
            for (i, (c, glue, noise, dice)) in conjuncts.iter().enumerate() {
                if i > 0 {
                    sql.push_str(glue);
                }
                sql.push_str(c);
                if *dice == 0 {
                    sql.push(' ');
                    sql.push_str(noise);
                }
            }
            sql.push_str(tail);
            sql
        })
}

proptest! {
    // (a handful under Miri, which runs this file too)
    #![proptest_config(ProptestConfig {
        cases: if cfg!(miri) { 32 } else { 4096 },
        ..ProptestConfig::default()
    })]

    #[test]
    fn shape_then_parse_is_parse(sql in soup()) {
        let params = HashMap::from([("k".to_string(), Value::Int(7))]);
        check(&sql, &params);
    }

    #[test]
    fn printable_garbage_never_panics(tail in "[ -~]{0,80}", select in 0u8..2) {
        let sql = if select == 1 { format!("SELECT {tail}") } else { tail };
        check(&sql, &HashMap::new());
    }
}
