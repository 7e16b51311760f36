//! Negative-path parser tests for the currency clause: malformed clauses
//! must fail with positioned, actionable errors — not panic, not parse to
//! something surprising.

use rcc_common::Error;
use rcc_sql::parse_statement;

fn parse_err(sql: &str) -> String {
    match parse_statement(sql) {
        Err(e) => {
            // the shape path, which every served `SELECT` takes, reports
            // the very same error
            let no_params = std::collections::HashMap::new();
            if rcc_sql::shape(sql, &no_params).is_some() {
                assert_eq!(
                    rcc_sql::parse_shape(sql, &no_params),
                    Err(e.clone()),
                    "{sql:?}"
                );
            }
            e.to_string()
        }
        Ok(stmt) => panic!("expected a parse error for {sql:?}, got {stmt:?}"),
    }
}

#[test]
fn duplicate_by_column_rejected() {
    let msg = parse_err(
        "SELECT c_name FROM customer c \
         CURRENCY BOUND 10 MIN ON (c) BY c.c_custkey, c.c_custkey",
    );
    assert!(msg.contains("duplicate BY column"), "{msg}");
    assert!(msg.contains("c.c_custkey"), "{msg}");
}

#[test]
fn duplicate_unqualified_by_column_rejected() {
    let msg = parse_err(
        "SELECT c_name FROM customer \
         CURRENCY BOUND 10 MIN ON (customer) BY c_custkey, c_custkey",
    );
    assert!(msg.contains("duplicate BY column"), "{msg}");
}

#[test]
fn empty_consistency_class_rejected() {
    let msg = parse_err("SELECT c_name FROM customer CURRENCY BOUND 10 MIN ON ()");
    assert!(msg.contains("empty consistency class"), "{msg}");
}

#[test]
fn bound_overflow_rejected() {
    // i64 milliseconds overflow: must be a parse error, not a panic or a
    // silently wrapped bound.
    let msg = parse_err(
        "SELECT c_name FROM customer \
         CURRENCY BOUND 99999999999999999 HOUR ON (customer)",
    );
    assert!(msg.contains("overflows"), "{msg}");
}

#[test]
fn huge_but_valid_bound_accepted() {
    parse_statement("SELECT c_name FROM customer CURRENCY BOUND 1000000 HOUR ON (customer)")
        .expect("a large in-range bound must parse");
}

#[test]
fn clause_in_non_final_position_rejected() {
    // The clause scopes like WHERE but must come last in its block; a
    // GROUP BY after it is trailing input.
    let msg = parse_err(
        "SELECT c_nationkey FROM customer \
         CURRENCY BOUND 10 MIN ON (customer) GROUP BY c_nationkey",
    );
    assert!(msg.contains("trailing input"), "{msg}");
}

#[test]
fn clause_before_where_rejected() {
    let msg = parse_err(
        "SELECT c_name FROM customer \
         CURRENCY BOUND 10 MIN ON (customer) WHERE c_custkey = 1",
    );
    assert!(msg.contains("trailing input"), "{msg}");
}

#[test]
fn parse_errors_carry_line_and_column() {
    let err = match parse_statement("SELECT c_name FROM customer\n  CURRENCY BOUND 10 MIN ON ()") {
        Err(e) => e,
        Ok(s) => panic!("expected error, got {s:?}"),
    };
    match err {
        Error::Parse { line, col, .. } => {
            assert_eq!(line, 2, "{err}");
            assert!(col > 1, "{err}");
        }
        other => panic!("expected Error::Parse, got {other:?}"),
    }
    assert!(err.to_string().contains("line 2"), "{err}");
}

#[test]
fn lint_requires_select() {
    let msg = parse_err("LINT INSERT INTO t (a) VALUES (1)");
    assert!(msg.contains("LINT expects a SELECT"), "{msg}");
}
