//! End-to-end Layer-1 lint surfaces: the `LINT` statement, the
//! compile-time hook that attaches diagnostics as result warnings (served
//! and `EXPLAIN ANALYZE` results alike), and the per-code diagnostics
//! counter.

use rcc_common::Value;
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_mtcache::{MTCache, QueryResult};
use std::collections::HashMap;

fn rig() -> MTCache {
    let cache = paper_setup(0.001, 7).unwrap();
    warm_up(&cache).unwrap();
    cache
}

#[test]
fn lint_statement_reports_diagnostics_as_rows() {
    let cache = rig();
    let r = cache
        .execute(
            "LINT SELECT c_acctbal FROM customer \
             CURRENCY BOUND 15 SEC ON (customer), 5 SEC ON (customer)",
        )
        .unwrap();
    assert_eq!(r.schema.columns().len(), 4);
    assert_eq!(r.rows.len(), 1, "one L001 diagnostic expected: {r:?}");
    let code = r.rows[0].values()[0].to_string();
    assert!(code.contains("L001"), "{code}");
    assert!(r.warnings[0].contains("1 diagnostic"), "{:?}", r.warnings);
}

#[test]
fn lint_statement_clean_query_returns_no_rows() {
    let cache = rig();
    let r = cache
        .execute(
            "LINT SELECT c_acctbal FROM customer c WHERE c.c_custkey = 5 \
             CURRENCY BOUND 15 SEC ON (c) BY c.c_custkey",
        )
        .unwrap();
    assert!(r.rows.is_empty(), "{:?}", r.rows);
    assert!(r.warnings[0].contains("lint clean"), "{:?}", r.warnings);
}

#[test]
fn compile_attaches_lint_warnings_and_bumps_metric() {
    let cache = rig();
    let before = cache.metrics().snapshot();
    assert_eq!(
        before.counter("rcc_lint_diagnostics_total{code=\"L001\"}"),
        0
    );

    // The query still executes — lint warns, never blocks.
    let sql = "SELECT c_acctbal FROM customer WHERE c_custkey = 5 \
               CURRENCY BOUND 10 SEC ON (customer), 15 SEC ON (customer)";
    let r = cache.execute(sql).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert!(
        r.warnings.iter().any(|w| w.contains("L001")),
        "compile-time lint warning expected: {:?}",
        r.warnings
    );

    let after = cache.metrics().snapshot();
    assert_eq!(
        after.counter("rcc_lint_diagnostics_total{code=\"L001\"}"),
        1
    );

    // Plan-cache hit: the cached plan still carries its warnings, but the
    // lint pass (and counter) does not re-run.
    let r2 = cache.execute(sql).unwrap();
    assert!(r2.warnings.iter().any(|w| w.contains("L001")));
    let cached = cache.metrics().snapshot();
    assert_eq!(
        cached.counter("rcc_lint_diagnostics_total{code=\"L001\"}"),
        1,
        "cache hits must not re-lint"
    );
}

#[test]
fn a_warning_served_from_a_cached_shape_points_into_the_text_at_hand() {
    let cache = rig();
    let text = |name: &str| {
        format!(
            "SELECT c_acctbal FROM customer\n WHERE c_custkey = 5 AND c_name = {name} \
             CURRENCY BOUND 10 SEC ON (customer), 15 SEC ON (customer)"
        )
    };
    let (short, long, broken) = (text("'a'"), text("'a longer name'"), text("'two\nlines'"));
    // what `LINT` says of each text, parsed as it stands
    let standing = |sql: &String| {
        let r = cache.execute(&format!("LINT {sql}")).unwrap();
        match &r.rows[0].values()[1] {
            Value::Str(position) => format!("[{position}]"),
            other => panic!("{other:?}"),
        }
    };
    let standing = [&short, &long, &broken].map(standing);
    assert_eq!(standing[0], "[2:76]");
    assert_eq!(standing[2], "[3:45]");
    let counted = |cache: &MTCache| {
        let now = cache.metrics().snapshot();
        now.counter("rcc_lint_diagnostics_total{code=\"L001\"}")
    };
    let before = (counted(&cache), cache.plan_cache().stats());

    let lint = |sql: &str| {
        let r = cache.execute(sql).unwrap();
        let w = r.warnings.iter().find(|w| w.contains("L001"));
        w.unwrap_or_else(|| panic!("{:?}", r.warnings)).clone()
    };
    let first = lint(&short);
    assert!(first.contains(&standing[0]), "{first}");
    // the same plan, a wider literal: the clause stands further right
    let later = lint(&long);
    assert!(later.contains(&standing[1]), "{later}");
    assert_ne!(first, later);
    // ... or further down
    let down = lint(&broken);
    assert!(down.contains(&standing[2]), "{down}");
    // and the text that compiled the plan reads as it did
    assert_eq!(lint(&short), first);
    // one shape, compiled and linted once
    let (hits, misses) = before.1;
    assert_eq!(cache.plan_cache().stats(), (hits + 3, misses + 1));
    assert_eq!(counted(&cache), before.0 + 1);
}

#[test]
fn explain_analyze_carries_the_lint_warnings_of_the_plain_select() {
    let cache = rig();
    // the clause on a line of its own stands at the same line:col under
    // the prefix
    let sql = "SELECT c_acctbal FROM customer WHERE c_custkey = 5\n\
               CURRENCY BOUND 0 SEC ON (customer)";
    let lint = |r: QueryResult| -> Vec<String> {
        let lint = r.warnings.into_iter().filter(|w| w.starts_with("lint:"));
        lint.collect()
    };
    let plain = lint(cache.execute(sql).unwrap());
    assert!(plain.iter().any(|w| w.contains("L005")), "{plain:?}");
    let analyzed = cache.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    assert!(analyzed.plan_explain().contains("actual rows="));
    assert_eq!(lint(analyzed), plain);
    let structured = cache.explain_analyze(sql, &HashMap::new()).unwrap();
    assert_eq!(lint(structured), plain);
}

#[test]
fn clean_queries_execute_without_lint_warnings() {
    let cache = rig();
    let r = cache
        .execute(
            "SELECT c_acctbal FROM customer WHERE c_custkey = 5 \
             CURRENCY BOUND 15 SEC ON (customer)",
        )
        .unwrap();
    assert!(
        !r.warnings.iter().any(|w| w.starts_with("lint:")),
        "{:?}",
        r.warnings
    );
}
