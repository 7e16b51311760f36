//! The Layer-1 currency-clause lint over two deterministic corpora, on the
//! audit catalog (`rcc_verify::rig::audit_catalog`, scale 0.01, seed 7):
//!
//! * every query of `rcc_tpcd::currency_corpus` lints clean apart from
//!   `L007` — the generator draws bounds on both sides of the regions'
//!   healthy-replication envelopes to exercise local and remote plan
//!   shapes, so statically-dead-guard advisories are expected there; any
//!   *other* diagnostic is a false positive;
//! * every query of `rcc_tpcd::adversarial_lint_corpus` yields *exactly*
//!   its expected sorted code set — a missed or spurious code fails.

use rcc_catalog::Catalog;
use rcc_lint::{codes, lint_select};
use rcc_sql::ast::{SelectStmt, Statement};
use std::sync::Arc;

const QUERIES: usize = 250;
const SEED: u64 = 7;

fn catalog() -> Arc<Catalog> {
    rcc_verify::rig::audit_catalog(0.01, SEED).unwrap().0
}

fn parse(sql: &str) -> Box<SelectStmt> {
    match rcc_sql::parser::parse_statement(sql) {
        Ok(Statement::Select(s)) | Ok(Statement::Lint(s)) => s,
        other => panic!("not a query: {other:?}\n  {sql}"),
    }
}

#[test]
fn generated_corpus_lints_clean_apart_from_dead_guards() {
    let catalog = catalog();
    let max_custkey = catalog.stats("customer").row_count.max(1) as i64;
    let corpus = rcc_tpcd::currency_corpus(QUERIES, SEED, max_custkey);
    assert_eq!(corpus.len(), QUERIES);
    let false_positives: Vec<String> = corpus
        .iter()
        .flat_map(|sql| {
            let diags = lint_select(&catalog, &parse(sql));
            diags
                .into_iter()
                .filter(|d| d.code != codes::DEAD_GUARD)
                .map(move |d| format!("{sql}\n  {d}"))
        })
        .collect();
    assert!(
        false_positives.is_empty(),
        "false positives:\n{}",
        false_positives.join("\n")
    );
}

#[test]
fn adversarial_corpus_yields_exactly_its_expected_codes() {
    let catalog = catalog();
    let mismatches: Vec<String> = rcc_tpcd::adversarial_lint_corpus()
        .into_iter()
        .filter_map(|(sql, expected)| {
            let mut got: Vec<&str> = lint_select(&catalog, &parse(sql))
                .iter()
                .map(|d| d.code)
                .collect();
            got.sort_unstable();
            (got != expected).then(|| format!("{sql}\n  expected {expected:?}, got {got:?}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
