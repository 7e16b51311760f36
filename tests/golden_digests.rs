//! Golden result digests: the executor's *output*, frozen.
//!
//! The row reference engine (`rcc_executor::rowref`) has been the oracle
//! the vectorized engine is held byte-identical to. This test freezes what
//! the two agree on instead: one digest per run — row count plus CRC-32 of
//! the wire's row payload (header excluded, so the type tags a result is
//! described with can change without touching this file) — for the whole
//! `currency_corpus` of the full identity sweep in both SwitchUnion pull-up
//! modes, plus the three `scan_mix` shapes of the benchmark, on the paper
//! rig at scale 0.01. An executor change that alters a single delivered
//! byte fails here, with the statement named; once that is the oracle, the
//! second engine is no longer needed as one.
//!
//! To regenerate `golden_digests.txt` after a *deliberate* change of
//! results (new data generator, new corpus):
//! `cargo test -p rcc-mtcache --test golden_digests -- --ignored --nocapture`
//! prints the file.

use rcc_common::{Row, Schema};
use rcc_executor::wire;
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_storage::codec::crc32;

const SCALE: f64 = 0.01;
const DATA_SEED: u64 = 42;
/// The full identity sweep's corpus: 160 statements, seed 7.
const CORPUS: usize = 160;
const CORPUS_SEED: u64 = 7;
const GOLDEN: &str = include_str!("golden_digests.txt");

/// The benchmark's three `scan_mix` shapes, at fixed parameters.
const SCAN_MIX: [&str; 3] = [
    "SELECT c_custkey, c_name, c_acctbal FROM customer \
     WHERE c_acctbal BETWEEN 1000 AND 2400 CURRENCY BOUND 60 SEC ON (customer)",
    "SELECT c.c_custkey, o.o_orderkey, o.o_totalprice FROM customer c, orders o \
     WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 180 \
     CURRENCY BOUND 60 SEC ON (c), 60 SEC ON (o)",
    "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer \
     WHERE c_custkey >= 17 GROUP BY c_nationkey CURRENCY BOUND 60 SEC ON (customer)",
];

/// Row count and CRC-32 of the wire encoding's row payload: everything
/// after the header (`u32` column count, then per column a `u16` name
/// length, the name and a type tag).
fn digest(schema: &Schema, rows: &[Row]) -> String {
    let bytes = wire::encode_result(schema, rows);
    let header = 4 + schema
        .columns()
        .iter()
        .map(|c| 2 + c.name.len() + 1)
        .sum::<usize>();
    format!("rows={} crc={:08x}", rows.len(), crc32(&bytes[header..]))
}

/// Every run of the sweep as `(label, statement, pull-up mode)`, in file
/// order.
fn runs() -> Vec<(String, String, bool)> {
    let max_custkey = ((150_000.0 * SCALE) as i64).max(2);
    let corpus = rcc_tpcd::currency_corpus(CORPUS, CORPUS_SEED, max_custkey);
    let mut out = Vec::new();
    for pullup in [false, true] {
        for (i, sql) in corpus.iter().enumerate() {
            out.push((
                format!("corpus pullup={pullup} {i:03}"),
                sql.clone(),
                pullup,
            ));
        }
        for (i, sql) in SCAN_MIX.iter().enumerate() {
            out.push((
                format!("scan_mix pullup={pullup} {i}"),
                sql.to_string(),
                pullup,
            ));
        }
    }
    out
}

fn replay() -> Vec<(String, String, String)> {
    let cache = paper_setup(SCALE, DATA_SEED).expect("paper rig");
    warm_up(&cache).expect("warm up");
    let mut lines = Vec::new();
    for (label, sql, pullup) in runs() {
        cache.set_pullup_switch_union(pullup);
        let result = cache
            .execute(&sql)
            .unwrap_or_else(|e| panic!("{label}: {sql}: {e}"));
        lines.push((label, digest(&result.schema, &result.rows), sql));
    }
    lines
}

#[test]
fn results_match_the_committed_digests() {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let replayed = replay();
    assert_eq!(
        replayed.len(),
        golden.len(),
        "the sweep has {} runs, the file {} digests",
        replayed.len(),
        golden.len()
    );
    let mut differing = Vec::new();
    for ((label, digest, sql), want) in replayed.iter().zip(&golden) {
        let got = format!("{label} {digest}");
        if got != *want {
            differing.push(format!("  got  {got}\n  want {want}\n       {sql}"));
        }
    }
    assert!(
        differing.is_empty(),
        "{} of {} results differ from tests/golden_digests.txt:\n{}",
        differing.len(),
        golden.len(),
        differing.join("\n")
    );
    // not vacuous: the sweep returns rows, many of them
    let total: usize = golden
        .iter()
        .filter_map(|l| {
            l.split("rows=")
                .nth(1)?
                .split(' ')
                .next()?
                .parse::<usize>()
                .ok()
        })
        .sum();
    assert!(total > 10_000, "only {total} rows in the whole sweep");
}

/// Prints the golden file for the current engine (see the module docs).
#[test]
#[ignore = "prints tests/golden_digests.txt; run by hand to regenerate it"]
fn print_golden_digests() {
    println!(
        "# One line per run: paper rig at scale {SCALE} (data seed {DATA_SEED}), \
         currency_corpus({CORPUS}, {CORPUS_SEED}) and the\n\
         # three scan_mix shapes, in both pull-up modes. rows = result rows, crc = \
         CRC-32 of the wire\n# encoding's row payload (header excluded). \
         Regenerate: see tests/golden_digests.rs."
    );
    for (label, digest, _) in replay() {
        println!("{label} {digest}");
    }
}
