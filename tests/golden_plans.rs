//! Golden plans: the optimizer's *choices*, frozen.
//!
//! One line per statement and planning mode — the plan shape
//! ([`PlanChoice`]), the estimated cost and row count as exact bit patterns,
//! and a CRC-32 of the plan's EXPLAIN text — for the whole
//! `currency_corpus` of the identity sweeps in both SwitchUnion pull-up
//! modes, the Table 4.3 statements of `tests/plan_choice.rs` (on the rig
//! with statistics scaled to SF 1.0, where the paper's choices reproduce),
//! the five `point_cold` and three `scan_mix` shapes of the benchmark, and
//! two joins wide enough for the enumerator's pruning and truncation to
//! matter; the hand-written statements are planned in back-end role too,
//! the only role that builds merge joins. A change to the enumerator, the
//! cost formulas, view matching or SQL generation that moves a single
//! choice, estimate or rendered character fails here with the statement
//! named — which makes this file the oracle for any optimizer change that
//! claims to keep every chosen plan what it was.
//!
//! The committed file was generated on the tree-copying enumerator this
//! one replaced (PR 15's parent commit). On six lines — the customer ⋈
//! orders range joins in back-end role, where the two merge-join orders
//! cost the same — that enumerator's answer depended on the process's hash
//! seed; the file holds the one of its two answers that "first generated
//! wins" now always gives.
//!
//! To regenerate `golden_plans.txt` after a *deliberate* change of plans:
//! `cargo test -p rcc-mtcache --test golden_plans -- --ignored --nocapture`
//! prints the file.

use rcc_mtcache::paper::{paper_setup, paper_setup_sf1_stats, warm_up};
use rcc_mtcache::MTCache;
use rcc_optimizer::{bind_select, optimize, OptimizerConfig};
use rcc_sql::{parse_statement, Statement};
use rcc_storage::codec::crc32;
use std::collections::HashMap;

const SCALE: f64 = 0.01;
const DATA_SEED: u64 = 42;
const CORPUS: usize = 160;
const CORPUS_SEED: u64 = 7;
const GOLDEN: &str = include_str!("golden_plans.txt");

/// Table 4.3's Q1–Q7 as `tests/plan_choice.rs` words them.
fn table_4_3() -> Vec<String> {
    let s1 = |k: i64, clause: &str| {
        format!(
            "SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_totalprice \
             FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= {k} {clause}"
        )
    };
    let s2 = |a: f64, b: f64| {
        format!(
            "SELECT c_custkey, c_name, c_acctbal FROM customer \
             WHERE c_acctbal BETWEEN {a} AND {b} CURRENCY BOUND 10 SEC ON (customer)"
        )
    };
    vec![
        s1(10, ""),
        s1(1_500, ""),
        s1(10, "CURRENCY BOUND 10 SEC ON (c, o)"),
        s1(1_500, "CURRENCY BOUND 3 SEC ON (c), 15 SEC ON (o)"),
        s1(1_500, "CURRENCY BOUND 10 SEC ON (c), 15 SEC ON (o)"),
        s2(0.0, 4.0),
        s2(0.0, 1400.0),
    ]
}

/// The benchmark's five `point_cold` shapes, at fixed parameters.
const POINT_COLD: [&str; 5] = [
    "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 77 AND c_acctbal > -1000 \
     CURRENCY BOUND 30 SEC ON (customer)",
    "SELECT c_acctbal FROM customer c WHERE c_custkey = 77 AND c.c_acctbal > -1000 \
     CURRENCY BOUND 1 MIN ON (c) BY c.c_custkey",
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 77 \
     AND o_totalprice > -1000 CURRENCY BOUND 2 MIN ON (orders)",
    "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
     WHERE c.c_custkey = o.o_custkey AND c.c_custkey = 77 AND o.o_totalprice > -1000 \
     CURRENCY BOUND 10 MIN ON (c), 30 SEC ON (o)",
    "SELECT o.o_orderkey FROM orders o, customer c \
     WHERE o.o_custkey = c.c_custkey AND o.o_custkey = 77 \
     AND o.o_totalprice > 4321 AND c.c_acctbal > -1000 \
     CURRENCY BOUND 1 HOUR ON (o), 1 MIN ON (c)",
];

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

/// Five and six operands: more join candidates per subset than the
/// enumerator keeps, a cross-operand residual, a semi join, and classes
/// that leaf-level guards can and cannot satisfy. Every operand's filter
/// differs, so no two sub-plans cost the same.
const WIDE_JOINS: [&str; 2] = [
    "SELECT c1.c_name, o1.o_totalprice, o2.o_orderkey, c2.c_acctbal, o3.o_totalprice \
     FROM customer c1, orders o1, orders o2, customer c2, orders o3 \
     WHERE c1.c_custkey = o1.o_custkey AND c1.c_custkey = o2.o_custkey \
     AND c2.c_custkey = o2.o_custkey AND c2.c_custkey = o3.o_custkey \
     AND c1.c_custkey <= 40 AND o1.o_totalprice > 1000 AND o3.o_totalprice < 90000 \
     CURRENCY BOUND 30 SEC ON (c1), 30 SEC ON (o1), 1 MIN ON (o2), \
     10 MIN ON (c2), 1 HOUR ON (o3)",
    "SELECT c1.c_name, c2.c_name, o1.o_orderkey, o2.o_orderkey, o3.o_totalprice \
     FROM customer c1, customer c2, orders o1, orders o2, orders o3 \
     WHERE c1.c_custkey = o1.o_custkey AND c2.c_custkey = o2.o_custkey \
     AND c1.c_nationkey = c2.c_nationkey AND c2.c_custkey = o3.o_custkey \
     AND c1.c_custkey BETWEEN 10 AND 30 AND c2.c_acctbal > 9000 \
     AND o1.o_totalprice > o2.o_totalprice \
     AND EXISTS (SELECT * FROM orders o4 WHERE o4.o_custkey = c1.c_custkey \
                 AND o4.o_totalprice > 200000) \
     CURRENCY BOUND 1 MIN ON (c1, c2), 2 MIN ON (o1), 2 MIN ON (o2), 10 MIN ON (o3)",
];

/// How a statement is planned.
#[derive(Clone, Copy)]
enum Mode {
    /// Mid-tier cache, with or without SwitchUnion pull-up.
    Cache { pullup: bool },
    /// Back-end role: every table local and current.
    Backend,
}

/// Every line of the file as `(label, statement, mode, on the SF 1.0 rig)`,
/// in file order.
fn runs() -> Vec<(String, String, Mode, bool)> {
    let max_custkey = ((150_000.0 * SCALE) as i64).max(2);
    let corpus = rcc_tpcd::currency_corpus(CORPUS, CORPUS_SEED, max_custkey);
    let mut out = Vec::new();
    for pullup in [false, true] {
        for (i, sql) in corpus.iter().enumerate() {
            out.push((
                format!("corpus pullup={pullup} {i:03}"),
                sql.clone(),
                Mode::Cache { pullup },
                false,
            ));
        }
    }
    let table_4_3 = table_4_3();
    let hand_written: [(&str, Vec<&str>, bool); 4] = [
        (
            "table_4_3",
            table_4_3.iter().map(String::as_str).collect(),
            true,
        ),
        ("point_cold", POINT_COLD.to_vec(), false),
        ("scan_mix", SCAN_MIX.to_vec(), false),
        ("wide_join", WIDE_JOINS.to_vec(), false),
    ];
    for (family, statements, sf1) in hand_written {
        for (i, sql) in statements.iter().enumerate() {
            for (name, mode) in [
                ("pullup=false", Mode::Cache { pullup: false }),
                ("pullup=true", Mode::Cache { pullup: true }),
                ("backend", Mode::Backend),
            ] {
                out.push((format!("{family} {name} {i}"), sql.to_string(), mode, sf1));
            }
        }
    }
    out
}

fn plan_line(cache: &MTCache, sql: &str, mode: Mode) -> String {
    let optimized = match mode {
        Mode::Cache { pullup } => {
            cache.set_pullup_switch_union(pullup);
            cache.explain(sql, &HashMap::new())
        }
        Mode::Backend => {
            let select = match parse_statement(sql).expect("corpus statement parses") {
                Statement::Select(s) => *s,
                other => panic!("not a SELECT: {other:?}"),
            };
            bind_select(cache.catalog(), &select, &HashMap::new())
                .and_then(|graph| optimize(cache.catalog(), &graph, &OptimizerConfig::backend()))
        }
    }
    .unwrap_or_else(|e| panic!("{sql}: {e}"));
    format!(
        "{:?} cost={:016x} rows={:016x} explain={:08x}",
        optimized.choice,
        optimized.cost.to_bits(),
        optimized.est_rows.to_bits(),
        crc32(optimized.plan.explain().as_bytes())
    )
}

fn replay() -> Vec<(String, String, String)> {
    let paper = paper_setup(SCALE, DATA_SEED).expect("paper rig");
    warm_up(&paper).expect("warm up");
    let sf1 = paper_setup_sf1_stats(SCALE, DATA_SEED).expect("SF 1.0 statistics rig");
    warm_up(&sf1).expect("warm up");
    runs()
        .into_iter()
        .map(|(label, sql, mode, on_sf1)| {
            let line = plan_line(if on_sf1 { &sf1 } else { &paper }, &sql, mode);
            (label, line, sql)
        })
        .collect()
}

#[test]
fn plans_match_the_committed_golden_file() {
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let replayed = replay();
    assert_eq!(
        replayed.len(),
        golden.len(),
        "the sweep plans {} statements, the file holds {}",
        replayed.len(),
        golden.len()
    );
    let mut differing = Vec::new();
    for ((label, line, sql), want) in replayed.iter().zip(&golden) {
        let got = format!("{label} {line}");
        if got != *want {
            differing.push(format!("  got  {got}\n  want {want}\n       {sql}"));
        }
    }
    assert!(
        differing.is_empty(),
        "{} of {} plans differ from tests/golden_plans.txt:\n{}",
        differing.len(),
        golden.len(),
        differing.join("\n")
    );
    // not vacuous: every plan shape the cache and the back-end can choose
    for shape in [
        "FullRemote",
        "RemoteFetchLocalJoin",
        "Mixed",
        "AllLocalGuarded",
        "PulledUpSwitchUnion",
        "BackendLocal",
    ] {
        assert!(
            golden
                .iter()
                .any(|l| l.contains(&format!(" {shape} cost="))),
            "no {shape} plan in the whole sweep"
        );
    }
}

/// Prints the golden file for the current optimizer (see the module docs).
#[test]
#[ignore = "prints tests/golden_plans.txt; run by hand to regenerate it"]
fn print_golden_plans() {
    println!(
        "# One line per statement and planning mode: paper rig at scale {SCALE} (data seed \
         {DATA_SEED}; Table 4.3\n# on the SF 1.0 statistics rig), currency_corpus({CORPUS}, \
         {CORPUS_SEED}) in both pull-up modes, then Table 4.3,\n# point_cold, scan_mix and two \
         wide joins in both pull-up modes and in back-end role. cost and\n# rows are the f64 \
         bit patterns, explain the CRC-32 of plan.explain(). Regenerate: see\n\
         # tests/golden_plans.rs."
    );
    for (label, line, _) in replay() {
        println!("{label} {line}");
    }
}
