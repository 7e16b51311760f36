//! Deterministic SELECT-with-currency-clause corpus generator.
//!
//! `flow-audit` (crate `rcc-bench`) sweeps the optimizer over a large body
//! of queries and statically proves every optimized plan conforms to its
//! currency clause; `tests/golden_plans.rs` pins the plans chosen for it
//! and `rcc-lint`'s `lint_corpus` test lints it. This module generates that
//! corpus: point lookups, range
//! scans, aggregates, and customer⋈orders joins over the paper's Customer /
//! Orders schema, crossed with every clause shape the grammar supports —
//! no clause (tight default), single-class single-table, single-class
//! multi-table, per-table classes, and per-key `BY` grouping — at bounds
//! both above and below the regions' minimum guaranteed currency so both
//! local and remote plan shapes are exercised.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Currency bounds used by the corpus, as SQL suffix strings. The paper
/// rig's regions guarantee 5 s propagation delay, so bounds below 5 s force
/// all-remote plans and bounds at/above exercise the guarded local paths.
const BOUNDS: &[&str] = &[
    "2 SEC", "5 SEC", "10 SEC", "30 SEC", "1 MIN", "2 MIN", "10 MIN", "1 HOUR",
];

/// Generate `n` deterministic queries from `seed`. `max_custkey` bounds the
/// point-lookup keys (pass the loaded customer count, or any positive
/// number when only planning).
pub fn currency_corpus(n: usize, seed: u64, max_custkey: i64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hi = max_custkey.max(1);
    (0..n).map(|_| one_query(&mut rng, hi)).collect()
}

fn bound(rng: &mut StdRng) -> &'static str {
    BOUNDS[rng.gen_range(0..BOUNDS.len())]
}

fn one_query(rng: &mut StdRng, max_custkey: i64) -> String {
    let key = rng.gen_range(1..=max_custkey);
    match rng.gen_range(0..10u32) {
        // Point lookup on customer, no clause: the tight default requires
        // trx-consistent current data, so the plan must go to the backend.
        0 => format!("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = {key}"),
        // Point lookup with a single-table class.
        1 => format!(
            "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = {key} \
             CURRENCY BOUND {} ON (customer)",
            bound(rng)
        ),
        // Point lookup with per-key grouping (session consistency by key).
        2 => format!(
            "SELECT c_acctbal FROM customer c WHERE c_custkey = {key} \
             CURRENCY BOUND {} ON (c) BY c.c_custkey",
            bound(rng)
        ),
        // Range scan over the unindexed-at-the-cache acctbal column.
        3 => {
            let lo = rng.gen_range(0..5000);
            format!(
                "SELECT c_custkey, c_acctbal FROM customer \
                 WHERE c_acctbal BETWEEN {lo} AND {} \
                 CURRENCY BOUND {} ON (customer)",
                lo + rng.gen_range(100..2000),
                bound(rng)
            )
        }
        // Orders point lookup (composite clustered key prefix).
        4 => format!(
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {key} \
             CURRENCY BOUND {} ON (orders)",
            bound(rng)
        ),
        // Aggregate over customer.
        5 => format!(
            "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer \
             GROUP BY c_nationkey \
             CURRENCY BOUND {} ON (customer)",
            bound(rng)
        ),
        // Join, one class spanning both tables: the class's tables live in
        // different regions, so a conformant local plan needs a single
        // snapshot source — this is the single-source obligation's
        // workhorse shape.
        6 => format!(
            "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_custkey = {key} \
             CURRENCY BOUND {} ON (c, o)",
            bound(rng)
        ),
        // Join with per-table classes: each table may be served from its
        // own region under its own bound.
        7 => format!(
            "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_custkey = {key} \
             CURRENCY BOUND {} ON (c), {} ON (o)",
            bound(rng),
            bound(rng)
        ),
        // Join with mixed bounds, ordered the other way plus a residual.
        8 => format!(
            "SELECT o.o_orderkey FROM orders o, customer c \
             WHERE o.o_custkey = c.c_custkey AND o.o_custkey = {key} \
             AND o.o_totalprice > {} \
             CURRENCY BOUND {} ON (o), {} ON (c)",
            rng.gen_range(100..100_000),
            bound(rng),
            bound(rng)
        ),
        // Join with no clause: all-remote under the tight default.
        _ => format!(
            "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_custkey = {key}"
        ),
    }
}

/// Adversarial corpus for the Layer-1 currency-clause lint (`rcc-lint`):
/// queries that parse and (mostly) bind fine but carry exactly the listed
/// diagnostic codes, plus clean controls that must stay diagnostic-free.
/// Expected code lists are sorted; `rcc-lint`'s `lint_corpus` test asserts
/// exact equality, so any lint regression — missed or spurious — fails it.
///
/// Written against the audit catalog (`rcc_verify::rig::audit_catalog`):
/// Customer keyed on `c_custkey` with index `ix_acctbal(c_acctbal)`,
/// Orders keyed on `(o_custkey, o_orderkey)`. Bounds on view-covered
/// tables sit inside the contingent window — above the 5 s propagation
/// delay, below CR2's 17 s healthy-replication envelope — unless an entry
/// is deliberately probing the statically-dead-guard lint (L007).
pub fn adversarial_lint_corpus() -> Vec<(&'static str, &'static [&'static str])> {
    vec![
        // Clean controls: no clause, keyed BY, indexed BY, per-table classes.
        ("SELECT c_name FROM customer WHERE c_custkey = 1", &[]),
        (
            "SELECT c_acctbal FROM customer c WHERE c.c_custkey = 1 \
             CURRENCY BOUND 15 SEC ON (c) BY c.c_custkey",
            &[],
        ),
        (
            "SELECT c_name FROM customer c \
             CURRENCY BOUND 15 SEC ON (c) BY c.c_acctbal",
            &[],
        ),
        (
            "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey \
             CURRENCY BOUND 15 SEC ON (c), 5 SEC ON (o)",
            &[],
        ),
        // L001: the looser overlapping spec can never take effect.
        (
            "SELECT c_name FROM customer c \
             CURRENCY BOUND 15 SEC ON (c), 5 SEC ON (c)",
            &["L001"],
        ),
        // L001: exact duplicate spec.
        (
            "SELECT c_name FROM customer c \
             CURRENCY BOUND 15 SEC ON (c), 15 SEC ON (c)",
            &["L001"],
        ),
        // L002: spec names a table absent from every FROM in scope.
        (
            "SELECT c_name FROM customer c CURRENCY BOUND 10 MIN ON (orders)",
            &["L002"],
        ),
        // L003 twice: c_name is neither key nor indexed, and the attributed
        // columns cover neither the key nor a full index.
        (
            "SELECT c_name FROM customer c \
             CURRENCY BOUND 15 SEC ON (c) BY c.c_name",
            &["L003", "L003"],
        ),
        // L003 once: o_custkey is part of the composite key (per-column
        // check passes) but alone does not cover it.
        (
            "SELECT o_totalprice FROM orders o \
             CURRENCY BOUND 15 SEC ON (o) BY o.o_custkey",
            &["L003"],
        ),
        // L004: inner 15 SEC class shares customer with the outer 5 SEC
        // class; the merge keeps the tighter bound.
        (
            "SELECT c_name FROM customer c WHERE EXISTS \
             (SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey \
              CURRENCY BOUND 15 SEC ON (o, c)) \
             CURRENCY BOUND 5 SEC ON (c)",
            &["L004"],
        ),
        // L005: bound 0 restates the session default.
        (
            "SELECT c_name FROM customer CURRENCY BOUND 0 SEC ON (customer)",
            &["L005"],
        ),
        // Multiple independent diagnostics in one statement.
        (
            "SELECT c_name FROM customer c \
             CURRENCY BOUND 0 SEC ON (c), 10 MIN ON (nation)",
            &["L002", "L005"],
        ),
        // Clean control: nation is queryable without a currency clause.
        ("SELECT n_name FROM nation WHERE n_nationkey = 1", &[]),
        // L006: a positive bound on nation, which no cached view covers,
        // is unverifiable at guard time.
        (
            "SELECT n_name FROM nation n CURRENCY BOUND 10 MIN ON (n)",
            &["L006"],
        ),
        // L006 once: only the uncovered operand of the class is flagged.
        (
            "SELECT c_name, n_name FROM customer c, nation n \
             WHERE c.c_nationkey = n.n_nationkey \
             CURRENCY BOUND 15 SEC ON (c, n)",
            &["L006"],
        ),
        // L006 composes with L003 (twice: per-column and coverage): the
        // bound is unverifiable and the BY grouping matches no key.
        (
            "SELECT n_name FROM nation n \
             CURRENCY BOUND 10 MIN ON (n) BY n.n_name",
            &["L003", "L003", "L006"],
        ),
        // L007: 10 MIN beats both envelopes (CR1 = 22 s, CR2 = 17 s), so
        // every candidate view satisfies the guard statically — the runtime
        // check is dead weight.
        (
            "SELECT c_name FROM customer c CURRENCY BOUND 10 MIN ON (c)",
            &["L007"],
        ),
        // L007 the other way: 2 s is below the 5 s propagation delay, so no
        // replica can ever satisfy it and the relaxed arm is unreachable.
        (
            "SELECT c_name FROM customer c CURRENCY BOUND 2 SEC ON (c)",
            &["L007"],
        ),
        // L007 on a single-view table: orders is covered only by CR2
        // (envelope 17 s), so 30 s is statically satisfied.
        (
            "SELECT o_totalprice FROM orders o \
             WHERE o_custkey = 1 CURRENCY BOUND 30 SEC ON (o)",
            &["L007"],
        ),
        // Near-miss clean control: 20 s clears CR2's 17 s envelope but not
        // CR1's 22 s — the candidate views disagree, so the guard is live
        // and the lint must stay silent.
        (
            "SELECT c_name FROM customer c CURRENCY BOUND 20 SEC ON (c)",
            &[],
        ),
        // L007 composes with L003: the bound is statically dead *and* the
        // BY grouping covers neither the key nor an index.
        (
            "SELECT c_name FROM customer c \
             CURRENCY BOUND 10 MIN ON (c) BY c.c_name",
            &["L003", "L003", "L007"],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(currency_corpus(50, 7, 1000), currency_corpus(50, 7, 1000));
        assert_ne!(currency_corpus(50, 7, 1000), currency_corpus(50, 8, 1000));
    }

    #[test]
    fn corpus_covers_all_shapes() {
        let qs = currency_corpus(200, 1, 1000);
        assert_eq!(qs.len(), 200);
        assert!(qs.iter().any(|q| !q.contains("CURRENCY")));
        assert!(qs.iter().any(|q| q.contains("BY c.c_custkey")));
        assert!(qs.iter().any(|q| q.contains("ON (c, o)")));
        assert!(qs.iter().any(|q| q.contains("GROUP BY")));
        assert!(qs.iter().any(|q| q.contains("2 SEC")));
        assert!(qs.iter().any(|q| q.contains("1 HOUR")));
    }

    #[test]
    fn adversarial_corpus_expectations_are_sorted() {
        let corpus = adversarial_lint_corpus();
        assert!(corpus.iter().any(|(_, codes)| codes.is_empty()));
        for (sql, codes) in &corpus {
            assert!(codes.windows(2).all(|w| w[0] <= w[1]), "{sql}");
        }
    }
}
