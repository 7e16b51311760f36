#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Template-level robustness analysis for relaxed-currency workloads.
//!
//! The paper's currency clauses let individual reads accept bounded
//! staleness; the cache then serves them from local replicas instead of the
//! strict (master, serializable) path. That is a per-statement guarantee —
//! it says nothing about whether a multi-statement **transaction template**
//! stays serializable when its reads are allowed to lag. This crate closes
//! that gap with a static analysis in the style of robustness testing
//! against weak isolation (Vandevoort et al.): given the read/write
//! summaries of every template in a workload
//! ([`rcc_semantics::TemplateSummary`]), decide per template whether every
//! interleaving its relaxed reads admit is serializable (`ROBUST`) or
//! whether the template must be pinned to the strict path (`NOT ROBUST`),
//! with a concrete interference-cycle witness.
//!
//! # The model
//!
//! Templates conflict on (table, key-class) objects: two accesses conflict
//! when they touch the same base table, their key classes may overlap
//! ([`rcc_semantics::KeySpec::overlaps`] — point keys over distinct
//! literals are provably disjoint, everything else conservatively
//! overlaps), and at least one is a write. Edges are labelled `rw` / `wr` /
//! `ww` in the usual dependency sense. Any number of instances of each
//! template may run concurrently, so a template can conflict with another
//! instance of itself.
//!
//! A template `T1` is **not robust** when an interference cycle exists that
//! a relaxed read makes realizable under the cache's guarantees:
//!
//! 1. a *vulnerable* `rw` edge leaves a relaxed read `b1` of `T1` (bound >
//!    0: the read may be served stale, so a concurrent writer can commit
//!    "between" the read's snapshot and `T1`'s own writes);
//! 2. the cycle continues through **writer** templates only (any conflict
//!    edge), and
//! 3. a closing `ww`/`wr` edge re-enters `T1` at an access `a1` positioned
//!    after `b1` — either in a later statement, or at a different
//!    *consistency position* of the same statement. Reads that share a
//!    statement, currency spec and BY-group share one position: the paper
//!    guarantees them a single snapshot, so no writer can split them, and
//!    no dangerous cycle can close between them.
//!
//! Condition 2 is a deliberate *modular blame* rule: read-only templates
//! can be split victims (case 1) but never relays or closers. Blame for a
//! non-serializable interleaving always lands on a template that both
//! relaxes a read and participates in writes reaching back into it.
//! Consequences: strict-only and read-only templates are `ROBUST` by
//! construction, and **adding a read-only template can never flip an
//! existing `ROBUST` verdict** — a property the proptests pin down.

use rcc_semantics::TemplateSummary;
use std::collections::VecDeque;
use std::fmt;

/// Per-template analysis outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every interleaving the template's relaxed reads admit is
    /// serializable; the relaxed path is safe.
    Robust,
    /// A dangerous interference cycle exists; the template must be pinned
    /// to the strict path.
    NotRobust,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Robust => write!(f, "ROBUST"),
            Verdict::NotRobust => write!(f, "NOT ROBUST"),
        }
    }
}

/// The analysis result for one template.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateReport {
    /// Template name.
    pub name: String,
    /// 1-based declaration line (0 if synthesized).
    pub line: u32,
    /// The verdict.
    pub verdict: Verdict,
    /// For [`Verdict::NotRobust`]: the interference-cycle witness, e.g.
    /// `pay --rw(customer)--> transfer --ww(customer)--> pay
    /// (relaxed read at line 2 separated from line 3)`.
    pub witness: Option<String>,
    /// Number of statements in the template.
    pub statements: usize,
    /// Number of relaxed (bound > 0) reads.
    pub relaxed_reads: usize,
    /// Number of write accesses.
    pub writes: usize,
}

impl TemplateReport {
    /// The verdict with its witness, as one displayable string.
    pub fn verdict_string(&self) -> String {
        match (&self.verdict, &self.witness) {
            (Verdict::NotRobust, Some(w)) => format!("NOT ROBUST (cycle witness: {w})"),
            (v, _) => v.to_string(),
        }
    }
}

/// The analysis result for a whole workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// One report per template, in input order.
    pub templates: Vec<TemplateReport>,
}

impl WorkloadReport {
    /// Number of `ROBUST` templates.
    pub fn robust_count(&self) -> usize {
        self.templates
            .iter()
            .filter(|t| t.verdict == Verdict::Robust)
            .count()
    }

    /// Number of `NOT ROBUST` templates.
    pub fn not_robust_count(&self) -> usize {
        self.templates.len() - self.robust_count()
    }

    /// Look up one template's report by name.
    pub fn report(&self, name: &str) -> Option<&TemplateReport> {
        self.templates.iter().find(|t| t.name == name)
    }
}

/// Dependency-edge label between two conflicting accesses, in edge
/// direction (`from` happens logically first).
fn edge_kind(from_write: bool, to_write: bool) -> &'static str {
    match (from_write, to_write) {
        (false, true) => "rw",
        (true, false) => "wr",
        _ => "ww",
    }
}

/// May the closing edge land at `a1` given the vulnerable read left at
/// `b1`? Later statement: yes. Same statement: only at a different
/// consistency position (same position ⇒ one snapshot ⇒ unsplittable).
fn position_splittable(
    b1: &rcc_semantics::TemplateAccess,
    a1: &rcc_semantics::TemplateAccess,
) -> bool {
    b1.stmt < a1.stmt || (b1.stmt == a1.stmt && b1.pos != a1.pos)
}

/// Analyze a workload of bound template summaries.
///
/// Deterministic: verdicts and witnesses depend only on the summaries'
/// order and content. Template and parameter *names* never influence a
/// verdict (alpha-equivalence), only the witness text.
pub fn analyze(summaries: &[TemplateSummary]) -> WorkloadReport {
    let writers: Vec<usize> = (0..summaries.len())
        .filter(|&i| summaries[i].has_writes())
        .collect();

    // Conflict adjacency over writer templates, indexed by slot in
    // `writers` (instances, so self-edges count): slot i -> slot j when any
    // pair of accesses conflicts.
    let w_adj: Vec<Vec<usize>> = writers
        .iter()
        .map(|&i| {
            (0..writers.len())
                .filter(|&jw| {
                    summaries[i].accesses.iter().any(|x| {
                        summaries[writers[jw]]
                            .accesses
                            .iter()
                            .any(|y| x.conflicts_with(y))
                    })
                })
                .collect()
        })
        .collect();

    let templates = summaries
        .iter()
        .enumerate()
        .map(|(t1, s)| {
            let witness = dangerous_cycle(summaries, &writers, &w_adj, t1);
            TemplateReport {
                name: s.name.clone(),
                line: s.line,
                verdict: if witness.is_some() {
                    Verdict::NotRobust
                } else {
                    Verdict::Robust
                },
                witness,
                statements: s.statements,
                relaxed_reads: s
                    .accesses
                    .iter()
                    .filter(|a| a.mode.is_relaxed_read())
                    .count(),
                writes: s.accesses.iter().filter(|a| a.mode.is_write()).count(),
            }
        })
        .collect();
    WorkloadReport { templates }
}

/// Search for a dangerous cycle splitting template `t1`; returns the
/// witness string of the first one found (deterministic order).
fn dangerous_cycle(
    summaries: &[TemplateSummary],
    writers: &[usize],
    w_adj: &[Vec<usize>],
    t1: usize,
) -> Option<String> {
    let s1 = &summaries[t1];
    for b1 in s1.accesses.iter().filter(|a| a.mode.is_relaxed_read()) {
        // Entry points: writer templates with a write conflicting the
        // vulnerable read (the rw edge out of b1).
        let entries: Vec<usize> = (0..writers.len())
            .filter(|&wi| {
                summaries[writers[wi]]
                    .accesses
                    .iter()
                    .any(|w| w.mode.is_write() && w.conflicts_with(b1))
            })
            .collect();
        if entries.is_empty() {
            continue;
        }

        // BFS through writer templates from every entry, tracking parents
        // for witness reconstruction.
        let mut parent: Vec<Option<usize>> = vec![None; writers.len()];
        let mut seen = vec![false; writers.len()];
        let mut queue = VecDeque::new();
        for &e in &entries {
            if !seen[e] {
                seen[e] = true;
                parent[e] = Some(usize::MAX); // entry marker
                queue.push_back(e);
            }
        }
        while let Some(wi) = queue.pop_front() {
            let tn = writers[wi];
            // Can tn close the cycle back into t1?
            for w in summaries[tn].accesses.iter().filter(|a| a.mode.is_write()) {
                for a1 in &s1.accesses {
                    if w.conflicts_with(a1) && position_splittable(b1, a1) {
                        return Some(witness_string(
                            summaries, writers, &parent, t1, b1, wi, w, a1,
                        ));
                    }
                }
            }
            for &nx in &w_adj[wi] {
                if !seen[nx] {
                    seen[nx] = true;
                    parent[nx] = Some(wi);
                    queue.push_back(nx);
                }
            }
        }
    }
    None
}

/// Render `t1 --rw(tbl)--> ... --ww(tbl)--> t1 (relaxed read at line L1
/// separated from line L2)` from the BFS parent chain.
#[allow(clippy::too_many_arguments)]
fn witness_string(
    summaries: &[TemplateSummary],
    writers: &[usize],
    parent: &[Option<usize>],
    t1: usize,
    b1: &rcc_semantics::TemplateAccess,
    close_wi: usize,
    closing_write: &rcc_semantics::TemplateAccess,
    a1: &rcc_semantics::TemplateAccess,
) -> String {
    // Reconstruct entry -> ... -> close_wi.
    let mut chain = vec![close_wi];
    let mut cur = close_wi;
    while let Some(p) = parent[cur] {
        if p == usize::MAX {
            break;
        }
        chain.push(p);
        cur = p;
    }
    chain.reverse();

    let mut out = format!(
        "{} --rw({})--> {}",
        summaries[t1].name, b1.table, summaries[writers[chain[0]]].name
    );
    for hop in chain.windows(2) {
        let (x, y) = (writers[hop[0]], writers[hop[1]]);
        // First conflicting access pair, for the edge label.
        let (kx, tbl) = summaries[x]
            .accesses
            .iter()
            .flat_map(|ax| {
                summaries[y]
                    .accesses
                    .iter()
                    .filter(move |ay| ax.conflicts_with(ay))
                    .map(move |ay| {
                        (
                            edge_kind(ax.mode.is_write(), ay.mode.is_write()),
                            ax.table.clone(),
                        )
                    })
            })
            .next()
            .unwrap_or(("ww", String::new()));
        out.push_str(&format!(" --{kx}({tbl})--> {}", summaries[y].name));
    }
    out.push_str(&format!(
        " --{}({})--> {} (relaxed read at line {} separated from line {})",
        edge_kind(true, a1.mode.is_write()),
        closing_write.table,
        summaries[t1].name,
        b1.line,
        a1.line
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_catalog::{Catalog, TableMeta};
    use rcc_common::{Column, DataType, Schema, TableId};
    use rcc_semantics::summarize_template;
    use rcc_sql::ast::Statement;
    use rcc_sql::parse_statement;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Column::new("c_custkey", DataType::Int),
            Column::new("c_name", DataType::Str),
            Column::new("c_acctbal", DataType::Float),
        ]);
        cat.register_table(
            TableMeta::new(TableId(1), "customer", schema, vec!["c_custkey".into()]).unwrap(),
        )
        .unwrap();
        let schema = Schema::new(vec![
            Column::new("o_orderkey", DataType::Int),
            Column::new("o_custkey", DataType::Int),
            Column::new("o_totalprice", DataType::Float),
        ]);
        cat.register_table(
            TableMeta::new(TableId(2), "orders", schema, vec!["o_orderkey".into()]).unwrap(),
        )
        .unwrap();
        cat
    }

    fn summaries(cat: &Catalog, sqls: &[&str]) -> Vec<rcc_semantics::TemplateSummary> {
        sqls.iter()
            .map(|sql| match parse_statement(sql).expect("parse") {
                Statement::CreateTemplate(t) => summarize_template(cat, &t).expect("bind"),
                other => panic!("not a template: {other:?}"),
            })
            .collect()
    }

    const PAY: &str = "CREATE TEMPLATE pay ($c, $amt) AS \
        SELECT c_acctbal FROM customer WHERE c_custkey = $c \
          CURRENCY BOUND 10 SEC ON (customer); \
        UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; END";

    const PAY_STRICT: &str = "CREATE TEMPLATE pay_strict ($c, $amt) AS \
        SELECT c_acctbal FROM customer WHERE c_custkey = $c \
          CURRENCY BOUND 0 SEC ON (customer); \
        UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; END";

    #[test]
    fn lost_update_is_not_robust_strict_variant_is() {
        let cat = catalog();
        let r = analyze(&summaries(&cat, &[PAY, PAY_STRICT]));
        let pay = r.report("pay").unwrap();
        assert_eq!(pay.verdict, Verdict::NotRobust);
        let w = pay.witness.as_deref().unwrap();
        assert!(w.contains("--rw(customer)-->"), "{w}");
        assert!(w.contains("--ww(customer)-->"), "{w}");
        assert_eq!(r.report("pay_strict").unwrap().verdict, Verdict::Robust);
    }

    #[test]
    fn read_only_template_is_robust_even_when_relaxed() {
        let cat = catalog();
        let r = analyze(&summaries(
            &cat,
            &[
                "CREATE TEMPLATE peek ($c) AS \
                 SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                 CURRENCY BOUND 60 SEC ON (customer); END",
                PAY,
            ],
        ));
        assert_eq!(r.report("peek").unwrap().verdict, Verdict::Robust);
    }

    #[test]
    fn split_read_across_statements_is_caught_via_wr_closing_edge() {
        let cat = catalog();
        // T1 reads customer twice (relaxed), T2 writes it: the second read
        // can observe the writer that the first read missed.
        let r = analyze(&summaries(
            &cat,
            &[
                "CREATE TEMPLATE twice ($c) AS \
                 SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                   CURRENCY BOUND 10 SEC ON (customer); \
                 SELECT c_acctbal FROM customer WHERE c_custkey = $c; \
                 UPDATE orders SET o_totalprice = 0.0 WHERE o_orderkey = $c; END",
                "CREATE TEMPLATE bump ($c, $amt) AS \
                 UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; END",
            ],
        ));
        let t = r.report("twice").unwrap();
        assert_eq!(t.verdict, Verdict::NotRobust);
        assert!(t.witness.as_deref().unwrap().contains("--wr(customer)-->"));
    }

    #[test]
    fn single_consistency_class_is_unsplittable_two_classes_are_not() {
        let cat = catalog();
        let bump = "CREATE TEMPLATE bump ($c, $amt) AS \
            UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; END";
        // Two reads of customer in ONE statement and ONE consistency
        // class: the paper guarantees them a single snapshot, so the
        // writer cannot land between them.
        let one_class = "CREATE TEMPLATE once ($c) AS \
            SELECT a.c_acctbal, b.c_name FROM customer a, customer b \
            WHERE a.c_custkey = $c AND b.c_custkey = $c \
            CURRENCY BOUND 10 SEC ON (a, b); END";
        let r = analyze(&summaries(&cat, &[one_class, bump]));
        assert_eq!(r.report("once").unwrap().verdict, Verdict::Robust);

        // Same reads in two independent classes: each may come from its
        // own snapshot, the writer can split them (fractured read).
        let two_classes = "CREATE TEMPLATE once ($c) AS \
            SELECT a.c_acctbal, b.c_name FROM customer a, customer b \
            WHERE a.c_custkey = $c AND b.c_custkey = $c \
            CURRENCY BOUND 10 SEC ON (a), 10 SEC ON (b); END";
        let r = analyze(&summaries(&cat, &[two_classes, bump]));
        let t = r.report("once").unwrap();
        assert_eq!(t.verdict, Verdict::NotRobust);
        assert!(t.witness.as_deref().unwrap().contains("--wr(customer)-->"));
    }

    #[test]
    fn literal_disjoint_keys_keep_robust_dropping_key_flips() {
        let cat = catalog();
        // Reader relaxed on customer 1 (and writing orders); the only
        // customer writer is pinned to customer 2: provably disjoint.
        let keyed = "CREATE TEMPLATE audit1 () AS \
            SELECT c_acctbal FROM customer WHERE c_custkey = 1 \
              CURRENCY BOUND 10 SEC ON (customer); \
            UPDATE orders SET o_totalprice = 0.0 WHERE o_orderkey = 1; END";
        let other = "CREATE TEMPLATE w2 () AS \
            UPDATE customer SET c_acctbal = 0.0 WHERE c_custkey = 2; END";
        let r = analyze(&summaries(&cat, &[keyed, other]));
        assert_eq!(r.report("audit1").unwrap().verdict, Verdict::Robust);

        // Drop the writer's key predicate: Range overlaps everything, the
        // rw edge appears, and the cycle closes through audit1's own
        // orders write (another instance).
        let unkeyed = "CREATE TEMPLATE w2 () AS \
            UPDATE customer SET c_acctbal = 0.0; END";
        let r = analyze(&summaries(&cat, &[keyed, unkeyed]));
        assert_eq!(r.report("audit1").unwrap().verdict, Verdict::NotRobust);
    }

    #[test]
    fn multi_hop_cycle_through_second_writer() {
        let cat = catalog();
        // T1: relaxed read of customer, writes orders.
        // T2: writes customer, reads orders (strict).
        // rw(customer) into T2, wr/ww back via orders.
        let r = analyze(&summaries(
            &cat,
            &[
                "CREATE TEMPLATE t1 ($c) AS \
                 SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                   CURRENCY BOUND 10 SEC ON (customer); \
                 UPDATE orders SET o_totalprice = 1.0 WHERE o_orderkey = $c; END",
                "CREATE TEMPLATE t2 ($c) AS \
                 UPDATE customer SET c_acctbal = 1.0 WHERE c_custkey = $c; \
                 UPDATE orders SET o_totalprice = 2.0 WHERE o_orderkey = $c; END",
            ],
        ));
        let t = r.report("t1").unwrap();
        assert_eq!(t.verdict, Verdict::NotRobust);
        assert!(t.witness.as_deref().unwrap().contains("t2"));
    }

    #[test]
    fn tpcd_corpus_verdicts_match_expectations() {
        let cat = Catalog::new();
        cat.register_table(rcc_tpcd::customer_meta(TableId(1)))
            .unwrap();
        cat.register_table(rcc_tpcd::orders_meta(TableId(2)))
            .unwrap();
        let corpus = rcc_tpcd::robust_template_corpus();
        let sqls: Vec<&str> = corpus.iter().map(|c| c.sql).collect();
        let r = analyze(&summaries(&cat, &sqls));
        // a corpus that is all one verdict would prove nothing
        assert!(r.robust_count() > 0 && r.not_robust_count() > 0);
        for case in &corpus {
            let t = r.report(case.name).expect(case.name);
            assert_eq!(
                t.verdict == Verdict::Robust,
                case.robust,
                "{}: got {}",
                case.name,
                t.verdict_string()
            );
            if case.robust {
                assert!(t.witness.is_none());
            } else {
                let w = t.witness.as_deref().expect("witness");
                assert!(w.contains("-->"), "{w}");
            }
        }
    }

    #[test]
    fn tpcd_mutations_flip_their_target() {
        let cat = Catalog::new();
        cat.register_table(rcc_tpcd::customer_meta(TableId(1)))
            .unwrap();
        cat.register_table(rcc_tpcd::orders_meta(TableId(2)))
            .unwrap();
        for m in rcc_tpcd::template_mutation_corpus() {
            let base = analyze(&summaries(&cat, m.base));
            let mutated = analyze(&summaries(&cat, m.mutated));
            let before = base.report(m.target).expect(m.target);
            let after = mutated.report(m.target).expect(m.target);
            assert_eq!(
                before.verdict == Verdict::Robust,
                m.base_robust,
                "{}: base got {}",
                m.label,
                before.verdict_string()
            );
            assert_eq!(
                after.verdict == Verdict::Robust,
                !m.base_robust,
                "{}: mutated got {}",
                m.label,
                after.verdict_string()
            );
        }
    }

    #[test]
    fn workload_counts_and_lookup() {
        let cat = catalog();
        let r = analyze(&summaries(&cat, &[PAY, PAY_STRICT]));
        assert_eq!(r.robust_count(), 1);
        assert_eq!(r.not_robust_count(), 1);
        assert!(r.report("nope").is_none());
        let pay = r.report("pay").unwrap();
        assert_eq!(pay.statements, 2);
        assert_eq!(pay.relaxed_reads, 1);
        assert_eq!(pay.writes, 1);
        assert!(pay
            .verdict_string()
            .starts_with("NOT ROBUST (cycle witness: "));
        assert_eq!(r.report("pay_strict").unwrap().verdict_string(), "ROBUST");
    }
}
