//! Deterministic TPC-C-flavored transaction-template corpus.
//!
//! `rcc-robust`'s corpus tests bind these templates against Customer
//! (keyed on `c_custkey`) and Orders (keyed on `(o_custkey, o_orderkey)`),
//! run the robustness analyzer over the whole workload, and assert the
//! exact expected verdict per template and that both verdicts appear — so
//! any analyzer regression, missed cycle or spurious witness fails them.
//! The mutation corpus then applies the classic robustness-breaking edits
//! (add a conflicting write, loosen a currency bound, drop a key
//! predicate) and asserts each one flips its target's verdict.

/// One template of the audited workload with its expected verdict.
#[derive(Debug, Clone, Copy)]
pub struct TemplateCase {
    /// Template name (matches the name in `sql`).
    pub name: &'static str,
    /// The `CREATE TEMPLATE` statement.
    pub sql: &'static str,
    /// Expected verdict when the *whole* corpus is analyzed as one
    /// workload: `true` = ROBUST, `false` = NOT ROBUST (with witness).
    pub robust: bool,
}

/// The TPC-C-flavored workload: payments, order entry, delivery and the
/// read-only status/report mix, with currency bounds chosen so both
/// verdicts appear.
pub fn robust_template_corpus() -> Vec<TemplateCase> {
    vec![
        // Classic lost update: the balance read may be stale, the write
        // depends on it, and another payment instance can land in between.
        TemplateCase {
            name: "payment",
            sql: "CREATE TEMPLATE payment ($c, $amt) AS \
                  SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                    CURRENCY BOUND 10 SEC ON (customer); \
                  UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; \
                  END",
            robust: false,
        },
        // Same template pinned to bound 0: strict reads, serializable.
        TemplateCase {
            name: "payment_strict",
            sql: "CREATE TEMPLATE payment_strict ($c, $amt) AS \
                  SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                    CURRENCY BOUND 0 SEC ON (customer); \
                  UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; \
                  END",
            robust: true,
        },
        // Single relaxed point read: one access, nothing to split.
        TemplateCase {
            name: "balance_check",
            sql: "CREATE TEMPLATE balance_check ($c) AS \
                  SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                    CURRENCY BOUND 1 MIN ON (customer); \
                  END",
            robust: true,
        },
        // Customer⋈orders in one statement and ONE consistency class: the
        // clause guarantees both reads one snapshot, so no writer can
        // separate them.
        TemplateCase {
            name: "order_status",
            sql: "CREATE TEMPLATE order_status ($c) AS \
                  SELECT c.c_name, o.o_totalprice, o.o_status \
                  FROM customer c, orders o \
                  WHERE c.c_custkey = $c AND o.o_custkey = $c \
                  CURRENCY BOUND 30 SEC ON (c, o); \
                  END",
            robust: true,
        },
        // The same join with per-table classes: each class may come from
        // its own snapshot, and delivery can commit between them.
        TemplateCase {
            name: "order_status_split",
            sql: "CREATE TEMPLATE order_status_split ($c) AS \
                  SELECT c.c_name, o.o_totalprice, o.o_status \
                  FROM customer c, orders o \
                  WHERE c.c_custkey = $c AND o.o_custkey = $c \
                  CURRENCY BOUND 30 SEC ON (c), 30 SEC ON (o); \
                  END",
            robust: false,
        },
        // Credit check on a possibly-stale balance, then the order insert:
        // payment/delivery writes reach back into the insert.
        TemplateCase {
            name: "new_order",
            sql: "CREATE TEMPLATE new_order ($c, $o, $price) AS \
                  SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                    CURRENCY BOUND 10 SEC ON (customer); \
                  INSERT INTO orders (o_custkey, o_orderkey, o_totalprice, o_status) \
                    VALUES ($c, $o, $price, 'N'); \
                  END",
            robust: false,
        },
        // Write-only delivery: no relaxed reads, always strict.
        TemplateCase {
            name: "delivery",
            sql: "CREATE TEMPLATE delivery ($c, $o) AS \
                  UPDATE customer SET c_acctbal = 0.0 WHERE c_custkey = $c; \
                  UPDATE orders SET o_status = 'D' \
                    WHERE o_custkey = $c AND o_orderkey = $o; \
                  END",
            robust: true,
        },
        // Read-only relaxed scan, single statement, single class.
        TemplateCase {
            name: "stock_report",
            sql: "CREATE TEMPLATE stock_report () AS \
                  SELECT c_name, c_acctbal FROM customer \
                    CURRENCY BOUND 1 MIN ON (customer); \
                  END",
            robust: true,
        },
    ]
}

/// One mutation: a minimal workload in which `target` has the expected
/// base verdict, plus an edited workload in which the verdict flips.
#[derive(Debug, Clone, Copy)]
pub struct TemplateMutation {
    /// What the mutation does, for diagnostics.
    pub label: &'static str,
    /// The template whose verdict must flip.
    pub target: &'static str,
    /// Base workload (`CREATE TEMPLATE` statements).
    pub base: &'static [&'static str],
    /// Mutated workload.
    pub mutated: &'static [&'static str],
    /// `target`'s verdict under `base`; under `mutated` it must be the
    /// negation.
    pub base_robust: bool,
}

/// The three canonical robustness-breaking edits.
pub fn template_mutation_corpus() -> Vec<TemplateMutation> {
    vec![
        // A read-only report splitting its reads over two statements is
        // fine in a read-only workload; introducing one conflicting writer
        // fractures it.
        TemplateMutation {
            label: "add conflicting write",
            target: "report_pair",
            base: &["CREATE TEMPLATE report_pair ($c) AS \
                     SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                       CURRENCY BOUND 10 SEC ON (customer); \
                     SELECT c_name FROM customer WHERE c_custkey = $c; \
                     END"],
            mutated: &[
                "CREATE TEMPLATE report_pair ($c) AS \
                 SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                   CURRENCY BOUND 10 SEC ON (customer); \
                 SELECT c_name FROM customer WHERE c_custkey = $c; \
                 END",
                "CREATE TEMPLATE bump ($c, $amt) AS \
                 UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; \
                 END",
            ],
            base_robust: true,
        },
        // Loosening the payment read from bound 0 to 10 SEC re-opens the
        // lost-update window between two instances of the template.
        TemplateMutation {
            label: "loosen a bound",
            target: "pay_once",
            base: &["CREATE TEMPLATE pay_once ($c, $amt) AS \
                     SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                       CURRENCY BOUND 0 SEC ON (customer); \
                     UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; \
                     END"],
            mutated: &["CREATE TEMPLATE pay_once ($c, $amt) AS \
                        SELECT c_acctbal FROM customer WHERE c_custkey = $c \
                          CURRENCY BOUND 10 SEC ON (customer); \
                        UPDATE customer SET c_acctbal = $amt WHERE c_custkey = $c; \
                        END"],
            base_robust: true,
        },
        // The reader is pinned to customer 1, the only customer writer to
        // customer 2 — provably disjoint points. Dropping the writer's key
        // predicate turns it into a range write over every customer.
        TemplateMutation {
            label: "drop a key predicate",
            target: "vip_audit",
            base: &[
                "CREATE TEMPLATE vip_audit () AS \
                 SELECT c_acctbal FROM customer WHERE c_custkey = 1 \
                   CURRENCY BOUND 10 SEC ON (customer); \
                 UPDATE orders SET o_status = 'A' \
                   WHERE o_custkey = 1 AND o_orderkey = 1; \
                 END",
                "CREATE TEMPLATE clear_two () AS \
                 UPDATE customer SET c_acctbal = 0.0 WHERE c_custkey = 2; \
                 END",
            ],
            mutated: &[
                "CREATE TEMPLATE vip_audit () AS \
                 SELECT c_acctbal FROM customer WHERE c_custkey = 1 \
                   CURRENCY BOUND 10 SEC ON (customer); \
                 UPDATE orders SET o_status = 'A' \
                   WHERE o_custkey = 1 AND o_orderkey = 1; \
                 END",
                "CREATE TEMPLATE clear_two () AS \
                 UPDATE customer SET c_acctbal = 0.0; \
                 END",
            ],
            base_robust: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_mixed() {
        let corpus = robust_template_corpus();
        assert_eq!(corpus.len(), 8);
        assert!(corpus.iter().any(|c| c.robust));
        assert!(corpus.iter().any(|c| !c.robust));
        // Names are unique and embedded in their SQL.
        for (i, c) in corpus.iter().enumerate() {
            assert!(c.sql.contains(c.name), "{} not in sql", c.name);
            assert!(
                corpus[i + 1..].iter().all(|d| d.name != c.name),
                "duplicate {}",
                c.name
            );
        }
    }

    #[test]
    fn mutations_cover_the_three_edits() {
        let muts = template_mutation_corpus();
        assert_eq!(muts.len(), 3);
        for m in &muts {
            assert!(m.base.iter().any(|s| s.contains(m.target)));
            assert!(m.mutated.iter().any(|s| s.contains(m.target)));
        }
    }
}
