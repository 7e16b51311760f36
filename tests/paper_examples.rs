//! Every example constraint from the paper's Section 2, on the bookstore
//! schema its exposition uses (Books, Reviews, Sales): the single-block
//! clauses E1–E4 (Fig. 2.1), the multi-block queries Q2/Q3 (Fig. 2.2) and
//! their normalization, and the timeline-consistency session of Sec. 2.3.

use rcc_common::{Duration, Value};
use rcc_mtcache::MTCache;
use rcc_optimizer::bind_select;
use rcc_sql::{parse_statement, Statement};
use std::collections::HashMap;

/// Build the bookstore: Books and Reviews cached in one region (so E1-style
/// mutual consistency is locally satisfiable), Sales in another.
fn bookstore() -> MTCache {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE books (isbn INT, title VARCHAR, price FLOAT, PRIMARY KEY (isbn))")
        .unwrap();
    cache
        .execute(
            "CREATE TABLE reviews (review_id INT, isbn INT, rating INT, PRIMARY KEY (review_id))",
        )
        .unwrap();
    cache
        .execute("CREATE TABLE sales (sale_id INT, isbn INT, year INT, PRIMARY KEY (sale_id))")
        .unwrap();
    for i in 1..=20 {
        cache
            .execute(&format!(
                "INSERT INTO books VALUES ({i}, 'Book {i}', {}.5)",
                10 + i
            ))
            .unwrap();
        cache
            .execute(&format!(
                "INSERT INTO reviews VALUES ({i}, {}, {})",
                (i % 10) + 1,
                (i % 5) + 1
            ))
            .unwrap();
        cache
            .execute(&format!(
                "INSERT INTO sales VALUES ({i}, {}, {})",
                (i % 7) + 1,
                2000 + i % 5
            ))
            .unwrap();
    }
    for t in ["books", "reviews", "sales"] {
        cache.analyze(t).unwrap();
    }
    cache
        .create_region("BOOKSHELF", Duration::from_secs(10), Duration::from_secs(2))
        .unwrap();
    cache
        .create_region("SALESREG", Duration::from_secs(10), Duration::from_secs(2))
        .unwrap();
    cache
        .execute(
            "CREATE CACHED VIEW books_v REGION bookshelf AS SELECT isbn, title, price FROM books",
        )
        .unwrap();
    cache
        .execute(
            "CREATE CACHED VIEW reviews_v REGION bookshelf AS \
             SELECT review_id, isbn, rating FROM reviews",
        )
        .unwrap();
    cache
        .execute(
            "CREATE CACHED VIEW sales_v REGION salesreg AS SELECT sale_id, isbn, year FROM sales",
        )
        .unwrap();
    cache.advance(Duration::from_secs(30)).unwrap();
    cache
}

const JOIN: &str = "SELECT b.title, r.rating FROM books b, reviews r WHERE b.isbn = r.isbn";

#[test]
fn e1_single_consistency_class() {
    // E1: inputs <= 10 min stale AND mutually consistent
    let cache = bookstore();
    let sql = format!("{JOIN} CURRENCY BOUND 10 MIN ON (b, r)");
    let r = cache.execute(&sql).unwrap();
    assert!(!r.rows.is_empty());
    // both views share a region, so the constraint binds {b, r} into one
    // class -- check the normalized form
    let stmt = match parse_statement(&sql).unwrap() {
        Statement::Select(s) => *s,
        _ => unreachable!(),
    };
    let graph = bind_select(cache.catalog(), &stmt, &HashMap::new()).unwrap();
    assert_eq!(graph.constraint.classes.len(), 1);
    assert_eq!(graph.constraint.classes[0].bound, Duration::from_mins(10));
    assert_eq!(graph.constraint.classes[0].operands.len(), 2);
}

#[test]
fn e2_relaxed_independent_classes() {
    // E2: 10 min on B, 30 min on R, no mutual consistency
    let cache = bookstore();
    let sql = format!("{JOIN} CURRENCY BOUND 10 MIN ON (b), 30 MIN ON (r)");
    let r = cache.execute(&sql).unwrap();
    assert!(!r.rows.is_empty());
    let stmt = match parse_statement(&sql).unwrap() {
        Statement::Select(s) => *s,
        _ => unreachable!(),
    };
    let graph = bind_select(cache.catalog(), &stmt, &HashMap::new()).unwrap();
    assert_eq!(graph.constraint.classes.len(), 2);
    assert_eq!(graph.constraint.bound_of(0), Duration::from_mins(10));
    assert_eq!(graph.constraint.bound_of(1), Duration::from_mins(30));
}

#[test]
fn e3_per_row_grouping_parses_and_normalizes() {
    // E3: per-isbn grouping on both tables, separate classes
    let cache = bookstore();
    let sql = format!("{JOIN} CURRENCY BOUND 10 MIN ON (b) BY b.isbn, 10 MIN ON (r) BY r.isbn");
    let stmt = match parse_statement(&sql).unwrap() {
        Statement::Select(s) => *s,
        _ => unreachable!(),
    };
    let graph = bind_select(cache.catalog(), &stmt, &HashMap::new()).unwrap();
    assert_eq!(graph.constraint.classes.len(), 2);
    assert_eq!(graph.constraint.classes[0].by.len(), 1);
    // execution works too: transactional replication keeps whole views
    // snapshot consistent, which subsumes group-level consistency
    let r = cache.execute(&sql).unwrap();
    assert!(!r.rows.is_empty());
}

#[test]
fn e4_join_pair_grouping() {
    // E4: each Books row consistent with the Reviews rows it joins with
    let cache = bookstore();
    let sql = format!("{JOIN} CURRENCY BOUND 10 MIN ON (b, r) BY b.isbn");
    let stmt = match parse_statement(&sql).unwrap() {
        Statement::Select(s) => *s,
        _ => unreachable!(),
    };
    let graph = bind_select(cache.catalog(), &stmt, &HashMap::new()).unwrap();
    assert_eq!(graph.constraint.classes.len(), 1);
    assert_eq!(
        graph.constraint.classes[0].by,
        vec![("b".to_string(), "isbn".to_string())]
    );
    assert!(!cache.execute(&sql).unwrap().rows.is_empty());
}

#[test]
fn q2_from_subquery_constraints_merge_to_least_restrictive() {
    // Sec. 2.2: outer "5 min (S, T)" over T = (B join R) with inner
    // "10 min (B, R)" => least restrictive combined form "5 min (S, B, R)"
    let cache = bookstore();
    let sql = "SELECT t.title, s.year FROM \
               (SELECT b.isbn, b.title FROM books b, reviews r WHERE b.isbn = r.isbn \
                CURRENCY BOUND 10 MIN ON (b, r)) t, sales s \
               WHERE t.isbn = s.isbn \
               CURRENCY BOUND 5 MIN ON (s, t)";
    let stmt = match parse_statement(sql).unwrap() {
        Statement::Select(s) => *s,
        _ => unreachable!(),
    };
    let graph = bind_select(cache.catalog(), &stmt, &HashMap::new()).unwrap();
    assert_eq!(graph.constraint.classes.len(), 1, "one merged class");
    assert_eq!(graph.constraint.classes[0].bound, Duration::from_mins(5));
    assert_eq!(graph.constraint.classes[0].operands.len(), 3, "S, B, R");
    // sales_v is in a different region: a fully local answer cannot
    // guarantee the class; execution goes remote and still succeeds
    let r = cache.execute(sql).unwrap();
    assert!(!r.rows.is_empty());
    assert!(r.used_remote);
}

#[test]
fn q3_exists_subquery_links_inner_and_outer_classes() {
    // Sec. 2.2 Q3: the EXISTS subquery's clause names the outer table B,
    // merging everything into a single consistency class
    let cache = bookstore();
    let sql = "SELECT b.title, r.rating FROM books b, reviews r \
               WHERE b.isbn = r.isbn AND \
               EXISTS (SELECT * FROM sales s WHERE s.isbn = b.isbn AND s.year = 2003 \
                       CURRENCY BOUND 10 MIN ON (s, b)) \
               CURRENCY BOUND 10 MIN ON (b, r)";
    let stmt = match parse_statement(sql).unwrap() {
        Statement::Select(s) => *s,
        _ => unreachable!(),
    };
    let graph = bind_select(cache.catalog(), &stmt, &HashMap::new()).unwrap();
    assert_eq!(graph.constraint.classes.len(), 1, "B, R, S all one class");
    assert_eq!(graph.constraint.classes[0].operands.len(), 3);
    let r = cache.execute(sql).unwrap();
    // ground truth without constraints
    let truth = cache
        .execute(
            "SELECT b.title, r.rating FROM books b, reviews r \
             WHERE b.isbn = r.isbn AND \
             EXISTS (SELECT * FROM sales s WHERE s.isbn = b.isbn AND s.year = 2003)",
        )
        .unwrap();
    assert_eq!(r.rows.len(), truth.rows.len());
}

#[test]
fn q3_variant_without_outer_reference_keeps_classes_separate() {
    // "If S need not be consistent with any tables in the outer block, we
    // simply omit the reference to B"
    let cache = bookstore();
    let sql = "SELECT b.title FROM books b WHERE \
               EXISTS (SELECT * FROM sales s WHERE s.isbn = b.isbn \
                       CURRENCY BOUND 10 MIN ON (s)) \
               CURRENCY BOUND 10 MIN ON (b)";
    let stmt = match parse_statement(sql).unwrap() {
        Statement::Select(s) => *s,
        _ => unreachable!(),
    };
    let graph = bind_select(cache.catalog(), &stmt, &HashMap::new()).unwrap();
    assert_eq!(graph.constraint.classes.len(), 2);
    // both classes are singletons served by different regions: the whole
    // query can run locally
    let r = cache.execute(sql).unwrap();
    assert!(!r.used_remote, "plan: {}", r.plan_explain());
}

#[test]
fn timeline_consistency_session() {
    // Sec. 2.3: "users may not even see their own changes unless timeline
    // consistency is specified, because a later query may use a replica
    // that has not yet been updated."
    let cache = bookstore();
    let mut session = cache.session();

    session.execute("BEGIN TIMEORDERED").unwrap();
    // 1) current read (no clause -> back-end): sees the latest price
    session
        .execute("UPDATE books SET price = 99.0 WHERE isbn = 1")
        .unwrap();
    let fresh = session
        .execute("SELECT price FROM books WHERE isbn = 1")
        .unwrap();
    assert_eq!(fresh.rows[0].get(0), &Value::Float(99.0));

    // 2) later bounded read: the replica has NOT yet received the update,
    // so using it would move time backwards; the session floor forces the
    // guard to fail and the read goes remote
    let later = session
        .execute("SELECT price FROM books WHERE isbn = 1 CURRENCY BOUND 60 SEC ON (books)")
        .unwrap();
    assert_eq!(
        later.rows[0].get(0),
        &Value::Float(99.0),
        "must see own change"
    );
    assert!(later.used_remote, "stale replica skipped under TIMEORDERED");

    session.execute("END TIMEORDERED").unwrap();

    // without the bracket the same read happily uses the stale replica
    let unordered = cache
        .execute("SELECT price FROM books WHERE isbn = 1 CURRENCY BOUND 60 SEC ON (books)")
        .unwrap();
    assert!(!unordered.used_remote);
    assert_ne!(
        unordered.rows[0].get(0),
        &Value::Float(99.0),
        "did not see own change"
    );

    // once replication catches up, the bounded read sees it too
    cache.advance(Duration::from_secs(30)).unwrap();
    let caught_up = cache
        .execute("SELECT price FROM books WHERE isbn = 1 CURRENCY BOUND 60 SEC ON (books)")
        .unwrap();
    assert_eq!(caught_up.rows[0].get(0), &Value::Float(99.0));
}

#[test]
fn timeline_floors_reset_between_brackets() {
    let cache = bookstore();
    let mut session = cache.session();
    session.execute("BEGIN TIMEORDERED").unwrap();
    session
        .execute("SELECT title FROM books WHERE isbn = 1")
        .unwrap(); // remote, raises floors
    assert!(!session.floors().is_empty());
    session.execute("END TIMEORDERED").unwrap();
    assert!(session.floors().is_empty());
    assert!(!session.is_timeordered());
}

#[test]
fn local_reads_within_bracket_stay_local_when_no_newer_data_seen() {
    // forward movement only constrains *relative* order: two bounded reads
    // of the same fresh replica are fine locally
    let cache = bookstore();
    let mut session = cache.session();
    session.execute("BEGIN TIMEORDERED").unwrap();
    let a = session
        .execute("SELECT title FROM books WHERE isbn = 1 CURRENCY BOUND 60 SEC ON (books)")
        .unwrap();
    let b = session
        .execute("SELECT title FROM books WHERE isbn = 2 CURRENCY BOUND 60 SEC ON (books)")
        .unwrap();
    assert!(!a.used_remote);
    assert!(!b.used_remote, "same snapshot, time did not move backwards");
}
