//! DDL/DML surface tests for the cache server: full SQL-scripted setup
//! (including `CREATE REGION`), forwarded DML semantics, and the
//! query-result cache.

use rcc_common::{Clock, Duration, Error, Value};
use rcc_mtcache::{MTCache, QueryResultCache};

#[test]
fn fully_sql_scripted_setup() {
    // everything through SQL — no programmatic setup calls at all
    let cache = MTCache::new();
    for stmt in [
        "CREATE TABLE inv (sku INT, qty INT, PRIMARY KEY (sku))",
        "INSERT INTO inv VALUES (1, 10), (2, 20), (3, 30)",
        "CREATE REGION warehouse INTERVAL 10 SEC DELAY 2 SEC",
        "CREATE CACHED VIEW inv_v REGION warehouse AS SELECT sku, qty FROM inv",
    ] {
        cache
            .execute(stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
    cache.analyze("inv").unwrap();
    cache.advance(Duration::from_secs(30)).unwrap();
    let r = cache
        .execute("SELECT qty FROM inv WHERE sku = 2 CURRENCY BOUND 30 SEC ON (inv)")
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(20));
    assert!(!r.used_remote);
}

#[test]
fn create_region_duplicate_rejected() {
    let cache = MTCache::new();
    cache
        .execute("CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    let err = cache
        .execute("CREATE REGION r INTERVAL 9 SEC DELAY 1 SEC")
        .unwrap_err();
    assert!(matches!(err, Error::AlreadyExists(_)));
}

#[test]
fn insert_variants_and_errors() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, b VARCHAR, c FLOAT, PRIMARY KEY (a))")
        .unwrap();
    // full-row insert, multi-row
    cache
        .execute("INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5)")
        .unwrap();
    // column-list insert: missing column becomes NULL
    cache
        .execute("INSERT INTO t (a, b) VALUES (3, 'z')")
        .unwrap();
    let r = cache.execute("SELECT c FROM t WHERE a = 3").unwrap();
    assert!(r.rows[0].get(0).is_null());
    // negative literals
    cache
        .execute("INSERT INTO t VALUES (4, 'n', -2.5)")
        .unwrap();
    // arity mismatch
    assert!(cache.execute("INSERT INTO t (a, b) VALUES (5)").is_err());
    // duplicate key propagates a storage error
    assert!(cache
        .execute("INSERT INTO t VALUES (1, 'dup', 0.0)")
        .is_err());
    // non-literal values rejected
    assert!(cache
        .execute("INSERT INTO t VALUES (6, 'e', a + 1)")
        .is_err());
}

#[test]
fn update_with_expressions_and_no_match() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))")
        .unwrap();
    cache
        .execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        .unwrap();
    // expression referencing the row
    cache
        .execute("UPDATE t SET v = v * 2 + 1 WHERE a = 1")
        .unwrap();
    let r = cache.execute("SELECT v FROM t WHERE a = 1").unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(21));
    // predicate matching nothing is a no-op, not an error
    cache.execute("UPDATE t SET v = 0 WHERE a = 999").unwrap();
    // unqualified update (all rows)
    cache.execute("UPDATE t SET v = 7").unwrap();
    let r = cache.execute("SELECT v FROM t ORDER BY 1").unwrap();
    assert!(r.rows.iter().all(|row| row.get(0) == &Value::Int(7)));
    // unknown column in assignment
    assert!(cache.execute("UPDATE t SET zz = 1").is_err());
}

#[test]
fn delete_with_in_list_and_unqualified() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, PRIMARY KEY (a))")
        .unwrap();
    for i in 0..10 {
        cache
            .execute(&format!("INSERT INTO t VALUES ({i})"))
            .unwrap();
    }
    cache.execute("DELETE FROM t WHERE a IN (1, 3, 5)").unwrap();
    assert_eq!(cache.execute("SELECT a FROM t").unwrap().rows.len(), 7);
    cache.execute("DELETE FROM t").unwrap();
    assert!(cache.execute("SELECT a FROM t").unwrap().rows.is_empty());
}

#[test]
fn key_pinned_dml_seeks_one_row() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, b INT, v INT, PRIMARY KEY (a, b))")
        .unwrap();
    cache
        .execute("INSERT INTO t VALUES (1, 1, 10), (1, 2, 20), (2, 1, 0), (2, 2, 40)")
        .unwrap();
    let affected = |sql: &str| {
        let r = cache.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let n = r.warnings[0].split(' ').next().unwrap().parse::<usize>();
        n.unwrap_or_else(|_| panic!("{sql}: {:?}", r.warnings))
    };
    let v_of = |a: i64, b: i64| {
        let r = cache
            .execute(&format!("SELECT v FROM t WHERE a = {a} AND b = {b}"))
            .unwrap();
        r.rows[0].get(0).clone()
    };
    // every key column pinned, in any spelling and operand order
    assert_eq!(affected("UPDATE t SET v = v + 1 WHERE a = 1 AND b = 2"), 1);
    assert_eq!(affected("UPDATE t SET v = v + 1 WHERE 2 = B AND A = 1"), 1);
    assert_eq!(v_of(1, 2), Value::Int(22));
    assert_eq!(v_of(1, 1), Value::Int(10));
    // the residual conjunct is still evaluated on the row found
    assert_eq!(
        affected("UPDATE t SET v = 0 WHERE a = 1 AND b = 2 AND v > 100"),
        0
    );
    assert_eq!(
        affected("UPDATE t SET v = 0 WHERE a = 1 AND a = 2 AND b = 2"),
        0
    );
    assert_eq!(affected("UPDATE t SET v = 0 WHERE a = 7 AND b = 7"), 0);
    // only the named row is evaluated: the scan would divide by (2, 1)'s zero
    assert_eq!(
        affected("UPDATE t SET v = 5 WHERE 100 / v > 1 AND a = 1 AND b = 1"),
        1
    );
    assert!(cache
        .execute("UPDATE t SET v = 5 WHERE 100 / v > 1 AND a = 1")
        .is_err());
    // a partly pinned key, or a literal of another type, takes the scan
    assert_eq!(affected("UPDATE t SET v = 9 WHERE a = 2"), 2);
    assert_eq!(affected("UPDATE t SET v = 8 WHERE a = 2.0 AND b = 2.0"), 1);
    assert_eq!(v_of(2, 2), Value::Int(8));
    assert!(cache
        .execute("UPDATE t SET v = 1 WHERE a = 'x' AND b = 2")
        .is_err());
    // DELETE goes the same way
    assert_eq!(affected("DELETE FROM t WHERE a = 1 AND b = 2 AND v = 0"), 0);
    assert_eq!(affected("DELETE FROM t WHERE a = 1 AND b = 2"), 1);
    assert_eq!(cache.execute("SELECT a FROM t").unwrap().rows.len(), 3);
}

#[test]
fn dml_and_view_definitions_bind_through_the_select_binder() {
    let cache = MTCache::new();
    for stmt in [
        "CREATE TABLE t (a INT, b INT, v INT, ts TIMESTAMP, PRIMARY KEY (a))",
        "INSERT INTO t (a, b, v) VALUES (1, 10, -1), (2, 20, 0), (3, 30, 1), (4, 40, 2)",
        "CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC",
    ] {
        cache.execute(stmt).unwrap();
    }
    cache.advance(Duration::from_secs(5)).unwrap();
    let affected = |sql: &str| {
        let r = cache.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        r.warnings[0]
            .split(' ')
            .next()
            .unwrap()
            .parse::<usize>()
            .unwrap()
    };
    // GETDATE(), IS NULL, a constant conjunct
    let now = cache.clock().now().millis();
    assert_eq!(
        affected("UPDATE t SET ts = GETDATE() WHERE ts IS NULL AND 1 = 1"),
        4
    );
    // a table-qualified column, BETWEEN, unary minus
    assert_eq!(
        affected("UPDATE t SET v = -v WHERE t.b BETWEEN 15 AND 35"),
        2
    );
    // an IN list
    assert_eq!(
        affected("DELETE FROM t WHERE a IN (1, 4) AND ts IS NOT NULL"),
        2
    );
    let rows = cache.execute("SELECT a, v, ts FROM t ORDER BY 1").unwrap();
    let rows: Vec<&[Value]> = rows.rows.iter().map(|r| r.values()).collect();
    assert_eq!(
        rows,
        [
            [Value::Int(2), Value::Int(0), Value::Timestamp(now)],
            [Value::Int(3), Value::Int(-1), Value::Timestamp(now)],
        ]
    );
    // a pinned key still reads the one row: the scan divides by row 2's 0
    assert!(cache
        .execute("UPDATE t SET v = 7 WHERE 10 / v < 0")
        .is_err());
    assert_eq!(affected("UPDATE t SET v = 7 WHERE 10 / v < 0 AND a = 3"), 1);

    // a view predicate over an alias-qualified column
    cache
        .execute("CREATE CACHED VIEW t_v REGION r AS SELECT x.a, x.v FROM t x WHERE x.a < 3")
        .unwrap();
    let predicate = cache.catalog().view("t_v").unwrap().predicate.clone();
    let predicate = predicate.expect("a range predicate");
    assert_eq!(predicate.column, "a");
    assert!(predicate.range.contains(&Value::Int(2)) && !predicate.range.contains(&Value::Int(3)));

    // typed errors, no panics
    for bad in [
        "UPDATE t SET v = 1 WHERE zz = 1",
        "UPDATE t SET v = 1 WHERE x.a = 1",
        "DELETE FROM t WHERE a = $p",
        "UPDATE t SET v = COUNT(*)",
        "DELETE FROM t WHERE COUNT(*) > 1",
        "UPDATE t SET v = 1 WHERE a IN (SELECT a FROM t)",
        "DELETE FROM t WHERE a IN (SELECT b FROM t)",
        "CREATE CACHED VIEW t_w REGION r AS SELECT a, v FROM t x WHERE t.a < 3",
        "CREATE CACHED VIEW t_w REGION r AS SELECT a, v FROM t WHERE a IN (SELECT b FROM t)",
    ] {
        let err = cache.execute(bad).unwrap_err();
        assert!(matches!(err, Error::Analysis(_)), "{bad}: {err:?}");
    }
    assert_eq!(cache.execute("SELECT a FROM t").unwrap().rows.len(), 2);
}

#[test]
fn create_index_makes_backend_range_queries_cheap() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, v FLOAT, PRIMARY KEY (a))")
        .unwrap();
    for i in 0..500 {
        cache
            .execute(&format!("INSERT INTO t VALUES ({i}, {})", i as f64 / 2.0))
            .unwrap();
    }
    cache.execute("CREATE INDEX ix_v ON t (v)").unwrap();
    cache.analyze("t").unwrap();
    // the catalog now advertises the index and the master table has it
    let meta = cache.catalog().table("t").unwrap();
    assert!(meta.index_on("v").is_some());
    let r = cache
        .execute("SELECT a FROM t WHERE v BETWEEN 10.0 AND 12.0")
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    // duplicate index name rejected
    assert!(cache.execute("CREATE INDEX ix_v ON t (a)").is_err());
    // unknown column rejected
    assert!(cache.execute("CREATE INDEX ix_zz ON t (zz)").is_err());
}

#[test]
fn cached_view_ddl_validation() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a))")
        .unwrap();
    cache
        .execute("CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    // must retain the key
    assert!(cache
        .execute("CREATE CACHED VIEW v1 REGION r AS SELECT b FROM t")
        .is_err());
    // unknown region
    assert!(cache
        .execute("CREATE CACHED VIEW v2 REGION ghost AS SELECT a, b FROM t")
        .is_err());
    // joins not allowed in view definitions
    assert!(cache
        .execute("CREATE CACHED VIEW v3 REGION r AS SELECT x.a FROM t x, t y WHERE x.a = y.a")
        .is_err());
    // predicate must be a single-column range
    assert!(cache
        .execute("CREATE CACHED VIEW v4 REGION r AS SELECT a, b FROM t WHERE a < 5 AND b > 2")
        .is_err());
    // a valid selection view works and its predicate column must be retained
    cache
        .execute("CREATE CACHED VIEW v5 REGION r AS SELECT a, b FROM t WHERE a < 100")
        .unwrap();
    // duplicate view name
    assert!(cache
        .execute("CREATE CACHED VIEW v5 REGION r AS SELECT a, b FROM t")
        .is_err());
}

#[test]
fn qcache_distinguishes_queries_and_clears() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, PRIMARY KEY (a))")
        .unwrap();
    cache.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    cache.analyze("t").unwrap();
    cache
        .execute("CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW t_v REGION r AS SELECT a FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(20)).unwrap();

    let qc = QueryResultCache::new();
    let q1 = "SELECT a FROM t WHERE a = 1 CURRENCY BOUND 60 SEC ON (t)";
    let q2 = "SELECT a FROM t WHERE a = 2 CURRENCY BOUND 60 SEC ON (t)";
    qc.execute(&cache, q1).unwrap();
    qc.execute(&cache, q2).unwrap();
    assert_eq!(qc.len(), 2);
    assert_eq!(qc.stats(), (0, 2));
    qc.execute(&cache, q1).unwrap();
    assert_eq!(qc.stats(), (1, 2));
    qc.clear();
    assert!(qc.is_empty());
    // queries without a clause (bound 0) are never served from the cache
    let hits_before = qc.stats().0;
    let q3 = "SELECT a FROM t WHERE a = 1";
    qc.execute(&cache, q3).unwrap();
    qc.execute(&cache, q3).unwrap();
    assert_eq!(qc.stats().0, hits_before, "no hits for bound-0 queries");
    assert!(qc.is_empty(), "bound-0 results are not stored either");
}

#[test]
fn qcache_bounds_capacity_with_lru_eviction() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, PRIMARY KEY (a))")
        .unwrap();
    cache
        .execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        .unwrap();
    cache.analyze("t").unwrap();
    cache
        .execute("CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW t_v REGION r AS SELECT a FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(20)).unwrap();

    let qc = QueryResultCache::with_capacity(2);
    assert_eq!(qc.capacity(), 2);
    let q = |i: i64| format!("SELECT a FROM t WHERE a = {i} CURRENCY BOUND 60 SEC ON (t)");
    qc.execute(&cache, &q(1)).unwrap();
    qc.execute(&cache, &q(2)).unwrap();
    // touch q1 so q2 is the LRU victim when q3 arrives
    qc.execute(&cache, &q(1)).unwrap();
    qc.execute(&cache, &q(3)).unwrap();
    assert_eq!(qc.len(), 2, "capacity bound holds");
    let misses_before = qc.stats().1;
    qc.execute(&cache, &q(1)).unwrap();
    qc.execute(&cache, &q(3)).unwrap();
    assert_eq!(qc.stats().1, misses_before, "recently used entries survive");
    qc.execute(&cache, &q(2)).unwrap();
    assert_eq!(qc.stats().1, misses_before + 1, "LRU entry was evicted");
}

#[test]
fn qcache_memoizes_bound_across_expiry() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, PRIMARY KEY (a))")
        .unwrap();
    cache.execute("INSERT INTO t VALUES (1)").unwrap();
    cache.analyze("t").unwrap();
    cache
        .execute("CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW t_v REGION r AS SELECT a FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(20)).unwrap();

    let qc = QueryResultCache::new();
    let q = "SELECT a FROM t WHERE a = 1 CURRENCY BOUND 30 SEC ON (t)";
    let r1 = qc.execute(&cache, q).unwrap();
    // let the stored result expire: recompute must go through the full
    // pipeline again (a miss), whose plan-cache entry gives the bound anew
    cache.advance(Duration::from_secs(60)).unwrap();
    let r2 = qc.execute(&cache, q).unwrap();
    assert_eq!(qc.stats(), (0, 2), "expired entry recomputes");
    assert_eq!(r1.rows, r2.rows);
    // and a prompt re-execution is a hit again
    qc.execute(&cache, q).unwrap();
    assert_eq!(qc.stats(), (1, 2));
    // what is not a query is refused before anything runs
    assert!(qc.execute(&cache, "DELETE FROM t").is_err());
    assert_eq!(qc.stats(), (1, 2));
    assert_eq!(cache.execute("SELECT a FROM t").unwrap().rows.len(), 1);
}

#[test]
fn dml_on_unknown_table_fails_cleanly() {
    let cache = MTCache::new();
    assert!(matches!(
        cache.execute("INSERT INTO ghost VALUES (1)"),
        Err(Error::NotFound(_))
    ));
    assert!(matches!(
        cache.execute("UPDATE ghost SET a = 1"),
        Err(Error::NotFound(_))
    ));
    assert!(matches!(
        cache.execute("DELETE FROM ghost"),
        Err(Error::NotFound(_))
    ));
}

#[test]
fn drop_cached_view_ends_subscription_and_recompiles_plans() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))")
        .unwrap();
    for i in 0..20 {
        cache
            .execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    cache.analyze("t").unwrap();
    cache
        .execute("CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW t_v REGION r AS SELECT a, v FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(20)).unwrap();

    const Q: &str = "SELECT v FROM t WHERE a = 3 CURRENCY BOUND 30 SEC ON (t)";
    let before = cache.execute(Q).unwrap();
    assert!(!before.used_remote, "view serves locally");

    cache.execute("DROP CACHED VIEW t_v").unwrap();
    assert!(cache.catalog().view("t_v").is_err());
    assert!(!cache.cache_storage().contains("t_v"));

    // the cached plan referencing the dropped view must NOT be reused
    let after = cache.execute(Q).unwrap();
    assert!(
        after.used_remote,
        "no view left → remote: {}",
        after.plan_explain()
    );
    assert_eq!(after.rows[0].get(0), &Value::Int(3));

    // replication keeps working for remaining subscriptions (none) and the
    // agent survives future cycles
    cache.execute("UPDATE t SET v = 99 WHERE a = 3").unwrap();
    cache.advance(Duration::from_secs(20)).unwrap();

    // dropping again fails cleanly; re-creating works and re-populates
    assert!(cache.execute("DROP CACHED VIEW t_v").is_err());
    cache
        .execute("CREATE CACHED VIEW t_v REGION r AS SELECT a, v FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(20)).unwrap();
    let back = cache.execute(Q).unwrap();
    assert!(!back.used_remote);
    assert_eq!(
        back.rows[0].get(0),
        &Value::Int(99),
        "recreated view caught up"
    );
}

#[test]
fn dropping_one_view_leaves_siblings_replicating() {
    let cache = MTCache::new();
    cache
        .execute("CREATE TABLE t (a INT, v INT, PRIMARY KEY (a))")
        .unwrap();
    cache.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    cache.analyze("t").unwrap();
    cache
        .execute("CREATE REGION r INTERVAL 5 SEC DELAY 1 SEC")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW v1 REGION r AS SELECT a, v FROM t")
        .unwrap();
    cache
        .execute("CREATE CACHED VIEW v2 REGION r AS SELECT a, v FROM t")
        .unwrap();
    cache.advance(Duration::from_secs(10)).unwrap();
    cache.execute("DROP CACHED VIEW v1").unwrap();
    cache.execute("UPDATE t SET v = 77 WHERE a = 1").unwrap();
    cache.advance(Duration::from_secs(10)).unwrap();
    // v2 still follows the master
    let v2 = cache.cache_storage().table("v2").unwrap();
    assert_eq!(
        v2.snapshot().row(&[rcc_common::Value::Int(1)]).unwrap()[1],
        Value::Int(77)
    );
}
