//! `x NOT IN (SELECT y …)` keeps SQL's NULL rules, which `NOT EXISTS`
//! does not share: a NULL among the `y`s leaves no row standing, and a
//! NULL `x` stands only against an empty subquery. Held on every path
//! the statement can take — shipped whole to the back-end, or joined at
//! the cache against a cached view by hash or by index nested loop, with
//! the view's guard passing or failing.

use rcc_common::{Duration, Error, Value};
use rcc_mtcache::MTCache;

/// `t(a, x)` = (1, 10), (2, 20), (3, NULL); `u(b, y)` = (1, 10), (2, NULL)
/// and, so that a seek into `u` can pay, (b, 10·b) for b in 3..2000 —
/// clustered on `key`. With `cached`, both are cached views of region
/// `r`.
fn rig(key: &str, cached: bool) -> MTCache {
    let cache = MTCache::new();
    let many: Vec<String> = (3..2000).map(|b| format!("({b}, {})", 10 * b)).collect();
    let mut script = vec![
        "CREATE TABLE t (a INT, x INT, PRIMARY KEY (a))".to_string(),
        "INSERT INTO t VALUES (1, 10), (2, 20), (3, NULL)".to_string(),
        format!("CREATE TABLE u (b INT, y INT, PRIMARY KEY ({key}))"),
        "INSERT INTO u VALUES (1, 10), (2, NULL)".to_string(),
        format!("INSERT INTO u VALUES {}", many.join(", ")),
    ];
    if cached {
        script.extend([
            "CREATE REGION r INTERVAL 10 SEC DELAY 2 SEC".to_string(),
            "CREATE CACHED VIEW t_v REGION r AS SELECT a, x FROM t".to_string(),
            "CREATE CACHED VIEW u_v REGION r AS SELECT b, y FROM u".to_string(),
        ]);
    }
    for stmt in &script {
        cache
            .execute(stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
    cache.analyze("t").unwrap();
    cache.analyze("u").unwrap();
    cache.advance(Duration::from_secs(30)).unwrap();
    cache
}

/// The `a`s a statement returns, sorted, and its plan.
fn answer(cache: &MTCache, sql: &str) -> (Vec<i64>, String) {
    let r = cache.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut a: Vec<i64> = r
        .rows
        .iter()
        .map(|row| row.get(0).as_int().unwrap())
        .collect();
    a.sort_unstable();
    (a, r.plan_explain())
}

/// A subquery over `u` filtered by `filter`, and the `a`s SQL answers.
const CASES: [(&str, &[i64]); 4] = [
    // a NULL among the y's: no x is known to be outside them
    ("", &[]),
    // no NULL: 20 is outside, NULL is unknown
    ("WHERE y IS NOT NULL", &[2]),
    // no row: every x is outside, NULL included
    ("WHERE b < 0", &[1, 2, 3]),
    // a NULL but no 10 and no 20: still nothing
    ("WHERE b > 1", &[]),
];

#[test]
fn the_back_end_answers_not_in_by_sql_rules() {
    let cache = rig("b", false);
    for (filter, expected) in CASES {
        let sql = format!("SELECT a FROM t WHERE x NOT IN (SELECT y FROM u {filter})");
        let (a, plan) = answer(&cache, &sql);
        assert_eq!(a, expected, "{sql}\n{plan}");
        assert!(plan.contains("NOT IN (SELECT u.y FROM u"), "{plan}");
    }
    // the list form and NOT EXISTS keep their own answers
    let (a, _) = answer(&cache, "SELECT a FROM t WHERE x NOT IN (10, NULL)");
    assert_eq!(a, [0i64; 0]);
    let (a, _) = answer(
        &cache,
        "SELECT a FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.y = t.x)",
    );
    assert_eq!(a, [2, 3]);
}

#[test]
fn cached_views_answer_not_in_by_sql_rules_on_every_join_path() {
    // clustered on b: a hash join; clustered on y: an index nested loop
    for (key, join) in [
        ("b", "HashJoin[NullAwareAnti]"),
        ("y, b", "IndexNLJoin[NullAwareAnti]"),
    ] {
        let cache = rig(key, true);
        for stalled in [false, true] {
            if stalled {
                // the guards fail: the inner side is fetched and hashed
                cache.set_region_stalled("r", true);
                cache.advance(Duration::from_secs(120)).unwrap();
            }
            for (filter, expected) in CASES {
                let sql = format!(
                    "SELECT a FROM t WHERE x NOT IN (SELECT y FROM u {filter} \
                     CURRENCY BOUND 60 SEC ON (u)) CURRENCY BOUND 60 SEC ON (t)"
                );
                let r = cache.execute(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                assert!(r.plan_explain().contains(join), "{}", r.plan_explain());
                assert_eq!(r.used_remote, stalled, "{sql}");
                let mut a: Vec<i64> = (r.rows.iter())
                    .map(|row| row.get(0).as_int().unwrap())
                    .collect();
                a.sort_unstable();
                assert_eq!(a, expected, "{key} stalled={stalled}: {sql}");
            }
        }
    }
}

#[test]
fn a_not_in_whose_subquery_depends_on_the_outer_row_is_refused() {
    let cache = rig("b", false);
    for sql in [
        "SELECT a FROM t WHERE x NOT IN (SELECT y FROM u WHERE u.b = t.a)",
        "SELECT a FROM t WHERE x NOT IN (SELECT y FROM u WHERE u.b > t.a)",
    ] {
        match cache.execute(sql) {
            Err(Error::Analysis(msg)) => assert!(msg.contains("NOT IN"), "{msg}"),
            other => panic!("{sql}: {other:?}"),
        }
    }
    // the IN form is unaffected
    let r = cache
        .execute("SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE u.b = t.a)")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0), &Value::Int(1));
}
