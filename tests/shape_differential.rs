//! Shape hit ≡ fresh compile.
//!
//! The plan cache keys on a statement's *shape* and serves a cached plan
//! to any statement whose slot values lie in the plan's domains. This sweep
//! holds that to the only standard that matters: two identical rigs, cache
//! **A** warmed with a statement's base literals and then asked the same
//! statement with perturbed ones (hits wherever the domains allow), cache
//! **B** invalidated — both roles — before every statement (so everything
//! is compiled for exactly the values at hand). They must agree on the
//! rows in order, on `used_remote`, on every guard observation and on the
//! SQL shipped to the back-end, byte for byte. Perturbations aim at where a
//! domain ends: ±1, the column's `min` / `max` and one past them, the edges
//! of the histogram bucket the value fell in, the ends of view predicates
//! ±1, and a change of type.
//!
//! Run on the paper rig (`currency_corpus(160, 7)`, the five `point_cold`
//! and three `scan_mix` shapes of the benchmark) with healthy regions and
//! with CR1 stalled (remote branches ship SQL), and on a rig with
//! predicated views, where which view matches depends on the literal.
//! How often the two agreed on `PlanChoice` is printed, not asserted: a
//! served plan is the plan of the values it was compiled for.
//!
//! Both caches go through shapes, so what B answers is also held to
//! `explain_analyze`, which parses the text as written and binds literals
//! as literals (a statement both refuse alike proves nothing otherwise),
//! and every statement as written must be answered.

use parking_lot::Mutex;
use rcc_common::{Duration, Result, Row, Schema, Value};
use rcc_executor::{GuardObservation, RemoteService};
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_mtcache::{BackendServer, MTCache};
use rcc_optimizer::PlanChoice;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Ships to the in-process back-end, remembering every text.
#[derive(Debug)]
struct Recorder {
    backend: Arc<BackendServer>,
    shipped: Mutex<Vec<String>>,
}

impl RemoteService for Recorder {
    fn execute(&self, sql: &str) -> Result<(Schema, Vec<Row>)> {
        self.shipped.lock().push(sql.to_string());
        self.backend.query(sql)
    }
    fn execute_with_bytes(&self, sql: &str) -> Result<(Schema, Vec<Row>, u64)> {
        self.shipped.lock().push(sql.to_string());
        self.backend.query_with_bytes(sql)
    }
}

struct Rig {
    cache: MTCache,
    recorder: Arc<Recorder>,
}

impl Rig {
    fn new(cache: MTCache) -> Rig {
        let recorder = Arc::new(Recorder {
            backend: Arc::clone(cache.backend()),
            shipped: Mutex::new(Vec::new()),
        });
        cache.set_remote_service(Some(Arc::clone(&recorder) as Arc<dyn RemoteService>));
        Rig { cache, recorder }
    }

    /// Forget every plan, in both roles.
    fn invalidate(&self) {
        self.cache.plan_cache().invalidate();
        self.cache.backend().plan_cache().invalidate();
    }

    fn run(&self, sql: &str, params: &HashMap<String, Value>) -> (Outcome, Option<PlanChoice>) {
        let result = self.cache.execute_with_params(sql, params);
        let shipped = std::mem::take(&mut *self.recorder.shipped.lock());
        match result {
            Ok(r) => (
                Outcome {
                    rows: Ok(r.rows),
                    used_remote: r.used_remote,
                    guards: r.guards,
                    shipped,
                },
                Some(r.plan_choice),
            ),
            Err(e) => (
                Outcome {
                    rows: Err(e.to_string()),
                    used_remote: false,
                    guards: Vec::new(),
                    shipped,
                },
                None,
            ),
        }
    }
}

impl Rig {
    /// The oracle that owes nothing to shapes: `explain_analyze` parses the
    /// text as it stands and binds its literals as literals. What it answers
    /// is what `served` must hold — or both refuse the statement (the
    /// wording may differ: a slot prints as `?0=7`).
    fn unshaped(&self, sql: &str, params: &HashMap<String, Value>, served: &Outcome) {
        let oracle = self.cache.explain_analyze(sql, params);
        self.recorder.shipped.lock().clear();
        match (&served.rows, oracle) {
            (Ok(rows), Ok(oracle)) => {
                assert_eq!(rows, &oracle.rows, "unshaped: {sql} {params:?}");
                assert_eq!(served.used_remote, oracle.used_remote, "unshaped: {sql}");
                assert_eq!(served.guards, oracle.guards, "unshaped: {sql}");
            }
            (Err(_), Err(_)) => {}
            (served, oracle) => panic!(
                "{sql} {params:?}: served {served:?}, unshaped {:?}",
                oracle.map(|r| r.rows)
            ),
        }
    }
}

/// Everything a client, a session or the back-end can observe of one
/// statement.
#[derive(Debug, PartialEq)]
struct Outcome {
    rows: std::result::Result<Vec<Row>, String>,
    used_remote: bool,
    guards: Vec<GuardObservation>,
    shipped: Vec<String>,
}

#[derive(Default)]
struct Tally {
    statements: u64,
    hits: u64,
    same_choice: u64,
}

impl Tally {
    fn report(&self, what: &str) {
        println!(
            "{what}: {} statements, {} served from a cached shape, PlanChoice agreed on {}",
            self.statements, self.hits, self.same_choice
        );
    }
}

/// Ask both caches, B freshly invalidated, and compare; hold B to the
/// unshaped oracle; then ask A once more on the row-at-a-time reference
/// engine, which is handed the served plan with this statement's values put
/// in. Returns whether the statement was answered (with rows, not an error).
fn compare(
    a: &Rig,
    b: &Rig,
    sql: &str,
    params: &HashMap<String, Value>,
    tally: &mut Tally,
) -> bool {
    let hits_before = a.cache.plan_cache().stats().0;
    let (from_a, choice_a) = a.run(sql, params);
    tally.hits += a.cache.plan_cache().stats().0 - hits_before;
    b.invalidate();
    let (from_b, choice_b) = b.run(sql, params);
    assert_eq!(from_a, from_b, "{sql} {params:?}");
    b.unshaped(sql, params, &from_b);
    a.cache.set_row_engine(true);
    let (by_rows, _) = a.run(sql, params);
    a.cache.set_row_engine(false);
    assert_eq!(by_rows, from_a, "row engine: {sql} {params:?}");
    tally.statements += 1;
    tally.same_choice += u64::from(choice_a == choice_b);
    from_a.rows.is_ok()
}

// ------------------------------------------------------------ perturbation

/// The column a slotted literal at `sql[at..]` is compared with: the word
/// before its operator, or before the `BETWEEN` it belongs to.
fn column_before(sql: &str, at: usize) -> Option<&str> {
    let word_before = |end: usize| {
        let head = sql[..end].trim_end();
        let start = head
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '.'))
            .map_or(0, |i| i + 1);
        (start, &head[start..])
    };
    let head = sql[..at].trim_end_matches(|c: char| c.is_whitespace() || "=<>!".contains(c));
    let (start, word) = word_before(head.len());
    let word = if word.eq_ignore_ascii_case("between") {
        word_before(start).1
    } else if word.eq_ignore_ascii_case("and") {
        let between = sql[..start].to_ascii_uppercase().rfind("BETWEEN")?;
        word_before(between).1
    } else {
        word
    };
    let name = word.rsplit('.').next()?;
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

/// Where the domain of a value compared with `column` can end: the
/// column's `min` / `max` and one past them, and the edges of the
/// histogram bucket `v` falls in — in the statistics of every `object`.
fn stats_edges(cache: &MTCache, objects: &[&str], column: &str, v: f64) -> Vec<f64> {
    let mut out = Vec::new();
    for object in objects {
        let stats = cache.catalog().stats(object);
        let c = stats.column(column);
        let bound = |b: &Option<Value>| b.as_ref().and_then(|b| b.as_float().ok());
        let (Some(min), Some(max)) = (bound(&c.min), bound(&c.max)) else {
            continue;
        };
        out.extend([min - 1.0, min, max, max + 1.0]);
        let buckets = c.histogram.len();
        if buckets > 0 && max > min && (min..=max).contains(&v) {
            let width = (max - min) / buckets as f64;
            let i = (((v - min) / width) as usize).min(buckets - 1);
            let (low, high) = (min + i as f64 * width, min + (i + 1) as f64 * width);
            out.extend([low.floor(), low.ceil(), high.floor(), high.ceil(), high]);
        }
    }
    out
}

/// `sql` with each of its slotted literals, one at a time, replaced by
/// other values: ±1, `extra` (view-predicate ends and the like), the
/// statistics' edges for the column it is compared with, and the other
/// numeric type.
fn variants(cache: &MTCache, objects: &[&str], sql: &str, extra: &[f64]) -> BTreeSet<String> {
    let shape = rcc_sql::shape(sql, &HashMap::new()).expect("a SELECT");
    let mut out = BTreeSet::new();
    let spans = rcc_sql::marker_spans(sql, &HashMap::new());
    for (slot, &(start, end)) in spans.iter().enumerate() {
        let mut texts: Vec<String> = Vec::new();
        match &shape.values[slot] {
            Value::Str(_) => texts.extend(["'Customer#000000001'".to_string(), "''".to_string()]),
            value => {
                let v = value.as_float().expect("a numeric literal");
                let mut numbers = vec![v - 1.0, v + 1.0];
                numbers.extend_from_slice(extra);
                if let Some(column) = column_before(sql, start) {
                    numbers.extend(stats_edges(cache, objects, column, v));
                }
                let is_int = matches!(value, Value::Int(_));
                for n in numbers {
                    // in the literal's own type where that is exact
                    if is_int && n.fract() == 0.0 {
                        texts.push(format!("{}", n as i64));
                    } else {
                        texts.push(format!("{n:?}"));
                    }
                }
                // the other type, same value
                texts.push(if is_int {
                    format!("{v:?}")
                } else {
                    format!("{}", v as i64)
                });
            }
        }
        for text in texts {
            out.insert(format!("{}{text}{}", &sql[..start], &sql[end..]));
        }
    }
    out.remove(sql);
    out
}

// ----------------------------------------------------------------- the rigs

const SCALE: f64 = 0.01;

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
     CURRENCY BOUND 1 HOUR ON (o), 2 MIN ON (c)",
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

fn paper_rig() -> Rig {
    let cache = paper_setup(SCALE, 42).expect("paper rig");
    warm_up(&cache).expect("warm up");
    Rig::new(cache)
}

#[test]
fn paper_rig_corpus_and_benchmark_shapes() {
    let (a, b) = (paper_rig(), paper_rig());
    let objects = ["customer", "orders", "cust_prj", "orders_prj"];
    let max_custkey = ((150_000.0 * SCALE) as i64).max(2);
    let mut statements = rcc_tpcd::currency_corpus(160, 7, max_custkey);
    statements.extend(POINT_COLD.iter().chain(&SCAN_MIX).map(|s| s.to_string()));
    let no_params = HashMap::new();

    let mut tally = Tally::default();
    for sql in &statements {
        assert!(compare(&a, &b, sql, &no_params, &mut tally), "{sql}");
        for variant in variants(&a.cache, &objects, sql, &[]) {
            compare(&a, &b, &variant, &no_params, &mut tally);
        }
    }
    tally.report("paper rig, healthy");
    // the perturbations aim at domain ends, so many of them compile a
    // sibling; most must still be served from a cached shape
    assert!(tally.hits * 2 > tally.statements, "{} hits", tally.hits);

    // CR1 stops refreshing: every guard on `customer` fails from here on,
    // and what the remote branches ship is part of the outcome
    for rig in [&a, &b] {
        rig.cache.set_region_stalled("CR1", true);
        rig.cache.advance(Duration::from_secs(90)).unwrap();
    }
    let mut tally = Tally::default();
    let mut shipped = 0;
    for sql in statements.iter().skip(2).step_by(3) {
        for variant in variants(&a.cache, &objects, sql, &[]) {
            let before = a.cache.counters().remote_queries.load(Ordering::Relaxed);
            compare(&a, &b, &variant, &no_params, &mut tally);
            shipped += a.cache.counters().remote_queries.load(Ordering::Relaxed) - before;
        }
    }
    tally.report("paper rig, CR1 stalled");
    assert!(shipped > 100, "only {shipped} statements shipped SQL");
}

/// `t (a INT, v INT, w FLOAT)`, a = 0..100, with one full view in region
/// `r` and two selection views (`a < 50`, `a < 25`) in `r2`: which views
/// match — and so which region's guard a plan carries — turns on the
/// literal.
fn predicated_rig() -> Rig {
    let cache = MTCache::new();
    let run = |sql: &str| {
        cache.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    };
    run("CREATE TABLE t (a INT, v INT, w FLOAT, PRIMARY KEY (a))");
    for i in 0..100 {
        run(&format!(
            "INSERT INTO t VALUES ({i}, {}, {})",
            i % 7,
            i as f64 * 1.5
        ));
    }
    cache.analyze("t").unwrap();
    run("CREATE REGION r INTERVAL 10 SEC DELAY 2 SEC");
    run("CREATE REGION r2 INTERVAL 20 SEC DELAY 2 SEC");
    run("CREATE CACHED VIEW t_all REGION r AS SELECT a, v, w FROM t");
    run("CREATE CACHED VIEW t_low REGION r2 AS SELECT a, v, w FROM t WHERE a < 50");
    run("CREATE CACHED VIEW t_v2 REGION r2 AS SELECT a, v, w FROM t WHERE a < 25");
    cache.advance(Duration::from_secs(60)).unwrap();
    Rig::new(cache)
}

#[test]
fn predicated_views_and_every_kind_of_conjunct() {
    let (a, b) = (predicated_rig(), predicated_rig());
    let objects = ["t", "t_all", "t_low", "t_v2"];
    let clause = "CURRENCY BOUND 30 SEC ON (t)";
    let bodies = [
        "SELECT v FROM t WHERE a = 7",
        "SELECT a, v FROM t WHERE a < 20",
        "SELECT a, v FROM t WHERE a <= 24",
        "SELECT a, v FROM t WHERE a > 60",
        "SELECT a, v FROM t WHERE 30 > a",
        "SELECT a, v FROM t WHERE a >= 10 AND a < 40",
        "SELECT a, v FROM t WHERE a BETWEEN 5 AND 30",
        "SELECT a, v FROM t WHERE a NOT BETWEEN 5 AND 30",
        "SELECT a, v FROM t WHERE a < 30 AND a < 45",
        "SELECT a, v FROM t WHERE a = 7 AND a < 45",
        "SELECT a, w FROM t WHERE a = 7 AND v > 2",
        "SELECT a, w FROM t WHERE w > 10.5 AND a < 49",
        "SELECT a FROM t WHERE a <> 5 AND a < 12",
        "SELECT a FROM t WHERE a = 7 OR a = 8",
        "SELECT a, v FROM t WHERE a > 3 ORDER BY a DESC LIMIT 5",
        "SELECT v, COUNT(*) AS n FROM t WHERE a < 40 GROUP BY v HAVING COUNT(*) > 2",
        "SELECT a = 7, v FROM t WHERE a < 3",
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM t s WHERE s.v = t.a AND s.a > 90)",
        // one constant spelled in two clauses: two slots that must agree
        "SELECT v > 3, COUNT(*) FROM t GROUP BY v > 3",
        "SELECT a = 5, v FROM t WHERE a < 9 ORDER BY a = 5",
        "SELECT v BETWEEN 2 AND 4, COUNT(*) FROM t GROUP BY v BETWEEN 2 AND 4 \
         HAVING v BETWEEN 2 AND 4",
        "SELECT v, COUNT(w > 4.5) FROM t GROUP BY v HAVING COUNT(w > 4.5) > 1",
    ];
    let mut statements: Vec<String> = bodies
        .iter()
        .flat_map(|body| [body.to_string(), format!("{body} {clause}")])
        .collect();
    statements.push(
        "SELECT x.a, y.w FROM t x, t y WHERE x.a = y.a AND x.a < 20 AND y.w > 3.5 \
         CURRENCY BOUND 30 SEC ON (x), 30 SEC ON (y)"
            .to_string(),
    );

    // the ends of the view predicates, ±1
    let view_edges = [24.0, 25.0, 26.0, 49.0, 50.0, 51.0, 1000.0];
    let no_params = HashMap::new();

    let mut tally = Tally::default();
    for stalled in [false, true] {
        if stalled {
            for rig in [&a, &b] {
                rig.cache.set_region_stalled("r2", true);
                rig.cache.advance(Duration::from_secs(90)).unwrap();
            }
        }
        for sql in &statements {
            // as written every statement is valid, in both roles (one with
            // no clause is answered by the back-end, from its shape)
            assert!(compare(&a, &b, sql, &no_params, &mut tally), "{sql}");
            for variant in variants(&a.cache, &objects, sql, &view_edges) {
                compare(&a, &b, &variant, &no_params, &mut tally);
            }
        }
    }
    tally.report("predicated views, literals");
    // a third of these bodies pin their slots on purpose, and every
    // perturbation of a pinned slot compiles a sibling
    assert!(tally.hits * 3 > tally.statements, "{} hits", tally.hits);

    // the same through `$params`: one shape per text and value type
    let mut tally = Tally::default();
    let values = [
        Value::Int(7),
        Value::Int(24),
        Value::Int(25),
        Value::Int(49),
        Value::Int(50),
        Value::Int(-1),
        Value::Int(99),
        Value::Int(100),
        Value::Float(24.5),
        Value::Float(25.0),
        Value::from("7"),
        Value::Null,
        Value::Bool(true),
    ];
    for text in [
        "SELECT v FROM t WHERE a = $k",
        "SELECT a FROM t WHERE a < $k",
        "SELECT a FROM t WHERE a >= $k AND a <= $hi",
        "SELECT a + $k FROM t WHERE a = $k",
        "SELECT a FROM t WHERE a < $k ORDER BY a LIMIT 3",
    ] {
        for sql in [text.to_string(), format!("{text} {clause}")] {
            for k in &values {
                for hi in [Value::Int(30), Value::Int(60)] {
                    let params =
                        HashMap::from([("k".to_string(), k.clone()), ("hi".to_string(), hi)]);
                    compare(&a, &b, &sql, &params, &mut tally);
                }
            }
        }
    }
    tally.report("predicated views, parameters");
}
