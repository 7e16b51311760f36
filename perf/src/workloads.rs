//! The five workloads: seeded statement streams, the rig state each one
//! needs, and the oracle that checks every answer.
//!
//! The program under test only ever sees SQL text. `--seed` drives every
//! choice made here (keys, shapes, literals, bounds, update values); the
//! data itself is fixed by [`crate::rig::DATA_SEED`].

use crate::rig::Rig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcc_common::{Row, Schema, Value};
use rcc_executor::wire;
use rcc_mtcache::MTCache;
use rcc_net::NetQueryResult;
use rcc_optimizer::PlanChoice;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointWarm,
    PointCold,
    ScanMix,
    RemotePoint,
    RefreshMix,
}

/// A workload's fixed sizes. Rounds are counted in ops, not seconds, so
/// every round has the same number of latency samples (at least 1 000
/// reads: ten beyond its p99) and runs can be compared op for op.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Ops in one measured round (≈ 0.3–3 s on the reference box).
    pub ops_per_round: usize,
    /// Throughput on the reference box (2 × Xeon 2.1 GHz, pinned), used
    /// only to turn `--seconds` into a number of rounds.
    pub nominal_qps: f64,
    /// Ops in the discarded warm-up round.
    pub warmup_ops: usize,
    /// Statements the traced run replays per pass.
    pub trace_ops: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 5] = [
    Spec {
        kind: Kind::PointWarm,
        name: "point_warm",
        nominal_qps: 31_000.0,
        ops_per_round: 10_000,
        warmup_ops: 10_000,
        trace_ops: 2_000,
    },
    Spec {
        kind: Kind::PointCold,
        name: "point_cold",
        nominal_qps: 5_400.0,
        ops_per_round: 4_000,
        warmup_ops: 4_000,
        trace_ops: 2_000,
    },
    Spec {
        kind: Kind::ScanMix,
        name: "scan_mix",
        nominal_qps: 360.0,
        ops_per_round: 1_000,
        warmup_ops: 200,
        trace_ops: 600,
    },
    Spec {
        kind: Kind::RemotePoint,
        name: "remote_point",
        nominal_qps: 14_500.0,
        ops_per_round: 5_000,
        warmup_ops: 4_000,
        trace_ops: 2_000,
    },
    Spec {
        kind: Kind::RefreshMix,
        name: "refresh_mix",
        nominal_qps: 9_000.0,
        ops_per_round: 5_000,
        warmup_ops: 2_000,
        // long enough for the pump to drive 20+ propagation cycles
        trace_ops: 10_000,
    },
];

/// Look a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Every `UPDATE_EVERY`-th op of `refresh_mix` is an `UPDATE` (0.5 %).
/// The issue's 10 % assumed ≈ 0.5 ms per update; one costs 10–16 ms here
/// (a predicate scan of the 30 000-row master table plus a copy-on-write
/// clone of it), ≈ 400 point reads. Every 200th op keeps the split of wall
/// time the issue sized for — about two thirds in writes — while reads
/// still supply the latency samples. Evenly spaced, so every round holds
/// the same number of them.
const UPDATE_EVERY: u64 = 200;
/// The pump compresses time: every `PUMP_TICK_MS` of wall time the
/// simulated clock gains `PUMP_STEP_MS`, so a 10 s run sees ≈ 16 CR1 and
/// ≈ 25 CR2 propagation cycles.
const PUMP_TICK_MS: u64 = 20;
const PUMP_STEP_MS: i64 = 500;
/// `c_custkey` no stream ever touches; the traced run's write probes use it.
pub const PROBE_KEY: i64 = 1;
/// Updated balances start here, far above TPC-D's [-999.99, 9999.99], so
/// a read tells an initial value from a written one.
const UPDATE_BASE: f64 = 100_000.0;

// ---------------------------------------------------------------- digest

/// Order-insensitive fingerprint of a result set. Row order without
/// `ORDER BY` belongs to the plan, not the answer, and a float is compared
/// at the cent (all money columns have two decimals), so a different
/// summation order is not a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    rows: u64,
    sum: u64,
    schema: u64,
}

struct Mix(u64);

impl Mix {
    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 29;
    }

    fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(b.len() as u64);
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.word(0),
            Value::Int(i) => {
                self.word(1);
                self.word(*i as u64);
            }
            Value::Float(f) => {
                self.word(2);
                self.word((f * 100.0).round() as i64 as u64);
            }
            Value::Str(s) => {
                self.word(3);
                self.bytes(s.as_bytes());
            }
            Value::Bool(b) => self.word(4 + *b as u64),
            Value::Timestamp(t) => {
                self.word(6);
                self.word(*t as u64);
            }
        }
    }
}

/// Fingerprint `rows` under `schema`.
pub fn digest(schema: &Schema, rows: &[Row]) -> Digest {
    let mut s = Mix(0x5CE3A);
    for c in schema.columns() {
        s.bytes(c.name.as_bytes());
        s.word(c.data_type as u64);
    }
    let mut sum = 0u64;
    for row in rows {
        let mut h = Mix(0xD16E57);
        for v in row.values() {
            h.value(v);
        }
        sum = sum.wrapping_add(h.0);
    }
    Digest {
        rows: rows.len() as u64,
        sum,
        schema: s.0,
    }
}

// ------------------------------------------------------------- templates

/// One statement shape with its key baked in. A `{U}` in the body is
/// replaced by a fresh number on every issue so the text is new to the
/// plan cache; the predicate it sits in is always true, so the answer is
/// that of the base text (`{U}` = 1000).
struct Shape {
    /// Body up to the `{U}` slot (all of it when there is none).
    head: String,
    /// Body after the `{U}` slot, if there is one.
    tail: Option<String>,
    clause: String,
    /// Set on `SELECT c_acctbal FROM customer WHERE c_custkey = k`: the
    /// reads `refresh_mix` checks against the updates it issued.
    balance_of: Option<i64>,
}

impl Shape {
    fn new(body: String, clause: &str) -> Shape {
        let (head, tail) = match body.split_once("{U}") {
            Some((head, tail)) => (head.to_string(), Some(tail.to_string())),
            None => (body, None),
        };
        Shape {
            head,
            tail,
            clause: clause.to_string(),
            balance_of: None,
        }
    }

    fn write_body(&self, unique: u64, out: &mut String) {
        out.push_str(&self.head);
        if let Some(tail) = &self.tail {
            let _ = write!(out, "{unique}{tail}");
        }
    }

    /// What the back-end is asked: it serves the latest snapshot and
    /// refuses currency clauses.
    fn oracle_text(&self) -> String {
        let mut out = String::new();
        self.write_body(1000, &mut out);
        out
    }

    /// The text as the warm-up sees it.
    fn base_text(&self) -> String {
        format!("{} {}", self.oracle_text(), self.clause)
    }

    fn write_text(&self, serial: u64, out: &mut String) {
        out.clear();
        self.write_body(1001 + serial, out);
        out.push(' ');
        out.push_str(&self.clause);
    }
}

/// A shape and what the oracle said about it.
struct Template {
    shape: Shape,
    answer: Answer,
}

enum Answer {
    /// Static data: the answer must equal the back-end's.
    Static { digest: Digest, wire_bytes: u64 },
    /// `refresh_mix` balance read: index into [`Workload::balances`].
    Balance(usize),
}

/// What the checker knows about one updated customer.
struct Balance {
    key: i64,
    initial: f64,
    /// Every value an acknowledged `UPDATE` wrote, in order.
    written: Vec<f64>,
    /// How far along `written` the newest read was (0 = initial).
    seen: usize,
}

/// How to check the op [`Workload::next`] just produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// A read of template `i`.
    Read(usize),
    /// An update writing `value` to balance `i`.
    Update(usize, f64),
}

impl Check {
    /// Reads supply the latency samples; updates only count toward `qps`.
    pub fn is_read(&self) -> bool {
        matches!(self, Check::Read(_))
    }
}

// -------------------------------------------------------------- workload

/// A prepared workload: templates with their expected answers, the
/// stream's generator state, and (for `refresh_mix`) the clock pump.
pub struct Workload {
    rng: StdRng,
    templates: Vec<Template>,
    /// A seeded permutation of the templates, cycled through: every text
    /// is issued equally often, so rounds do not differ in their mix.
    order: Vec<usize>,
    balances: Vec<Balance>,
    /// Whether every read must (or must not) have reached the back-end:
    /// the property the workload was chosen for.
    expect_remote: bool,
    serial: u64,
    pump: Option<Pump>,
    slo_violations_before: u64,
}

const SLO_UNSANCTIONED: &str = "rcc_slo_violations_total{sanctioned=\"no\"}";

fn distinct_keys(rng: &mut StdRng, n: usize, max_custkey: i64) -> Vec<i64> {
    let n = n.min((max_custkey - PROBE_KEY).max(1) as usize);
    let mut keys = Vec::with_capacity(n);
    while keys.len() < n {
        let k = rng.gen_range(PROBE_KEY + 1..=max_custkey.max(PROBE_KEY + 1));
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys
}

fn customer_point(key: i64, bound: &str) -> Shape {
    Shape {
        balance_of: Some(key),
        ..Shape::new(
            format!("SELECT c_acctbal FROM customer WHERE c_custkey = {key}"),
            &format!("CURRENCY BOUND {bound} ON (customer)"),
        )
    }
}

fn orders_point(key: i64, bound: &str) -> Shape {
    Shape::new(
        format!("SELECT o_totalprice FROM orders WHERE o_custkey = {key}"),
        &format!("CURRENCY BOUND {bound} ON (orders)"),
    )
}

/// The point and join-by-key shapes of `rcc_tpcd::currency_corpus` that
/// plan `AllLocalGuarded` (its shapes 1, 2, 4, 7, 8), at bounds the
/// regions can meet, each with the always-true `{U}` predicate.
fn cold_shapes(rng: &mut StdRng, keys: &[i64]) -> Vec<Shape> {
    const BOUNDS: [&str; 5] = ["30 SEC", "1 MIN", "2 MIN", "10 MIN", "1 HOUR"];
    let bound = |rng: &mut StdRng| BOUNDS[rng.gen_range(0..BOUNDS.len())];
    let mut out = Vec::with_capacity(keys.len() * 5);
    for k in keys {
        out.push(Shape::new(
            format!(
                "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = {k} \
                 AND c_acctbal > -{{U}}"
            ),
            &format!("CURRENCY BOUND {} ON (customer)", bound(rng)),
        ));
        out.push(Shape::new(
            format!(
                "SELECT c_acctbal FROM customer c WHERE c_custkey = {k} \
                 AND c.c_acctbal > -{{U}}"
            ),
            &format!("CURRENCY BOUND {} ON (c) BY c.c_custkey", bound(rng)),
        ));
        out.push(Shape::new(
            format!(
                "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = {k} \
                 AND o_totalprice > -{{U}}"
            ),
            &format!("CURRENCY BOUND {} ON (orders)", bound(rng)),
        ));
        out.push(Shape::new(
            format!(
                "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
                 WHERE c.c_custkey = o.o_custkey AND c.c_custkey = {k} \
                 AND o.o_totalprice > -{{U}}"
            ),
            &format!(
                "CURRENCY BOUND {} ON (c), {} ON (o)",
                bound(rng),
                bound(rng)
            ),
        ));
        out.push(Shape::new(
            format!(
                "SELECT o.o_orderkey FROM orders o, customer c \
                 WHERE o.o_custkey = c.c_custkey AND o.o_custkey = {k} \
                 AND o.o_totalprice > {} AND c.c_acctbal > -{{U}}",
                rng.gen_range(100..9_000)
            ),
            &format!(
                "CURRENCY BOUND {} ON (o), {} ON (c)",
                bound(rng),
                bound(rng)
            ),
        ));
    }
    out
}

/// Table 4.3's Q7 and Q5 shapes and a grouped aggregate, 16 texts each.
fn scan_shapes(rng: &mut StdRng) -> Vec<Shape> {
    let mut out = Vec::with_capacity(48);
    for i in 0..16 {
        let lo = rng.gen_range(-900..8_500);
        out.push(Shape::new(
            format!(
                "SELECT c_custkey, c_name, c_acctbal FROM customer \
                 WHERE c_acctbal BETWEEN {lo} AND {}",
                lo + 1400
            ),
            "CURRENCY BOUND 60 SEC ON (customer)",
        ));
        out.push(Shape::new(
            format!(
                "SELECT c.c_custkey, o.o_orderkey, o.o_totalprice FROM customer c, orders o \
                 WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= {}",
                100 + 10 * i
            ),
            "CURRENCY BOUND 60 SEC ON (c), 60 SEC ON (o)",
        ));
        out.push(Shape::new(
            format!(
                "SELECT c_nationkey, COUNT(*), SUM(c_acctbal) FROM customer \
                 WHERE c_custkey >= {} GROUP BY c_nationkey",
                rng.gen_range(1..50)
            ),
            "CURRENCY BOUND 60 SEC ON (customer)",
        ));
    }
    out
}

impl Workload {
    /// Generate the templates from `seed`, put the rig into the state the
    /// workload needs, and ask the back-end for every expected answer.
    pub fn prepare(kind: Kind, seed: u64, rig: &Rig) -> Result<Workload, String> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ kind as u64);
        let max_custkey = rig.max_custkey();
        let cache = &rig.cache;
        let shapes: Vec<Shape> = match kind {
            Kind::PointWarm | Kind::RefreshMix => distinct_keys(&mut rng, 128, max_custkey)
                .into_iter()
                .flat_map(|k| [customer_point(k, "30 SEC"), orders_point(k, "30 SEC")])
                .collect(),
            Kind::PointCold => {
                let keys = distinct_keys(&mut rng, 64, max_custkey);
                cold_shapes(&mut rng, &keys)
            }
            Kind::ScanMix => scan_shapes(&mut rng),
            // customer probes only: CR1 is the region that gets stalled
            Kind::RemotePoint => distinct_keys(&mut rng, 256, max_custkey)
                .into_iter()
                .map(|k| customer_point(k, "15 SEC"))
                .collect(),
        };

        let mut balances = Vec::new();
        let mut templates = Vec::with_capacity(shapes.len());
        for shape in shapes {
            // the property every workload rests on: served from the views,
            // behind guards (remote_point's guards then fail at run time)
            let base = shape.base_text();
            let choice = cache
                .explain(&base, &HashMap::new())
                .map_err(|e| format!("explain {base}: {e}"))?
                .choice;
            if choice != PlanChoice::AllLocalGuarded {
                return Err(format!("{base} plans {choice:?}, not AllLocalGuarded"));
            }
            // the oracle: the back-end's own answer, before anything is timed
            let (schema, rows) = cache
                .backend()
                .query(&shape.oracle_text())
                .map_err(|e| format!("oracle {}: {e}", shape.oracle_text()))?;
            let answer = match shape.balance_of {
                Some(key) if kind == Kind::RefreshMix => {
                    let initial = match rows.first().map(|r| r.get(0)) {
                        Some(Value::Float(f)) => *f,
                        other => return Err(format!("oracle balance of {key}: {other:?}")),
                    };
                    balances.push(Balance {
                        key,
                        initial,
                        written: Vec::new(),
                        seen: 0,
                    });
                    Answer::Balance(balances.len() - 1)
                }
                _ => Answer::Static {
                    digest: digest(&schema, &rows),
                    wire_bytes: wire::encode_result(&schema, &rows).len() as u64,
                },
            };
            templates.push(Template { shape, answer });
        }

        if kind == Kind::RemotePoint {
            // CR1 stops refreshing and 90 s pass: every 15 s guard on
            // `customer` fails and the SwitchUnion takes its remote branch
            cache.set_region_stalled("CR1", true);
            cache
                .advance(rcc_common::Duration::from_secs(90))
                .map_err(|e| format!("advance: {e}"))?;
        }
        let slo_violations_before = cache.metrics().snapshot().counter(SLO_UNSANCTIONED);
        let mut order: Vec<usize> = (0..templates.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Ok(Workload {
            rng,
            templates,
            order,
            balances,
            expect_remote: kind == Kind::RemotePoint,
            serial: 0,
            pump: (kind == Kind::RefreshMix).then(|| Pump::start(Arc::clone(cache))),
            slo_violations_before,
        })
    }

    /// Every distinct text as the plan cache should know it before timing.
    pub fn base_texts(&self) -> Vec<String> {
        self.templates.iter().map(|t| t.shape.base_text()).collect()
    }

    /// Write the stream's next statement into `sql`.
    pub fn next(&mut self, sql: &mut String) -> Check {
        self.serial += 1;
        if !self.balances.is_empty() && self.serial.is_multiple_of(UPDATE_EVERY) {
            let i = self.rng.gen_range(0..self.balances.len());
            let cents = self.rng.gen_range(0..100u64);
            let text = format!("{}.{cents:02}", UPDATE_BASE as u64 + self.serial);
            sql.clear();
            let _ = write!(
                sql,
                "UPDATE customer SET c_acctbal = {text} WHERE c_custkey = {}",
                self.balances[i].key
            );
            let value = text.parse().expect("a decimal literal");
            return Check::Update(i, value);
        }
        let i = self.order[(self.serial % self.order.len() as u64) as usize];
        self.templates[i].shape.write_text(self.serial, sql);
        Check::Read(i)
    }

    /// Is `result` a correct answer to the op `check` describes? Anything
    /// else — an error, a wrong row, a read served from the wrong side —
    /// is a failed op.
    pub fn verify(
        &mut self,
        check: Check,
        result: &Result<NetQueryResult, rcc_common::Error>,
    ) -> bool {
        let Ok(r) = result else { return false };
        match check {
            Check::Update(i, value) => {
                self.balances[i].written.push(value);
                true
            }
            Check::Read(t) => {
                if r.used_remote != self.expect_remote {
                    return false;
                }
                match self.templates[t].answer {
                    Answer::Static {
                        digest: d,
                        wire_bytes,
                    } => r.wire_bytes == wire_bytes && digest(&r.schema, &r.rows) == d,
                    Answer::Balance(i) => {
                        let b = &mut self.balances[i];
                        let got = match (r.rows.len(), r.rows.first().map(|row| row.get(0))) {
                            (1, Some(Value::Float(f))) => *f,
                            _ => return false,
                        };
                        // the view may lag the master, but it only ever
                        // shows a value some acknowledged update wrote (or
                        // the initial one), and never an older one than
                        // this connection has already been shown
                        let version = if got < UPDATE_BASE {
                            (got == b.initial).then_some(0)
                        } else {
                            b.written.iter().rposition(|w| *w == got).map(|p| p + 1)
                        };
                        match version {
                            Some(v) if v >= b.seen => {
                                b.seen = v;
                                true
                            }
                            _ => false,
                        }
                    }
                }
            }
        }
    }

    /// Make one expected answer wrong (the self-test proves the checker
    /// notices).
    pub fn corrupt_oracle(&mut self) {
        for t in &mut self.templates {
            match &mut t.answer {
                Answer::Static { digest, .. } => digest.sum ^= 1,
                Answer::Balance(i) => self.balances[*i].initial += 0.01,
            }
        }
    }

    /// End of run: stop the pump, let replication catch up, and check what
    /// only shows afterwards. Returns one line per problem found.
    pub fn finish(&mut self, cache: &MTCache) -> (Vec<String>, PumpStats) {
        let mut problems = Vec::new();
        let pump = self.pump.take().map(Pump::stop).unwrap_or_default();
        if let Some(e) = &pump.error {
            problems.push(format!("clock pump: {e}"));
        }
        let slo = self.slo_violations(cache);
        if slo != 0 {
            problems.push(format!("{slo} unsanctioned currency-SLO violation(s)"));
        }
        if !self.balances.is_empty() {
            if let Err(e) = cache.advance(rcc_common::Duration::from_secs(60)) {
                problems.push(format!("advance: {e}"));
            }
            problems.extend(view_divergence(cache, "customer", "cust_prj"));
        }
        (problems, pump)
    }

    /// Unsanctioned SLO violations since [`Workload::prepare`].
    pub fn slo_violations(&self, cache: &MTCache) -> u64 {
        cache.metrics().snapshot().counter(SLO_UNSANCTIONED) - self.slo_violations_before
    }
}

/// After replication has caught up, the view must hold exactly the
/// master's rows (`cust_prj` projects all four `customer` columns).
fn view_divergence(cache: &MTCache, table: &str, view: &str) -> Option<String> {
    let master = match cache.master().table(table) {
        Ok(t) => t.snapshot(),
        Err(e) => return Some(format!("master table {table}: {e}")),
    };
    let local = match cache.cache_storage().table(view) {
        Ok(t) => t.snapshot(),
        Err(e) => return Some(format!("view {view}: {e}")),
    };
    if master.row_count() != local.row_count() {
        return Some(format!(
            "{view} has {} rows, {table} has {}",
            local.row_count(),
            master.row_count()
        ));
    }
    let diverged = master
        .iter()
        .zip(local.iter())
        .find(|(m, l)| m.values() != l.values())
        .map(|(m, l)| format!("{view} diverged from {table}: {l:?} vs {m:?}"));
    diverged
}

// ------------------------------------------------------------------ pump

/// `rccd`'s clock pump, time-compressed: maps wall time onto the simulated
/// clock so heartbeats and propagation cycles run during the workload.
struct Pump {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<PumpStats>,
}

/// What the pump did.
#[derive(Debug, Default, Clone)]
pub struct PumpStats {
    /// `advance` calls made.
    pub ticks: u64,
    /// Simulated seconds added.
    pub simulated_s: f64,
    pub error: Option<String>,
}

impl Pump {
    fn start(cache: Arc<MTCache>) -> Pump {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut stats = PumpStats::default();
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(PUMP_TICK_MS));
                if let Err(e) = cache.advance(rcc_common::Duration::from_millis(PUMP_STEP_MS)) {
                    stats.error = Some(e.to_string());
                    break;
                }
                stats.ticks += 1;
                stats.simulated_s += PUMP_STEP_MS as f64 / 1e3;
            }
            stats
        });
        Pump { stop, handle }
    }

    fn stop(self) -> PumpStats {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().unwrap_or_else(|_| PumpStats {
            error: Some("pump thread panicked".into()),
            ..PumpStats::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Float),
        ])
    }

    fn row(k: i64, v: f64) -> Row {
        Row::new(vec![Value::Int(k), Value::Float(v)])
    }

    #[test]
    fn digest_ignores_order_and_sub_cent_noise_only() {
        let a = digest(&schema(), &[row(1, 10.25), row(2, 5416177.78)]);
        let b = digest(&schema(), &[row(2, 5416177.780000007), row(1, 10.25)]);
        assert_eq!(a, b);
        assert_ne!(a, digest(&schema(), &[row(1, 10.26), row(2, 5416177.78)]));
        assert_ne!(a, digest(&schema(), &[row(1, 10.25)]));
        let other = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("w", DataType::Float),
        ]);
        assert_ne!(a, digest(&other, &[row(1, 10.25), row(2, 5416177.78)]));
    }

    #[test]
    fn unique_literal_changes_text_not_base() {
        let t = Shape::new(
            "SELECT 1 WHERE x > -{U}".into(),
            "CURRENCY BOUND 30 SEC ON (t)",
        );
        let (mut a, mut b) = (String::new(), String::new());
        t.write_text(0, &mut a);
        t.write_text(1, &mut b);
        assert_eq!(a, "SELECT 1 WHERE x > -1001 CURRENCY BOUND 30 SEC ON (t)");
        assert_ne!(a, b);
        assert_eq!(t.oracle_text(), "SELECT 1 WHERE x > -1000");
        assert!(t.base_text().ends_with("ON (t)"));
    }

    #[test]
    fn specs_are_named_once() {
        for s in SPECS {
            assert_eq!(spec(s.name).map(|x| x.kind), Some(s.kind));
            assert!(
                s.ops_per_round >= 1_000,
                "{}: p99 needs 1 000 samples",
                s.name
            );
        }
        assert!(spec("nope").is_none());
    }
}
