//! The back-end server: executes shipped SQL against the master database.
//!
//! The texts it is sent are the optimizer's own `sqlgen` output — the same
//! few statement shapes over and over, differing in the constants the
//! front-end's statements held — so it keeps their plans in the same
//! bounded, shape-keyed [`PlanCache`] the mid-tier cache uses, through the
//! same [`PlanCache::find_or_compile`]: a shipped text is split into shape
//! and slot values *before* it is parsed, and a hit is served without
//! parsing, binding or optimizing, whether or not this very text was seen
//! before. Only a statement that passed both rejections (not a `SELECT`,
//! carries a currency clause) is ever inserted, so a hit cannot skip a
//! check the miss path makes; validity is [`Catalog::version`], which
//! every DDL and `ANALYZE` on the shared catalog moves. An entry holds its
//! plan prepared for execution ([`Executable`]), so a hit binds the text's
//! values and runs.

use crate::plan_cache::PlanCache;
use bytes::Bytes;
use parking_lot::Mutex;
use rcc_backend::MasterDb;
use rcc_catalog::Catalog;
use rcc_common::{Error, NetworkModel, Result, Row, Schema};
use rcc_executor::{ExecContext, Executable, QueryMeter, RemoteService};
use rcc_obs::{Counter, Histogram, MetricsRegistry, DEFAULT_LATENCY_BUCKETS};
use rcc_optimizer::optimize::Optimized;
use rcc_optimizer::{bind_select_slots, optimize, slot_domains, OptimizerConfig};
use rcc_sql::{parse_shape, parse_statement, Shape};
use rcc_storage::KeyRange;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The back-end database server. Parses, plans (in back-end role: every
/// table is local and current) and executes SQL shipped from the cache,
/// returning the result rows — the paper's remote-query path.
#[derive(Debug)]
pub struct BackendServer {
    master: Arc<MasterDb>,
    catalog: Arc<Catalog>,
    config: OptimizerConfig,
    /// Plans of the shipped statements, keyed by their shape.
    plans: Arc<PlanCache<BackendPlan>>,
    /// What every request's execution context shares: the master's
    /// storage and clock, counters, no timeline floors.
    base_ctx: ExecContext,
    /// Who pays for the round trip: simulated latency knobs, or a real
    /// transport (in which case no artificial delay is ever injected).
    network: Mutex<NetworkModel>,
    /// Remote-latency and wire-byte metrics, once a registry is attached.
    metrics: OnceLock<BackendMetrics>,
}

/// A shipped statement's plan, as the back-end's plan cache holds it.
#[derive(Debug)]
pub struct BackendPlan {
    /// The optimizer's output.
    pub optimized: Optimized,
    /// `optimized.plan`, prepared for execution.
    pub executable: Executable,
}

/// Handles of the metrics every remote call touches, resolved from the
/// registry by name on first use and held from then on, so each still
/// enters the exposition when it is first touched.
#[derive(Debug)]
struct BackendMetrics {
    registry: Arc<MetricsRegistry>,
    remote_latency: OnceLock<Histogram>,
    wire_encoded: OnceLock<Counter>,
    wire_decoded: OnceLock<Counter>,
}

/// One phase of a served statement (`backend:parse`, `backend:plan`,
/// `backend:execute`, `backend:encode`), timed for the caller's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Span name.
    pub name: &'static str,
    /// Offset from the start of the request when the phase began.
    pub start: Duration,
    /// How long the phase took.
    pub elapsed: Duration,
}

/// The phases of one request: timed and kept for a traced request, just
/// run for any other.
struct Phases {
    origin: Instant,
    spans: Option<Vec<PhaseSpan>>,
}

impl Phases {
    /// The request starts now.
    fn new(traced: bool) -> Phases {
        Phases {
            origin: Instant::now(),
            spans: traced.then(|| Vec::with_capacity(4)),
        }
    }

    fn run<T>(&mut self, name: &'static str, phase: impl FnOnce() -> T) -> T {
        let Some(spans) = &mut self.spans else {
            return phase();
        };
        let start = self.origin.elapsed();
        let out = phase();
        spans.push(PhaseSpan {
            name,
            start,
            elapsed: self.origin.elapsed() - start,
        });
        out
    }
}

impl BackendServer {
    /// Wrap a master database.
    pub fn new(master: Arc<MasterDb>) -> BackendServer {
        let catalog = Arc::clone(master.catalog());
        let base_ctx = ExecContext::new(
            Arc::clone(master.storage()),
            None,
            Arc::clone(master.clock()),
        );
        BackendServer {
            master,
            plans: Arc::new(PlanCache::new(Arc::clone(&catalog))),
            base_ctx,
            catalog,
            config: OptimizerConfig::backend(),
            network: Mutex::new(NetworkModel::default()),
            metrics: OnceLock::new(),
        }
    }

    /// Publish remote-call latency and wire-byte metrics to `registry`
    /// (the first one given; a server reports to one registry).
    pub fn set_metrics(&self, registry: Arc<MetricsRegistry>) {
        registry.describe(
            "rcc_remote_latency_seconds",
            "Wall time of remote calls shipped from the cache to the back-end.",
        );
        registry.describe(
            "rcc_wire_bytes_encoded_total",
            "Result bytes serialized into the wire format at the back-end.",
        );
        registry.describe(
            "rcc_wire_bytes_decoded_total",
            "Wire-format bytes successfully decoded back into rows.",
        );
        let _ = self.metrics.set(BackendMetrics {
            registry,
            remote_latency: OnceLock::new(),
            wire_encoded: OnceLock::new(),
            wire_decoded: OnceLock::new(),
        });
    }

    /// Enable a simulated network: every remote call busy-waits for
    /// `fixed_us` plus `per_kib_us` per KiB of result bytes. The in-process
    /// back-end is otherwise as fast as local execution, which would
    /// invert the local/remote cost relationship the paper's overhead
    /// experiment (Sec. 4.3) depends on. Wall-clock only; the simulated
    /// replication clock is unaffected.
    ///
    /// Shorthand for [`BackendServer::set_network_model`] with
    /// [`NetworkModel::Simulated`]. Once the model is pinned to
    /// [`NetworkModel::Real`] (a TCP transport is serving this back-end),
    /// this call is ignored — real sockets already pay real latency and
    /// the simulation must never stack on top of them.
    pub fn set_simulated_network(&self, fixed_us: u64, per_kib_us: u64) {
        let mut model = self.network.lock();
        if *model == NetworkModel::Real {
            return;
        }
        *model = NetworkModel::Simulated {
            fixed_us,
            per_kib_us,
        };
    }

    /// Replace the network model outright. The TCP transport pins
    /// [`NetworkModel::Real`] here when it takes ownership of this
    /// back-end's traffic.
    pub fn set_network_model(&self, model: NetworkModel) {
        *self.network.lock() = model;
    }

    /// The current network model.
    pub fn network_model(&self) -> NetworkModel {
        *self.network.lock()
    }

    fn apply_latency(&self, result_bytes: usize) {
        let total_us = self.network.lock().delay_micros(result_bytes);
        if total_us == 0 {
            return;
        }
        let deadline = Instant::now() + Duration::from_micros(total_us);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
    }

    /// The underlying master database.
    pub fn master(&self) -> &Arc<MasterDb> {
        &self.master
    }

    /// The cache of shipped statements' plans.
    pub fn plan_cache(&self) -> &Arc<PlanCache<BackendPlan>> {
        &self.plans
    }

    /// Parse, optimize and execute a SELECT against the master tables.
    pub fn query(&self, sql: &str) -> Result<(Schema, Vec<Row>)> {
        self.query_with_bytes(sql)
            .map(|(schema, rows, _)| (schema, rows))
    }

    /// [`BackendServer::query`], also returning the wire-payload size in
    /// bytes — what the cache's per-query byte accounting consumes.
    pub fn query_with_bytes(&self, sql: &str) -> Result<(Schema, Vec<Row>, u64)> {
        let mut phases = Phases::new(false);
        let out = self
            .run_select(sql, &mut phases)
            .and_then(|(schema, payload)| {
                let bytes = payload.len() as u64;
                let (_, rows) = rcc_executor::wire::decode_result(payload)?;
                if let Some(m) = self.metrics.get() {
                    m.wire_decoded
                        .get_or_init(|| m.registry.counter("rcc_wire_bytes_decoded_total", &[]))
                        .add(bytes);
                }
                Ok((schema, rows, bytes))
            });
        self.observe_latency(phases.origin);
        out
    }

    /// Execute a SELECT, returning the result already serialized in the
    /// wire format — the payload a network transport ships verbatim.
    /// Simulated latency (if the model is [`NetworkModel::Simulated`]) is
    /// charged here, exactly once, so in-process and framed-TCP callers
    /// account the same way.
    pub fn query_wire(&self, sql: &str) -> Result<Bytes> {
        let mut phases = Phases::new(false);
        let out = self.run_select(sql, &mut phases);
        self.observe_latency(phases.origin);
        out.map(|(_, payload)| payload)
    }

    /// [`BackendServer::query_wire`], also returning the phases the
    /// request went through, in order — the transport ships them back so
    /// the originating query's trace shows both sides of the wire. A
    /// statement served from the plan cache has no `backend:parse` and no
    /// `backend:plan`: neither happened.
    pub fn query_wire_traced(&self, sql: &str) -> Result<(Bytes, Vec<PhaseSpan>)> {
        let mut phases = Phases::new(true);
        let out = self.run_select(sql, &mut phases);
        self.observe_latency(phases.origin);
        out.map(|(_, payload)| (payload, phases.spans.unwrap_or_default()))
    }

    fn observe_latency(&self, started: Instant) {
        if let Some(m) = self.metrics.get() {
            m.remote_latency
                .get_or_init(|| {
                    m.registry
                        .histogram("rcc_remote_latency_seconds", &[], DEFAULT_LATENCY_BUCKETS)
                })
                .observe(started.elapsed().as_secs_f64());
        }
    }

    /// The shared SELECT pipeline: find or compile the plan, execute,
    /// serialize, charge simulated latency. Returns the planner-side
    /// schema (which keeps its binding qualifiers — the wire format does
    /// not carry them) alongside the encoded payload.
    fn run_select(&self, sql: &str, phases: &mut Phases) -> Result<(Schema, Bytes)> {
        let no_params = HashMap::new();
        let Some(shape) = rcc_sql::shape(sql, &no_params) else {
            // not a SELECT (or not a statement): say what it is instead
            let other = phases.run("backend:parse", || parse_statement(sql))?;
            return Err(Error::Remote(format!(
                "back-end remote interface only accepts SELECT, got {other:?}"
            )));
        };
        let (plan, _) = self.plans.find_or_compile(&shape.key, &shape.values, || {
            self.compile(sql, &shape, phases)
        })?;
        let ctx = ExecContext {
            meter: Arc::new(QueryMeter::default()),
            slots: Arc::new(shape.values),
            ..self.base_ctx.clone()
        };
        let result = phases.run("backend:execute", || plan.executable.execute(&ctx))?;
        // results really travel through the wire format, so the latency
        // model and byte accounting see true serialized sizes; batches are
        // serialized straight from their column buffers
        let payload = phases.run("backend:encode", || {
            rcc_executor::wire::encode_batches(&result.schema, &result.batches)
        });
        if let Some(m) = self.metrics.get() {
            m.wire_encoded
                .get_or_init(|| m.registry.counter("rcc_wire_bytes_encoded_total", &[]))
                .add(payload.len() as u64);
        }
        self.apply_latency(payload.len());
        Ok((result.schema, payload))
    }

    /// The miss path: parse, reject what the remote interface does not
    /// take, plan for the statement's slot values, prepare the plan and say
    /// for which values it holds.
    fn compile(
        &self,
        sql: &str,
        shape: &Shape,
        phases: &mut Phases,
    ) -> Result<(BackendPlan, Vec<KeyRange>)> {
        let select = phases.run("backend:parse", || parse_shape(sql, &HashMap::new()))?;
        if select.currency.is_some() {
            return Err(Error::Remote(
                "currency clauses must not reach the back-end (it always serves the latest snapshot)"
                    .into(),
            ));
        }
        phases.run("backend:plan", || {
            let graph = bind_select_slots(&self.catalog, &select, &HashMap::new(), &shape.values)?;
            let optimized = optimize(&self.catalog, &graph, &self.config)?;
            // a back-end plan reads the master: it bears no guard to decide
            let executable = Executable::prepare(&optimized.plan, self.master.storage(), &[])?;
            let plan = BackendPlan {
                optimized,
                executable,
            };
            Ok((plan, slot_domains(&self.catalog, &graph)))
        })
    }
}

impl RemoteService for BackendServer {
    fn execute(&self, sql: &str) -> Result<(Schema, Vec<Row>)> {
        self.query(sql)
    }

    fn execute_with_bytes(&self, sql: &str) -> Result<(Schema, Vec<Row>, u64)> {
        self.query_with_bytes(sql)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{SimClock, TableId, Value};
    use rcc_tpcd::{customer_meta, orders_meta, TpcdGenerator};

    fn backend() -> BackendServer {
        let clock = SimClock::new();
        let catalog = Arc::new(Catalog::new());
        let master = Arc::new(MasterDb::new(catalog.clone(), Arc::new(clock)));
        let cm = customer_meta(TableId(1));
        let om = orders_meta(TableId(2));
        master.create_table(&cm).unwrap();
        master.create_table(&om).unwrap();
        catalog.register_table(cm).unwrap();
        catalog.register_table(om).unwrap();
        let gen = TpcdGenerator::new(0.001, 42);
        gen.load_into(|t, rows| master.bulk_load(t, rows)).unwrap();
        catalog.set_stats("customer", master.compute_stats("customer").unwrap());
        catalog.set_stats("orders", master.compute_stats("orders").unwrap());
        BackendServer::new(master)
    }

    #[test]
    fn point_query() {
        let b = backend();
        let (schema, rows) = b
            .query("SELECT c_name FROM customer WHERE c_custkey = 5")
            .unwrap();
        assert_eq!(schema.len(), 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).as_str().unwrap(), "Customer#000000005");
    }

    #[test]
    fn join_query() {
        let b = backend();
        let (_, rows) = b
            .query(
                "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
                 WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 3",
            )
            .unwrap();
        assert!(!rows.is_empty());
        assert!(rows.len() <= 3 * 15);
    }

    #[test]
    fn aggregate_query() {
        let b = backend();
        let (_, rows) = b.query("SELECT COUNT(*) AS n FROM customer").unwrap();
        assert_eq!(rows[0].get(0), &Value::Int(150));
    }

    #[test]
    fn rejects_non_select_and_currency() {
        let b = backend();
        assert!(matches!(
            b.query("DELETE FROM customer"),
            Err(Error::Remote(_))
        ));
        assert!(matches!(
            b.query("SELECT c_name FROM customer CURRENCY BOUND 5 SEC ON (customer)"),
            Err(Error::Remote(_))
        ));
    }

    #[test]
    fn query_wire_payload_decodes_to_same_rows() {
        let b = backend();
        let sql = "SELECT c_name FROM customer WHERE c_custkey = 5";
        let payload = b.query_wire(sql).unwrap();
        let (_, wire_rows) = rcc_executor::wire::decode_result(payload).unwrap();
        let (_, rows) = b.query(sql).unwrap();
        assert_eq!(wire_rows, rows);
    }

    #[test]
    fn real_network_model_pins_out_simulation() {
        let b = backend();
        b.set_network_model(NetworkModel::Real);
        // once a real transport owns the traffic, the simulated knobs are
        // inert — no double-counted latency
        b.set_simulated_network(5_000_000, 1_000);
        assert_eq!(b.network_model(), NetworkModel::Real);
        let started = std::time::Instant::now();
        b.query("SELECT c_name FROM customer WHERE c_custkey = 5")
            .unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn simulated_model_applies_before_real_pin() {
        let b = backend();
        b.set_simulated_network(150, 20);
        assert!(b.network_model().is_simulated());
    }

    #[test]
    fn secondary_index_range() {
        let b = backend();
        let (_, rows) = b
            .query("SELECT c_custkey FROM customer WHERE c_acctbal BETWEEN 0.0 AND 1000.0")
            .unwrap();
        assert!(!rows.is_empty());
    }
}
