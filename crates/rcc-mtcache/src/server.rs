//! The MTCache server.

use crate::backend_server::{BackendPlan, BackendServer};
use crate::plan_cache::{CompiledQuery, LintWarning, PlanCache};
use crate::policy::ViolationPolicy;
use crate::result::{PlanExplain, QueryResult};
use crate::session::Session;
use parking_lot::{Mutex, RwLock};
use rcc_backend::{MasterDb, TableChange};
use rcc_catalog::{CachedViewDef, Catalog, CurrencyRegion, TableMeta};
use rcc_common::{
    AgentId, Clock, Column, DataType, Duration, Error, RegionId, Result, Row, Schema, SimClock,
    TableId, Timestamp, Value,
};
use rcc_executor::GuardObservation;
use rcc_executor::{
    execute_plan_analyzed, execute_plan_rows, Batch, BatchExecutionResult, ExecContext,
    ExecCounters, ExecMetrics, Executable, ExecutionResult, GuardMode, QueryMeter, RemoteService,
    DEFAULT_BATCH_ROWS,
};
use rcc_obs::{
    Counter, EventJournal, EventKind, Gauge, HandlesByKey, Histogram, MetricsRegistry, QueryPhase,
    QueryStats, TraceHandle, TraceRef, Tracer, DEFAULT_LATENCY_BUCKETS, DEFAULT_SLACK_BUCKETS,
    DEFAULT_STALENESS_BUCKETS,
};
use rcc_optimizer::cost::column_ranges;
use rcc_optimizer::optimize::Optimized;
use rcc_optimizer::{
    bind_one_table, bind_select_slots, optimize, slot_domains, BoundExpr, OptimizerConfig,
    PhysicalPlan,
};
use rcc_replication::{DistributionAgent, ReplicationRuntime};
use rcc_robust::{Verdict, WorkloadReport};
use rcc_semantics::{summarize_template, TemplateSummary};
use rcc_sql::ast::TemplateDecl;
use rcc_sql::lexer::TokenKind;
use rcc_sql::{
    parse_shape, parse_statement, Expr, SelectItem, SelectStmt, Shape, Statement, TableRef,
};
use rcc_storage::{
    DurableStore, KeyRange, RecoveredState, RecoveryStats, RowChange, StorageEngine, SyncPolicy,
    Table, TableStats, WatermarkRecord,
};
use rcc_verify::VerifyReport;
use std::collections::HashMap;
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration as StdDuration, Instant};

/// The mid-tier database cache.
///
/// Owns the whole rig: the back-end master database (with its replication
/// log and heartbeats), the cache-side storage holding cached views and
/// local heartbeat tables, the distribution agents on a simulated clock,
/// the shadow catalog, and the C&C-aware optimizer/executor pipeline.
#[derive(Debug)]
pub struct MTCache {
    clock: SimClock,
    clock_arc: Arc<dyn Clock>,
    catalog: Arc<Catalog>,
    master: Arc<MasterDb>,
    backend: Arc<BackendServer>,
    cache_storage: Arc<StorageEngine>,
    runtime: ReplicationRuntime,
    config: RwLock<OptimizerConfig>,
    /// When set, the executor's remote branch ships SQL through this
    /// service (e.g. a pooled TCP transport) instead of calling the
    /// in-process [`BackendServer`] directly.
    remote_override: RwLock<Option<Arc<dyn RemoteService>>>,
    plan_cache: Arc<PlanCache>,
    counters: Arc<ExecCounters>,
    metrics: Arc<MetricsRegistry>,
    query_metrics: QueryMetrics,
    exec_metrics: Arc<ExecMetrics>,
    tracer: Tracer,
    journal: EventJournal,
    backend_available: AtomicBool,
    next_agent: AtomicU32,
    next_region: AtomicU32,
    next_session: AtomicU64,
    /// Queries tracked by the currency SLO (delivered-staleness accounting
    /// ran for them).
    slo_queries: AtomicU64,
    /// SLO-tracked queries whose slack went negative *without* a
    /// sanctioned policy degradation — the compliance ratio's numerator
    /// complement.
    slo_unsanctioned: AtomicU64,
    /// When set, queries run on the row-at-a-time reference engine instead
    /// of the vectorized one — the A side of batched-vs-row comparisons.
    row_engine: AtomicBool,
    /// The timeline floors of every query of a session without any, shared
    /// instead of allocated per query.
    no_floors: Arc<HashMap<RegionId, Timestamp>>,
    /// When set, an execution of a session without timeline floors skips
    /// the guards the dataflow analysis certified as statically decided
    /// (always-pass → local arm, never-pass → remote arm). Off by default;
    /// read per execution.
    elide_guards: AtomicBool,
    /// Durable store behind the master (None = classic in-memory rig).
    durability: Option<Arc<DurableStore>>,
    /// State recovered at open, consumed by [`MTCache::finish_recovery`].
    recovered: Mutex<Option<RecoveredState>>,
    /// Watermarks recovered at open, consumed by
    /// [`MTCache::restore_watermarks`] once regions exist.
    pending_watermarks: Mutex<Vec<WatermarkRecord>>,
    /// Bound summaries of every declared transaction template, in
    /// declaration order.
    templates: RwLock<Vec<TemplateSummary>>,
    /// The robustness analyzer's latest workload report, recomputed on
    /// every `CREATE TEMPLATE` (the compile-time hook) and served by
    /// `AUDIT TEMPLATES` and [`MTCache::template_verdict`].
    robust_report: RwLock<WorkloadReport>,
}

/// Handles of the metrics every served query touches, resolved from the
/// registry by name on first use and held from then on: a by-name lookup
/// allocates a key, takes a mutex and walks a map, a held handle is one
/// atomic. Resolved lazily, not at construction, so each metric enters the
/// exposition when it is first touched, as before. Cold and dynamic-label
/// sites (degradations, lint codes, audits) still look up by name.
#[derive(Debug, Default)]
struct QueryMetrics {
    per_query: OnceLock<PerQueryMetrics>,
    /// `rcc_slo_queries_total`, `rcc_slo_compliance_ratio`.
    slo: OnceLock<(Counter, Gauge)>,
    /// `rcc_flow_guards_elided_total`, counted per execution.
    guards_elided: OnceLock<Counter>,
    /// `rcc_delivered_staleness_seconds`, `rcc_currency_slack_seconds`.
    regions: HandlesByKey<RegionId, (Histogram, Histogram)>,
}

#[derive(Debug)]
struct PerQueryMetrics {
    queries: Counter,
    rows_returned: Counter,
    /// `rcc_query_phase_seconds`, in [`QueryPhase::ALL`] order.
    phase_seconds: [Histogram; QueryPhase::ALL.len()],
}

/// A statement after [`MTCache::prepare`]: a `SELECT`, bare or under
/// `VERIFY` / `EXPLAIN FLOW`, split into its shape and slot values (not
/// parsed: the plan cache may hold its plan), or anything else, parsed.
#[derive(Debug)]
pub(crate) struct Prepared<'a> {
    sql: &'a str,
    form: Form<'a>,
}

#[derive(Debug)]
enum Form<'a> {
    Select(Shape),
    /// A diagnostic, the text of its `SELECT`, and that text's shape.
    Diagnostic(Diagnostic, &'a str, Shape),
    Parsed {
        stmt: Statement,
        parse: StdDuration,
    },
}

/// The statements that render the plan a `SELECT` is served instead of
/// running it.
#[derive(Debug, Clone, Copy)]
enum Diagnostic {
    /// `VERIFY SELECT …`: the plan's proof obligations.
    Verify,
    /// `EXPLAIN FLOW SELECT …`: the plan's currency dataflow analysis.
    Flow,
}

impl Diagnostic {
    /// The diagnostic `sql` is, and the text of its `SELECT` — from the
    /// token after the prefix on, so it is keyed as it would be bare.
    fn of(sql: &str) -> Option<(Diagnostic, &str)> {
        let tokens = rcc_sql::lexer::tokenize(sql).ok()?;
        let keyword = |i: usize| match tokens.get(i).map(|t| &t.kind) {
            Some(TokenKind::Keyword(k)) => k.as_str(),
            _ => "",
        };
        let (kind, select) = match (keyword(0), keyword(1)) {
            ("VERIFY", _) => (Diagnostic::Verify, 1),
            ("EXPLAIN", "FLOW") => (Diagnostic::Flow, 2),
            _ => return None,
        };
        Some((kind, &sql[tokens.get(select)?.pos..]))
    }
}

impl Prepared<'_> {
    /// The parsed statement; `None` for a shaped `SELECT`.
    pub(crate) fn statement(&self) -> Option<&Statement> {
        match &self.form {
            Form::Parsed { stmt, .. } => Some(stmt),
            _ => None,
        }
    }
}

/// Where a statement's plan came from and what producing it cost — the
/// front half of [`QueryStats`].
#[derive(Debug, Clone, Copy)]
struct CompilePhases {
    plan_cache_hit: bool,
    parse: StdDuration,
    bind: StdDuration,
    optimize: StdDuration,
}

impl CompilePhases {
    /// A plan-cache hit: nothing was parsed, bound or optimized.
    const HIT: CompilePhases = CompilePhases {
        plan_cache_hit: true,
        parse: StdDuration::ZERO,
        bind: StdDuration::ZERO,
        optimize: StdDuration::ZERO,
    };
}

/// What [`MTCache::compile`] produces.
struct Compilation {
    compiled: CompiledQuery,
    /// Per statement slot, the values `compiled` is the plan for.
    domains: Vec<KeyRange>,
    /// Bind and optimize; the caller fills in the parse.
    phases: CompilePhases,
}

/// Snapshot of the durability subsystem for `/healthz` and diagnostics.
#[derive(Debug, Clone)]
pub struct DurabilityStatus {
    /// WAL sync policy name (`always`, `group`, `never`).
    pub policy: &'static str,
    /// WAL size on disk in bytes.
    pub wal_bytes: u64,
    /// WAL records since the last checkpoint.
    pub wal_records: u64,
    /// Lifetime fsync count.
    pub wal_fsyncs: u64,
    /// Sim-clock seconds since the last checkpoint (None before the first).
    pub last_checkpoint_age_seconds: Option<f64>,
}

fn sync_policy_name(policy: SyncPolicy) -> &'static str {
    match policy {
        SyncPolicy::Always => "always",
        SyncPolicy::Group => "group",
        SyncPolicy::Never => "never",
    }
}

impl Default for MTCache {
    fn default() -> Self {
        Self::new()
    }
}

impl MTCache {
    /// A fresh cache + back-end pair on a shared simulated clock starting
    /// at the epoch.
    pub fn new() -> MTCache {
        Self::build(None)
    }

    /// A cache whose back-end master is durable: commits are written ahead
    /// to `data_dir`'s WAL, and whatever a previous process left there is
    /// recovered. Call [`MTCache::finish_recovery`] after the schema is
    /// registered and initial data is loaded (and before the first logged
    /// transaction), then [`MTCache::restore_watermarks`] once regions and
    /// views exist.
    pub fn new_durable(data_dir: &Path, sync: SyncPolicy) -> Result<MTCache> {
        let (store, state) = DurableStore::open(data_dir, sync)?;
        Ok(Self::build(Some((store, state))))
    }

    fn build(durable: Option<(Arc<DurableStore>, RecoveredState)>) -> MTCache {
        let clock = SimClock::new();
        let clock_arc: Arc<dyn Clock> = Arc::new(clock.clone());
        let catalog = Arc::new(Catalog::new());
        let master = Arc::new(MasterDb::new(Arc::clone(&catalog), Arc::clone(&clock_arc)));
        let backend = Arc::new(BackendServer::new(Arc::clone(&master)));
        let runtime = ReplicationRuntime::new(clock.clone(), Arc::clone(&master));
        let metrics = Arc::new(MetricsRegistry::new());
        let counters = Arc::new(ExecCounters::default());
        counters.register_metrics(&metrics);
        backend.set_metrics(Arc::clone(&metrics));
        runtime.set_metrics(Arc::clone(&metrics));
        let plan_cache = Arc::new(PlanCache::new(Arc::clone(&catalog)));
        let cache_storage = Arc::new(StorageEngine::new());
        let tracer = Tracer::default();
        let journal = EventJournal::new(256);
        journal.set_metrics(Arc::clone(&metrics));
        Self::register_cache_metrics(
            &metrics,
            &plan_cache,
            backend.plan_cache(),
            &master,
            &cache_storage,
        );
        Self::register_telemetry_metrics(&metrics, &tracer);
        let (durability, recovered) = match durable {
            Some((store, state)) => {
                // Attach before any logged transaction: recovery replay
                // goes through `MasterDb::recover`, which writes the log
                // directly and never re-appends to the WAL.
                master.attach_durability(Arc::clone(&store));
                Self::register_durability_metrics(&metrics, &store, &clock);
                (Some(store), Some(state))
            }
            None => (None, None),
        };
        MTCache {
            clock,
            clock_arc,
            catalog,
            master,
            backend,
            cache_storage,
            runtime,
            config: RwLock::new(OptimizerConfig::default()),
            remote_override: RwLock::new(None),
            plan_cache,
            counters,
            query_metrics: QueryMetrics::default(),
            exec_metrics: Arc::new(ExecMetrics::new(Arc::clone(&metrics))),
            metrics,
            tracer,
            journal,
            backend_available: AtomicBool::new(true),
            next_agent: AtomicU32::new(0),
            next_region: AtomicU32::new(0),
            next_session: AtomicU64::new(0),
            slo_queries: AtomicU64::new(0),
            slo_unsanctioned: AtomicU64::new(0),
            row_engine: AtomicBool::new(false),
            no_floors: Arc::default(),
            elide_guards: AtomicBool::new(false),
            durability,
            recovered: Mutex::new(recovered),
            pending_watermarks: Mutex::new(Vec::new()),
            templates: RwLock::new(Vec::new()),
            robust_report: RwLock::new(WorkloadReport {
                templates: Vec::new(),
            }),
        }
    }

    /// Apply state recovered by [`MTCache::new_durable`]: restore the
    /// checkpoint's table images, replay the WAL tail, move the simulated
    /// clock forward to the last persisted instant (so currency accounting
    /// is continuous across the restart), and journal a `recovery` event
    /// with the replay stats. A fresh data dir (nothing to recover) journals
    /// no event. Returns `None` for in-memory caches.
    ///
    /// Must run after every table the recovered state references has been
    /// registered and loaded, and before regions and views are created.
    pub fn finish_recovery(&self) -> Result<Option<RecoveryStats>> {
        let Some(state) = self.recovered.lock().take() else {
            return Ok(None);
        };
        self.master.recover(
            state.tables,
            state.base_log_len,
            state.next_id,
            &state.commits,
        )?;
        if state.last_clock_ms > self.clock.now().millis() {
            self.clock.set(Timestamp(state.last_clock_ms));
        }
        *self.pending_watermarks.lock() = state.watermarks;
        let stats = state.stats;
        // A genuinely fresh data dir recovers nothing — journaling a
        // zero-stats `recovery` event would be noise (and would defeat
        // "did we actually recover?" checks against SHOW EVENTS).
        let recovered_anything = state.has_checkpoint
            || stats.commits_replayed > 0
            || stats.truncated_bytes > 0
            || stats.watermarks_restored > 0;
        if !recovered_anything {
            return Ok(Some(stats));
        }
        self.journal.record(
            self.clock.now().millis(),
            EventKind::Recovery,
            format!(
                "replayed {} commits, truncated {} tail bytes, restored {} watermarks, \
                 {} checkpoint tables ({} rows)",
                stats.commits_replayed,
                stats.truncated_bytes,
                stats.watermarks_restored,
                stats.checkpoint_tables,
                stats.checkpoint_rows,
            ),
            "",
            "",
            0,
        );
        Ok(Some(stats))
    }

    /// Hand each recovered per-region watermark back to its distribution
    /// agent (cursor clamped to the recovered log length — torn-tail
    /// truncation can leave a persisted cursor past the end, and replaying
    /// a little extra is idempotent). Returns how many were restored.
    ///
    /// Must run after regions and views are created; a watermark for a
    /// region that no longer exists is dropped.
    pub fn restore_watermarks(&self) -> Result<usize> {
        let pending = std::mem::take(&mut *self.pending_watermarks.lock());
        let log_len = self.master.log_len();
        let mut restored = 0;
        for wm in pending {
            let cursor = (wm.cursor as usize).min(log_len);
            let heartbeat = (wm.heartbeat_ms >= 0).then_some(Timestamp(wm.heartbeat_ms));
            let mut result = Ok(());
            let found = self.runtime.with_agent(&wm.region, |agent| {
                result = agent.restore_watermark(cursor, heartbeat);
            });
            result?;
            if found {
                restored += 1;
            }
        }
        Ok(restored)
    }

    /// Write a checkpoint capturing the master tables and every region's
    /// current replication watermark, then truncate the WAL. Returns
    /// `false` (doing nothing) for in-memory caches. Used by graceful
    /// shutdown and `rccd`'s periodic checkpointer.
    pub fn checkpoint(&self) -> Result<bool> {
        let watermarks: Vec<WatermarkRecord> = self
            .runtime
            .watermarks()
            .into_iter()
            .map(|(region, cursor, heartbeat)| WatermarkRecord {
                region,
                cursor: cursor as u64,
                heartbeat_ms: heartbeat.map_or(-1, |t| t.millis()),
            })
            .collect();
        self.master.checkpoint(&watermarks)
    }

    /// Durability snapshot for `/healthz`; `None` for in-memory caches.
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        let store = self.durability.as_ref()?;
        let now_ms = self.clock.now().millis();
        Some(DurabilityStatus {
            policy: sync_policy_name(store.policy()),
            wal_bytes: store.wal_bytes(),
            wal_records: store.wal_records(),
            wal_fsyncs: store.wal_fsyncs(),
            last_checkpoint_age_seconds: store
                .last_checkpoint_ms()
                .map(|ms| (now_ms.saturating_sub(ms)) as f64 / 1000.0),
        })
    }

    /// Describe the durability metric names and mirror the store's WAL and
    /// checkpoint counters into the registry via a collector.
    fn register_durability_metrics(
        metrics: &Arc<MetricsRegistry>,
        store: &Arc<DurableStore>,
        clock: &SimClock,
    ) {
        metrics.describe("rcc_wal_bytes", "Write-ahead log size on disk in bytes.");
        metrics.describe(
            "rcc_wal_records_total",
            "WAL records appended since the last checkpoint reset the log.",
        );
        metrics.describe(
            "rcc_wal_fsyncs_total",
            "fsync calls issued by the WAL (per-commit or group-batched).",
        );
        metrics.describe(
            "rcc_wal_checkpoint_age_seconds",
            "Simulated seconds since the last completed checkpoint.",
        );
        let wal_bytes = metrics.gauge("rcc_wal_bytes", &[]);
        let wal_records = metrics.counter("rcc_wal_records_total", &[]);
        let wal_fsyncs = metrics.counter("rcc_wal_fsyncs_total", &[]);
        let ckpt_age = metrics.gauge("rcc_wal_checkpoint_age_seconds", &[]);
        let store = Arc::clone(store);
        let clock = clock.clone();
        metrics.register_collector(move || {
            wal_bytes.set(store.wal_bytes() as f64);
            wal_records.set(store.wal_records());
            wal_fsyncs.set(store.wal_fsyncs());
            let age = store
                .last_checkpoint_ms()
                .map(|ms| (clock.now().millis().saturating_sub(ms)) as f64 / 1000.0);
            ckpt_age.set(age.unwrap_or(-1.0));
        });
    }

    /// Route subsequent queries through the row-at-a-time reference engine
    /// (`true`) or the vectorized engine (`false`, the default). The two
    /// produce byte-identical results; the switch exists for differential
    /// testing and benchmarking.
    pub fn set_row_engine(&self, on: bool) {
        self.row_engine.store(on, Ordering::Relaxed);
    }

    /// Run `plan`, prepared as `executable`, on whichever engine is
    /// selected; the answer stays in batches until a caller asks for rows.
    fn run_plan(
        &self,
        executable: &Executable,
        plan: &PhysicalPlan,
        ctx: &ExecContext,
    ) -> Result<BatchExecutionResult> {
        if !self.row_engine.load(Ordering::Relaxed) {
            return executable.execute(ctx);
        }
        let ExecutionResult {
            schema,
            rows,
            timings,
        } = execute_plan_rows(plan, ctx)?;
        Ok(BatchExecutionResult {
            batches: vec![Batch::from_rows(schema.len(), rows)],
            schema,
            timings,
        })
    }

    /// Describe the cache-level metric names and mirror both plan caches'
    /// internal hit/miss/size counters (and the master's committed-txn
    /// count) into the registry via a collector, so external resets and
    /// epoch evictions are always reflected in snapshots.
    fn register_cache_metrics(
        metrics: &Arc<MetricsRegistry>,
        plan_cache: &Arc<PlanCache>,
        backend_plan_cache: &Arc<PlanCache<BackendPlan>>,
        master: &Arc<MasterDb>,
        cache_storage: &Arc<StorageEngine>,
    ) {
        metrics.describe("rcc_queries_total", "Statements executed at the cache.");
        metrics.describe(
            "rcc_query_rows_returned_total",
            "Rows returned to clients by cache queries.",
        );
        metrics.describe(
            "rcc_query_phase_seconds",
            "Per-statement phase latency (parse, bind, optimize, guard_eval, local_exec, remote_ship).",
        );
        metrics.describe(
            "rcc_guard_staleness_seconds",
            "Staleness observed by currency guards, per region heartbeat.",
        );
        metrics.describe(
            "rcc_stale_served_total",
            "Queries answered from stale local data under ViolationPolicy::ServeStale.",
        );
        metrics.describe(
            "rcc_policy_degradations_total",
            "Queries that hit the violation policy because the back-end was \
             unreachable, labeled by policy arm (reject, serve_stale).",
        );
        metrics.describe(
            "rcc_verify_audits_total",
            "Optimized plans statically audited for C&C conformance \
             (post-optimize audit and VERIFY statements).",
        );
        metrics.describe(
            "rcc_verify_failures_total",
            "Plan conformance audits that found a delivered-vs-required divergence.",
        );
        metrics.describe(
            "rcc_robust_audits_total",
            "Template robustness analyses run (each CREATE TEMPLATE re-audits \
             the whole declared workload).",
        );
        metrics.describe(
            "rcc_robust_templates",
            "Declared transaction templates by latest robustness verdict \
             (robust, not_robust).",
        );
        metrics.describe(
            "rcc_lint_diagnostics_total",
            "Currency-clause lint diagnostics emitted at compile time and by \
             LINT statements, labeled by code (L001..L007).",
        );
        metrics.describe(
            "rcc_plan_cache_hits_total",
            "SELECTs, bare or under VERIFY / EXPLAIN FLOW, that found a cached plan.",
        );
        metrics.describe(
            "rcc_plan_cache_misses_total",
            "SELECTs, bare or under VERIFY / EXPLAIN FLOW, a plan was compiled for.",
        );
        metrics.describe(
            "rcc_plan_cache_evictions_total",
            "Compiled plans dropped, oldest first, to keep the plan cache within its capacity.",
        );
        metrics.describe(
            "rcc_plan_cache_sibling_compiles_total",
            "Plan-cache misses on a shape the cache held plans for: the statement's \
             values lay outside the domains every one of them was proven for.",
        );
        metrics.describe("rcc_plan_cache_entries", "Compiled plans currently cached.");
        metrics.describe(
            "rcc_backend_plan_cache_hits_total",
            "Statements shipped to the back-end that reused a compiled plan \
             (not parsed, bound or optimized again).",
        );
        metrics.describe(
            "rcc_backend_plan_cache_misses_total",
            "Statements shipped to the back-end that it had to parse and plan.",
        );
        metrics.describe(
            "rcc_backend_plan_cache_evictions_total",
            "Plans dropped, oldest first, to keep the back-end's plan cache within its capacity.",
        );
        metrics.describe(
            "rcc_master_txns_total",
            "Transactions committed in the back-end master's replication log.",
        );
        let hits = metrics.counter("rcc_plan_cache_hits_total", &[]);
        let misses = metrics.counter("rcc_plan_cache_misses_total", &[]);
        let evictions = metrics.counter("rcc_plan_cache_evictions_total", &[]);
        let siblings = metrics.counter("rcc_plan_cache_sibling_compiles_total", &[]);
        let entries = metrics.gauge("rcc_plan_cache_entries", &[]);
        let backend_hits = metrics.counter("rcc_backend_plan_cache_hits_total", &[]);
        let backend_misses = metrics.counter("rcc_backend_plan_cache_misses_total", &[]);
        let backend_evictions = metrics.counter("rcc_backend_plan_cache_evictions_total", &[]);
        let master_txns = metrics.counter("rcc_master_txns_total", &[]);
        metrics.describe(
            "rcc_snapshot_publishes_total",
            "Copy-on-write table snapshots published, per store \
             (master back-end vs. cache-side replicas).",
        );
        let cache_publishes =
            metrics.counter("rcc_snapshot_publishes_total", &[("store", "cache")]);
        let master_publishes =
            metrics.counter("rcc_snapshot_publishes_total", &[("store", "master")]);
        let pc = Arc::clone(plan_cache);
        let backend_pc = Arc::clone(backend_plan_cache);
        let master = Arc::clone(master);
        let cache_storage = Arc::clone(cache_storage);
        metrics.register_collector(move || {
            let (h, m) = pc.stats();
            hits.set(h);
            misses.set(m);
            evictions.set(pc.evictions());
            siblings.set(pc.sibling_compiles());
            entries.set(pc.len() as f64);
            let (h, m) = backend_pc.stats();
            backend_hits.set(h);
            backend_misses.set(m);
            backend_evictions.set(backend_pc.evictions());
            master_txns.set(master.log_len() as u64);
            cache_publishes.set(cache_storage.total_publishes());
            master_publishes.set(master.storage().total_publishes());
        });
    }

    /// Describe the currency-telemetry metric names and mirror the
    /// tracer's dropped-span count into the registry.
    fn register_telemetry_metrics(metrics: &Arc<MetricsRegistry>, tracer: &Tracer) {
        metrics.describe(
            "rcc_delivered_staleness_seconds",
            "Actual staleness of every snapshot served (back-end commit clock \
             minus region heartbeat at guard-evaluation time), per region.",
        );
        metrics.describe(
            "rcc_currency_slack_seconds",
            "Promised currency bound minus delivered staleness, per region; \
             negative slack means the bound was overrun.",
        );
        metrics.describe(
            "rcc_slo_queries_total",
            "Queries tracked by the delivered-currency SLO.",
        );
        metrics.describe(
            "rcc_slo_violations_total",
            "Queries whose currency slack went negative, labeled by whether a \
             sanctioned policy degradation (serve_stale) caused it.",
        );
        metrics.describe(
            "rcc_slo_compliance_ratio",
            "Fraction of tracked queries that met their bound or degraded only \
             via sanctioned policy.",
        );
        metrics.describe(
            "rcc_events_total",
            "Structured journal events recorded, per kind \
             (degradation, violation, failover, lint, recovery).",
        );
        metrics.describe(
            "rcc_flow_guards_elided_total",
            "Currency guards executions skipped because the dataflow \
             analysis certified their outcome (guard elision).",
        );
        metrics.describe(
            "rcc_flow_interval_violations_total",
            "Delivered staleness observed outside a compile-time-certified \
             flow interval — a broken analysis premise such as unhealthy \
             replication. Benches assert this stays zero.",
        );
        metrics.describe(
            "rcc_trace_dropped_spans_total",
            "Spans recorded after their trace had already finished; counted \
             instead of silently discarded.",
        );
        let dropped = metrics.counter("rcc_trace_dropped_spans_total", &[]);
        let tracer = tracer.clone();
        metrics.register_collector(move || {
            dropped.set(tracer.dropped_spans());
        });
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The shadow catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The master database at the back-end.
    pub fn master(&self) -> &Arc<MasterDb> {
        &self.master
    }

    /// The back-end server.
    pub fn backend(&self) -> &Arc<BackendServer> {
        &self.backend
    }

    /// Cache-side storage (cached views + local heartbeat tables).
    pub fn cache_storage(&self) -> &Arc<StorageEngine> {
        &self.cache_storage
    }

    /// Global execution counters (guard outcomes, remote traffic).
    pub fn counters(&self) -> &Arc<ExecCounters> {
        &self.counters
    }

    /// The compiled-plan cache. A catalog change invalidates it by moving
    /// [`Catalog::version`]; `invalidate()` is for everything else.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The metrics registry covering the whole pipeline; render with
    /// [`MetricsRegistry::render_prometheus`] or inspect via
    /// [`MetricsRegistry::snapshot`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The query tracer: every statement records a trace with parse /
    /// bind / optimize / execute spans, kept in a bounded ring buffer
    /// ([`Tracer::recent`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The structured event journal (degradations, violations, failovers,
    /// lint findings) — the store behind `SHOW EVENTS` and `/events`.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// A fresh session label (`session-1`, `session-2`, …) for journal
    /// attribution.
    pub(crate) fn next_session_label(&self) -> String {
        format!(
            "session-{}",
            self.next_session.fetch_add(1, Ordering::Relaxed) + 1
        )
    }

    /// Route the executor's remote branch through `service` — the hook the
    /// TCP transport uses so a `CURRENCY BOUND` miss really ships SQL over
    /// a socket to a back-end in another thread or process. Pass `None` to
    /// restore the direct in-process call. Compiled plans stay valid (the
    /// transport is a run-time concern), so the plan cache is untouched.
    pub fn set_remote_service(&self, service: Option<Arc<dyn RemoteService>>) {
        *self.remote_override.write() = service;
    }

    /// Simulate losing (or restoring) the link to the back-end — the
    /// *traditional replicated database* scenario.
    pub fn set_backend_available(&self, up: bool) {
        let was = self.backend_available.swap(up, Ordering::SeqCst);
        self.config.write().backend_available = up;
        if was != up {
            self.plan_cache.invalidate();
            self.journal.record(
                self.clock.now().millis(),
                EventKind::Failover,
                if up {
                    "back-end link marked available"
                } else {
                    "back-end link marked unavailable"
                },
                "",
                "",
                0,
            );
        }
    }

    /// Enable/disable the SwitchUnion pull-up extension.
    pub fn set_pullup_switch_union(&self, on: bool) {
        self.config.write().pullup_switch_union = on;
        self.plan_cache.invalidate();
    }

    /// Enable/disable certified guard elision. When on, an execution whose
    /// session state matches the certificates' premises (no timeline
    /// floors, no forced-local degradation) skips every statically decided
    /// currency guard of its plan and opens the arm the decision names.
    /// Read per execution: the cached plans stay, and the next execution
    /// follows the setting.
    pub fn set_elide_guards(&self, on: bool) {
        self.elide_guards.store(on, Ordering::SeqCst);
    }

    /// Replace the optimizer's cost constants (for ablations).
    pub fn set_cost_params(&self, cost: rcc_optimizer::cost::CostParams) {
        self.config.write().cost = cost;
        self.plan_cache.invalidate();
    }

    /// Advance simulated time, firing heartbeats and agent propagation.
    pub fn advance(&self, d: Duration) -> Result<()> {
        self.runtime.advance_to(self.clock.now().plus(d))
    }

    /// Create a currency region with a distribution agent. Heartbeats
    /// default to 1 s so that the paper's "propagation interval is a
    /// multiple of the heartbeat interval" alignment holds for any whole-
    /// second interval.
    pub fn create_region(
        &self,
        name: &str,
        update_interval: Duration,
        update_delay: Duration,
    ) -> Result<Arc<CurrencyRegion>> {
        self.create_region_with_heartbeat(
            name,
            update_interval,
            update_delay,
            Duration::from_secs(1),
        )
    }

    /// [`MTCache::create_region`] with an explicit heartbeat interval — a
    /// coarser beat makes the guard's staleness estimate conservative (the
    /// heartbeat-granularity extension of Fig. 4.2).
    pub fn create_region_with_heartbeat(
        &self,
        name: &str,
        update_interval: Duration,
        update_delay: Duration,
        heartbeat_interval: Duration,
    ) -> Result<Arc<CurrencyRegion>> {
        if heartbeat_interval.is_zero() {
            return Err(Error::Config("heartbeat interval must be positive".into()));
        }
        let id = RegionId(self.next_region.fetch_add(1, Ordering::SeqCst) + 1);
        let mut region = CurrencyRegion::new(id, name, update_interval, update_delay);
        region.heartbeat_interval = heartbeat_interval;
        let region = self.catalog.register_region(region)?;
        let agent = DistributionAgent::new(
            AgentId(self.next_agent.fetch_add(1, Ordering::SeqCst) + 1),
            Arc::clone(&region),
            Arc::clone(&self.master),
            Arc::clone(&self.cache_storage),
        )?;
        self.runtime.add_agent(agent);
        Ok(region)
    }

    /// Stall / resume a region's distribution agent (failure injection).
    pub fn set_region_stalled(&self, region_name: &str, stalled: bool) -> bool {
        self.runtime
            .with_agent(region_name, |a| a.set_stalled(stalled))
    }

    /// The region's current local heartbeat, if any.
    pub fn local_heartbeat(&self, region_name: &str) -> Option<Timestamp> {
        self.runtime.local_heartbeat(region_name)
    }

    /// Current staleness bound for a region: `now − local heartbeat`.
    pub fn region_staleness(&self, region_name: &str) -> Option<Duration> {
        self.local_heartbeat(region_name)
            .map(|hb| self.clock.now().since(hb))
    }

    /// Bulk-load initial rows into a master table (unlogged: models the
    /// pre-existing database state).
    pub fn bulk_load(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.master.bulk_load(table, rows)
    }

    /// Recompute and install back-end statistics for a table (the shadow
    /// database carries back-end stats — paper Sec. 3 point 1).
    pub fn analyze(&self, table: &str) -> Result<()> {
        let stats = self.master.compute_stats(table)?;
        self.catalog.set_stats(table, stats);
        Ok(())
    }

    /// Register a base table directly from metadata (programmatic DDL).
    pub fn register_table(&self, meta: TableMeta) -> Result<Arc<TableMeta>> {
        self.master.create_table(&meta)?;
        self.catalog.register_table(meta)
    }

    /// Start a session (needed for `BEGIN TIMEORDERED`).
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    // ------------------------------------------------------------ execute

    /// Execute one SQL statement with no parameters.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_with_params(sql, &HashMap::new())
    }

    /// Execute one SQL statement with `$name` parameters bound.
    pub fn execute_with_params(
        &self,
        sql: &str,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        self.execute_with_policy(sql, params, ViolationPolicy::Reject)
    }

    /// Execute with an explicit violation policy (matters when the
    /// back-end is unavailable).
    pub fn execute_with_policy(
        &self,
        sql: &str,
        params: &HashMap<String, Value>,
        policy: ViolationPolicy,
    ) -> Result<QueryResult> {
        let prepared = self.prepare(sql, params)?;
        self.execute_internal(prepared, params, &HashMap::new(), policy, "direct")
            .map(QueryResult::with_rows)
    }

    /// Optimize without executing (EXPLAIN), on the literal path.
    pub fn explain(&self, sql: &str, params: &HashMap<String, Value>) -> Result<Optimized> {
        Ok(self.compile_literal(sql, "EXPLAIN", params)?.optimized)
    }

    /// Statically verify the plan the optimizer would run for `sql` (which
    /// may carry a leading `VERIFY`), on the literal path. Optimizes but
    /// never executes; returns the full proof-obligation report.
    pub fn verify(&self, sql: &str, params: &HashMap<String, Value>) -> Result<VerifyReport> {
        Ok(self.audit(&self.compile_literal(sql, "VERIFY", params)?))
    }

    /// The literal path of [`MTCache::explain`] and [`MTCache::verify`]
    /// (`EXPLAIN ANALYZE` takes it too): `sql` is parsed as it stands and
    /// compiled for this call alone — its literals bound as literals, never
    /// looked up, never cached. It is the reference the shape path is held
    /// to (`tests/golden_plans.rs`, `tests/shape_differential.rs`).
    fn compile_literal(
        &self,
        sql: &str,
        under: &str,
        params: &HashMap<String, Value>,
    ) -> Result<CompiledQuery> {
        let select = literal_select(sql, under)?;
        let trace = self.tracer.trace(sql);
        Ok(self
            .compile(sql, &select, params, &[], &trace, "direct")?
            .compiled)
    }

    /// Execute a query with per-operator instrumentation and return the
    /// result whose `plan_explain()` is the EXPLAIN ANALYZE printout
    /// (per-operator actual row counts and wall times; untaken SwitchUnion
    /// branches are marked `never executed`). `sql` may carry the
    /// `EXPLAIN ANALYZE` prefix or be the bare query.
    pub fn explain_analyze(
        &self,
        sql: &str,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        let started = Instant::now();
        let select = literal_select(sql, "EXPLAIN ANALYZE")?;
        let parse = started.elapsed();
        self.execute_analyzed(sql, &select, parse, params, &HashMap::new(), "direct")
    }

    /// The first step of every statement, for sessions and for
    /// `MTCache::execute*` alike. A `SELECT` is split into its shape — the
    /// plan-cache key — and its slot values by one lexical pass
    /// ([`rcc_sql::shape`]); it is parsed only if the cache has no plan for
    /// them. So is the `SELECT` of a `VERIFY` or `EXPLAIN FLOW`: those
    /// render the entry the bare `SELECT` is served, found or compiled the
    /// same way. Only `SELECT`s have a shape, so only compiled `SELECT`s
    /// ever enter the cache: `BEGIN`/`END TIMEORDERED`, DML, DDL, `LINT`,
    /// `SHOW` and `EXPLAIN ANALYZE` are parsed here, once, from the text as
    /// it stands, and the `Statement` is handed down.
    pub(crate) fn prepare<'a>(
        &self,
        sql: &'a str,
        params: &HashMap<String, Value>,
    ) -> Result<Prepared<'a>> {
        let shaped = rcc_sql::shape(sql, params).map(Form::Select).or_else(|| {
            let (kind, select) = Diagnostic::of(sql)?;
            let shape = rcc_sql::shape(select, params)?;
            Some(Form::Diagnostic(kind, select, shape))
        });
        let form = match shaped {
            Some(form) => form,
            None => {
                let parse_started = Instant::now();
                let stmt = parse_statement(sql)?;
                let parse = parse_started.elapsed();
                Form::Parsed { stmt, parse }
            }
        };
        Ok(Prepared { sql, form })
    }

    pub(crate) fn execute_internal(
        &self,
        prepared: Prepared<'_>,
        params: &HashMap<String, Value>,
        floors: &HashMap<RegionId, Timestamp>,
        policy: ViolationPolicy,
        session: &str,
    ) -> Result<QueryResult> {
        let Prepared { sql, form } = prepared;
        let (stmt, parse) = match form {
            Form::Select(shape) => {
                return self.execute_select(sql, shape, params, floors, policy, session);
            }
            Form::Diagnostic(kind, select, shape) => {
                return self.execute_diagnostic(sql, kind, select, shape, params, session);
            }
            Form::Parsed { stmt, parse } => (stmt, parse),
        };
        match stmt {
            Statement::Select(_) | Statement::Verify(_) | Statement::ExplainFlow(_) => Err(
                Error::internal("a SELECT, bare or under a diagnostic, is prepared as its shape"),
            ),
            Statement::ExplainAnalyze(select) => {
                self.execute_analyzed(sql, &select, parse, params, floors, session)
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.execute_insert(&table, &columns, &rows),
            Statement::Update {
                table,
                assignments,
                filter,
            } => self.execute_dml(&table, Some(assignments), filter),
            Statement::Delete { table, filter } => self.execute_dml(&table, None, filter),
            Statement::CreateTable {
                name,
                columns,
                primary_key,
            } => self.create_table_ddl(&name, columns, primary_key),
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => self.create_index_ddl(&name, &table, columns),
            Statement::CreateCachedView {
                name,
                region,
                query,
            } => {
                self.create_cached_view(&name, &region, &query, Vec::new())?;
                Ok(QueryResult::empty())
            }
            Statement::CreateRegion {
                name,
                interval,
                delay,
            } => {
                self.create_region(&name, interval, delay)?;
                Ok(QueryResult::empty())
            }
            Statement::DropCachedView { name } => {
                self.drop_cached_view(&name)?;
                Ok(QueryResult::empty())
            }
            Statement::BeginTimeordered | Statement::EndTimeordered => Err(Error::analysis(
                "BEGIN/END TIMEORDERED requires a session; use MTCache::session()",
            )),
            Statement::Lint(select) => Ok(self.execute_lint(&select)),
            Statement::ShowEvents => Ok(self.show_events()),
            Statement::ShowTrace => Ok(self.show_trace()),
            Statement::CreateTemplate(decl) => self.create_template(&decl, session),
            Statement::AuditTemplates => Ok(self.audit_templates()),
        }
    }

    /// `CREATE TEMPLATE ...`: bind the template against the catalog, store
    /// its summary, and re-run the robustness analyzer over the whole
    /// declared workload (the compile-time hook). The statement's result
    /// carries the template's own verdict; a `NOT ROBUST` outcome is also
    /// journaled so operators can see which declaration pinned itself to
    /// the strict path.
    fn create_template(&self, decl: &TemplateDecl, session: &str) -> Result<QueryResult> {
        let summary = summarize_template(&self.catalog, decl)?;
        {
            let mut templates = self.templates.write();
            // Redeclaration replaces (templates evolve during development);
            // order is otherwise declaration order.
            if let Some(existing) = templates.iter_mut().find(|t| t.name == summary.name) {
                *existing = summary.clone();
            } else {
                templates.push(summary.clone());
            }
            let report = rcc_robust::analyze(&templates);
            self.metrics.counter("rcc_robust_audits_total", &[]).inc();
            let robust = report.robust_count();
            let not_robust = report.not_robust_count();
            self.metrics
                .gauge("rcc_robust_templates", &[("verdict", "robust")])
                .set(robust as f64);
            self.metrics
                .gauge("rcc_robust_templates", &[("verdict", "not_robust")])
                .set(not_robust as f64);
            *self.robust_report.write() = report;
        }
        let report = self.robust_report.read();
        let own = report
            .report(&summary.name)
            .ok_or_else(|| Error::analysis("template vanished during analysis"))?;
        if own.verdict == Verdict::NotRobust {
            self.journal.record(
                self.clock.now().millis(),
                EventKind::Robustness,
                format!("template {} is {}", own.name, own.verdict_string()),
                "",
                session,
                0,
            );
        }
        let mut result = QueryResult::empty();
        result.warnings.push(format!(
            "template {} declared: {}",
            own.name,
            own.verdict_string()
        ));
        Ok(result)
    }

    /// `AUDIT TEMPLATES`: one row per declared template with the latest
    /// robustness verdict, its witness (empty when robust), and the
    /// summary counts the verdict was derived from.
    fn audit_templates(&self) -> QueryResult {
        let schema = Schema::new(vec![
            Column::new("template", DataType::Str),
            Column::new("verdict", DataType::Str),
            Column::new("witness", DataType::Str),
            Column::new("statements", DataType::Int),
            Column::new("relaxed_reads", DataType::Int),
            Column::new("writes", DataType::Int),
            Column::new("line", DataType::Int),
        ]);
        let report = self.robust_report.read();
        let rows = report
            .templates
            .iter()
            .map(|t| {
                Row::new(vec![
                    Value::Str(t.name.clone()),
                    Value::Str(t.verdict.to_string()),
                    Value::Str(t.witness.clone().unwrap_or_default()),
                    Value::Int(t.statements as i64),
                    Value::Int(t.relaxed_reads as i64),
                    Value::Int(t.writes as i64),
                    Value::Int(t.line as i64),
                ])
            })
            .collect();
        let warnings = vec![format!(
            "{} template(s): {} robust, {} not robust",
            report.templates.len(),
            report.robust_count(),
            report.not_robust_count()
        )];
        QueryResult {
            schema,
            rows,
            warnings,
            ..QueryResult::empty()
        }
    }

    /// The latest robustness verdict for a declared template, or `None` if
    /// no such template exists. The write path will consult this to decide
    /// whether a template instance may take the relaxed path at all.
    pub fn template_verdict(&self, name: &str) -> Option<Verdict> {
        self.robust_report.read().report(name).map(|t| t.verdict)
    }

    /// `SHOW EVENTS`: the journal's recent entries as a result set, oldest
    /// first.
    fn show_events(&self) -> QueryResult {
        let schema = Schema::new(vec![
            Column::new("seq", DataType::Int),
            Column::new("at_ms", DataType::Int),
            Column::new("kind", DataType::Str),
            Column::new("cause", DataType::Str),
            Column::new("policy", DataType::Str),
            Column::new("session", DataType::Str),
            Column::new("trace_id", DataType::Int),
        ]);
        let events = self.journal.recent(usize::MAX);
        let warnings = vec![format!(
            "{} event(s) retained of {} recorded",
            events.len(),
            self.journal.total()
        )];
        let rows = events
            .into_iter()
            .map(|e| {
                Row::new(vec![
                    Value::Int(e.seq as i64),
                    Value::Int(e.at_ms),
                    Value::Str(e.kind.name().to_string()),
                    Value::Str(e.cause),
                    Value::Str(e.policy),
                    Value::Str(e.session),
                    Value::Int(e.trace_id as i64),
                ])
            })
            .collect();
        QueryResult {
            schema,
            rows,
            warnings,
            ..QueryResult::empty()
        }
    }

    /// `SHOW TRACE`: the most recently finished trace's spans as a result
    /// set (start-ordered), with the trace header in the warnings.
    fn show_trace(&self) -> QueryResult {
        let schema = Schema::new(vec![
            Column::new("span", DataType::Str),
            Column::new("depth", DataType::Int),
            Column::new("start_us", DataType::Int),
            Column::new("elapsed_us", DataType::Int),
        ]);
        let (rows, warnings) = match self.tracer.recent(1).pop() {
            Some(trace) => {
                let mut spans = trace.spans.clone();
                spans.sort_by_key(|s| s.start);
                let rows = spans
                    .into_iter()
                    .map(|sp| {
                        Row::new(vec![
                            Value::Str(sp.name),
                            Value::Int(sp.depth as i64),
                            Value::Int(sp.start.as_micros() as i64),
                            Value::Int(sp.elapsed.as_micros() as i64),
                        ])
                    })
                    .collect();
                (
                    rows,
                    vec![format!(
                        "trace #{} [{:?}] {}",
                        trace.id, trace.elapsed, trace.label
                    )],
                )
            }
            None => (Vec::new(), vec!["no traces recorded yet".to_string()]),
        };
        QueryResult {
            schema,
            rows,
            warnings,
            ..QueryResult::empty()
        }
    }

    /// `LINT SELECT ...`: run the currency-clause semantic lint and return
    /// the diagnostics as a result set (one row per finding). Never binds,
    /// optimizes, or executes — a clean statement returns zero rows.
    fn execute_lint(&self, select: &SelectStmt) -> QueryResult {
        let diags = self.lint(select);
        let schema = text_schema(&["code", "position", "subject", "message"]);
        let rows = diags
            .iter()
            .map(|d| {
                Row::new(vec![
                    Value::Str(d.code.to_string()),
                    Value::Str(format!("{}:{}", d.line, d.col)),
                    Value::Str(d.subject.clone()),
                    Value::Str(d.message.clone()),
                ])
            })
            .collect();
        let warnings = if diags.is_empty() {
            vec!["lint clean: no currency-clause diagnostics".to_string()]
        } else {
            vec![format!("lint found {} diagnostic(s)", diags.len())]
        };
        QueryResult {
            schema,
            rows,
            warnings,
            ..QueryResult::empty()
        }
    }

    /// `VERIFY` / `EXPLAIN FLOW` of the `SELECT` text `select` (`sql` is the
    /// whole statement): the plan-cache entry the bare `SELECT` is served —
    /// a hit, or compiled and cached now exactly as its first execution
    /// would — rendered instead of run. The result's plan choice, cost and
    /// `plan_explain()` are those of the served `SELECT`.
    fn execute_diagnostic(
        &self,
        sql: &str,
        kind: Diagnostic,
        select: &str,
        shape: Shape,
        params: &HashMap<String, Value>,
        session: &str,
    ) -> Result<QueryResult> {
        let trace = self.tracer.trace(sql);
        let (compiled, _) = self.lookup(select, &shape, params, &trace, session)?;
        let slots = Arc::new(shape.values);
        let rendered = match kind {
            Diagnostic::Verify => verify_rows(&self.audit(&compiled)),
            Diagnostic::Flow => {
                flow_rows(&compiled.flow, &compiled.optimized.plan.with_slots(&slots))
            }
        };
        Ok(QueryResult {
            plan_choice: compiled.optimized.choice,
            est_cost: compiled.optimized.cost,
            explain: PlanExplain::Plan(compiled, slots),
            ..rendered
        })
    }

    /// The currency-clause lint of `select`, each diagnostic counted by
    /// code — at compile time and by `LINT` alike.
    fn lint(&self, select: &SelectStmt) -> Vec<rcc_lint::Diagnostic> {
        let diags = rcc_lint::lint_select(&self.catalog, select);
        for d in &diags {
            let code = [("code", d.code)];
            self.metrics
                .counter("rcc_lint_diagnostics_total", &code)
                .inc();
        }
        diags
    }

    /// Statically check that `compiled`'s plan delivers its query's currency
    /// clause, and count the audit: the report of [`MTCache::verify`], of
    /// the `VERIFY` statement and of the debug-build audit of every
    /// compile.
    fn audit(&self, compiled: &CompiledQuery) -> VerifyReport {
        let plan = &compiled.optimized.plan;
        let report = rcc_verify::verify_plan(&self.catalog, &compiled.constraint, plan);
        self.metrics.counter("rcc_verify_audits_total", &[]).inc();
        if !report.ok() {
            self.metrics.counter("rcc_verify_failures_total", &[]).inc();
        }
        report
    }

    /// Compile the dynamic plan for a parsed `SELECT`, tracing and timing
    /// the bind and optimize steps: the front-end's one compile, of the
    /// shape path's misses and of the literal path. `slots` are the
    /// statement's slot values when `select` was parsed from its shape (none
    /// otherwise); the plan comes with the domain of each slot it is valid
    /// for. The caller decides whether the result enters the plan cache.
    fn compile(
        &self,
        sql: &str,
        select: &SelectStmt,
        params: &HashMap<String, Value>,
        slots: &[Value],
        trace: &TraceHandle,
        session: &str,
    ) -> Result<Compilation> {
        // Compile-time currency-clause lint: one AST walk per compile, never
        // on a plan-cache hit. Diagnostics never fail the query — they ride along as
        // warnings on every result served from this plan, and bump the
        // per-code counter so absurd clauses show up in the metrics.
        let span = trace.span("lint");
        let lint_diags = self.lint(select);
        if !lint_diags.is_empty() {
            let codes: Vec<&str> = lint_diags.iter().map(|d| d.code).collect();
            self.journal.record(
                self.clock.now().millis(),
                EventKind::Lint,
                format!("{} ({} diagnostic(s))", codes.join(","), lint_diags.len()),
                "",
                session,
                trace.id(),
            );
        }
        let warning = |d| LintWarning::new(d, sql, params);
        let lint = lint_diags.iter().map(warning).collect();
        drop(span);
        let span = trace.span("bind");
        let started = Instant::now();
        let graph = bind_select_slots(&self.catalog, select, params, slots)?;
        let bind = started.elapsed();
        drop(span);
        let tables: Arc<[TableId]> = graph.operands.iter().map(|o| o.table.id).collect();
        let span = trace.span("optimize");
        let started = Instant::now();
        let optimized = optimize(&self.catalog, &graph, &self.config.read())?;
        let domains = slot_domains(&self.catalog, &graph);
        let optimize = started.elapsed();
        drop(span);
        // Currency dataflow analysis: per-node staleness intervals and one
        // certificate per guard, computed on every compile and kept with
        // the plan, which is what EXPLAIN FLOW renders. The guards it
        // decided are marked in the one executable, which skips them in
        // executions that run certified.
        let flow = rcc_flow::analyze(&self.catalog, &optimized.plan);
        let decided = flow.decided();
        // Debug builds audit the decisions with the independent replay in
        // `rcc-verify`, toggle on or off, so an analysis bug surfaces on
        // the first compile, not on the first elided serve.
        #[cfg(debug_assertions)]
        {
            let obligations =
                rcc_verify::verify_elision(&self.catalog, &optimized.plan, &flow, &decided);
            if !rcc_verify::elision_ok(&obligations) {
                let failed: Vec<String> = obligations
                    .iter()
                    .filter(|o| !o.status.is_proved())
                    .map(|o| o.to_string())
                    .collect();
                return Err(Error::analysis(format!(
                    "guard-elision audit failed for {sql:?}:\n{}",
                    failed.join("\n")
                )));
            }
        }
        // prepared once here; every hit of the entry runs it
        let executable = Executable::prepare(&optimized.plan, &self.cache_storage, &decided)?;
        let executable = Arc::new(executable);
        let compiled = CompiledQuery {
            optimized,
            executable,
            constraint: graph.constraint,
            tables,
            lint,
            flow,
        };
        // Post-optimize conformance audit (debug builds): before a freshly
        // compiled plan enters the plan cache, statically prove it delivers
        // the query's currency clause. An independent re-derivation — see
        // `rcc-verify` — so an optimizer property bug cannot vouch for
        // itself. Cache hits skip this; invalidation forces re-audit.
        #[cfg(debug_assertions)]
        {
            let report = self.audit(&compiled);
            if !report.ok() {
                return Err(Error::analysis(format!(
                    "plan conformance audit failed for {sql:?}:\n{}",
                    report.render()
                )));
            }
        }
        Ok(Compilation {
            compiled,
            domains,
            phases: CompilePhases {
                plan_cache_hit: false,
                parse: StdDuration::ZERO,
                bind,
                optimize,
            },
        })
    }

    /// Assemble per-statement [`QueryStats`] from the query meter and
    /// publish the per-query metrics (query counter, row counter, phase
    /// histograms). `local_exec` is the executor total minus guard and
    /// remote time.
    fn finish_stats(
        &self,
        trace_id: u64,
        phases: CompilePhases,
        meter: &QueryMeter,
        exec_total: StdDuration,
        rows_returned: u64,
    ) -> QueryStats {
        let guard_eval = meter.guard_eval();
        let remote_ship = meter.remote_ship();
        let local_exec = exec_total
            .saturating_sub(guard_eval)
            .saturating_sub(remote_ship);
        let stats = QueryStats {
            trace_id,
            plan_cache_hit: phases.plan_cache_hit,
            parse: phases.parse,
            bind: phases.bind,
            optimize: phases.optimize,
            guard_eval,
            local_exec,
            remote_ship,
            rows_returned,
            bytes_shipped: meter.bytes_shipped.load(Ordering::Relaxed),
            remote_queries: meter.remote_queries.load(Ordering::Relaxed),
        };
        let handles = self
            .query_metrics
            .per_query
            .get_or_init(|| PerQueryMetrics {
                queries: self.metrics.counter("rcc_queries_total", &[]),
                rows_returned: self.metrics.counter("rcc_query_rows_returned_total", &[]),
                phase_seconds: QueryPhase::ALL.map(|phase| {
                    self.metrics.histogram(
                        "rcc_query_phase_seconds",
                        &[("phase", phase.name())],
                        DEFAULT_LATENCY_BUCKETS,
                    )
                }),
            });
        handles.queries.inc();
        handles.rows_returned.add(rows_returned);
        for (phase, seconds) in QueryPhase::ALL.into_iter().zip(&handles.phase_seconds) {
            seconds.observe(stats.phase(phase).as_secs_f64());
        }
        stats
    }

    /// The plan-cache entry of the `SELECT` text `sql` — the variant of its
    /// shape that holds its slot values, or one compiled for them now and
    /// cached beside the others — and what producing it cost. The one
    /// lookup of a `SELECT`, whether it is then run or, under `VERIFY` /
    /// `EXPLAIN FLOW`, rendered.
    fn lookup(
        &self,
        sql: &str,
        shape: &Shape,
        params: &HashMap<String, Value>,
        trace: &TraceHandle,
        session: &str,
    ) -> Result<(Arc<CompiledQuery>, CompilePhases)> {
        // "re-optimization only if a view's consistency properties change":
        // the compiled dynamic plan is reused until the catalog epoch moves
        let mut phases = CompilePhases::HIT;
        let (compiled, _) = self
            .plan_cache
            .find_or_compile(&shape.key, &shape.values, || {
                let parse_started = Instant::now();
                let select = parse_shape(sql, params)?;
                let parse = parse_started.elapsed();
                let c = self.compile(sql, &select, params, &shape.values, trace, session)?;
                phases = CompilePhases { parse, ..c.phases };
                Ok((c.compiled, c.domains))
            })?;
        Ok((compiled, phases))
    }

    /// Execute a `SELECT`: with the plan the cache holds for its shape and
    /// slot values, or else with one compiled for them now — and cached as
    /// a variant of the shape.
    fn execute_select(
        &self,
        sql: &str,
        shape: Shape,
        params: &HashMap<String, Value>,
        floors: &HashMap<RegionId, Timestamp>,
        policy: ViolationPolicy,
        session: &str,
    ) -> Result<QueryResult> {
        let trace = self.tracer.trace(sql);
        let (compiled, phases) = self.lookup(sql, &shape, params, &trace, session)?;
        let optimized = &compiled.optimized;
        let slots = Arc::new(shape.values);
        let mut ctx = self.fresh_ctx(floors, trace.share(), Arc::clone(&slots));
        // Skip the certified guards only when the certificates' premises
        // hold for this session: timeline floors can force a branch past a
        // heartbeat the static analysis trusted, so floored sessions
        // evaluate every guard. The degradation path below forces them
        // local instead (a sanctioned premise break, not a certified one).
        if self.elide_guards.load(Ordering::Relaxed) && floors.is_empty() {
            ctx.guard_mode = GuardMode::Certified;
        }

        let exec_span = trace.span("execute");
        let exec = self.run_plan(&compiled.executable, &optimized.plan, &ctx);
        drop(exec_span);
        let elided = ctx.meter.take_elided();
        if !elided.is_empty() {
            self.query_metrics
                .guards_elided
                .get_or_init(|| self.metrics.counter("rcc_flow_guards_elided_total", &[]))
                .add(elided.len() as u64);
        }
        let degrade = |msg: String| {
            let ctx = self.fresh_ctx(floors, trace.share(), Arc::clone(&slots));
            self.degrade_unreachable(&trace, &compiled, ctx, policy, &msg, session)
                .map(|(ctx, result)| (ctx, result, true))
        };
        let (ctx, result, degraded) = match exec {
            Ok(result) => {
                if cfg!(debug_assertions) {
                    self.recheck_elided_certs(&compiled.flow, &elided);
                }
                (ctx, result, false)
            }
            // the remote branch could not be served: either the link was
            // administratively down before execution started (the remote
            // slot was None → Error::Remote), or a real transport timed
            // out / failed every retry mid-call (Error::Unavailable). Both
            // degrade per the session's violation policy.
            Err(Error::Remote(msg)) if ctx.remote.is_none() => degrade(msg)?,
            Err(Error::Unavailable(msg)) => degrade(msg)?,
            Err(e) => return Err(e),
        };
        let guards = ctx.take_observations();
        self.record_delivered(&guards, degraded);
        let warnings = if degraded {
            let now = self.clock.now();
            let stale = |g: &GuardObservation| match g.heartbeat {
                Some(hb) => format!(
                    "served region {} data that is up to {} stale (policy: ServeStale)",
                    g.region,
                    now.since(hb)
                ),
                None => format!(
                    "served region {} data of unknown staleness (no heartbeat)",
                    g.region
                ),
            };
            guards.iter().map(stale).collect()
        } else {
            // worded at compile time, pointed into this text
            let lint = compiled.lint.iter();
            lint.map(|w| w.for_text(sql, params)).collect()
        };
        let stats = self.finish_stats(
            trace.id(),
            phases,
            &ctx.meter,
            result.timings.total(),
            result.row_count() as u64,
        );
        Ok(QueryResult {
            schema: result.schema,
            rows: Vec::new(),
            batches: result.batches,
            plan_choice: optimized.choice,
            est_cost: optimized.cost,
            guards,
            // this query's own meter: other sessions' remote
            // branches are none of its business
            used_remote: ctx.meter.remote_queries.load(Ordering::Relaxed) > 0,
            warnings,
            timings: result.timings,
            tables: Arc::clone(&compiled.tables),
            stats,
            explain: PlanExplain::Plan(Arc::clone(&compiled), slots),
        })
    }

    /// The back-end could not answer a remote branch. Apply the violation
    /// policy: `Reject` fails the query; `ServeStale` re-executes the
    /// plan of `compiled` under `ctx` with every guard forced local, for
    /// the caller to serve flagged as stale.
    fn degrade_unreachable(
        &self,
        trace: &TraceHandle,
        compiled: &CompiledQuery,
        mut ctx: ExecContext,
        policy: ViolationPolicy,
        msg: &str,
        session: &str,
    ) -> Result<(ExecContext, BatchExecutionResult)> {
        let cause = format!("back-end unreachable: {msg}");
        let now = self.clock.now().millis();
        if policy == ViolationPolicy::Reject {
            self.metrics
                .counter("rcc_policy_degradations_total", &[("policy", "reject")])
                .inc();
            let kind = EventKind::Violation;
            self.journal
                .record(now, kind, cause, "reject", session, trace.id());
            return Err(Error::CurrencyViolation(format!(
                "local data too stale for the query's currency bound and the \
                 back-end is unreachable ({msg})"
            )));
        }
        let kind = EventKind::Degradation;
        self.journal
            .record(now, kind, cause, "serve_stale", session, trace.id());
        ctx.guard_mode = GuardMode::ForceLocal;
        let stale_span = trace.span("execute_stale");
        let result = self.run_plan(&compiled.executable, &compiled.optimized.plan, &ctx)?;
        drop(stale_span);
        self.metrics.counter("rcc_stale_served_total", &[]).inc();
        self.metrics
            .counter(
                "rcc_policy_degradations_total",
                &[("policy", "serve_stale")],
            )
            .inc();
        Ok((ctx, result))
    }

    /// `EXPLAIN ANALYZE SELECT ...`: compile, execute with per-operator
    /// metering, and return the result with the instrumented printout.
    /// The plan is compiled for this statement alone and never enters the
    /// plan cache (whose keys are shapes of plain `SELECT`s). Unlike the
    /// normal path it never falls back to serving stale data — a currency
    /// violation surfaces as an error.
    fn execute_analyzed(
        &self,
        sql: &str,
        select: &SelectStmt,
        parse: StdDuration,
        params: &HashMap<String, Value>,
        floors: &HashMap<RegionId, Timestamp>,
        session: &str,
    ) -> Result<QueryResult> {
        let trace = self.tracer.trace(sql);
        let Compilation {
            compiled, phases, ..
        } = self.compile(sql, select, params, &[], &trace, session)?;
        let phases = CompilePhases { parse, ..phases };
        let optimized = &compiled.optimized;
        let ctx = self.fresh_ctx(floors, trace.share(), Arc::default());
        let exec_span = trace.span("execute");
        let analyzed = execute_plan_analyzed(&compiled.executable, &optimized.plan, &ctx)?;
        drop(exec_span);
        let guards = ctx.take_observations();
        self.record_delivered(&guards, false);
        let used_remote = ctx.meter.remote_queries.load(Ordering::Relaxed) > 0;
        let stats = self.finish_stats(
            trace.id(),
            phases,
            &ctx.meter,
            analyzed.elapsed,
            analyzed.rows.len() as u64,
        );
        let timings = rcc_executor::PhaseTimings {
            run: analyzed.elapsed,
            ..Default::default()
        };
        Ok(QueryResult {
            explain: PlanExplain::Text(analyzed.render()),
            schema: analyzed.schema,
            rows: analyzed.rows,
            plan_choice: optimized.choice,
            est_cost: optimized.cost,
            guards,
            used_remote,
            warnings: (compiled.lint.iter())
                .map(|w| w.for_text(sql, params))
                .collect(),
            timings,
            tables: compiled.tables,
            stats,
            ..QueryResult::empty()
        })
    }

    /// Delivered-currency accounting: for every guard evaluated for a
    /// query that was actually answered, record the staleness of what was
    /// served against what the clause promised.
    ///
    /// * local branch: delivered staleness = back-end commit clock minus
    ///   the region heartbeat the guard saw (clamped at zero);
    /// * remote branch: the back-end serves the latest snapshot, so
    ///   delivered staleness is zero by construction.
    ///
    /// Slack = bound − delivered. A query violates the SLO when any guard's
    /// slack goes negative; `sanctioned` says whether that happened under
    /// an explicit policy degradation (`ServeStale`) rather than silently.
    /// Debug-build runtime cross-check of guard elision: replay the
    /// certificate of every guard the execution skipped (the nodes
    /// `elided`) against the live heartbeat it would have read. Under the
    /// certificates' premises (healthy replication, no floors, no
    /// forced-local serving) an always-pass guard's heartbeat must still
    /// sit inside the bound; an escape increments
    /// `rcc_flow_interval_violations_total`, which the benches assert
    /// stays zero.
    fn recheck_elided_certs(&self, flow: &rcc_flow::FlowAnalysis, elided: &[usize]) {
        let now = self.clock.now();
        for cert in flow.guards.iter().filter(|c| elided.contains(&c.node)) {
            if cert.decision != rcc_flow::Decision::ElideLocal {
                // collapsed-remote arms serve back-end-current data; there
                // is no staleness claim to recheck
                continue;
            }
            let heartbeat = self
                .cache_storage
                .table(&cert.heartbeat_table)
                .ok()
                .map(|t| t.snapshot())
                .and_then(|snap| {
                    let row = snap.get(&[Value::Int(cert.region.raw() as i64)])?;
                    row.get(1).as_int().ok().map(Timestamp)
                });
            let escaped = match heartbeat {
                Some(hb) => now.since(hb) >= cert.bound,
                None => true,
            };
            if escaped {
                self.metrics
                    .counter("rcc_flow_interval_violations_total", &[])
                    .inc();
            }
        }
    }

    fn record_delivered(&self, guards: &[GuardObservation], sanctioned: bool) {
        if guards.is_empty() {
            return;
        }
        let (_, commit) = self.master.latest_commit();
        let mut negative_slack = false;
        for g in guards {
            let delivered_s = if g.chose_local {
                match g.heartbeat {
                    Some(hb) if commit > hb => commit.since(hb).as_secs_f64(),
                    // heartbeat at/after the last commit: fully current
                    Some(_) => 0.0,
                    // no heartbeat at all: we cannot bound what was served;
                    // charge the whole span of the commit clock
                    None => commit.since(Timestamp::ZERO).as_secs_f64(),
                }
            } else {
                0.0
            };
            let slack_s = g.bound.as_secs_f64() - delivered_s;
            if slack_s < 0.0 {
                negative_slack = true;
                if g.chose_local && !sanctioned {
                    // A guard that *passed* cannot overrun its bound (the
                    // back-end commit clock never leads the session clock),
                    // so an unsanctioned local overrun means delivered
                    // staleness escaped the interval the flow analysis
                    // certified — a broken premise, not a policy choice.
                    self.metrics
                        .counter("rcc_flow_interval_violations_total", &[])
                        .inc();
                }
            }
            // resolved by name the first time a guard of the region is
            // accounted for, held per region id from then on
            let (staleness, slack) = self.query_metrics.regions.get(g.region, || {
                let name = self
                    .catalog
                    .region(g.region)
                    .map(|r| r.name.clone())
                    .unwrap_or_else(|_| g.region.to_string());
                let labels = [("region", name.as_str())];
                (
                    self.metrics.histogram(
                        "rcc_delivered_staleness_seconds",
                        &labels,
                        DEFAULT_STALENESS_BUCKETS,
                    ),
                    self.metrics.histogram(
                        "rcc_currency_slack_seconds",
                        &labels,
                        DEFAULT_SLACK_BUCKETS,
                    ),
                )
            });
            staleness.observe(delivered_s);
            slack.observe(slack_s);
        }
        let total = self.slo_queries.fetch_add(1, Ordering::Relaxed) + 1;
        if negative_slack {
            let arm = if sanctioned { "yes" } else { "no" };
            self.metrics
                .counter("rcc_slo_violations_total", &[("sanctioned", arm)])
                .inc();
        }
        let unsanctioned = if negative_slack && !sanctioned {
            self.slo_unsanctioned.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            self.slo_unsanctioned.load(Ordering::Relaxed)
        };
        let (slo_queries, compliance) = self.query_metrics.slo.get_or_init(|| {
            (
                self.metrics.counter("rcc_slo_queries_total", &[]),
                self.metrics.gauge("rcc_slo_compliance_ratio", &[]),
            )
        });
        slo_queries.inc();
        compliance.set(1.0 - unsanctioned as f64 / total as f64);
    }

    fn fresh_ctx(
        &self,
        floors: &HashMap<RegionId, Timestamp>,
        trace: Option<TraceRef>,
        slots: Arc<Vec<Value>>,
    ) -> ExecContext {
        let remote: Option<Arc<dyn RemoteService>> =
            if self.backend_available.load(Ordering::SeqCst) {
                match &*self.remote_override.read() {
                    Some(service) => Some(Arc::clone(service)),
                    None => Some(Arc::clone(&self.backend) as Arc<dyn RemoteService>),
                }
            } else {
                None
            };
        ExecContext {
            storage: Arc::clone(&self.cache_storage),
            remote,
            clock: Arc::clone(&self.clock_arc),
            counters: Arc::clone(&self.counters),
            timeline_floor: match floors.is_empty() {
                true => Arc::clone(&self.no_floors),
                false => Arc::new(floors.clone()),
            },
            guard_mode: GuardMode::Evaluate,
            meter: Arc::new(QueryMeter::default()),
            metrics: Some(Arc::clone(&self.exec_metrics)),
            batch_rows: DEFAULT_BATCH_ROWS,
            trace,
            slots,
        }
    }

    // ---------------------------------------------------------------- DML

    fn execute_insert(
        &self,
        table: &str,
        columns: &[String],
        rows: &[Vec<Expr>],
    ) -> Result<QueryResult> {
        let meta = self.catalog.table(table)?;
        let ordinals: Vec<usize> = if columns.is_empty() {
            (0..meta.schema.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| meta.schema.resolve(None, c))
                .collect::<Result<_>>()?
        };
        let mut changes = Vec::with_capacity(rows.len());
        for exprs in rows {
            if exprs.len() != ordinals.len() {
                return Err(Error::analysis("INSERT arity mismatch"));
            }
            let mut values = vec![Value::Null; meta.schema.len()];
            for (ord, e) in ordinals.iter().zip(exprs) {
                values[*ord] = eval_const(e)?;
            }
            changes.push(TableChange::new(
                meta.name.clone(),
                RowChange::Insert(Row::new(values)),
            ));
        }
        self.forward(changes, "inserted")
    }

    /// `UPDATE table SET assignments WHERE filter`, or with no assignments
    /// `DELETE FROM table WHERE filter`, forwarded to the back-end as one
    /// transaction. The assignment expressions and `WHERE` bind as the
    /// one-table `SELECT assignments FROM table WHERE filter`.
    fn execute_dml(
        &self,
        table: &str,
        assignments: Option<Vec<(String, Expr)>>,
        filter: Option<Expr>,
    ) -> Result<QueryResult> {
        let meta = self.catalog.table(table)?;
        let delete = assignments.is_none();
        let (targets, exprs): (Vec<_>, Vec<_>) =
            assignments.unwrap_or_default().into_iter().unzip();
        let ordinals: Vec<usize> = (targets.iter())
            .map(|c| meta.schema.resolve(None, c))
            .collect::<Result<_>>()?;
        let select = SelectStmt {
            projections: (exprs.into_iter())
                .map(|expr| SelectItem::Expr { expr, alias: None })
                .collect(),
            from: vec![TableRef::Named {
                name: meta.name.clone(),
                alias: None,
            }],
            filter,
            ..SelectStmt::empty()
        };
        let (graph, conjuncts) = bind_one_table(&self.catalog, &select, &HashMap::new())?;
        let schema = graph.operands[0].schema();
        let now = self.clock.now().millis();
        let t = self.master.table(&meta.name)?.snapshot();
        let mut changes = Vec::new();
        for row in dml_targets(&meta, &t, &conjuncts, &schema, now)? {
            let key = t.key_of(row);
            let change = if delete {
                RowChange::Delete { key }
            } else {
                let mut values = row.values().to_vec();
                for (ord, (e, _)) in ordinals.iter().zip(&graph.projections) {
                    values[*ord] = e.eval(row, &schema, now)?;
                }
                let row = Row::new(values);
                RowChange::Update { key, row }
            };
            changes.push(TableChange::new(meta.name.clone(), change));
        }
        self.forward(changes, if delete { "deleted" } else { "updated" })
    }

    /// Forward a DML statement's row changes to the back-end as one
    /// transaction (none for no changes), saying how many rows were `done`.
    fn forward(&self, changes: Vec<TableChange>, done: &str) -> Result<QueryResult> {
        let n = changes.len();
        if n > 0 {
            self.master.execute_txn(changes)?;
        }
        let mut r = QueryResult::empty();
        r.warnings
            .push(format!("{n} row(s) {done} (forwarded to back-end)"));
        Ok(r)
    }

    // ---------------------------------------------------------------- DDL

    fn create_table_ddl(
        &self,
        name: &str,
        columns: Vec<(String, rcc_common::DataType)>,
        primary_key: Vec<String>,
    ) -> Result<QueryResult> {
        let schema = Schema::new(
            columns
                .into_iter()
                .map(|(n, t)| Column::new(n, t))
                .collect(),
        );
        let meta = TableMeta::new(self.catalog.next_table_id(), name, schema, primary_key)?;
        self.register_table(meta)?;
        Ok(QueryResult::empty())
    }

    fn create_index_ddl(
        &self,
        name: &str,
        table: &str,
        columns: Vec<String>,
    ) -> Result<QueryResult> {
        let meta = self.catalog.table(table)?;
        let mut meta = (*meta).clone();
        let id = rcc_common::IndexId(meta.indexes.len() as u32 + 1);
        meta.add_index(id, name, columns.clone())?;
        // create on the master storage table too
        let handle = self.master.table(table)?;
        {
            let ordinals: Vec<usize> = columns
                .iter()
                .map(|c| meta.schema.resolve(None, c))
                .collect::<Result<_>>()?;
            handle.update(|t| t.create_index(name, ordinals))?;
        }
        self.catalog.update_table(meta)?;
        Ok(QueryResult::empty())
    }

    /// Define a cached materialized view (the programmatic form also
    /// accepts local secondary indexes: `(index_name, leading_column)`).
    pub fn create_cached_view(
        &self,
        name: &str,
        region_name: &str,
        query: &SelectStmt,
        local_indexes: Vec<(String, String)>,
    ) -> Result<Arc<CachedViewDef>> {
        let region = self.catalog.region_by_name(region_name)?;
        // shape: single base table, plain column projections, optional
        // single-column range predicate
        if !matches!(query.from.as_slice(), [TableRef::Named { .. }]) {
            return Err(Error::analysis(
                "cached views must select from exactly one base table",
            ));
        }
        if query.distinct
            || !query.group_by.is_empty()
            || query.having.is_some()
            || !query.order_by.is_empty()
            || query.limit.is_some()
            || query.currency.is_some()
        {
            return Err(Error::analysis(
                "cached views are projections/selections of one base table",
            ));
        }
        let (graph, conjuncts) = bind_one_table(&self.catalog, query, &HashMap::new())?;
        let meta = Arc::clone(&graph.operands[0].table);
        let columns = (graph.projections.iter())
            .map(|(expr, output)| match expr {
                BoundExpr::Column { name, .. } if name.eq_ignore_ascii_case(output) => {
                    Ok(name.clone())
                }
                other => Err(Error::analysis(format!(
                    "cached view projections must be plain columns, got {other:?} AS {output}"
                ))),
            })
            .collect::<Result<Vec<String>>>()?;
        for key_col in &meta.key {
            if !columns.iter().any(|c| c.eq_ignore_ascii_case(key_col)) {
                return Err(Error::Config(format!(
                    "cached view {name} must retain base key column {key_col}"
                )));
            }
        }

        let predicate = if conjuncts.is_empty() {
            None
        } else {
            let ranges = column_ranges(&conjuncts);
            if ranges.len() != 1 || ranges.len() != conjuncts.len() {
                return Err(Error::analysis(
                    "cached view predicates must be a range over one column",
                ));
            }
            let (col, range) = ranges.into_iter().next().expect("checked len");
            if !columns.iter().any(|c| c.eq_ignore_ascii_case(&col)) {
                return Err(Error::Config(format!(
                    "cached view {name} predicate column {col} must be retained"
                )));
            }
            Some(rcc_catalog::ViewPredicate {
                column: col,
                range: range.range,
            })
        };

        let schema = Schema::new(
            columns
                .iter()
                .map(|c| {
                    let ord = meta.schema.resolve(None, c).expect("validated");
                    let mut col = meta.schema.column(ord).clone();
                    col.qualifier = Some(name.to_ascii_lowercase());
                    col.source = Some(meta.id);
                    col
                })
                .collect(),
        );
        let key_ordinals: Vec<usize> = meta
            .key
            .iter()
            .map(|k| {
                columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(k))
                    .expect("key retained (validated above)")
            })
            .collect();

        let def = CachedViewDef {
            id: self.catalog.next_view_id(),
            name: name.to_ascii_lowercase(),
            region: region.id,
            base_table: meta.id,
            base_table_name: meta.name.clone(),
            columns,
            predicate,
            schema,
            key_ordinals,
            local_indexes,
        };
        let def = self.catalog.register_view(def)?;

        // subscribe through the region's agent (creates + populates the
        // view table at the cache)
        let mut sub_result: Result<()> = Err(Error::NotFound(format!("region {region_name}")));
        let found = self.runtime.with_agent(&region.name, |agent| {
            sub_result = agent.subscribe(Arc::clone(&def), &meta);
        });
        if !found {
            return Err(Error::NotFound(format!(
                "no agent for region {region_name}"
            )));
        }
        sub_result?;

        // install stats computed over the freshly populated view
        let handle = self.cache_storage.table(&def.name)?;
        let stats = TableStats::compute(&handle.snapshot());
        self.catalog.set_stats(&def.name, stats);
        Ok(def)
    }
}

impl MTCache {
    /// Drop a cached view: end its replication subscription, remove its
    /// table from the cache storage and its catalog entry — which
    /// invalidates compiled plans (a view disappearing changes the
    /// consistency properties available — the paper's trigger for
    /// re-optimization).
    pub fn drop_cached_view(&self, name: &str) -> Result<()> {
        let def = self.catalog.view(name)?;
        let region = self.catalog.region(def.region)?;
        let mut removed = false;
        self.runtime.with_agent(&region.name, |agent| {
            removed = agent.unsubscribe(name);
        });
        if !removed {
            return Err(Error::internal(format!(
                "view {name} registered but its agent had no subscription"
            )));
        }
        self.cache_storage.drop_table(name);
        self.catalog.drop_view(name)?;
        Ok(())
    }
}

/// The `SELECT` of `sql` parsed as it stands: the bare query, or the query
/// under `under` (`VERIFY`, `EXPLAIN ANALYZE`; `EXPLAIN` takes no prefix).
fn literal_select(sql: &str, under: &str) -> Result<Box<SelectStmt>> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        Statement::Verify(s) if under == "VERIFY" => Ok(s),
        Statement::ExplainAnalyze(s) if under == "EXPLAIN ANALYZE" => Ok(s),
        other => Err(Error::analysis(format!(
            "{under} expects a query, got {other:?}"
        ))),
    }
}

/// Evaluate a constant expression (INSERT VALUES).
fn eval_const(e: &Expr) -> Result<Value> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Unary {
            op: rcc_sql::UnaryOp::Neg,
            expr,
        } => match eval_const(expr)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::Type(format!("cannot negate {other}"))),
        },
        other => Err(Error::analysis(format!(
            "INSERT values must be literals, got {other:?}"
        ))),
    }
}

/// The schema of a diagnostic result whose columns all hold text.
fn text_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Column::new(*n, DataType::Str))
            .collect(),
    )
}

/// `VERIFY`'s rows: one per proof obligation of `report`.
fn verify_rows(report: &VerifyReport) -> QueryResult {
    let schema = text_schema(&["obligation", "subject", "status"]);
    let rows = report
        .obligations
        .iter()
        .map(|o| {
            Row::new(vec![
                Value::Str(o.kind.name().to_string()),
                Value::Str(o.subject.clone()),
                Value::Str(match &o.status {
                    rcc_verify::ObligationStatus::Proved => "proved".to_string(),
                    rcc_verify::ObligationStatus::Violated(why) => format!("VIOLATED: {why}"),
                }),
            ])
        })
        .collect();
    let (n, worlds) = (report.obligations.len(), report.worlds);
    let warning = match report.violations().len() {
        0 => format!("plan verified: {n} proof obligations proved over {worlds} world(s)"),
        violated => format!("plan REJECTED: {violated} of {n} proof obligations violated"),
    };
    QueryResult {
        schema,
        rows,
        warnings: vec![warning],
        ..QueryResult::empty()
    }
}

/// `EXPLAIN FLOW`'s rows: one per plan node of `flow` — operator, delivered
/// staleness interval with its consistency groups, guard verdict, and
/// elision decision. The operators are labelled from `plan`, the analyzed
/// plan with the statement's slot values in place, walked in the
/// analysis' pre-order.
fn flow_rows(flow: &rcc_flow::FlowAnalysis, plan: &PhysicalPlan) -> QueryResult {
    let schema = text_schema(&["operator", "interval", "verdict", "decision"]);
    let mut labels = Vec::with_capacity(flow.nodes.len());
    plan.visit(&mut |node| labels.push(node.node_label()));
    let rows = (flow.nodes.iter().zip(labels))
        .map(|(n, label)| {
            let decision = match (n.decision, &n.verdict) {
                (Some(d), _) => d.label(),
                (None, Some(_)) => "keep",
                (None, None) => "-",
            };
            Row::new(vec![
                Value::Str(format!("{}{label}", "  ".repeat(n.depth))),
                Value::Str(format!("{} {}", n.interval, n.groups)),
                Value::Str(n.verdict.as_ref().map_or_else(|| "-".into(), |v| v.label())),
                Value::Str(decision.to_string()),
            ])
        })
        .collect();
    let warnings = vec![format!(
        "flow: root interval {}, {} guard(s), {} elidable",
        flow.root().interval,
        flow.guards.len(),
        flow.decided().len()
    )];
    QueryResult {
        schema,
        rows,
        warnings,
        ..QueryResult::empty()
    }
}

/// The clustered key a DML statement's conjuncts pin: `Some` when they
/// equate every key column of `meta` with a literal of that column's own
/// type, so at most one row can qualify.
fn pinned_key(meta: &TableMeta, conjuncts: &[BoundExpr]) -> Option<Vec<Value>> {
    let ranges = column_ranges(conjuncts);
    meta.key
        .iter()
        .map(|col| {
            let (_, range) = ranges.iter().find(|(c, _)| c.eq_ignore_ascii_case(col))?;
            let declared = meta.schema.column(meta.schema.resolve(None, col).ok()?);
            match (&range.low, &range.high) {
                (Bound::Included(a), Bound::Included(b))
                    if a == b && a.data_type() == Some(declared.data_type) =>
                {
                    Some(a.clone())
                }
                _ => None,
            }
        })
        .collect()
}

/// The rows of master table `t` an UPDATE or DELETE with these `WHERE`
/// conjuncts selects. Conjuncts that pin the whole clustered key are
/// answered by one `Table::get`, with every conjunct (and so any residual
/// one) evaluated on that row alone; everything else scans.
fn dml_targets<'t>(
    meta: &TableMeta,
    t: &'t Table,
    conjuncts: &[BoundExpr],
    schema: &Schema,
    now: i64,
) -> Result<Vec<&'t Row>> {
    let Some(predicate) = BoundExpr::and_all(conjuncts.to_vec()) else {
        return Ok(t.iter().collect());
    };
    let rows: Box<dyn Iterator<Item = &Row>> = match pinned_key(meta, conjuncts) {
        Some(key) => Box::new(t.get(&key).into_iter()),
        None => Box::new(t.iter()),
    };
    let mut hits = Vec::new();
    for row in rows {
        if predicate.eval_predicate(row, schema, now)? {
            hits.push(row);
        }
    }
    Ok(hits)
}
