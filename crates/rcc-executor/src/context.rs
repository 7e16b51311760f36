//! Execution context: storage, the remote service, clock, counters.

use parking_lot::Mutex;
use rcc_common::{Clock, Duration, RegionId, Result, Row, Schema, Timestamp, Value};
use rcc_obs::{HandlesByKey, Histogram, MetricsRegistry, TraceRef};
use rcc_storage::StorageEngine;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The cache's window to the back-end server. Implemented by the MTCache
/// crate's `BackendServer`; the executor only knows it can ship SQL text
/// and get rows back.
pub trait RemoteService: Send + Sync + std::fmt::Debug {
    /// Execute `sql` at the back-end against the latest snapshot.
    fn execute(&self, sql: &str) -> Result<(Schema, Vec<Row>)>;

    /// Like [`RemoteService::execute`], also reporting the wire-payload
    /// size in bytes. The default (used by test fakes) reports 0 bytes.
    fn execute_with_bytes(&self, sql: &str) -> Result<(Schema, Vec<Row>, u64)> {
        self.execute(sql).map(|(schema, rows)| (schema, rows, 0))
    }

    /// Like [`RemoteService::execute_with_bytes`], carrying the query's
    /// trace so a networked implementation can propagate trace context over
    /// the wire and merge the remote span tree back in. The default (local
    /// back-ends, test fakes) ignores the trace.
    fn execute_traced(
        &self,
        sql: &str,
        trace: Option<&TraceRef>,
    ) -> Result<(Schema, Vec<Row>, u64)> {
        let _ = trace;
        self.execute_with_bytes(sql)
    }
}

/// Execution statistics, shared across queries so experiments can measure
/// workload distribution (paper Fig. 4.2).
///
/// This is a thin facade over [`rcc_obs::MetricsRegistry`]: the atomics
/// here remain the source of truth (bench binaries poke them directly),
/// and [`ExecCounters::register_metrics`] installs a collector that mirrors
/// them into the registry at every snapshot/render — so [`reset`] is
/// reflected there too.
///
/// [`reset`]: ExecCounters::reset
#[derive(Debug, Default)]
pub struct ExecCounters {
    /// Currency guards that passed (local branch taken).
    pub local_branches: AtomicU64,
    /// Currency guards that failed (remote branch taken).
    pub remote_branches: AtomicU64,
    /// Remote queries actually shipped.
    pub remote_queries: AtomicU64,
    /// Rows received from the back-end.
    pub rows_shipped: AtomicU64,
    /// Guard observations discarded because the per-context log was full.
    pub observations_dropped: AtomicU64,
    /// Column batches delivered at query roots by the batched engine.
    pub batches_produced: AtomicU64,
    /// Chunk runs local scans read through the chunk's typed image.
    pub scan_image_runs: AtomicU64,
    /// Chunk runs local scans walked row by row.
    pub scan_row_runs: AtomicU64,
}

impl ExecCounters {
    /// Reset all counters to zero. Mirrored registries pick the reset up
    /// at their next snapshot/render.
    pub fn reset(&self) {
        self.local_branches.store(0, Ordering::Relaxed);
        self.remote_branches.store(0, Ordering::Relaxed);
        self.remote_queries.store(0, Ordering::Relaxed);
        self.rows_shipped.store(0, Ordering::Relaxed);
        self.observations_dropped.store(0, Ordering::Relaxed);
        self.batches_produced.store(0, Ordering::Relaxed);
        self.scan_image_runs.store(0, Ordering::Relaxed);
        self.scan_row_runs.store(0, Ordering::Relaxed);
    }

    /// Count the chunk runs one scan call read, by path.
    pub(crate) fn count_scan_runs(&self, image: u64, rows: u64) {
        if image > 0 {
            self.scan_image_runs.fetch_add(image, Ordering::Relaxed);
        }
        if rows > 0 {
            self.scan_row_runs.fetch_add(rows, Ordering::Relaxed);
        }
    }

    /// Fraction of guard evaluations that chose the local branch.
    ///
    /// Returns `0.0` (never `NaN`) when no guards have fired yet: with no
    /// evidence, the conservative claim is that nothing was served
    /// locally. Callers that must distinguish "no guards" from "all
    /// remote" should check `local_branches + remote_branches` first.
    pub fn local_fraction(&self) -> f64 {
        let l = self.local_branches.load(Ordering::Relaxed) as f64;
        let r = self.remote_branches.load(Ordering::Relaxed) as f64;
        if l + r == 0.0 {
            0.0
        } else {
            l / (l + r)
        }
    }

    /// Mirror these counters into `registry` (names under `rcc_*`). The
    /// installed collector runs before every registry snapshot/render, so
    /// increments *and* [`ExecCounters::reset`] stay visible there.
    pub fn register_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        registry.describe(
            "rcc_guard_local_total",
            "Currency guards that chose the local branch.",
        );
        registry.describe(
            "rcc_guard_remote_total",
            "Currency guards that chose the remote branch.",
        );
        registry.describe(
            "rcc_remote_queries_total",
            "Queries shipped to the back-end.",
        );
        registry.describe("rcc_rows_shipped_total", "Rows received from the back-end.");
        registry.describe(
            "rcc_observations_dropped_total",
            "Guard observations discarded because a context log hit its cap.",
        );
        registry.describe(
            "rcc_batch_produced_total",
            "Column batches delivered at query roots.",
        );
        registry.describe(
            "rcc_scan_chunks_total",
            "Storage-chunk runs local scans read, by path: image (the typed \
             columns of a chunk the scan covers whole) or rows (a row walk).",
        );
        let local = registry.counter("rcc_guard_local_total", &[]);
        let remote = registry.counter("rcc_guard_remote_total", &[]);
        let queries = registry.counter("rcc_remote_queries_total", &[]);
        let rows = registry.counter("rcc_rows_shipped_total", &[]);
        let dropped = registry.counter("rcc_observations_dropped_total", &[]);
        let batches = registry.counter("rcc_batch_produced_total", &[]);
        let image_runs = registry.counter("rcc_scan_chunks_total", &[("path", "image")]);
        let row_runs = registry.counter("rcc_scan_chunks_total", &[("path", "rows")]);
        let this = Arc::clone(self);
        registry.register_collector(move || {
            local.set(this.local_branches.load(Ordering::Relaxed));
            remote.set(this.remote_branches.load(Ordering::Relaxed));
            queries.set(this.remote_queries.load(Ordering::Relaxed));
            rows.set(this.rows_shipped.load(Ordering::Relaxed));
            dropped.set(this.observations_dropped.load(Ordering::Relaxed));
            batches.set(this.batches_produced.load(Ordering::Relaxed));
            image_runs.set(this.scan_image_runs.load(Ordering::Relaxed));
            row_runs.set(this.scan_row_runs.load(Ordering::Relaxed));
        });
    }
}

/// The histograms operators and guards observe into, resolved from the
/// registry by name on first use and held from then on — a by-name lookup
/// per batch and per guard evaluation costs more than the observation.
/// Lazy, so a histogram enters the exposition when first observed. One
/// instance is shared by every query's [`ExecContext`].
#[derive(Debug)]
pub struct ExecMetrics {
    registry: Arc<MetricsRegistry>,
    batch_rows: OnceLock<Histogram>,
    batch_selectivity: OnceLock<Histogram>,
    guard_staleness: HandlesByKey<RegionId, Histogram>,
}

impl ExecMetrics {
    /// Handles into `registry`, none resolved yet.
    pub fn new(registry: Arc<MetricsRegistry>) -> ExecMetrics {
        ExecMetrics {
            registry,
            batch_rows: OnceLock::new(),
            batch_selectivity: OnceLock::new(),
            guard_staleness: HandlesByKey::default(),
        }
    }

    /// `rcc_batch_rows_per_batch`.
    pub(crate) fn batch_rows(&self) -> &Histogram {
        self.batch_rows.get_or_init(|| {
            self.registry.histogram(
                "rcc_batch_rows_per_batch",
                &[],
                rcc_obs::DEFAULT_BATCH_ROWS_BUCKETS,
            )
        })
    }

    /// `rcc_batch_selectivity`.
    pub(crate) fn batch_selectivity(&self) -> &Histogram {
        self.batch_selectivity.get_or_init(|| {
            self.registry.histogram(
                "rcc_batch_selectivity",
                &[],
                rcc_obs::DEFAULT_SELECTIVITY_BUCKETS,
            )
        })
    }

    /// `rcc_guard_staleness_seconds{region=label}`, held per region id.
    pub(crate) fn guard_staleness(&self, region: RegionId, label: &str) -> Histogram {
        self.guard_staleness.get(region, || {
            self.registry.histogram(
                "rcc_guard_staleness_seconds",
                &[("region", label)],
                rcc_obs::DEFAULT_STALENESS_BUCKETS,
            )
        })
    }
}

/// Per-query accumulators feeding `QueryStats` phase timings: nanoseconds
/// spent in guard evaluation and remote shipping, plus remote volume, and
/// the query's guard observations. A fresh meter is attached to each
/// query's [`ExecContext`].
#[derive(Debug, Default)]
pub struct QueryMeter {
    /// Nanoseconds spent evaluating currency guards.
    pub guard_nanos: AtomicU64,
    /// Currency guards evaluated (the count behind `guard_nanos`); guard
    /// elision shows up here as evaluations that no longer happen.
    pub guard_evals: AtomicU64,
    /// The guards this execution skipped, their outcome certified
    /// ([`GuardMode::Certified`]): the pre-order numbers of their nodes.
    pub elided: Mutex<Vec<usize>>,
    /// Nanoseconds spent in remote round trips (including decode).
    pub remote_nanos: AtomicU64,
    /// Remote sub-queries issued.
    pub remote_queries: AtomicU64,
    /// Wire-payload bytes received from the back-end.
    pub bytes_shipped: AtomicU64,
    /// Guard evaluations observed while executing, in plan order.
    pub observations: Mutex<Vec<GuardObservation>>,
}

impl QueryMeter {
    /// Nanoseconds→`Duration` helper for the guard-eval total.
    pub fn guard_eval(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.guard_nanos.load(Ordering::Relaxed))
    }

    /// Number of guard evaluations recorded.
    pub fn guard_eval_count(&self) -> u64 {
        self.guard_evals.load(Ordering::Relaxed)
    }

    /// Drain the node numbers of the guards skipped so far.
    pub fn take_elided(&self) -> Vec<usize> {
        std::mem::take(&mut self.elided.lock())
    }

    /// Nanoseconds→`Duration` helper for the remote-ship total.
    pub fn remote_ship(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.remote_nanos.load(Ordering::Relaxed))
    }
}

/// One guard evaluation, recorded for the session layer (timeline
/// consistency) and for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardObservation {
    /// Region checked.
    pub region: RegionId,
    /// Heartbeat timestamp found (None: table/row missing).
    pub heartbeat: Option<Timestamp>,
    /// Whether the local branch was chosen.
    pub chose_local: bool,
    /// Currency bound promised by the clause that produced this guard —
    /// kept so delivered-staleness accounting can compute slack
    /// (bound − delivered) per served snapshot.
    pub bound: Duration,
}

/// How an execution runs the currency guards of its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardMode {
    /// Every guard that is reached is evaluated.
    Evaluate,
    /// A guard whose outcome the currency dataflow analysis certified is
    /// not evaluated: its node opens the arm its decision names
    /// ([`crate::Executable::prepare`]). Sound only under the
    /// certificates' premises (healthy replication, no timeline floors).
    /// The row reference engine holds no decisions and evaluates every
    /// guard.
    Certified,
    /// Every guard that is reached passes (the `ServeStale` violation
    /// policy: return possibly stale data, flagged via the recorded
    /// observations). Never set on the normal path.
    ForceLocal,
}

/// Everything an operator needs at run time.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Local storage engine (cached views + heartbeat tables at the cache;
    /// master tables at the back-end).
    pub storage: Arc<StorageEngine>,
    /// Back-end access for remote branches (None at the back-end itself).
    pub remote: Option<Arc<dyn RemoteService>>,
    /// Clock supplying `getdate()` for guards and expressions.
    pub clock: Arc<dyn Clock>,
    /// Shared statistics.
    pub counters: Arc<ExecCounters>,
    /// Timeline-consistency floors: a guard for region R additionally
    /// requires `heartbeat ≥ floor[R]` so later queries in a TIMEORDERED
    /// session never read older data than earlier ones (paper Sec. 2.3).
    pub timeline_floor: Arc<HashMap<RegionId, Timestamp>>,
    /// How this execution runs its currency guards.
    pub guard_mode: GuardMode,
    /// Per-query accumulators (guard/remote time, bytes, guard
    /// observations).
    pub meter: Arc<QueryMeter>,
    /// Guard-staleness and batch histograms; `None` outside a metered
    /// server (e.g. unit tests, back-end execution).
    pub metrics: Option<Arc<ExecMetrics>>,
    /// Target logical rows per [`crate::Batch`] in the batched engine.
    pub batch_rows: usize,
    /// The query's trace, shared down to the remote transport so spans
    /// recorded on the other side of the wire land in the same tree.
    /// `None` outside a traced server path.
    pub trace: Option<TraceRef>,
    /// The statement's slot values, by slot number: what a plan's
    /// `BoundExpr::Slot`s, seek ranges and shipped SQL hold in *this*
    /// execution. Empty runs the plan with the values it was compiled for.
    pub slots: Arc<Vec<Value>>,
}

/// Cap on the per-context guard-observation log. Sessions that never call
/// [`ExecContext::take_observations`] stop accumulating here and count
/// drops in [`ExecCounters::observations_dropped`] instead.
pub const MAX_OBSERVATIONS: usize = 4096;

impl ExecContext {
    /// Context for executing at the cache.
    pub fn new(
        storage: Arc<StorageEngine>,
        remote: Option<Arc<dyn RemoteService>>,
        clock: Arc<dyn Clock>,
    ) -> ExecContext {
        ExecContext {
            storage,
            remote,
            clock,
            counters: Arc::new(ExecCounters::default()),
            timeline_floor: Arc::new(HashMap::new()),
            guard_mode: GuardMode::Evaluate,
            meter: Arc::new(QueryMeter::default()),
            metrics: None,
            batch_rows: crate::batch::DEFAULT_BATCH_ROWS,
            trace: None,
            slots: Arc::default(),
        }
    }

    /// Same context with different timeline floors (used per session).
    pub fn with_timeline_floor(&self, floor: HashMap<RegionId, Timestamp>) -> ExecContext {
        ExecContext {
            timeline_floor: Arc::new(floor),
            ..self.clone()
        }
    }

    /// Same context reporting into `registry`.
    pub fn with_metrics(&self, registry: Arc<MetricsRegistry>) -> ExecContext {
        ExecContext {
            metrics: Some(Arc::new(ExecMetrics::new(registry))),
            ..self.clone()
        }
    }

    /// Drain the observations recorded so far.
    pub fn take_observations(&self) -> Vec<GuardObservation> {
        std::mem::take(&mut self.meter.observations.lock())
    }

    /// Record a guard outcome. The log is bounded by [`MAX_OBSERVATIONS`];
    /// overflow is counted in [`ExecCounters::observations_dropped`] (and
    /// the counters above still advance), so long-running sessions that
    /// never drain cannot grow memory without limit.
    pub fn record_guard(&self, obs: GuardObservation) {
        if obs.chose_local {
            self.counters.local_branches.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters
                .remote_branches
                .fetch_add(1, Ordering::Relaxed);
        }
        let mut log = self.meter.observations.lock();
        if log.len() < MAX_OBSERVATIONS {
            log.push(obs);
        } else {
            self.counters
                .observations_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::SimClock;

    #[test]
    fn counters_track_fractions() {
        let c = ExecCounters::default();
        assert_eq!(c.local_fraction(), 0.0);
        c.local_branches.fetch_add(3, Ordering::Relaxed);
        c.remote_branches.fetch_add(1, Ordering::Relaxed);
        assert!((c.local_fraction() - 0.75).abs() < 1e-9);
        c.reset();
        assert_eq!(c.local_branches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn record_guard_updates_counters_and_log() {
        let ctx = ExecContext::new(
            Arc::new(StorageEngine::new()),
            None,
            Arc::new(SimClock::new()),
        );
        ctx.record_guard(GuardObservation {
            region: RegionId(1),
            heartbeat: Some(Timestamp(5)),
            chose_local: true,
            bound: Duration::from_secs(10),
        });
        ctx.record_guard(GuardObservation {
            region: RegionId(1),
            heartbeat: None,
            chose_local: false,
            bound: Duration::ZERO,
        });
        assert_eq!(ctx.counters.local_branches.load(Ordering::Relaxed), 1);
        assert_eq!(ctx.counters.remote_branches.load(Ordering::Relaxed), 1);
        let obs = ctx.take_observations();
        assert_eq!(obs.len(), 2);
        assert!(ctx.take_observations().is_empty());
    }

    #[test]
    fn observation_log_is_bounded() {
        let ctx = ExecContext::new(
            Arc::new(StorageEngine::new()),
            None,
            Arc::new(SimClock::new()),
        );
        for _ in 0..(MAX_OBSERVATIONS + 10) {
            ctx.record_guard(GuardObservation {
                region: RegionId(1),
                heartbeat: None,
                chose_local: false,
                bound: Duration::ZERO,
            });
        }
        assert_eq!(ctx.meter.observations.lock().len(), MAX_OBSERVATIONS);
        assert_eq!(
            ctx.counters.observations_dropped.load(Ordering::Relaxed),
            10
        );
        // counters still saw every evaluation
        assert_eq!(
            ctx.counters.remote_branches.load(Ordering::Relaxed),
            (MAX_OBSERVATIONS + 10) as u64
        );
        // draining frees the log for new entries
        ctx.take_observations();
        ctx.record_guard(GuardObservation {
            region: RegionId(1),
            heartbeat: None,
            chose_local: true,
            bound: Duration::ZERO,
        });
        assert_eq!(ctx.meter.observations.lock().len(), 1);
    }

    #[test]
    fn facade_mirror_follows_increments_and_resets() {
        let counters = Arc::new(ExecCounters::default());
        let registry = MetricsRegistry::new();
        counters.register_metrics(&registry);
        counters.local_branches.fetch_add(3, Ordering::Relaxed);
        counters.rows_shipped.fetch_add(7, Ordering::Relaxed);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rcc_guard_local_total"), 3);
        assert_eq!(snap.counter("rcc_rows_shipped_total"), 7);
        counters.reset();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("rcc_guard_local_total"), 0);
        assert_eq!(snap.counter("rcc_rows_shipped_total"), 0);
    }
}
