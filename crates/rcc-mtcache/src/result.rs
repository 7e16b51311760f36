//! Query results.

use crate::plan_cache::CompiledQuery;
use rcc_common::{Row, Schema, TableId, Value};
use rcc_executor::context::GuardObservation;
use rcc_executor::{Batch, Executable, PhaseTimings};
use rcc_obs::QueryStats;
use rcc_optimizer::optimize::PlanChoice;
use std::sync::Arc;

/// The outcome of one query at the cache: rows plus full provenance — which
/// plan shape won, what every currency guard observed, and the per-phase
/// timings the overhead experiments report.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema.
    pub schema: Schema,
    /// Result rows. Empty for a result from
    /// [`crate::Session::execute_batched`], whose answer is in
    /// [`QueryResult::batches`].
    pub rows: Vec<Row>,
    /// The answer in the columnar batches it was produced in, before any
    /// caller asked for rows; exactly one of `rows` and `batches` holds it.
    pub(crate) batches: Vec<Batch>,
    /// Shape of the chosen plan (paper plans 1–5).
    pub plan_choice: PlanChoice,
    /// Estimated optimizer cost of the chosen plan.
    pub est_cost: f64,
    /// Every currency-guard evaluation during execution.
    pub guards: Vec<GuardObservation>,
    /// Did execution actually contact the back-end?
    pub used_remote: bool,
    /// Human-readable warnings (e.g. stale data served under a relaxed
    /// violation policy).
    pub warnings: Vec<String>,
    /// Setup / run / shutdown wall-time breakdown.
    pub timings: PhaseTimings,
    /// Base tables the query read (for timeline-consistency bookkeeping).
    pub tables: Arc<[TableId]>,
    /// Per-phase statement statistics (parse → remote-ship pipeline).
    pub stats: QueryStats,
    /// What [`QueryResult::plan_explain`] renders.
    pub(crate) explain: PlanExplain,
}

/// Where a result's plan text comes from. A served query only keeps its
/// compiled plan alive: almost no caller reads the text (the wire never
/// carries it), so it is rendered when asked for, not per query, and not
/// stored per plan-cache entry either.
#[derive(Debug, Clone)]
pub(crate) enum PlanExplain {
    /// No plan behind this result (DDL, DML, session statements).
    None,
    /// Already text: the EXPLAIN ANALYZE printout.
    Text(String),
    /// The compiled query that was executed (or, for `VERIFY` and `EXPLAIN
    /// FLOW`, would have been), and the statement-slot values it was
    /// executed with.
    Plan(Arc<CompiledQuery>, Arc<Vec<Value>>),
}

impl QueryResult {
    /// A result with no rows and no plan (DDL, session statements), and the
    /// base the diagnostic results fill in.
    pub(crate) fn empty() -> QueryResult {
        QueryResult {
            schema: Schema::empty(),
            rows: Vec::new(),
            batches: Vec::new(),
            plan_choice: PlanChoice::BackendLocal,
            est_cost: 0.0,
            guards: Vec::new(),
            used_remote: false,
            warnings: Vec::new(),
            timings: Default::default(),
            tables: Arc::default(),
            stats: Default::default(),
            explain: PlanExplain::None,
        }
    }

    /// The answer as rows, for in-process callers: batches are
    /// materialized.
    pub(crate) fn with_rows(mut self) -> QueryResult {
        for batch in std::mem::take(&mut self.batches) {
            self.rows.extend(batch.into_rows());
        }
        self
    }

    /// The answer as batches, for callers that serialize it: a statement
    /// that answered with rows (a diagnostic, say) becomes one batch.
    pub(crate) fn with_batches(mut self) -> QueryResult {
        if !self.rows.is_empty() {
            let rows = std::mem::take(&mut self.rows);
            self.batches = vec![Batch::from_rows(self.schema.len(), rows)];
        }
        self
    }

    /// The answer of a result from [`crate::Session::execute_batched`], as
    /// typed column batches — what `rcc_executor::wire::encode_batches`
    /// serializes without building a row.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// EXPLAIN rendering of the executed plan — for `EXPLAIN ANALYZE`, the
    /// instrumented printout. Empty for statements that ran no plan. A
    /// statement slot is printed as its marker with the value this
    /// execution bound to it (`?0=17`), which for a plan served from the
    /// cache need not be the value the plan was compiled with; shipped SQL
    /// is the text this execution shipped.
    pub fn plan_explain(&self) -> String {
        match &self.explain {
            PlanExplain::None => String::new(),
            PlanExplain::Text(text) => text.clone(),
            PlanExplain::Plan(compiled, slots) => {
                compiled.optimized.plan.with_slots(slots).explain()
            }
        }
    }

    /// The one executable of the plan-cache entry behind this result: the
    /// one that ran, whether its guards were evaluated, skipped as
    /// certified or forced local (for `VERIFY` and `EXPLAIN FLOW`, the one
    /// that would run). `None` for a result of no cached plan.
    pub fn executable(&self) -> Option<&Arc<Executable>> {
        self.compiled().map(|compiled| &compiled.executable)
    }

    /// The plan-cache entry the result was served from or rendered from;
    /// `None` for a result of no cached plan.
    pub(crate) fn compiled(&self) -> Option<&CompiledQuery> {
        match &self.explain {
            PlanExplain::Plan(compiled, _) => Some(compiled),
            _ => None,
        }
    }

    /// Number of guards that chose their local branch.
    pub fn local_branches(&self) -> usize {
        self.guards.iter().filter(|g| g.chose_local).count()
    }

    /// Number of guards that fell back to the remote branch.
    pub fn remote_branches(&self) -> usize {
        self.guards.iter().filter(|g| !g.chose_local).count()
    }

    /// Pretty-print rows for examples and debugging.
    pub fn display_rows(&self, max: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let names: Vec<&str> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        let _ = writeln!(out, "{}", names.join(" | "));
        for row in self.rows.iter().take(max) {
            let vals: Vec<String> = row.values().iter().map(|v| v.to_string()).collect();
            let _ = writeln!(out, "{}", vals.join(" | "));
        }
        if self.rows.len() > max {
            let _ = writeln!(out, "... ({} rows total)", self.rows.len());
        }
        out
    }
}
