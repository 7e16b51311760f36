#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Vectorized execution engine.
//!
//! Interprets [`rcc_optimizer::PhysicalPlan`] trees with batched volcano
//! operators: `open`/`next_batch`/`close`, where each pull yields a
//! [`Batch`] of typed [`Column`]s of up to [`DEFAULT_BATCH_ROWS`] rows,
//! narrowed by selection vectors instead of row copies. A plan is prepared
//! for execution once ([`Executable`]): expressions are compiled into
//! ordinal form ([`PhysExpr`]) and run a column at a time ([`kernels`]), so
//! an execution resolves no names and the hot path carries no boxed
//! [`rcc_common::Value`] per cell and no `Row` allocation. The original row-at-a-time engine is preserved in
//! [`rowref`] as the differential oracle — the batched engine is held
//! byte-identical to it on the wire.
//!
//! The three phases are instrumented separately because the paper's
//! guard-overhead experiment (Tables 4.4/4.5) breaks elapsed time down
//! into **setup** (instantiating the operator tree), **run** (producing
//! rows) and **shutdown** (closing the tree).
//!
//! The star of the show is the [`ops::SwitchUnionOp`]: when opened it
//! evaluates its *currency guard* — a point lookup in the region's local
//! heartbeat table, `ts > getdate() − B` — and then opens exactly one of
//! its branches; "the other inputs are not touched" (paper Sec. 3). A
//! guard whose outcome was certified at compile time is not evaluated by
//! an execution that runs certified ([`GuardMode::Certified`]): its node
//! opens the arm the decision names.
//! Branch decisions are counted in [`context::ExecCounters`], which is what
//! the workload-shift experiment (Fig. 4.2) measures.

pub mod analyze;
pub mod batch;
pub mod build;
pub mod context;
mod groups;
pub mod guard;
pub mod kernels;
pub mod ops;
pub mod rowref;
pub mod wire;

pub use analyze::{execute_plan_analyzed, AnalyzedExecution, OpReport};
pub use batch::{Batch, PhysExpr, DEFAULT_BATCH_ROWS};
pub use build::{
    execute_plan, execute_plan_batched, BatchExecutionResult, Executable, ExecutionResult,
    PhaseTimings,
};
pub use context::{
    ExecContext, ExecCounters, ExecMetrics, GuardMode, GuardObservation, QueryMeter, RemoteService,
    MAX_OBSERVATIONS,
};
pub use rcc_storage::column::{self, Column, ColumnData, ValueRef};
pub use rowref::{build_row_operator, execute_plan_rows, RowOperator};
