#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Observability layer for the RC&C mid-tier cache.
//!
//! The paper's whole evaluation is a measurement story — guard pass rates,
//! local/remote branch mix, phase breakdowns, replication-lag-driven plan
//! switching (Tables 4.3–4.5, Fig. 4.2) — so the cache needs first-class
//! visibility rather than ad-hoc atomics. This crate is std-only and
//! provides three pieces, wired through every layer of the pipeline:
//!
//! * [`MetricsRegistry`]: named counters, gauges, and fixed-bucket
//!   histograms with p50/p95/p99 estimates, snapshotable and renderable as
//!   Prometheus text exposition.
//! * [`Tracer`]: lightweight per-query spans with RAII guards, nesting,
//!   and a ring buffer of recent traces for post-hoc dumps.
//! * [`QueryStats`]: a per-statement record of phase timings
//!   (parse/bind/optimize/guard-eval/local-exec/remote-ship), row and byte
//!   counts, and plan-cache outcome.

mod events;
pub mod names;
mod registry;
mod stats;
mod trace;

pub use events::{Event, EventJournal, EventKind};
pub use registry::{
    Counter, Gauge, HandlesByKey, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    SnapshotValue, DEFAULT_BATCH_ROWS_BUCKETS, DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SELECTIVITY_BUCKETS, DEFAULT_SLACK_BUCKETS, DEFAULT_STALENESS_BUCKETS,
};
pub use stats::{QueryPhase, QueryStats};
pub use trace::{SpanGuard, SpanRecord, Trace, TraceHandle, TraceRef, Tracer};
