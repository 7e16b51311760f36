#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! In-memory table storage for the RCC mini-DBMS.
//!
//! This crate plays the role SQL Server's storage engine plays in the paper:
//! heap-less tables organized by a clustered ordered index, optional secondary
//! indexes, range scans/seeks, and per-table statistics used by the cost
//! model. A scan that covers a whole storage chunk reads it as typed
//! [`column::Column`]s, built once per chunk and shared by every snapshot
//! that shares the chunk ([`cowmap`]). Tables execute in memory — the paper's experiments depend only on
//! *relative* access-path costs and data volumes — while the durability
//! layer ([`durable`], [`wal`], [`codec`]) gives the back-end an optional
//! disk-backed mode: WAL-before-publish commits, checkpoints written as one
//! CRC-checked file, and crash recovery that restores committed tables
//! *and* replication watermarks. This crate (plus
//! `rcc-bench`) is the only place in the workspace allowed to touch the
//! filesystem; `workspace-lint` enforces that boundary.

pub mod codec;
pub mod column;
pub mod cowmap;
pub mod durable;
pub mod engine;
pub mod index;
pub mod range;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod wal;

pub use cowmap::{CowMap, Run};
pub use durable::{CheckpointRows, DurableStore, RecoveredState, RecoveryStats};
pub use engine::{StorageEngine, TableHandle};
pub use index::SecondaryIndex;
pub use range::KeyRange;
pub use snapshot::{TableCell, TableSnapshot, TableWriter};
pub use stats::{ColumnStats, TableStats};
pub use table::{KeySpan, RowChange, ScanCursor, SpanFinder, Table};
pub use wal::{CommitRecord, SyncPolicy, Wal, WalRecord, WatermarkRecord};
