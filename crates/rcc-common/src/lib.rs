#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Shared foundation types for the RCC (Relaxed Currency & Consistency)
//! mid-tier database cache, a reproduction of Guo et al., SIGMOD 2004.
//!
//! This crate holds the vocabulary the rest of the workspace speaks:
//! [`value::Value`] and [`value::DataType`] for SQL data, [`row::Row`] and
//! [`row::Schema`] for tuples, [`time`] for the simulated and wall clocks
//! that drive replication and heartbeats, [`ids`] for strongly typed object
//! identifiers, and [`error::Error`] for the workspace-wide error type.

pub mod error;
pub mod ids;
pub mod netmodel;
pub mod row;
pub mod time;
pub mod value;

pub use error::{Error, Result};
pub use ids::{AgentId, IndexId, RegionId, TableId, TxnId, ViewId};
pub use netmodel::NetworkModel;
pub use row::{Column, Row, Schema};
pub use time::{Clock, Duration, SimClock, Timestamp, WallClock};
pub use value::{DataType, Value};
