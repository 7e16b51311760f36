#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! MTCache: a mid-tier database cache enforcing relaxed currency &
//! consistency constraints — the system of Guo, Larson, Ramakrishnan &
//! Goldstein, *"Relaxed Currency and Consistency: How to Say 'Good Enough'
//! in SQL"*, SIGMOD 2004.
//!
//! The deployment mirrors the paper (Sec. 3):
//!
//! 1. the **back-end server** ([`BackendServer`]) holds the master database
//!    and serves the latest snapshot;
//! 2. the **cache DBMS** ([`MTCache`]) holds a *shadow database* — the same
//!    table definitions, empty, with back-end statistics — plus cached
//!    **materialized views** kept current by transactional replication;
//! 3. queries are submitted to the cache, whose cost-based optimizer
//!    decides — per query and per input — whether to read a local view
//!    (guarded by a runtime currency check) or ship SQL to the back-end;
//! 4. all DML is forwarded transparently to the back-end.
//!
//! ```no_run
//! use rcc_mtcache::MTCache;
//! use rcc_common::Duration;
//!
//! let cache = MTCache::new();
//! cache.execute("CREATE TABLE books (isbn INT, title VARCHAR, PRIMARY KEY (isbn))").unwrap();
//! cache.create_region("CR1", Duration::from_secs(10), Duration::from_secs(2)).unwrap();
//! cache.execute("CREATE CACHED VIEW books_v REGION cr1 AS SELECT isbn, title FROM books").unwrap();
//! let result = cache
//!     .execute("SELECT title FROM books WHERE isbn = 42 CURRENCY BOUND 30 SEC ON (books)")
//!     .unwrap();
//! println!("{} rows via {:?}", result.rows.len(), result.plan_choice);
//! ```

pub mod backend_server;
pub mod paper;
pub mod plan_cache;
pub mod policy;
pub mod qcache;
pub mod result;
pub mod server;
pub mod session;

pub use backend_server::{BackendPlan, BackendServer};
pub use plan_cache::PlanCache;
pub use policy::ViolationPolicy;
pub use qcache::{QueryResultCache, DEFAULT_QCACHE_CAPACITY};
pub use result::QueryResult;
pub use server::{DurabilityStatus, MTCache};
pub use session::Session;
