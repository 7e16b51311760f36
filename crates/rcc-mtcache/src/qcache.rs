//! Query-result caching (paper Sec. 1, third scenario).
//!
//! "Suppose we have a component that caches SQL query results ... The
//! cache can easily keep track of the staleness of its cached results and
//! if a result does not satisfy a query's currency requirements,
//! transparently recompute it. In this way, an application can always be
//! assured that its currency requirements are met."
//!
//! Cached entries carry a conservative `as_of` snapshot time: the oldest
//! heartbeat among local reads (remote-only results use the execution
//! time). A hit is served only when `now − as_of` is within the *tightest*
//! currency bound of the incoming query; otherwise the result is
//! recomputed through the ordinary C&C-enforcing pipeline.
//!
//! Only a `SELECT` is taken — the lexical [`rcc_sql::shape`] check, before
//! anything runs, so a DML text is refused, never executed. A miss runs the
//! query through [`MTCache::execute`], and the result's bound is read off
//! the plan-cache entry that served it: nothing is parsed or bound here.
//!
//! Concurrency: a single map lock guards the entries; hit/miss counters
//! are plain atomics so `stats()` never contends with `execute()`.
//! Capacity is bounded: the least-recently-used entry is evicted once the
//! map outgrows [`QueryResultCache::capacity`].

use crate::result::QueryResult;
use crate::server::MTCache;
use parking_lot::Mutex;
use rcc_common::{Clock, Duration, Error, Result, Timestamp, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default bound on the number of cached results.
pub const DEFAULT_QCACHE_CAPACITY: usize = 256;

#[derive(Debug, Clone)]
struct Entry {
    result: QueryResult,
    /// Conservative snapshot time of `result`.
    as_of: Timestamp,
    /// The query's tightest currency bound: how long `result` may serve.
    bound: Duration,
    /// Recency stamp for LRU eviction (monotone per cache).
    last_used: u64,
}

/// A result cache layered over an [`MTCache`].
#[derive(Debug)]
pub struct QueryResultCache {
    entries: Mutex<HashMap<String, Entry>>,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for QueryResultCache {
    fn default() -> Self {
        QueryResultCache::with_capacity(DEFAULT_QCACHE_CAPACITY)
    }
}

impl QueryResultCache {
    /// An empty cache with the default capacity.
    pub fn new() -> QueryResultCache {
        QueryResultCache::default()
    }

    /// An empty cache bounded to `capacity` results (clamped to at least
    /// 1).
    pub fn with_capacity(capacity: usize) -> QueryResultCache {
        QueryResultCache {
            entries: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The maximum number of results this cache holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached result.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Serve `sql` from cache when a stored result still satisfies the
    /// query's tightest currency bound; recompute (and store) otherwise.
    pub fn execute(&self, cache: &MTCache, sql: &str) -> Result<QueryResult> {
        if rcc_sql::shape(sql, &HashMap::new()).is_none() {
            return Err(Error::analysis(format!(
                "result cache only handles queries, got {sql:?}"
            )));
        }
        let now = cache.clock().now();
        if let Some(entry) = self.entries.lock().get_mut(sql) {
            if now.since(entry.as_of) <= entry.bound {
                entry.last_used = self.stamp();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.result.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = cache.execute(sql)?;
        // The tightest bound across the query's consistency classes. Zero
        // when it carries no clause: such a query demands the latest
        // snapshot — the paper's "traditional semantics" default — and its
        // result is never stored (an update may commit at any moment).
        let bound = (result.compiled().iter())
            .flat_map(|c| &c.constraint.classes)
            .map(|c| c.bound)
            .min()
            .unwrap_or(Duration::ZERO);
        if bound.is_zero() {
            return Ok(result);
        }
        let entry = Entry {
            result: result.clone(),
            as_of: conservative_as_of(&result, now),
            bound,
            last_used: self.stamp(),
        };
        let mut entries = self.entries.lock();
        entries.insert(sql.to_string(), entry);
        while entries.len() > self.capacity {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&oldest);
            }
        }
        Ok(result)
    }
}

/// Conservative snapshot time of a computed result: the oldest heartbeat
/// among local reads; pure-remote results reflect `now`.
fn conservative_as_of(result: &QueryResult, now: Timestamp) -> Timestamp {
    result
        .guards
        .iter()
        .filter(|g| g.chose_local)
        .filter_map(|g| g.heartbeat)
        .min()
        .unwrap_or(now)
}

/// Convenience: value of the single cell of a single-row result.
pub fn scalar(result: &QueryResult) -> Option<&Value> {
    result.rows.first().map(|r| r.get(0))
}
