//! Sessions and timeline consistency (paper Sec. 2.3).
//!
//! "We take the approach that forward movement of time is not enforced by
//! default and has to be explicitly specified by bracketing the query
//! sequence with `BEGIN TIMEORDERED` and `END TIMEORDERED`. This guarantees
//! that later queries use data that is at least as fresh as the data used
//! by queries earlier in the sequence."
//!
//! Implementation: while time-ordered, the session keeps a **snapshot
//! floor** per currency region. Every guard evaluated for a region must
//! find a heartbeat at or above the floor (enforced inside the guard —
//! `rcc_executor::guard`), otherwise the plan falls back to the back-end,
//! which is always at least as fresh. After each query the floors ratchet
//! up: local reads raise their region's floor to the observed heartbeat;
//! a remote read of table T raises the floor of *every* region caching T
//! to the back-end's latest commit time (the remote result reflected it,
//! so later reads must too).

use crate::policy::ViolationPolicy;
use crate::result::QueryResult;
use crate::server::MTCache;
use rcc_common::{RegionId, Result, Timestamp, Value};
use rcc_sql::Statement;
use std::collections::HashMap;

/// A client session against the cache.
#[derive(Debug)]
pub struct Session<'a> {
    cache: &'a MTCache,
    timeline: bool,
    floors: HashMap<RegionId, Timestamp>,
    policy: ViolationPolicy,
    label: String,
}

impl<'a> Session<'a> {
    pub(crate) fn new(cache: &'a MTCache) -> Session<'a> {
        Session {
            cache,
            timeline: false,
            floors: HashMap::new(),
            policy: ViolationPolicy::Reject,
            label: cache.next_session_label(),
        }
    }

    /// This session's label (`session-N`), used to attribute journal
    /// events.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Is a TIMEORDERED bracket active?
    pub fn is_timeordered(&self) -> bool {
        self.timeline
    }

    /// Current floors (empty outside a TIMEORDERED bracket).
    pub fn floors(&self) -> &HashMap<RegionId, Timestamp> {
        &self.floors
    }

    /// Set the violation policy used by this session.
    pub fn set_policy(&mut self, policy: ViolationPolicy) {
        self.policy = policy;
    }

    /// Execute one statement in this session.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute_with_params(sql, &HashMap::new())
    }

    /// Execute with parameters.
    pub fn execute_with_params(
        &mut self,
        sql: &str,
        params: &HashMap<String, Value>,
    ) -> Result<QueryResult> {
        self.run(sql, params).map(QueryResult::with_rows)
    }

    /// Execute one statement for a caller that serializes the answer: it
    /// stays in the typed column batches it was produced in
    /// ([`QueryResult::batches`]) and no `Row` is built; `rows` is empty.
    pub fn execute_batched(&mut self, sql: &str) -> Result<QueryResult> {
        self.run(sql, &HashMap::new())
            .map(QueryResult::with_batches)
    }

    fn run(&mut self, sql: &str, params: &HashMap<String, Value>) -> Result<QueryResult> {
        // session-level statements are handled here; everything else goes
        // through the server with this session's floors. A plan-cache hit
        // is never one of them: they are not cached.
        let prepared = self.cache.prepare(sql, params)?;
        match prepared.statement() {
            Some(Statement::BeginTimeordered) => {
                self.timeline = true;
                self.floors.clear();
                return Ok(QueryResult::empty());
            }
            Some(Statement::EndTimeordered) => {
                self.timeline = false;
                self.floors.clear();
                return Ok(QueryResult::empty());
            }
            _ => {}
        }
        let floors = if self.timeline {
            self.floors.clone()
        } else {
            HashMap::new()
        };
        let result =
            self.cache
                .execute_internal(prepared, params, &floors, self.policy, &self.label)?;
        if self.timeline {
            self.ratchet(&result);
        }
        Ok(result)
    }

    /// Raise the floors based on what the query observed.
    fn ratchet(&mut self, result: &QueryResult) {
        for g in &result.guards {
            if g.chose_local {
                if let Some(hb) = g.heartbeat {
                    let floor = self.floors.entry(g.region).or_insert(Timestamp::ZERO);
                    if hb > *floor {
                        *floor = hb;
                    }
                }
            }
        }
        if result.used_remote {
            // the remote result reflects the latest back-end snapshot: every
            // region caching one of the touched tables must now be at least
            // that fresh for later local reads
            let (_, latest) = self.cache.master().latest_commit();
            for view in self.cache.catalog().all_views() {
                if result.tables.contains(&view.base_table) {
                    let floor = self.floors.entry(view.region).or_insert(Timestamp::ZERO);
                    if latest > *floor {
                        *floor = latest;
                    }
                }
            }
        }
    }
}
