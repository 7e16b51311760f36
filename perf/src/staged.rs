//! The staged pipeline: one request served by making, in order and each
//! inside a span, the same public calls the server makes internally —
//! frame decode, the session's parse and the cache's parse, then on a
//! plan-cache miss lint → bind → optimize → flow analysis → elision, then
//! execute, wire encode, response frame encode, and the client's decode.
//!
//! This is how layer times are measured *from outside*: nothing in the
//! program is instrumented. What cannot be reproduced out here — the
//! cache's tracer, metrics, `QueryStats` and `plan.explain()` per query,
//! the socket and the thread wake-ups — is exactly what the two residual
//! metrics report. `verify_plan` is not on the release path (debug builds
//! and `VERIFY` pay it); it is timed after the request's root span closes
//! so the compile cost on record is complete.

use crate::spans::Recorder;
use rcc_common::{Error, Result, Row, Schema};
use rcc_executor::{execute_plan_batched, wire, ExecContext, PhaseTimings, RemoteService};
use rcc_mtcache::MTCache;
use rcc_net::{Request, Response};
use rcc_optimizer::{bind_select, optimize, OptimizerConfig, PhysicalPlan};
use rcc_sql::{parse_statement, Statement};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A [`RemoteService`] that records a span around every call into the
/// real transport, so the remote hop shows up under `executor.execute`.
#[derive(Debug)]
pub struct SpannedRemote {
    inner: Arc<dyn RemoteService>,
    rec: Arc<Recorder>,
}

impl RemoteService for SpannedRemote {
    fn execute(&self, sql: &str) -> Result<(Schema, Vec<Row>)> {
        self.rec
            .time("net.remote_call", || self.inner.execute(sql))
            .0
    }

    fn execute_with_bytes(&self, sql: &str) -> Result<(Schema, Vec<Row>, u64)> {
        self.rec
            .time("net.remote_call", || self.inner.execute_with_bytes(sql))
            .0
    }
}

/// A plan the staged pipeline compiled, with the exact counts taken then.
pub struct Compiled {
    pub plan: PhysicalPlan,
    pub nodes: usize,
    pub guards: usize,
    pub elidable: usize,
}

/// What one staged request cost, stage by stage (nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Both parses (the session's and the cache's).
    pub parse_ns: u64,
    /// `execute_plan_batched` plus row materialization.
    pub exec_ns: u64,
    pub timings: PhaseTimings,
    pub guard_ns: u64,
    pub guard_evals: u64,
    pub took_remote_branch: bool,
    pub rows: u64,
    pub batches: u64,
    pub wire_encode_ns: u64,
    pub wire_decode_ns: u64,
    pub resp_encode_ns: u64,
    pub resp_decode_ns: u64,
    /// Request encode + decode, result encode + decode, response encode + decode.
    pub codec_ns: u64,
    pub wire_bytes: u64,
}

/// One staged answer.
pub struct Served {
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub used_remote: bool,
    pub sample: Sample,
}

/// The pipeline and its own plan cache (keyed on text, like the cache's).
pub struct Staged<'a> {
    cache: &'a MTCache,
    rec: Arc<Recorder>,
    remote: Arc<dyn RemoteService>,
    config: OptimizerConfig,
    plans: HashMap<String, Arc<Compiled>>,
}

impl<'a> Staged<'a> {
    pub fn new(cache: &'a MTCache, rec: Arc<Recorder>, remote: Arc<dyn RemoteService>) -> Self {
        Staged {
            cache,
            remote: Arc::new(SpannedRemote {
                inner: remote,
                rec: Arc::clone(&rec),
            }),
            rec,
            // the cache's own configuration: nothing here changes a knob
            config: OptimizerConfig::default(),
            plans: HashMap::new(),
        }
    }

    /// Every plan compiled so far.
    pub fn plans(&self) -> impl Iterator<Item = (&String, &Arc<Compiled>)> {
        self.plans.iter()
    }

    fn compile(&mut self, sql: &str, select: &rcc_sql::SelectStmt) -> Result<Arc<Compiled>> {
        let rec = &self.rec;
        let catalog = self.cache.catalog();
        rec.time("lint.select", || rcc_lint::lint_select(catalog, select));
        let graph = rec
            .time("optimizer.bind", || {
                bind_select(catalog, select, &HashMap::new())
            })
            .0?;
        let optimized = rec
            .time("optimizer.optimize", || {
                optimize(catalog, &graph, &self.config)
            })
            .0?;
        let (flow, _) = rec.time("flow.analyze", || {
            rcc_flow::analyze(catalog, &optimized.plan)
        });
        let (elided, _) = rec.time("flow.elide", || rcc_flow::elide(&optimized.plan, &flow));
        let compiled = Arc::new(Compiled {
            nodes: optimized.plan.node_count(),
            guards: flow.guards.len(),
            elidable: elided.elided.len(),
            plan: optimized.plan,
        });
        self.plans.insert(sql.to_string(), Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Serve one `SELECT` through every stage.
    pub fn serve(&mut self, sql: &str) -> Result<Served> {
        let rec = Arc::clone(&self.rec);
        rec.next_request();
        let root = rec.span("staged.request");
        let mut s = Sample::default();

        let (frame, enc) = rec.time("net.req_encode", || {
            Request::Query {
                sql: sql.to_string(),
            }
            .encode()
        });
        let (request, dec) = rec.time("net.req_decode", || Request::decode(frame));
        let Request::Query { sql } = request? else {
            return Err(Error::Remote("request did not round-trip".into()));
        };
        s.codec_ns = enc + dec;

        // `Session::execute` parses to spot BEGIN/END TIMEORDERED, then
        // `MTCache::execute_internal` parses the same text again
        let (_, p1) = rec.time("sql.parse", || parse_statement(&sql));
        let (stmt, p2) = rec.time("sql.parse", || parse_statement(&sql));
        s.parse_ns = p1 + p2;
        let Statement::Select(select) = stmt? else {
            return Err(Error::analysis("the staged pipeline serves SELECTs only"));
        };

        let (compiled, fresh) = match self.plans.get(&sql) {
            Some(c) => (Arc::clone(c), false),
            None => (self.compile(&sql, &select)?, true),
        };

        let ctx = ExecContext::new(
            Arc::clone(self.cache.cache_storage()),
            Some(Arc::clone(&self.remote)),
            Arc::new(self.cache.clock().clone()),
        );
        let exec_span = rec.span("executor.execute");
        let (result, batched_ns) = rec.time("executor.plan", || {
            execute_plan_batched(&compiled.plan, &ctx)
        });
        let result = result?;
        s.timings = result.timings;
        s.batches = ctx.counters.batches_produced.load(Ordering::Relaxed);
        let schema = result.schema.clone();
        let (rows, rows_ns) = rec.time("executor.materialize", || result.into_rows());
        drop(exec_span);
        s.exec_ns = batched_ns + rows_ns;
        s.rows = rows.len() as u64;
        s.guard_ns = ctx.meter.guard_eval().as_nanos() as u64;
        s.guard_evals = ctx.meter.guard_eval_count();
        s.took_remote_branch = ctx.counters.remote_branches.load(Ordering::Relaxed) > 0;
        let used_remote = ctx.meter.remote_queries.load(Ordering::Relaxed) > 0;

        let (payload, ns) = rec.time("executor.wire_encode", || {
            wire::encode_result(&schema, &rows)
        });
        s.wire_encode_ns = ns;
        s.wire_bytes = payload.len() as u64;
        let (frame, ns) = rec.time("net.resp_encode", || {
            Response::ResultSet {
                used_remote,
                warnings: Vec::new(),
                payload,
            }
            .encode()
        });
        s.resp_encode_ns = ns;
        let (response, ns) = rec.time("net.resp_decode", || Response::decode(frame));
        s.resp_decode_ns = ns;
        let Response::ResultSet { payload, .. } = response? else {
            return Err(Error::Remote("response did not round-trip".into()));
        };
        let (decoded, ns) = rec.time("executor.wire_decode", || wire::decode_result(payload));
        s.wire_decode_ns = ns;
        let (schema, rows) = decoded?;
        s.codec_ns += s.wire_encode_ns + s.resp_encode_ns + s.resp_decode_ns + s.wire_decode_ns;
        drop(root);

        if fresh {
            // the release server does not run this; see the module comment
            let graph = bind_select(self.cache.catalog(), &select, &HashMap::new())?;
            rec.time("verify.plan", || {
                rcc_verify::verify_plan(self.cache.catalog(), &graph.constraint, &compiled.plan)
            });
        }
        Ok(Served {
            schema,
            rows,
            used_remote,
            sample: s,
        })
    }
}
