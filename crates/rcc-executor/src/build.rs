//! Plan preparation and the phased execution driver.
//!
//! A plan is prepared for execution once ([`Executable::prepare`]): names
//! are resolved, expressions compiled and output schemas derived into an
//! immutable tree that any number of executions, on any number of threads,
//! create their operators from. An execution binds its statement-slot
//! values where an operator reads them — a seek range at scan open, an
//! expression's slot leaves at operator open, shipped SQL when a remote
//! branch opens — so running a prepared plan copies none of it.

use crate::batch::{Batch, PhysExpr};
use crate::context::ExecContext;
use crate::ops::*;
use rcc_common::{Error, Result, Row, Schema};
use rcc_optimizer::graph::JoinKind;
use rcc_optimizer::physical::{AccessPath, SqlText};
use rcc_optimizer::{CurrencyGuard, PhysicalPlan};
use rcc_storage::StorageEngine;
use std::time::Instant;

/// Elapsed wall time per execution phase — the breakdown the paper's
/// Table 4.5 reports (setup plan / run plan / shutdown plan).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Creating the operator tree and opening the root (and, for a plan
    /// executed without having been prepared, preparing it).
    pub setup: std::time::Duration,
    /// Producing all rows.
    pub run: std::time::Duration,
    /// Closing the tree.
    pub shutdown: std::time::Duration,
}

impl PhaseTimings {
    /// Total elapsed time.
    pub fn total(&self) -> std::time::Duration {
        self.setup + self.run + self.shutdown
    }
}

/// A completed query: schema, rows and per-phase timings.
#[derive(Debug, Clone)]
pub struct ExecutionResult {
    /// Output schema.
    pub schema: Schema,
    /// All output rows.
    pub rows: Vec<Row>,
    /// Phase breakdown.
    pub timings: PhaseTimings,
}

/// A physical plan prepared for execution: per operator, what depends only
/// on the plan and the catalog — a scan's stored-column mapping and its
/// residual in both ordinal spaces, compiled projections, join and group
/// keys and HAVING, output schemas, and where each statement slot stands
/// (seek-range ends, expression leaves, spans of shipped SQL). Immutable,
/// so one executable serves concurrent executions; each creates its
/// operators from it ([`Executable::operator`]), and they own only
/// execution state.
#[derive(Debug)]
pub struct Executable {
    root: Node,
    /// The plan prepared: debug builds hold every execution's bindings to
    /// it ([`PhysicalPlan::with_slots`] is the reference).
    #[cfg(debug_assertions)]
    plan: PhysicalPlan,
}

/// One prepared plan node. Nodes whose output schema is their input's keep
/// none of their own.
#[derive(Debug)]
pub(crate) enum Node {
    OneRow(Schema),
    LocalScan {
        scan: ScanPlan,
        access: AccessPath,
    },
    RemoteQuery {
        sql: SqlText,
        schema: Schema,
    },
    SwitchUnion {
        guard: CurrencyGuard,
        /// The guard's certified decision: (this node's number, takes the
        /// local arm).
        decided: Option<(usize, bool)>,
        local: Box<Node>,
        remote: Box<Node>,
    },
    Filter {
        input: Box<Node>,
        predicate: PhysExpr,
    },
    Project {
        input: Box<Node>,
        exprs: Vec<PhysExpr>,
        schema: Schema,
    },
    HashJoin {
        left: Box<Node>,
        right: Box<Node>,
        left_keys: Vec<PhysExpr>,
        right_keys: Vec<PhysExpr>,
        kind: JoinKind,
        schema: Schema,
    },
    MergeJoin {
        left: Box<Node>,
        right: Box<Node>,
        left_key: PhysExpr,
        right_key: PhysExpr,
        schema: Schema,
    },
    IndexNLJoin {
        outer: Box<Node>,
        outer_key: PhysExpr,
        inner: InnerPlan,
        kind: JoinKind,
        schema: Schema,
    },
    HashAggregate {
        input: Box<Node>,
        aggregate: AggregatePlan,
    },
    Sort {
        input: Box<Node>,
        keys: Vec<(usize, bool)>,
    },
    Limit {
        input: Box<Node>,
        n: u64,
    },
    Distinct {
        input: Box<Node>,
    },
}

/// What wraps each operator as it is created: its node's pre-order number
/// (a parent before its children) and the operator, in; what the parent is
/// built over, out.
pub(crate) type Wrap<'w, 'a> = &'w mut dyn FnMut(usize, BoxedOp<'a>) -> BoxedOp<'a>;

impl Node {
    /// Prepare `plan`, whose root has pre-order number `*next`, advancing
    /// `next` past its subtree. `decided` holds certified guard decisions
    /// by node number ([`Executable::prepare`]).
    fn prepare(
        plan: &PhysicalPlan,
        storage: &StorageEngine,
        decided: &[(usize, bool)],
        next: &mut usize,
    ) -> Result<Node> {
        let number = *next;
        *next += 1;
        let decision = decided.iter().find(|(n, _)| *n == number).copied();
        let bears_guard = match plan {
            PhysicalPlan::SwitchUnion { .. } => true,
            PhysicalPlan::IndexNLJoin { inner, .. } => inner.guard.is_some() && !inner.force_remote,
            _ => false,
        };
        if decision.is_some() && !bears_guard {
            return Err(misplaced(number));
        }
        let mut sub =
            |plan: &PhysicalPlan| Node::prepare(plan, storage, decided, next).map(Box::new);
        let join = |left: &Node, right: &Schema, kind| match kind {
            JoinKind::Inner => left.schema().join(right),
            _ => left.schema().clone(),
        };
        Ok(match plan {
            PhysicalPlan::OneRow => Node::OneRow(Schema::empty()),
            PhysicalPlan::LocalScan(n) => Node::LocalScan {
                scan: ScanPlan::prepare(&n.object, &n.schema, n.residual.as_ref(), storage)?,
                access: n.access.clone(),
            },
            PhysicalPlan::RemoteQuery(n) => Node::RemoteQuery {
                sql: n.sql.clone(),
                schema: n.schema.clone(),
            },
            PhysicalPlan::SwitchUnion {
                guard,
                local,
                remote,
            } => Node::SwitchUnion {
                guard: guard.clone(),
                decided: decision,
                local: sub(local)?,
                remote: sub(remote)?,
            },
            PhysicalPlan::Filter { input, predicate } => {
                let input = sub(input)?;
                let predicate = PhysExpr::compile(predicate, input.schema())?;
                Node::Filter { input, predicate }
            }
            PhysicalPlan::Project { input, exprs } => {
                let input = sub(input)?;
                let schema = project_schema(exprs, input.schema());
                let exprs = (exprs.iter())
                    .map(|(e, _)| PhysExpr::compile(e, input.schema()))
                    .collect::<Result<_>>()?;
                Node::Project {
                    input,
                    exprs,
                    schema,
                }
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                kind,
            } => {
                let (left, right) = (sub(left)?, sub(right)?);
                Node::HashJoin {
                    left_keys: PhysExpr::compile_all(left_keys, left.schema())?,
                    right_keys: PhysExpr::compile_all(right_keys, right.schema())?,
                    schema: join(&left, right.schema(), *kind),
                    kind: *kind,
                    left,
                    right,
                }
            }
            PhysicalPlan::MergeJoin {
                left,
                right,
                left_key,
                right_key,
                kind,
            } => {
                if *kind != JoinKind::Inner {
                    // row at a time, it has no semi/anti (nor `NOT IN`) rules
                    return Err(Error::internal(format!("merge join of kind {kind:?}")));
                }
                let (left, right) = (sub(left)?, sub(right)?);
                Node::MergeJoin {
                    left_key: PhysExpr::compile(left_key, left.schema())?,
                    right_key: PhysExpr::compile(right_key, right.schema())?,
                    schema: join(&left, right.schema(), JoinKind::Inner),
                    left,
                    right,
                }
            }
            PhysicalPlan::IndexNLJoin {
                outer,
                outer_key,
                inner,
                kind,
            } => {
                let outer = sub(outer)?;
                Node::IndexNLJoin {
                    outer_key: PhysExpr::compile(outer_key, outer.schema())?,
                    inner: InnerPlan::prepare(inner, decision, storage)?,
                    schema: join(&outer, &inner.schema, *kind),
                    kind: *kind,
                    outer,
                }
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggs,
                having,
            } => {
                let input = sub(input)?;
                let aggregate =
                    AggregatePlan::prepare(group_by, aggs, having.as_ref(), input.schema())?;
                Node::HashAggregate { input, aggregate }
            }
            PhysicalPlan::Sort { input, keys } => Node::Sort {
                input: sub(input)?,
                keys: keys.clone(),
            },
            PhysicalPlan::Limit { input, n } => Node::Limit {
                input: sub(input)?,
                n: *n,
            },
            PhysicalPlan::Distinct { input } => Node::Distinct { input: sub(input)? },
        })
    }

    /// The output schema the node's operator is created with (a remote
    /// query's columns are retyped as the back-end reports them once open).
    pub(crate) fn schema(&self) -> &Schema {
        match self {
            Node::OneRow(schema)
            | Node::RemoteQuery { schema, .. }
            | Node::Project { schema, .. }
            | Node::HashJoin { schema, .. }
            | Node::MergeJoin { schema, .. }
            | Node::IndexNLJoin { schema, .. } => schema,
            Node::LocalScan { scan, .. } => &scan.schema,
            Node::HashAggregate { aggregate, .. } => &aggregate.schema,
            Node::SwitchUnion { local: input, .. }
            | Node::Filter { input, .. }
            | Node::Sort { input, .. }
            | Node::Limit { input, .. }
            | Node::Distinct { input } => input.schema(),
        }
    }

    /// The operators of this subtree, created in pre-order from `next` on,
    /// each passed through `wrap`.
    fn instantiate<'a>(&'a self, next: &mut usize, wrap: Wrap<'_, 'a>) -> BoxedOp<'a> {
        let number = *next;
        *next += 1;
        let op: BoxedOp<'a> = {
            let mut child = |node: &'a Node| node.instantiate(next, wrap);
            match self {
                Node::OneRow(schema) => Box::new(OneRowOp::new(schema)),
                Node::LocalScan { scan, access } => Box::new(LocalScanOp::new(scan, access)),
                Node::RemoteQuery { sql, schema } => Box::new(RemoteQueryOp::new(sql, schema)),
                Node::SwitchUnion {
                    guard,
                    decided,
                    local,
                    remote,
                } => Box::new(SwitchUnionOp::new(
                    guard,
                    *decided,
                    child(local),
                    child(remote),
                )),
                Node::Filter { input, predicate } => {
                    Box::new(FilterOp::new(child(input), predicate))
                }
                Node::Project {
                    input,
                    exprs,
                    schema,
                } => Box::new(ProjectOp::new(child(input), exprs, schema)),
                Node::HashJoin {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    kind,
                    schema,
                } => Box::new(HashJoinOp::new(
                    child(left),
                    child(right),
                    left_keys,
                    right_keys,
                    *kind,
                    schema,
                )),
                Node::MergeJoin {
                    left,
                    right,
                    left_key,
                    right_key,
                    schema,
                } => Box::new(MergeJoinOp::new(
                    child(left),
                    child(right),
                    left_key,
                    right_key,
                    schema,
                )),
                Node::IndexNLJoin {
                    outer,
                    outer_key,
                    inner,
                    kind,
                    schema,
                } => Box::new(IndexNLJoinOp::new(
                    child(outer),
                    outer_key,
                    inner,
                    *kind,
                    schema,
                )),
                Node::HashAggregate { input, aggregate } => {
                    Box::new(HashAggregateOp::new(child(input), aggregate))
                }
                Node::Sort { input, keys } => Box::new(SortOp::new(child(input), keys)),
                Node::Limit { input, n } => Box::new(LimitOp::new(child(input), *n)),
                Node::Distinct { input } => Box::new(DistinctOp::new(child(input))),
            }
        };
        wrap(number, op)
    }
}

impl Executable {
    /// Prepare `plan` for execution against the objects `storage` holds.
    /// Fails where an operator would fail to compile an expression; a scan
    /// of an object that is not stored (yet) fails when it is opened, as
    /// does one whose object is stored under another schema by then (it
    /// is mapped again at open).
    ///
    /// `decided` lists the guards whose outcome was certified ahead of
    /// time, each as the pre-order number of its node (a parent before its
    /// children, a SwitchUnion's local arm before its remote one) and
    /// whether it takes the local arm. An execution running certified
    /// guards ([`crate::GuardMode::Certified`]) opens that arm without
    /// evaluating the guard. A number that names no SwitchUnion and no
    /// guarded index-join inner is refused.
    pub fn prepare(
        plan: &PhysicalPlan,
        storage: &StorageEngine,
        decided: &[(usize, bool)],
    ) -> Result<Executable> {
        let mut next = 0;
        let root = Node::prepare(plan, storage, decided, &mut next)?;
        if let Some(&(number, _)) = decided.iter().find(|(n, _)| *n >= next) {
            return Err(misplaced(number));
        }
        Ok(Executable {
            root,
            #[cfg(debug_assertions)]
            plan: plan.clone(),
        })
    }

    /// A fresh operator tree for one execution.
    pub fn operator(&self) -> BoxedOp<'_> {
        self.operator_wrapped(&mut |_, op| op)
    }

    /// [`Executable::operator`], each operator passed through `wrap` as it
    /// is created: EXPLAIN ANALYZE meters every operator this way.
    pub(crate) fn operator_wrapped<'a>(&'a self, wrap: Wrap<'_, 'a>) -> BoxedOp<'a> {
        self.root.instantiate(&mut 0, wrap)
    }

    /// Execute to completion under `ctx`, with per-phase timing, keeping
    /// the output columnar. Root batches are counted into
    /// `rcc_batch_produced_total` and their cardinalities observed in the
    /// `rcc_batch_rows_per_batch` histogram.
    pub fn execute(&self, ctx: &ExecContext) -> Result<BatchExecutionResult> {
        self.run(ctx, Instant::now())
    }

    /// [`Executable::execute`], its setup phase timed from `t0`.
    fn run(&self, ctx: &ExecContext, t0: Instant) -> Result<BatchExecutionResult> {
        use std::sync::atomic::Ordering;
        #[cfg(debug_assertions)]
        self.check_bindings(&ctx.slots);
        let mut op = self.operator();
        op.open(ctx)?;
        let t1 = Instant::now();

        let schema = op.schema().clone();
        let mut batches = Vec::new();
        while let Some(batch) = op.next_batch(ctx)? {
            ctx.counters
                .batches_produced
                .fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = ctx.metrics.as_deref() {
                metrics.batch_rows().observe(batch.len() as f64);
            }
            batches.push(batch);
        }
        let t2 = Instant::now();

        op.close(ctx)?;
        let t3 = Instant::now();

        Ok(BatchExecutionResult {
            schema,
            batches,
            timings: PhaseTimings {
                setup: t1 - t0,
                run: t2 - t1,
                shutdown: t3 - t2,
            },
        })
    }
}

/// The reference check: an execution binds its slot values where the
/// prepared plan records them, and [`PhysicalPlan::with_slots`] is the
/// definition of where a plan holds slots. Debug builds hold the two to
/// each other on every execution.
#[cfg(debug_assertions)]
mod mirror {
    use super::*;
    use rcc_common::Value;
    use rcc_optimizer::BoundExpr;

    impl Executable {
        /// Panic unless every seek range, expression slot and shipped text
        /// this executable binds for `slots` is what the plan's
        /// `with_slots(slots)` holds there.
        pub(crate) fn check_bindings(&self, slots: &[Value]) {
            self.root.mirror(&self.plan.with_slots(slots), slots);
        }
    }

    /// Each of `bound`, bound to `slots`, is its `reference` compiled over
    /// `schema` (or both are absent).
    fn exprs<'b, 'r>(
        bound: impl IntoIterator<Item = Option<&'b PhysExpr>>,
        reference: impl IntoIterator<Item = Option<&'r BoundExpr>>,
        schema: &Schema,
        slots: &[Value],
    ) {
        let bind = |e: &PhysExpr| e.bind(slots).into_owned();
        let compile = |e: &BoundExpr| PhysExpr::compile(e, schema).expect("compiled once");
        let bound: Vec<_> = bound.into_iter().map(|e| e.map(bind)).collect();
        let reference: Vec<_> = reference.into_iter().map(|e| e.map(compile)).collect();
        assert_eq!(bound, reference, "a slot bound unlike with_slots");
    }

    /// The expressions of a list of named ones.
    fn named(exprs: &[(BoundExpr, String)]) -> impl Iterator<Item = Option<&BoundExpr>> {
        exprs.iter().map(|(e, _)| Some(e))
    }

    /// A scan's residual, in both ordinal spaces.
    fn scan(scan: &ScanPlan, reference: Option<&BoundExpr>, slots: &[Value]) {
        exprs([scan.residual.as_ref()], [reference], &scan.schema, slots);
        if let (Some(stored), Some(reference)) = (&scan.stored, reference) {
            let compiled = PhysExpr::compile(reference, &scan.schema).expect("compiled once");
            let bound = stored.residual.as_ref().map(|e| e.bind(slots).into_owned());
            assert_eq!(
                bound,
                Some(compiled.remap(&stored.mapping)),
                "a slot bound unlike with_slots"
            );
        }
    }

    impl Node {
        pub(super) fn mirror(&self, reference: &PhysicalPlan, slots: &[Value]) {
            match (self, reference) {
                (Node::LocalScan { scan: s, access }, PhysicalPlan::LocalScan(n)) => {
                    // the reference's range holds its values already
                    assert_eq!(
                        seek(access, slots),
                        seek(&n.access, &[]),
                        "a seek range bound unlike with_slots"
                    );
                    scan(s, n.residual.as_ref(), slots);
                }
                (Node::RemoteQuery { sql, .. }, PhysicalPlan::RemoteQuery(n)) => {
                    assert_eq!(
                        sql.render(slots),
                        *n.sql,
                        "shipped text bound unlike with_slots"
                    );
                }
                (Node::Filter { input, predicate }, PhysicalPlan::Filter { predicate: p, .. }) => {
                    exprs([Some(predicate)], [Some(p)], input.schema(), slots);
                }
                (
                    Node::Project {
                        input, exprs: e, ..
                    },
                    PhysicalPlan::Project { exprs: p, .. },
                ) => {
                    exprs(e.iter().map(Some), named(p), input.schema(), slots);
                }
                (
                    Node::HashJoin {
                        left,
                        right,
                        left_keys,
                        right_keys,
                        ..
                    },
                    PhysicalPlan::HashJoin {
                        left_keys: l,
                        right_keys: r,
                        ..
                    },
                ) => {
                    exprs(
                        left_keys.iter().map(Some),
                        l.iter().map(Some),
                        left.schema(),
                        slots,
                    );
                    exprs(
                        right_keys.iter().map(Some),
                        r.iter().map(Some),
                        right.schema(),
                        slots,
                    );
                }
                (
                    Node::MergeJoin {
                        left,
                        right,
                        left_key,
                        right_key,
                        ..
                    },
                    PhysicalPlan::MergeJoin {
                        left_key: l,
                        right_key: r,
                        ..
                    },
                ) => {
                    exprs([Some(left_key)], [Some(l)], left.schema(), slots);
                    exprs([Some(right_key)], [Some(r)], right.schema(), slots);
                }
                (
                    Node::IndexNLJoin {
                        outer,
                        outer_key,
                        inner,
                        ..
                    },
                    PhysicalPlan::IndexNLJoin {
                        outer_key: k,
                        inner: a,
                        ..
                    },
                ) => {
                    exprs([Some(outer_key)], [Some(k)], outer.schema(), slots);
                    scan(&inner.scan, a.residual.as_ref(), slots);
                    let shipped = inner.access.remote_sql.as_ref().map(|s| s.render(slots));
                    let reference = a.remote_sql.as_ref().map(|s| s.to_string());
                    assert_eq!(shipped, reference, "shipped text bound unlike with_slots");
                }
                (
                    Node::HashAggregate {
                        input,
                        aggregate: g,
                    },
                    PhysicalPlan::HashAggregate {
                        group_by,
                        aggs,
                        having,
                        ..
                    },
                ) => {
                    let args = g.aggs.iter().map(|(_, arg)| arg.as_ref());
                    let keys_and_args = g.group_by.iter().map(Some).chain(args);
                    let reference = named(group_by).chain(aggs.iter().map(|a| a.arg.as_ref()));
                    exprs(keys_and_args, reference, input.schema(), slots);
                    exprs([g.having.as_ref()], [having.as_ref()], &g.schema, slots);
                }
                (Node::OneRow(_), PhysicalPlan::OneRow)
                | (Node::SwitchUnion { .. }, PhysicalPlan::SwitchUnion { .. })
                | (Node::Sort { .. }, PhysicalPlan::Sort { .. })
                | (Node::Limit { .. }, PhysicalPlan::Limit { .. })
                | (Node::Distinct { .. }, PhysicalPlan::Distinct { .. }) => {}
                (node, plan) => panic!("an executable of another plan: {node:?} for {plan:?}"),
            }
            let inputs = self.inputs();
            assert_eq!(
                inputs.len(),
                reference.children().count(),
                "an executable of another plan"
            );
            for (input, child) in inputs.into_iter().zip(reference.children()) {
                input.mirror(child, slots);
            }
        }

        /// The node's inputs, in [`PhysicalPlan::children`] order.
        fn inputs(&self) -> Vec<&Node> {
            match self {
                Node::OneRow(_) | Node::LocalScan { .. } | Node::RemoteQuery { .. } => Vec::new(),
                Node::SwitchUnion { local, remote, .. } => vec![local, remote],
                Node::HashJoin { left, right, .. } | Node::MergeJoin { left, right, .. } => {
                    vec![left, right]
                }
                Node::IndexNLJoin { outer: input, .. }
                | Node::Filter { input, .. }
                | Node::Project { input, .. }
                | Node::HashAggregate { input, .. }
                | Node::Sort { input, .. }
                | Node::Limit { input, .. }
                | Node::Distinct { input } => vec![input],
            }
        }
    }
}

/// The error of a certified decision for a node that bears no guard.
fn misplaced(number: usize) -> Error {
    Error::internal(format!(
        "a certified guard decision for plan node {number}, which bears no guard"
    ))
}

/// A completed query in columnar form: schema, batches and per-phase
/// timings. [`wire::encode_batches`](crate::wire::encode_batches)
/// serializes this directly, without ever materializing [`Row`]s.
#[derive(Debug, Clone)]
pub struct BatchExecutionResult {
    /// Output schema.
    pub schema: Schema,
    /// All output batches, in order.
    pub batches: Vec<Batch>,
    /// Phase breakdown.
    pub timings: PhaseTimings,
}

impl BatchExecutionResult {
    /// Total logical row count across all batches.
    pub fn row_count(&self) -> usize {
        self.batches.iter().map(Batch::len).sum()
    }

    /// Materialize all batches into rows, consuming the result.
    pub fn into_rows(self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.row_count());
        for batch in self.batches {
            out.extend(batch.into_rows());
        }
        out
    }
}

/// Prepare `plan` and execute it to completion with per-phase timing,
/// keeping the output columnar ([`Executable::execute`]). The setup phase
/// includes the preparation, which a caller executing one plan many times
/// pays once by holding the [`Executable`].
pub fn execute_plan_batched(
    plan: &PhysicalPlan,
    ctx: &ExecContext,
) -> Result<BatchExecutionResult> {
    let t0 = Instant::now();
    Executable::prepare(plan, &ctx.storage, &[])?.run(ctx, t0)
}

/// Execute a plan to completion with per-phase timing, materializing the
/// batched output into rows. This is the row-shaped facade over
/// [`execute_plan_batched`] — callers that serialize straight to the wire
/// should use the batched form and skip the row materialization.
pub fn execute_plan(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<ExecutionResult> {
    let result = execute_plan_batched(plan, ctx)?;
    let timings = result.timings;
    let schema = result.schema.clone();
    let rows = result.into_rows();
    Ok(ExecutionResult {
        schema,
        rows,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::GuardMode;
    use parking_lot::Mutex;
    use rcc_common::{Column, DataType, Duration, Error, RegionId, SimClock, Timestamp, Value};
    use rcc_optimizer::graph::JoinKind;
    use rcc_optimizer::physical::{AccessPath, InnerAccess, LocalScanNode, RemoteQueryNode};
    use rcc_optimizer::{AggCall, AggFunc, BoundExpr, CurrencyGuard};
    use rcc_sql::BinaryOp;
    use rcc_storage::{KeyRange, StorageEngine, Table};
    use std::sync::Arc;

    /// A scripted remote service: returns canned rows, counts calls.
    #[derive(Debug, Default)]
    struct FakeRemote {
        rows: Mutex<Vec<Row>>,
        calls: Mutex<Vec<String>>,
        fail: bool,
    }

    impl crate::context::RemoteService for FakeRemote {
        fn execute(&self, sql: &str) -> Result<(Schema, Vec<Row>)> {
            self.calls.lock().push(sql.to_string());
            if self.fail {
                return Err(Error::Remote("backend down".into()));
            }
            Ok((Schema::empty(), self.rows.lock().clone()))
        }
    }

    fn items_schema(q: &str) -> Schema {
        Schema::new(vec![
            Column::new("id", DataType::Int).with_qualifier(q),
            Column::new("grp", DataType::Int).with_qualifier(q),
        ])
    }

    fn ctx_with_items(remote: Option<Arc<FakeRemote>>) -> (ExecContext, SimClock) {
        let storage = Arc::new(StorageEngine::new());
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int),
        ]);
        let mut t = Table::new("items", schema, vec![0]);
        for i in 0..10i64 {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .unwrap();
        }
        t.create_index("ix_grp", vec![1]).unwrap();
        storage.create_table(t).unwrap();
        // heartbeat table: region 1, ts = 95s
        let hb_schema = Schema::new(vec![
            Column::new("region_id", DataType::Int),
            Column::new("ts", DataType::Timestamp),
        ]);
        let mut hb = Table::new("heartbeat_cr1", hb_schema, vec![0]);
        hb.insert(Row::new(vec![Value::Int(1), Value::Timestamp(95_000)]))
            .unwrap();
        storage.create_table(hb).unwrap();
        let clock = SimClock::starting_at(Timestamp(100_000));
        let ctx = ExecContext::new(
            storage,
            remote.map(|r| r as Arc<dyn crate::context::RemoteService>),
            Arc::new(clock.clone()),
        );
        (ctx, clock)
    }

    fn scan(access: AccessPath, residual: Option<BoundExpr>) -> PhysicalPlan {
        PhysicalPlan::LocalScan(LocalScanNode {
            object: "items".into(),
            schema: items_schema("t"),
            access,
            residual,
            operand: 0,
            est_rows: 10.0,
        })
    }

    fn run(plan: &PhysicalPlan, ctx: &ExecContext) -> Vec<Row> {
        execute_plan(plan, ctx).unwrap().rows
    }

    #[test]
    fn scan_full_and_ranged() {
        let (ctx, _) = ctx_with_items(None);
        assert_eq!(run(&scan(AccessPath::FullScan, None), &ctx).len(), 10);
        let plan = scan(
            AccessPath::ClusteredRange {
                column: "id".into(),
                range: KeyRange::less_than(Value::Int(3)).into(),
            },
            None,
        );
        assert_eq!(run(&plan, &ctx).len(), 3);
        let plan = scan(
            AccessPath::IndexRange {
                index: "ix_grp".into(),
                column: "grp".into(),
                range: KeyRange::eq(Value::Int(0)).into(),
            },
            None,
        );
        assert_eq!(run(&plan, &ctx).len(), 4);
    }

    #[test]
    fn scan_residual_filters() {
        let (ctx, _) = ctx_with_items(None);
        let residual = BoundExpr::binary(
            BoundExpr::col("t", "grp"),
            BinaryOp::Eq,
            BoundExpr::Literal(Value::Int(1)),
        );
        let rows = run(&scan(AccessPath::FullScan, Some(residual)), &ctx);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn switch_union_takes_local_when_fresh() {
        let remote = Arc::new(FakeRemote::default());
        let (ctx, _) = ctx_with_items(Some(remote.clone()));
        // hb=95s, now=100s, bound=10s → local
        assert_eq!(run(&switch_plan(), &ctx).len(), 10);
        assert!(
            remote.calls.lock().is_empty(),
            "remote branch must not be touched"
        );
    }

    #[test]
    fn switch_union_takes_remote_when_stale() {
        let remote = Arc::new(FakeRemote::default());
        remote
            .rows
            .lock()
            .push(Row::new(vec![Value::Int(99), Value::Int(0)]));
        let (ctx, clock) = ctx_with_items(Some(remote.clone()));
        clock.advance(Duration::from_secs(60)); // hb 95s now ancient
        let rows = run(&switch_plan(), &ctx);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(99));
        assert_eq!(remote.calls.lock().len(), 1);
        assert_eq!(
            ctx.counters
                .remote_branches
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn hash_join_inner_semi_anti() {
        let (ctx, _) = ctx_with_items(None);
        // join items with itself on grp: 10 rows × ~3.33 matches
        let mk = |kind: JoinKind| PhysicalPlan::HashJoin {
            left: Box::new(scan(AccessPath::FullScan, None)),
            right: Box::new(PhysicalPlan::LocalScan(LocalScanNode {
                object: "items".into(),
                schema: items_schema("u"),
                access: AccessPath::ClusteredRange {
                    column: "id".into(),
                    range: KeyRange::less_than(Value::Int(3)).into(),
                },
                residual: None,
                operand: 1,
                est_rows: 3.0,
            })),
            left_keys: vec![BoundExpr::col("t", "grp")],
            right_keys: vec![BoundExpr::col("u", "grp")],
            kind,
        };
        // right side: ids 0,1,2 → one row per grp 0,1,2; every left row matches once
        assert_eq!(run(&mk(JoinKind::Inner), &ctx).len(), 10);
        assert_eq!(run(&mk(JoinKind::Semi), &ctx).len(), 10);
        assert_eq!(run(&mk(JoinKind::Anti), &ctx).len(), 0);
        // inner join output schema is concatenated
        let r = run(&mk(JoinKind::Inner), &ctx);
        assert_eq!(r[0].len(), 4);
    }

    #[test]
    fn index_nl_join_local_seek() {
        let (ctx, _) = ctx_with_items(None);
        let plan = PhysicalPlan::IndexNLJoin {
            outer: Box::new(PhysicalPlan::LocalScan(LocalScanNode {
                object: "items".into(),
                schema: items_schema("t"),
                access: AccessPath::ClusteredRange {
                    column: "id".into(),
                    range: KeyRange::less_than(Value::Int(2)).into(),
                },
                residual: None,
                operand: 0,
                est_rows: 2.0,
            })),
            outer_key: BoundExpr::col("t", "grp"),
            inner: InnerAccess {
                object: "items".into(),
                schema: items_schema("u"),
                seek_col: "grp".into(),
                use_index: Some("ix_grp".into()),
                residual: None,
                guard: None,
                remote_sql: None,
                operand: 1,
                est_rows_per_probe: 3.3,
                force_remote: false,
            },
            kind: JoinKind::Inner,
        };
        // outer rows id 0 (grp 0) and id 1 (grp 1): matches 4 + 3 = 7
        assert_eq!(run(&plan, &ctx).len(), 7);
    }

    #[test]
    fn index_nl_join_guarded_fallback() {
        let remote = Arc::new(FakeRemote::default());
        remote
            .rows
            .lock()
            .push(Row::new(vec![Value::Int(77), Value::Int(0)]));
        let (ctx, clock) = ctx_with_items(Some(remote.clone()));
        clock.advance(Duration::from_secs(60)); // guard will fail
                                                // remote returned one row with grp 0; outer row id 0 has grp 0 → 1 match
        let rows = run(&guarded_join_plan(), &ctx);
        assert_eq!(rows.len(), 1);
        assert_eq!(remote.calls.lock().len(), 1);
    }

    /// The guard of the test region: heartbeat_cr1, bound 10 s.
    fn guard() -> CurrencyGuard {
        CurrencyGuard {
            region: RegionId(1),
            heartbeat_table: "heartbeat_cr1".into(),
            bound: Duration::from_secs(10),
        }
    }

    /// A guarded choice between scanning `items` and shipping the scan.
    fn switch_plan() -> PhysicalPlan {
        PhysicalPlan::SwitchUnion {
            guard: guard(),
            local: Box::new(scan(AccessPath::FullScan, None)),
            remote: Box::new(PhysicalPlan::RemoteQuery(RemoteQueryNode {
                sql: "SELECT id, grp FROM items".into(),
                schema: items_schema("t"),
                operands: [0].into_iter().collect(),
                est_rows: 10.0,
            })),
        }
    }

    /// Item 0 joined on `grp` to a guarded inner over `items`.
    fn guarded_join_plan() -> PhysicalPlan {
        PhysicalPlan::IndexNLJoin {
            outer: Box::new(PhysicalPlan::LocalScan(LocalScanNode {
                object: "items".into(),
                schema: items_schema("t"),
                access: AccessPath::ClusteredRange {
                    column: "id".into(),
                    range: KeyRange::eq(Value::Int(0)).into(),
                },
                residual: None,
                operand: 0,
                est_rows: 1.0,
            })),
            outer_key: BoundExpr::col("t", "grp"),
            inner: InnerAccess {
                object: "items".into(),
                schema: items_schema("u"),
                seek_col: "grp".into(),
                use_index: Some("ix_grp".into()),
                residual: None,
                guard: Some(guard()),
                remote_sql: Some("SELECT u.grp, u.id FROM items u".into()),
                operand: 1,
                est_rows_per_probe: 3.3,
                force_remote: false,
            },
            kind: JoinKind::Inner,
        }
    }

    /// `plan` prepared with `decided` and run under `mode`: its row count,
    /// guards evaluated (each observed, a skipped one not) and guard nodes
    /// skipped.
    fn run_as(
        plan: &PhysicalPlan,
        decided: &[(usize, bool)],
        ctx: &ExecContext,
        mode: GuardMode,
    ) -> (usize, u64, Vec<usize>) {
        let ctx = ExecContext {
            guard_mode: mode,
            meter: Arc::default(),
            ..ctx.clone()
        };
        let executable = Executable::prepare(plan, &ctx.storage, decided).unwrap();
        let rows = executable.execute(&ctx).unwrap().row_count();
        let evals = ctx.meter.guard_eval_count();
        assert_eq!(ctx.take_observations().len() as u64, evals);
        (rows, evals, ctx.meter.take_elided())
    }

    #[test]
    fn a_certified_guard_opens_its_decided_arm_unevaluated() {
        use GuardMode::*;
        let remote = Arc::new(FakeRemote::default());
        let row = Row::new(vec![Value::Int(99), Value::Int(0)]);
        remote.rows.lock().push(row);
        let (ctx, clock) = ctx_with_items(Some(remote.clone()));
        // the heartbeat is fresh, so the guard passes; the decision says
        // remote, so only a skipped guard goes remote: (rows, evals, skips)
        for (decided, mode, run) in [
            (&[(0, false)][..], Evaluate, (10, 1, vec![])),
            (&[(0, false)], Certified, (1, 0, vec![0])),
            (&[(0, false)], ForceLocal, (10, 1, vec![])),
            (&[], Certified, (10, 1, vec![])),
        ] {
            assert_eq!(run_as(&switch_plan(), decided, &ctx, mode), run, "{mode:?}");
        }
        // a stale heartbeat fails the inner's guard; the decision says local
        clock.advance(Duration::from_secs(60));
        for (mode, run) in [(Evaluate, (1, 1, vec![])), (Certified, (4, 0, vec![0]))] {
            assert_eq!(run_as(&guarded_join_plan(), &[(0, true)], &ctx, mode), run);
        }
        assert_eq!(remote.calls.lock().len(), 2);
    }

    #[test]
    fn a_misplaced_decision_is_refused() {
        let (ctx, _) = ctx_with_items(None);
        for plan in [switch_plan(), guarded_join_plan()] {
            for local in [true, false] {
                assert!(Executable::prepare(&plan, &ctx.storage, &[(0, local)]).is_ok());
                // shifted by one: node 1 is a scan, which bears no guard
                let err = Executable::prepare(&plan, &ctx.storage, &[(1, local)]).unwrap_err();
                assert!(matches!(err, Error::Internal(_)), "{err:?}");
                assert!(err.to_string().contains("bears no guard"), "{err}");
            }
            // past the last node
            let past = plan.node_count();
            assert!(Executable::prepare(&plan, &ctx.storage, &[(past, true)]).is_err());
        }
        // an inner that always ships has no guard to decide
        let mut plan = guarded_join_plan();
        if let PhysicalPlan::IndexNLJoin { inner, .. } = &mut plan {
            inner.force_remote = true;
        }
        assert!(Executable::prepare(&plan, &ctx.storage, &[(0, true)]).is_err());
    }

    #[test]
    fn aggregate_with_having_and_empty_input() {
        let (ctx, _) = ctx_with_items(None);
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(scan(AccessPath::FullScan, None)),
            group_by: vec![(BoundExpr::col("t", "grp"), "grp".into())],
            aggs: vec![
                AggCall {
                    func: AggFunc::Count,
                    arg: None,
                    output_name: "n".into(),
                },
                AggCall {
                    func: AggFunc::Sum,
                    arg: Some(BoundExpr::col("t", "id")),
                    output_name: "total".into(),
                },
            ],
            having: Some(BoundExpr::binary(
                BoundExpr::col("#agg", "n"),
                BinaryOp::GtEq,
                BoundExpr::Literal(Value::Int(4)),
            )),
        };
        let rows = run(&plan, &ctx);
        // grp 0 has 4 members (0,3,6,9); grps 1,2 have 3 each → only grp 0
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(0));
        assert_eq!(rows[0].get(1), &Value::Int(4));
        assert_eq!(rows[0].get(2), &Value::Int(18));

        // global aggregate over empty input yields one row with COUNT 0
        let empty = PhysicalPlan::HashAggregate {
            input: Box::new(scan(
                AccessPath::ClusteredRange {
                    column: "id".into(),
                    range: KeyRange::greater_than(Value::Int(100)).into(),
                },
                None,
            )),
            group_by: vec![],
            aggs: vec![AggCall {
                func: AggFunc::Count,
                arg: None,
                output_name: "n".into(),
            }],
            having: None,
        };
        let rows = run(&empty, &ctx);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Value::Int(0));
    }

    #[test]
    fn avg_min_max() {
        let (ctx, _) = ctx_with_items(None);
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(scan(AccessPath::FullScan, None)),
            group_by: vec![],
            aggs: vec![
                AggCall {
                    func: AggFunc::Avg,
                    arg: Some(BoundExpr::col("t", "id")),
                    output_name: "a".into(),
                },
                AggCall {
                    func: AggFunc::Min,
                    arg: Some(BoundExpr::col("t", "id")),
                    output_name: "mn".into(),
                },
                AggCall {
                    func: AggFunc::Max,
                    arg: Some(BoundExpr::col("t", "id")),
                    output_name: "mx".into(),
                },
            ],
            having: None,
        };
        let rows = run(&plan, &ctx);
        assert_eq!(rows[0].get(0), &Value::Float(4.5));
        assert_eq!(rows[0].get(1), &Value::Int(0));
        assert_eq!(rows[0].get(2), &Value::Int(9));
    }

    #[test]
    fn project_filter_sort_limit_distinct() {
        let (ctx, _) = ctx_with_items(None);
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Distinct {
                    input: Box::new(PhysicalPlan::Project {
                        input: Box::new(PhysicalPlan::Filter {
                            input: Box::new(scan(AccessPath::FullScan, None)),
                            predicate: BoundExpr::binary(
                                BoundExpr::col("t", "id"),
                                BinaryOp::Gt,
                                BoundExpr::Literal(Value::Int(1)),
                            ),
                        }),
                        exprs: vec![(BoundExpr::col("t", "grp"), "g".into())],
                    }),
                }),
                keys: vec![(0, false)],
            }),
            n: 2,
        };
        let rows = run(&plan, &ctx);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), &Value::Int(2));
        assert_eq!(rows[1].get(0), &Value::Int(1));
    }

    #[test]
    fn remote_error_propagates() {
        let remote = Arc::new(FakeRemote {
            fail: true,
            ..Default::default()
        });
        let (ctx, _) = ctx_with_items(Some(remote));
        let plan = PhysicalPlan::RemoteQuery(RemoteQueryNode {
            sql: "SELECT 1 x".into(),
            schema: Schema::empty(),
            operands: Default::default(),
            est_rows: 1.0,
        });
        assert!(matches!(execute_plan(&plan, &ctx), Err(Error::Remote(_))));
        // and with no remote configured at all
        let (ctx2, _) = ctx_with_items(None);
        assert!(matches!(execute_plan(&plan, &ctx2), Err(Error::Remote(_))));
    }

    #[test]
    fn one_row_and_timings() {
        let (ctx, _) = ctx_with_items(None);
        let result = execute_plan(&PhysicalPlan::OneRow, &ctx).unwrap();
        assert_eq!(result.rows.len(), 1);
        assert!(result.timings.total() >= result.timings.run);
    }

    /// The batched engine must agree with the row reference engine on every
    /// operator, including with tiny batches forcing multi-batch streams
    /// through every exchange point.
    #[test]
    fn batched_matches_row_reference_engine() {
        let residual = BoundExpr::binary(
            BoundExpr::col("t", "grp"),
            BinaryOp::Eq,
            BoundExpr::Literal(Value::Int(1)),
        );
        let plans = vec![
            scan(AccessPath::FullScan, None),
            scan(AccessPath::FullScan, Some(residual.clone())),
            scan(
                AccessPath::IndexRange {
                    index: "ix_grp".into(),
                    column: "grp".into(),
                    range: KeyRange::eq(Value::Int(0)).into(),
                },
                None,
            ),
            PhysicalPlan::Limit {
                input: Box::new(PhysicalPlan::Sort {
                    input: Box::new(PhysicalPlan::Distinct {
                        input: Box::new(PhysicalPlan::Project {
                            input: Box::new(PhysicalPlan::Filter {
                                input: Box::new(scan(AccessPath::FullScan, None)),
                                predicate: BoundExpr::binary(
                                    BoundExpr::col("t", "id"),
                                    BinaryOp::Gt,
                                    BoundExpr::Literal(Value::Int(1)),
                                ),
                            }),
                            exprs: vec![(BoundExpr::col("t", "grp"), "g".into())],
                        }),
                    }),
                    keys: vec![(0, false)],
                }),
                n: 2,
            },
            PhysicalPlan::HashAggregate {
                input: Box::new(scan(AccessPath::FullScan, None)),
                group_by: vec![(BoundExpr::col("t", "grp"), "grp".into())],
                aggs: vec![AggCall {
                    func: AggFunc::Sum,
                    arg: Some(BoundExpr::col("t", "id")),
                    output_name: "total".into(),
                }],
                having: None,
            },
        ];
        for batch_rows in [1usize, 3, 2048] {
            let (mut ctx, _) = ctx_with_items(None);
            ctx.batch_rows = batch_rows;
            for plan in &plans {
                let batched = execute_plan(plan, &ctx).unwrap();
                let rowwise = crate::rowref::execute_plan_rows(plan, &ctx).unwrap();
                assert_eq!(
                    batched.rows, rowwise.rows,
                    "engines diverged at batch_rows={batch_rows} on {plan:?}"
                );
            }
        }
    }

    #[test]
    fn batched_result_counts_and_materializes() {
        let (ctx, _) = ctx_with_items(None);
        let result = execute_plan_batched(&scan(AccessPath::FullScan, None), &ctx).unwrap();
        assert_eq!(result.row_count(), 10);
        assert!(
            ctx.counters
                .batches_produced
                .load(std::sync::atomic::Ordering::Relaxed)
                >= 1
        );
        assert_eq!(result.into_rows().len(), 10);
    }
}

#[cfg(test)]
mod merge_join_tests {
    use super::*;
    use crate::context::ExecContext;
    use rcc_common::{Column, DataType, Row, Schema, SimClock, Value};
    use rcc_optimizer::graph::JoinKind;
    use rcc_optimizer::physical::{AccessPath, LocalScanNode};
    use rcc_optimizer::BoundExpr;
    use rcc_storage::{KeyRange, StorageEngine, Table};
    use std::sync::Arc;

    fn rig() -> ExecContext {
        let storage = Arc::new(StorageEngine::new());
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        // left: keys 1..=5, right: keys with duplicates {2, 2, 4, 4, 4, 9}
        let mut l = Table::new("l", schema.clone(), vec![0]);
        for k in 1..=5 {
            l.insert(Row::new(vec![Value::Int(k), Value::Int(k * 10)]))
                .unwrap();
        }
        storage.create_table(l).unwrap();
        let schema_r = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("id", DataType::Int),
        ]);
        let mut r = Table::new("r", schema_r, vec![1]); // clustered on id, but we
        for (id, k) in [(1, 2), (2, 2), (3, 4), (4, 4), (5, 4), (6, 9)] {
            r.insert(Row::new(vec![Value::Int(k), Value::Int(id)]))
                .unwrap();
        }
        r.create_index("ix_k", vec![0]).unwrap();
        storage.create_table(r).unwrap();
        ExecContext::new(storage, None, Arc::new(SimClock::new()))
    }

    fn scan(object: &str, qual: &str, cols: [&str; 2], access: AccessPath) -> PhysicalPlan {
        PhysicalPlan::LocalScan(LocalScanNode {
            object: object.into(),
            schema: Schema::new(vec![
                Column::new(cols[0], DataType::Int).with_qualifier(qual),
                Column::new(cols[1], DataType::Int).with_qualifier(qual),
            ]),
            access,
            residual: None,
            operand: 0,
            est_rows: 5.0,
        })
    }

    fn merge_plan() -> PhysicalPlan {
        PhysicalPlan::MergeJoin {
            left: Box::new(scan(
                "l",
                "a",
                ["k", "v"],
                AccessPath::ClusteredRange {
                    column: "k".into(),
                    range: KeyRange::all().into(),
                },
            )),
            // right side ordered on k via the secondary index
            right: Box::new(scan(
                "r",
                "b",
                ["k", "id"],
                AccessPath::IndexRange {
                    index: "ix_k".into(),
                    column: "k".into(),
                    range: KeyRange::all().into(),
                },
            )),
            left_key: BoundExpr::col("a", "k"),
            right_key: BoundExpr::col("b", "k"),
            kind: JoinKind::Inner,
        }
    }

    #[test]
    fn merge_join_handles_duplicates_and_gaps() {
        let ctx = rig();
        let result = execute_plan(&merge_plan(), &ctx).unwrap();
        // matches: k=2 → 2 rows, k=4 → 3 rows; k=1,3,5 unmatched; k=9 right-only
        assert_eq!(result.rows.len(), 5);
        let mut keys: Vec<i64> = result
            .rows
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        keys.sort();
        assert_eq!(keys, vec![2, 2, 4, 4, 4]);
        // joined rows carry columns from both sides
        assert_eq!(result.rows[0].len(), 4);
    }

    #[test]
    fn merge_join_agrees_with_hash_join() {
        let ctx = rig();
        let merge = execute_plan(&merge_plan(), &ctx).unwrap();
        let hash = PhysicalPlan::HashJoin {
            left: Box::new(scan(
                "l",
                "a",
                ["k", "v"],
                AccessPath::ClusteredRange {
                    column: "k".into(),
                    range: KeyRange::all().into(),
                },
            )),
            right: Box::new(scan("r", "b", ["k", "id"], AccessPath::FullScan)),
            left_keys: vec![BoundExpr::col("a", "k")],
            right_keys: vec![BoundExpr::col("b", "k")],
            kind: JoinKind::Inner,
        };
        let hash = execute_plan(&hash, &ctx).unwrap();
        let mut a = merge.rows.clone();
        let mut b = hash.rows.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn merge_join_empty_sides() {
        let ctx = rig();
        // empty left (impossible range)
        let plan = PhysicalPlan::MergeJoin {
            left: Box::new(scan(
                "l",
                "a",
                ["k", "v"],
                AccessPath::ClusteredRange {
                    column: "k".into(),
                    range: KeyRange::greater_than(Value::Int(100)).into(),
                },
            )),
            right: Box::new(scan(
                "r",
                "b",
                ["k", "id"],
                AccessPath::IndexRange {
                    index: "ix_k".into(),
                    column: "k".into(),
                    range: KeyRange::all().into(),
                },
            )),
            left_key: BoundExpr::col("a", "k"),
            right_key: BoundExpr::col("b", "k"),
            kind: JoinKind::Inner,
        };
        assert!(execute_plan(&plan, &ctx).unwrap().rows.is_empty());
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use crate::context::ExecContext;
    use rcc_common::{Column, DataType, Row, Schema, SimClock, Value};
    use rcc_optimizer::graph::JoinKind;
    use rcc_optimizer::physical::{AccessPath, LocalScanNode};
    use rcc_optimizer::BoundExpr;
    use rcc_storage::{KeyRange, StorageEngine, Table};
    use std::sync::Arc;

    /// A table with NULLs in the join column.
    fn rig_with_nulls() -> ExecContext {
        let storage = Arc::new(StorageEngine::new());
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("k", DataType::Int),
        ]);
        let mut t = Table::new("n", schema, vec![0]);
        for (id, k) in [
            (1, Some(10)),
            (2, None),
            (3, Some(10)),
            (4, None),
            (5, Some(20)),
        ] {
            t.insert(Row::new(vec![
                Value::Int(id),
                k.map(Value::Int).unwrap_or(Value::Null),
            ]))
            .unwrap();
        }
        storage.create_table(t).unwrap();
        ExecContext::new(storage, None, Arc::new(SimClock::new()))
    }

    fn scan(qual: &str) -> PhysicalPlan {
        PhysicalPlan::LocalScan(LocalScanNode {
            object: "n".into(),
            schema: Schema::new(vec![
                Column::new("id", DataType::Int).with_qualifier(qual),
                Column::new("k", DataType::Int).with_qualifier(qual),
            ]),
            access: AccessPath::ClusteredRange {
                column: "id".into(),
                range: KeyRange::all().into(),
            },
            residual: None,
            operand: 0,
            est_rows: 5.0,
        })
    }

    fn self_join(kind: JoinKind) -> PhysicalPlan {
        PhysicalPlan::HashJoin {
            left: Box::new(scan("a")),
            right: Box::new(scan("b")),
            left_keys: vec![BoundExpr::col("a", "k")],
            right_keys: vec![BoundExpr::col("b", "k")],
            kind,
        }
    }

    #[test]
    fn null_keys_never_match_in_hash_joins() {
        let ctx = rig_with_nulls();
        // inner: non-null keys 10,10,20 self-join → 2×2 + 1 = 5 matches
        let inner = execute_plan(&self_join(JoinKind::Inner), &ctx).unwrap();
        assert_eq!(inner.rows.len(), 5);
        // semi: rows with non-null matched keys = ids 1,3,5
        let semi = execute_plan(&self_join(JoinKind::Semi), &ctx).unwrap();
        assert_eq!(semi.rows.len(), 3);
        // anti: NULL-keyed rows never match → they survive (SQL NOT EXISTS
        // with a null correlation finds no match)
        let anti = execute_plan(&self_join(JoinKind::Anti), &ctx).unwrap();
        let ids: Vec<i64> = anti
            .rows
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![2, 4]);
    }

    #[test]
    fn merge_join_skips_null_keys() {
        let ctx = rig_with_nulls();
        // order both sides by k via... clustered scan is ordered by id, not
        // k — build trivially ordered single-row-ish case by filtering
        let plan = PhysicalPlan::MergeJoin {
            left: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("a")),
                predicate: BoundExpr::binary(
                    BoundExpr::col("a", "id"),
                    rcc_sql::BinaryOp::LtEq,
                    BoundExpr::Literal(Value::Int(2)),
                ),
            }),
            right: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("b")),
                predicate: BoundExpr::binary(
                    BoundExpr::col("b", "id"),
                    rcc_sql::BinaryOp::LtEq,
                    BoundExpr::Literal(Value::Int(2)),
                ),
            }),
            // joining on id (the clustered order) but rows 1 and 2 carry a
            // NULL k — join on k instead would break order; join on id and
            // check NULL handling via k on a second assert below
            left_key: BoundExpr::col("a", "id"),
            right_key: BoundExpr::col("b", "id"),
            kind: JoinKind::Inner,
        };
        let r = execute_plan(&plan, &ctx).unwrap();
        assert_eq!(r.rows.len(), 2, "ids 1 and 2 match themselves");
    }

    #[test]
    fn distinct_treats_equal_numerics_as_duplicates() {
        let ctx = rig_with_nulls();
        let plan = PhysicalPlan::Distinct {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(scan("a")),
                exprs: vec![(BoundExpr::col("a", "k"), "k".into())],
            }),
        };
        let r = execute_plan(&plan, &ctx).unwrap();
        // distinct over {10, NULL, 10, NULL, 20} → {10, NULL, 20}
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn limit_zero_and_overlong() {
        let ctx = rig_with_nulls();
        let zero = PhysicalPlan::Limit {
            input: Box::new(scan("a")),
            n: 0,
        };
        assert!(execute_plan(&zero, &ctx).unwrap().rows.is_empty());
        let long = PhysicalPlan::Limit {
            input: Box::new(scan("a")),
            n: 1000,
        };
        assert_eq!(execute_plan(&long, &ctx).unwrap().rows.len(), 5);
    }

    /// Every edge-case plan must agree between the batched engine and the
    /// row reference engine, row for row, in order.
    #[test]
    fn batched_matches_row_reference_on_edge_cases() {
        let ctx = rig_with_nulls();
        let plans = vec![
            self_join(JoinKind::Inner),
            self_join(JoinKind::Semi),
            self_join(JoinKind::Anti),
            PhysicalPlan::Distinct {
                input: Box::new(PhysicalPlan::Project {
                    input: Box::new(scan("a")),
                    exprs: vec![(BoundExpr::col("a", "k"), "k".into())],
                }),
            },
            PhysicalPlan::Limit {
                input: Box::new(scan("a")),
                n: 3,
            },
        ];
        for plan in &plans {
            let batched = execute_plan(plan, &ctx).unwrap();
            let rowwise = crate::rowref::execute_plan_rows(plan, &ctx).unwrap();
            assert_eq!(batched.rows, rowwise.rows, "plan diverged: {plan:?}");
        }
    }

    #[test]
    fn filter_on_null_comparison_drops_rows() {
        let ctx = rig_with_nulls();
        // k = 10 is NULL for null rows → not truthy → dropped
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan("a")),
            predicate: BoundExpr::binary(
                BoundExpr::col("a", "k"),
                rcc_sql::BinaryOp::Eq,
                BoundExpr::Literal(Value::Int(10)),
            ),
        };
        assert_eq!(execute_plan(&plan, &ctx).unwrap().rows.len(), 2);
        // IS NULL finds them
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan("a")),
            predicate: BoundExpr::IsNull {
                expr: Box::new(BoundExpr::col("a", "k")),
                negated: false,
            },
        };
        assert_eq!(execute_plan(&plan, &ctx).unwrap().rows.len(), 2);
    }
}
