//! EXPLAIN ANALYZE support.
//!
//! [`execute_plan_analyzed`] creates the operator tree any execution of a
//! prepared plan creates ([`crate::Executable`]), with every node wrapped
//! in a metering shim that counts produced rows and accumulates wall time
//! across open/next/close. Reports come back in **pre-order** (parent before
//! children), matching the indentation of `PhysicalPlan::explain`, so a
//! SwitchUnion's untouched branch still appears — marked `never executed`
//! — which is exactly what the paper's "the other inputs are not touched"
//! claim looks like in an ANALYZE printout.

use crate::build::Executable;
use crate::context::ExecContext;
use crate::ops::{BoxedOp, Operator};
use rcc_common::{Result, Row, Schema};
use rcc_optimizer::PhysicalPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-operator atomics the metering shim counts into and the report reads.
#[derive(Debug, Default)]
struct NodeMeter {
    rows: AtomicU64,
    nanos: AtomicU64,
    opened: AtomicU64,
}

/// Post-execution measurements for one operator in the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpReport {
    /// One-line operator label (same text as `PhysicalPlan::explain`; slots
    /// show the values the plan was compiled for).
    pub label: String,
    /// Nesting depth in the plan tree (0 = root).
    pub depth: usize,
    /// Rows this operator produced.
    pub rows: u64,
    /// Wall time spent inside this operator (open + next + close),
    /// including its children's time.
    pub elapsed: Duration,
    /// False for branches the executor never opened (e.g. the untaken
    /// side of a SwitchUnion).
    pub executed: bool,
}

impl OpReport {
    /// Render one line, without indentation.
    pub fn render(&self) -> String {
        if self.executed {
            format!(
                "{} (actual rows={} time={:?})",
                self.label, self.rows, self.elapsed
            )
        } else {
            format!("{} (never executed)", self.label)
        }
    }
}

/// Render a pre-order report list as an indented tree.
pub fn render_reports(reports: &[OpReport]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&"  ".repeat(r.depth));
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

/// A completed EXPLAIN ANALYZE run: the query result plus per-operator
/// measurements.
#[derive(Debug, Clone)]
pub struct AnalyzedExecution {
    /// Output schema.
    pub schema: Schema,
    /// All output rows.
    pub rows: Vec<Row>,
    /// Per-operator reports in pre-order.
    pub reports: Vec<OpReport>,
    /// Total wall time (open + drain + close).
    pub elapsed: Duration,
}

impl AnalyzedExecution {
    /// The indented per-operator printout.
    pub fn render(&self) -> String {
        format!(
            "{}total: {} rows in {:?}\n",
            render_reports(&self.reports),
            self.rows.len(),
            self.elapsed
        )
    }
}

/// Metering shim around one operator.
struct MeteredOp<'a> {
    inner: BoxedOp<'a>,
    meter: &'a NodeMeter,
}

impl Operator for MeteredOp<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.meter.opened.store(1, Ordering::Relaxed);
        let started = Instant::now();
        let out = self.inner.open(ctx);
        self.meter
            .nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<crate::batch::Batch>> {
        let started = Instant::now();
        let out = self.inner.next_batch(ctx);
        self.meter
            .nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // true cardinality under batching: sum logical batch lengths, not
        // next_batch call counts
        if let Ok(Some(batch)) = &out {
            self.meter
                .rows
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        let started = Instant::now();
        let out = self.inner.close(ctx);
        self.meter
            .nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

struct Entry {
    label: String,
    depth: usize,
    meter: NodeMeter,
}

/// A report slot per node of `plan` at `depth`, in pre-order — the order an
/// executable creates its operators in.
fn entries(plan: &PhysicalPlan, depth: usize, out: &mut Vec<Entry>) {
    out.push(Entry {
        label: plan.node_label(),
        depth,
        meter: NodeMeter::default(),
    });
    for child in plan.children() {
        entries(child, depth + 1, out);
    }
}

/// Execute a prepared plan with per-operator metering and collect the
/// reports. `plan` is the plan `executable` was prepared from; it only
/// labels the reports.
pub fn execute_plan_analyzed(
    executable: &Executable,
    plan: &PhysicalPlan,
    ctx: &ExecContext,
) -> Result<AnalyzedExecution> {
    let started = Instant::now();
    #[cfg(debug_assertions)]
    executable.check_bindings(&ctx.slots);
    let mut report = Vec::new();
    entries(plan, 0, &mut report);
    // a metering shim around every operator
    let mut op = executable.operator_wrapped(&mut |number, inner| {
        Box::new(MeteredOp {
            inner,
            meter: &report[number].meter,
        })
    });
    op.open(ctx)?;
    let schema = op.schema().clone();
    let mut rows = Vec::new();
    while let Some(batch) = op.next_batch(ctx)? {
        rows.extend(batch.into_rows());
    }
    op.close(ctx)?;
    drop(op);
    let elapsed = started.elapsed();
    let reports = report
        .into_iter()
        .map(|e| OpReport {
            label: e.label,
            depth: e.depth,
            rows: e.meter.rows.load(Ordering::Relaxed),
            elapsed: Duration::from_nanos(e.meter.nanos.load(Ordering::Relaxed)),
            executed: e.meter.opened.load(Ordering::Relaxed) == 1,
        })
        .collect();
    Ok(AnalyzedExecution {
        schema,
        rows,
        reports,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType, RegionId, SimClock, Timestamp, Value};
    use rcc_optimizer::physical::{AccessPath, LocalScanNode, RemoteQueryNode};
    use rcc_optimizer::{BoundExpr, CurrencyGuard};
    use rcc_sql::BinaryOp;
    use rcc_storage::{StorageEngine, Table};
    use std::sync::Arc;

    fn rig() -> ExecContext {
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
        storage.create_table(t).unwrap();
        let hb_schema = Schema::new(vec![
            Column::new("region_id", DataType::Int),
            Column::new("ts", DataType::Timestamp),
        ]);
        let mut hb = Table::new("heartbeat_cr1", hb_schema, vec![0]);
        hb.insert(Row::new(vec![Value::Int(1), Value::Timestamp(95_000)]))
            .unwrap();
        storage.create_table(hb).unwrap();
        ExecContext::new(
            storage,
            None,
            Arc::new(SimClock::starting_at(Timestamp(100_000))),
        )
    }

    /// `plan` prepared, then run metered.
    fn analyzed(plan: &PhysicalPlan, ctx: &ExecContext) -> AnalyzedExecution {
        let executable = Executable::prepare(plan, &ctx.storage, &[]).unwrap();
        execute_plan_analyzed(&executable, plan, ctx).unwrap()
    }

    fn scan() -> PhysicalPlan {
        PhysicalPlan::LocalScan(LocalScanNode {
            object: "items".into(),
            schema: Schema::new(vec![
                Column::new("id", DataType::Int).with_qualifier("t"),
                Column::new("grp", DataType::Int).with_qualifier("t"),
            ]),
            access: AccessPath::FullScan,
            residual: None,
            operand: 0,
            est_rows: 10.0,
        })
    }

    #[test]
    fn reports_are_preorder_with_row_counts() {
        let ctx = rig();
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::binary(
                BoundExpr::col("t", "grp"),
                BinaryOp::Eq,
                BoundExpr::Literal(Value::Int(0)),
            ),
        };
        let out = analyzed(&plan, &ctx);
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.reports.len(), 2);
        assert!(out.reports[0].label.starts_with("Filter"));
        assert_eq!(out.reports[0].depth, 0);
        assert_eq!(out.reports[0].rows, 4);
        assert!(out.reports[1].label.starts_with("LocalScan"));
        assert_eq!(out.reports[1].depth, 1);
        assert_eq!(out.reports[1].rows, 10);
        let text = out.render();
        assert!(text.contains("actual rows=4"));
        assert!(text.contains("\n  LocalScan"), "child is indented: {text}");
        assert!(text.contains("total: 4 rows"));
    }

    /// Under batching an operator yields far fewer `next_batch` calls than
    /// rows; the meter must still report true cardinalities. Pinned
    /// against the row reference engine on a table spanning multiple
    /// batches.
    #[test]
    fn row_counts_are_true_cardinalities_across_batches() {
        let storage = Arc::new(StorageEngine::new());
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int),
        ]);
        let mut t = Table::new("items", schema, vec![0]);
        let total = 3000i64; // > DEFAULT_BATCH_ROWS → multiple batches
        for i in 0..total {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .unwrap();
        }
        storage.create_table(t).unwrap();
        let ctx = ExecContext::new(storage, None, Arc::new(SimClock::new()));
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::binary(
                BoundExpr::col("t", "grp"),
                BinaryOp::Eq,
                BoundExpr::Literal(Value::Int(0)),
            ),
        };
        let out = analyzed(&plan, &ctx);
        let reference = crate::rowref::execute_plan_rows(&plan, &ctx).unwrap();
        assert_eq!(out.rows, reference.rows);
        assert_eq!(out.reports[0].rows, reference.rows.len() as u64);
        assert_eq!(out.reports[1].rows, total as u64);
        let batched = crate::build::execute_plan_batched(&scan(), &ctx).unwrap();
        assert!(
            batched.batches.len() >= 2,
            "3000 rows must span multiple batches"
        );
    }

    /// A serial scan does its work in `next_batch`, one batch per call:
    /// the meter still counts every row exactly, batch after batch, and
    /// charges the scan its time.
    #[test]
    fn a_streaming_scan_is_metered_batch_by_batch() {
        let storage = Arc::new(StorageEngine::new());
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int),
        ]);
        let mut t = Table::new("items", schema, vec![0]);
        for i in 0..3000i64 {
            t.insert(Row::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .unwrap();
        }
        storage.create_table(t).unwrap();
        let mut ctx = ExecContext::new(storage, None, Arc::new(SimClock::new()));
        ctx.batch_rows = 256;
        let grp_is = |g| {
            BoundExpr::binary(
                BoundExpr::col("t", "grp"),
                BinaryOp::Eq,
                BoundExpr::Literal(Value::Int(g)),
            )
        };
        // a residual in the scan and a filter above it
        let PhysicalPlan::LocalScan(mut node) = scan() else {
            unreachable!()
        };
        node.residual = Some(BoundExpr::Unary {
            op: rcc_sql::UnaryOp::Not,
            expr: Box::new(grp_is(0)),
        });
        let scan = PhysicalPlan::LocalScan(node);
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan.clone()),
            predicate: grp_is(1),
        };
        let out = analyzed(&plan, &ctx);
        assert_eq!(out.rows.len(), 1000);
        assert_eq!((out.reports[0].rows, out.reports[1].rows), (1000, 2000));
        assert!(out.reports[1].elapsed > Duration::ZERO);
        assert!(out.reports[0].elapsed >= out.reports[1].elapsed);
        // the scan cuts its batches at 256 surviving rows: 7 full, one of 208
        let batched = crate::build::execute_plan_batched(&scan, &ctx).unwrap();
        let sizes: Vec<usize> = batched.batches.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [256, 256, 256, 256, 256, 256, 256, 208]);
        // one batch per call, from the first call on
        let executable = Executable::prepare(&scan, &ctx.storage, &[]).unwrap();
        let mut op = executable.operator();
        op.open(&ctx).unwrap();
        assert_eq!(op.next_batch(&ctx).unwrap().map(|b| b.len()), Some(256));
        op.close(&ctx).unwrap();
    }

    #[test]
    fn untaken_switch_union_branch_is_marked() {
        let ctx = rig();
        let plan = PhysicalPlan::SwitchUnion {
            guard: CurrencyGuard {
                region: RegionId(1),
                heartbeat_table: "heartbeat_cr1".into(),
                bound: rcc_common::Duration::from_secs(10),
            },
            local: Box::new(scan()),
            remote: Box::new(PhysicalPlan::RemoteQuery(RemoteQueryNode {
                sql: "SELECT id, grp FROM items".into(),
                schema: Schema::empty(),
                operands: Default::default(),
                est_rows: 10.0,
            })),
        };
        let out = analyzed(&plan, &ctx);
        assert_eq!(out.rows.len(), 10);
        // guard is fresh → local executed, remote untouched
        assert!(out.reports[1].executed);
        assert_eq!(out.reports[1].rows, 10);
        assert!(!out.reports[2].executed);
        assert!(out.reports[2].render().contains("never executed"));
    }
}
