//! The physical operators — vectorized batch edition.
//!
//! Every operator is created from a plan prepared for execution
//! ([`crate::Executable`]) and borrows what the preparation resolved — its
//! expressions compiled to ordinals ([`PhysExpr`]), its output schema, a
//! scan's stored-column mapping — owning only execution state. It follows
//! the batched volcano discipline: `open` acquires resources, binds the
//! execution's slot values where it reads them and computes what its
//! strategy cannot stream (hash tables, guard decisions, aggregates,
//! sorts); `next_batch` yields a [`Batch`] of typed columns of up to
//! `ctx.batch_rows` logical rows at a time; `close` releases.
//! Operators never return an empty batch — exhaustion is `None` — so
//! consumers can loop on `next_batch` without special-casing zero rows.
//!
//! Scans stream: a [`LocalScanOp`] pins a snapshot in `open` and
//! fills one batch per `next_batch` from a cursor over it, a storage chunk
//! at a time — a chunk it covers whole through the chunk's typed image,
//! the partial ones at its ends by testing the residual on each stored row
//! — so a rejected row is never copied and a surviving one is copied once,
//! into typed columns. Filters
//! narrow batches with **selection vectors** (ascending physical row
//! indices) instead of copying survivors; expressions run a column at a
//! time ([`crate::kernels`]); joins gather typed columns by index;
//! grouping numbers key tuples without building a key per row
//! ([`crate::groups`]). The original row-at-a-time engine survives as
//! [`crate::rowref`], the differential oracle this engine is held
//! byte-identical to.

use crate::batch::{bind_all, Batch, PhysExpr};
use crate::context::{ExecContext, ExecCounters};
use crate::groups::GroupTable;
use crate::guard::choose_local;
use rcc_common::{DataType, Error, Result, Row, Schema, Value};
use rcc_optimizer::graph::JoinKind;
use rcc_optimizer::physical::{AccessPath, InnerAccess, SqlText};
use rcc_optimizer::{AggCall, AggFunc, BoundExpr, CurrencyGuard};
use rcc_sql::{BinaryOp, UnaryOp};
use rcc_storage::column::{Column, ColumnData, ValueRef};
use rcc_storage::{KeyRange, KeySpan, Run, ScanCursor, StorageEngine, Table, TableSnapshot};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};

/// The operator interface.
pub trait Operator: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// Prepare for producing batches.
    fn open(&mut self, ctx: &ExecContext) -> Result<()>;
    /// Produce the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>>;
    /// Release resources.
    fn close(&mut self, ctx: &ExecContext) -> Result<()>;
}

/// Boxed operator tree node, borrowing the executable it was created from.
pub type BoxedOp<'a> = Box<dyn Operator + 'a>;

fn now_millis(ctx: &ExecContext) -> i64 {
    ctx.clock.now().millis()
}

/// Ship SQL to the back-end with remote-ship accounting: round-trip wall
/// time, sub-query count and wire bytes flow into the per-query meter;
/// aggregate counts into the shared [`crate::context::ExecCounters`].
/// Shared with the row reference engine in [`crate::rowref`].
pub(crate) fn ship_remote(ctx: &ExecContext, sql: &str) -> Result<(Schema, Vec<Row>)> {
    use std::sync::atomic::Ordering;
    let remote = ctx
        .remote
        .as_ref()
        .ok_or_else(|| Error::Remote("no back-end connection configured".into()))?;
    let started = std::time::Instant::now();
    let result = remote.execute_traced(sql, ctx.trace.as_ref());
    ctx.meter
        .remote_nanos
        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let (schema, rows, bytes) = result?;
    ctx.meter.remote_queries.fetch_add(1, Ordering::Relaxed);
    ctx.meter.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
    ctx.counters.remote_queries.fetch_add(1, Ordering::Relaxed);
    ctx.counters
        .rows_shipped
        .fetch_add(rows.len() as u64, Ordering::Relaxed);
    Ok((schema, rows))
}

/// The type an expression's values have, derived from the expression and
/// the schema it reads — what `Project` and `HashAggregate` put in their
/// output schema and so on the wire. A reference that does not resolve and
/// a NULL literal are typeless and reported as `Int`. Shared with
/// [`crate::rowref`], so both engines describe a result identically.
pub(crate) fn expr_type(expr: &BoundExpr, input: &Schema) -> DataType {
    match expr {
        BoundExpr::Column { qualifier, name } => input
            .resolve(Some(qualifier), name)
            .map_or(DataType::Int, |i| input.column(i).data_type),
        BoundExpr::Literal(v) | BoundExpr::Slot { value: v, .. } => {
            v.data_type().unwrap_or(DataType::Int)
        }
        BoundExpr::GetDate => DataType::Timestamp,
        BoundExpr::Binary { left, op, right } => match op {
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div => {
                match (expr_type(left, input), expr_type(right, input)) {
                    (DataType::Int, DataType::Int) => DataType::Int,
                    (DataType::Timestamp, DataType::Int) => DataType::Timestamp,
                    _ => DataType::Float,
                }
            }
            _ => DataType::Bool,
        },
        BoundExpr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => expr_type(expr, input),
        BoundExpr::Unary { .. }
        | BoundExpr::Between { .. }
        | BoundExpr::InList { .. }
        | BoundExpr::IsNull { .. } => DataType::Bool,
    }
}

/// The type of an aggregate's result: `COUNT` counts, `AVG` divides,
/// `SUM` / `MIN` / `MAX` keep their argument's type.
pub(crate) fn agg_type(call: &AggCall, input: &Schema) -> DataType {
    match (call.func, &call.arg) {
        (AggFunc::Count, _) => DataType::Int,
        (AggFunc::Avg, _) | (_, None) => DataType::Float,
        (_, Some(arg)) => expr_type(arg, input),
    }
}

/// The output schema of a projection over `input`.
pub(crate) fn project_schema(exprs: &[(BoundExpr, String)], input: &Schema) -> Schema {
    Schema::new(
        exprs
            .iter()
            .map(|(e, name)| rcc_common::Column::new(name.clone(), expr_type(e, input)))
            .collect(),
    )
}

/// The output schema of an aggregation over `input`: group keys, then
/// aggregates, all under the `#agg` qualifier.
pub(crate) fn aggregate_schema(
    group_by: &[(BoundExpr, String)],
    aggs: &[AggCall],
    input: &Schema,
) -> Schema {
    let keys = group_by.iter().map(|(e, name)| (name, expr_type(e, input)));
    let results = aggs.iter().map(|a| (&a.output_name, agg_type(a, input)));
    Schema::new(
        keys.chain(results)
            .map(|(name, t)| rcc_common::Column::new(name.clone(), t).with_qualifier("#agg"))
            .collect(),
    )
}

/// A remote result's schema as the plan names it, typed as the back-end
/// reported it when the two line up (a fully remote plan's schema is
/// typed by the binder's placeholder, the back-end's by its operators);
/// `None` when that is the planned schema itself.
pub(crate) fn adopt_remote_types(planned: &Schema, reported: &Schema) -> Option<Schema> {
    let pairs = || planned.columns().iter().zip(reported.columns());
    if planned.len() != reported.len() || pairs().all(|(p, r)| p.data_type == r.data_type) {
        return None;
    }
    let adopted = pairs().map(|(p, r)| rcc_common::Column {
        data_type: r.data_type,
        ..p.clone()
    });
    Some(Schema::new(adopted.collect()))
}

/// Split buffered rows into dense batches of `target` logical rows.
fn rows_to_batches(width: usize, rows: Vec<Row>, target: usize) -> VecDeque<Batch> {
    let target = target.max(1);
    if rows.is_empty() {
        return VecDeque::new();
    }
    let mut out = VecDeque::with_capacity(rows.len().div_ceil(target));
    let mut rows = rows;
    while rows.len() > target {
        let rest = rows.split_off(target);
        out.push_back(Batch::from_rows(width, rows));
        rows = rest;
    }
    out.push_back(Batch::from_rows(width, rows));
    out
}

/// Cut the rows `order` lists (physical indices into `columns`) into dense
/// batches of `target` rows, gathering each column.
fn gather_batches(columns: &[Column], order: &[u32], target: usize) -> VecDeque<Batch> {
    order
        .chunks(target.max(1))
        .map(|chunk| {
            let cols = columns.iter().map(|c| c.gather(chunk)).collect();
            Batch::from_columns(cols, chunk.len())
        })
        .collect()
}

/// `expr` on every logical row of `batch`, in logical order: the batch's
/// own column when the expression is a bare reference into a dense batch,
/// a computed (or gathered) one otherwise.
fn logical_column<'a>(expr: &PhysExpr, batch: &'a Batch, now: i64) -> Result<Cow<'a, Column>> {
    match (expr.as_column(), &batch.sel) {
        (Some(i), None) => Ok(Cow::Borrowed(&batch.columns[i])),
        _ => expr.eval_column(batch, now).map(Cow::Owned),
    }
}

// ----------------------------------------------------------------- OneRow

/// Emits a single zero-width batch of cardinality one.
pub struct OneRowOp<'a> {
    schema: &'a Schema,
    done: bool,
}

impl<'a> OneRowOp<'a> {
    /// Build; `schema` is the empty schema.
    pub(crate) fn new(schema: &'a Schema) -> OneRowOp<'a> {
        OneRowOp {
            schema,
            done: false,
        }
    }
}

impl Operator for OneRowOp<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }
    fn open(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.done = false;
        Ok(())
    }
    fn next_batch(&mut self, _ctx: &ExecContext) -> Result<Option<Batch>> {
        if self.done {
            Ok(None)
        } else {
            self.done = true;
            Ok(Some(Batch::from_columns(vec![], 1)))
        }
    }
    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        Ok(())
    }
}

// -------------------------------------------------------------- LocalScan

/// What a scan of a stored object needs that depends only on its plan and
/// the catalog: the object, the output schema, the residual compiled over
/// that schema (slots unbound) and, resolved against the object's stored
/// schema, how stored rows map to output rows.
#[derive(Debug)]
pub(crate) struct ScanPlan {
    object: String,
    pub(crate) schema: Schema,
    /// The residual in output ordinals, for an image read through the
    /// mapping.
    pub(crate) residual: Option<PhysExpr>,
    /// `None` when the object was not stored when the scan was prepared.
    pub(crate) stored: Option<StoredShape>,
}

/// How a scan's output is cut out of one stored schema.
#[derive(Debug)]
pub(crate) struct StoredShape {
    /// The stored schema this shape was resolved against.
    schema: Schema,
    /// Output column `c` is stored column `mapping[c]`.
    pub(crate) mapping: Vec<usize>,
    /// The residual in stored ordinals, for the row walk.
    pub(crate) residual: Option<PhysExpr>,
}

impl StoredShape {
    /// Map a scan producing `output` (with `residual` over it) onto rows
    /// stored as `stored`, by column name.
    fn resolve(output: &Schema, residual: Option<&PhysExpr>, stored: &Schema) -> Result<Self> {
        let mapping: Vec<usize> = (output.columns().iter())
            .map(|c| stored.resolve(None, &c.name))
            .collect::<Result<_>>()?;
        Ok(StoredShape {
            schema: stored.clone(),
            residual: residual.map(|p| p.remap(&mapping)),
            mapping,
        })
    }
}

impl ScanPlan {
    /// Prepare a scan of `object` producing `schema`, `residual` over it,
    /// against `storage` as it is now.
    pub(crate) fn prepare(
        object: &str,
        schema: &Schema,
        residual: Option<&BoundExpr>,
        storage: &StorageEngine,
    ) -> Result<ScanPlan> {
        let residual = residual.map(|p| PhysExpr::compile(p, schema)).transpose()?;
        // a scan that cannot be mapped now fails where it always did: at open
        let stored = (storage.table(object).ok()).and_then(|t| {
            StoredShape::resolve(schema, residual.as_ref(), t.snapshot().schema()).ok()
        });
        Ok(ScanPlan {
            object: object.to_string(),
            schema: schema.clone(),
            residual,
            stored,
        })
    }

    /// The kernel of one execution over `table`, its residuals bound to
    /// `slots`. A table whose stored schema is not the one the scan was
    /// prepared against is mapped now.
    fn kernel(&self, table: &Table, slots: &[Value], now: i64) -> Result<ScanKernel<'_>> {
        let image_residual = self.residual.as_ref().map(|p| p.bind(slots));
        Ok(match &self.stored {
            Some(stored) if stored.schema == *table.schema() => ScanKernel {
                mapping: Cow::Borrowed(&stored.mapping),
                residual: stored.residual.as_ref().map(|p| p.bind(slots)),
                image_residual,
                now,
            },
            _ => {
                let stored =
                    StoredShape::resolve(&self.schema, self.residual.as_ref(), table.schema())?;
                ScanKernel {
                    mapping: Cow::Owned(stored.mapping),
                    residual: (stored.residual).map(|p| Cow::Owned(p.bind(slots).into_owned())),
                    image_residual,
                    now,
                }
            }
        })
    }
}

/// The key range an execution with value vector `slots` scans along
/// `access`, and through which index (`None`: the clustered key).
pub(crate) fn seek<'a>(
    access: &'a AccessPath,
    slots: &[Value],
) -> (Option<&'a str>, Cow<'a, KeyRange>) {
    match access {
        AccessPath::FullScan => (None, Cow::Owned(KeyRange::all())),
        AccessPath::ClusteredRange { range, .. } => (None, range.bind(slots)),
        AccessPath::IndexRange { index, range, .. } => (Some(index), range.bind(slots)),
    }
}

/// Scan of a local storage object with access-path pushdown.
pub struct LocalScanOp<'a> {
    scan: &'a ScanPlan,
    access: &'a AccessPath,
    state: ScanState<'a>,
}

enum ScanState<'a> {
    /// Not opened yet (or closed).
    Idle,
    /// A cursor over the snapshot pinned at open; each `next_batch` fills
    /// one batch from it.
    Streaming {
        table: TableSnapshot,
        cursor: ScanCursor,
        kernel: ScanKernel<'a>,
        /// Rows the previous batch held — the room to give the next one.
        room: usize,
    },
}

impl<'a> LocalScanOp<'a> {
    /// Build over a prepared scan.
    pub(crate) fn new(scan: &'a ScanPlan, access: &'a AccessPath) -> LocalScanOp<'a> {
        LocalScanOp {
            scan,
            access,
            state: ScanState::Idle,
        }
    }
}

/// The scan kernel: decide which stored rows survive the residual
/// predicate, and append survivors' mapped columns to typed output columns.
/// A scan takes its span a storage chunk at a time ([`Table::next_run`]):
///
/// * a chunk the span covers whole is read through its typed image — the
///   residual runs over the image columns with [`PhysExpr::select_rows`]
///   and survivors are gathered by typed copy; with no residual, whole
///   column slices are appended;
/// * the partial chunks at a span's ends, and every row an index scan
///   reaches, are walked row by row: the residual, remapped into *stored*
///   ordinals, is tested by reference on the stored row, so a rejected row
///   is never projected or copied.
///
/// Both cut batches at the same surviving row. If the residual fails on an
/// image, that chunk is replayed row by row, so a scan fails exactly when
/// the row walk reaches the failing row — not when a batch, or a `LIMIT`
/// above it, stops before.
struct ScanKernel<'a> {
    /// Output column `c` is stored column `mapping[c]`.
    mapping: Cow<'a, [usize]>,
    /// Residual in stored ordinals, for the row walk.
    residual: Option<Cow<'a, PhysExpr>>,
    /// Residual in output ordinals, for an image read through `mapping`.
    image_residual: Option<Cow<'a, PhysExpr>>,
    now: i64,
}

impl ScanKernel<'_> {
    fn fresh_cols(&self, room: usize) -> Vec<Column> {
        // one `with_capacity` each: a cloned column keeps none of its room
        (0..self.mapping.len())
            .map(|_| Column::with_capacity(room))
            .collect()
    }

    /// Append `row`'s mapped columns to `cols` if it passes the residual.
    fn take(&self, row: &Row, cols: &mut [Column]) -> Result<bool> {
        if let Some(p) = &self.residual {
            if !p.eval_predicate(row.values(), self.now)? {
                return Ok(false);
            }
        }
        for (col, &from) in cols.iter_mut().zip(self.mapping.iter()) {
            col.push_value(row.get(from));
        }
        Ok(true)
    }

    /// Walk `rows` until `room` of them survived: how many rows were taken
    /// and how many of those survived.
    fn take_rows(&self, rows: &[Row], room: usize, cols: &mut [Column]) -> Result<(usize, usize)> {
        let mut survived = 0;
        for (i, row) in rows.iter().enumerate() {
            survived += usize::from(self.take(row, cols)?);
            if survived == room {
                return Ok((i + 1, survived));
            }
        }
        Ok((rows.len(), survived))
    }

    /// [`ScanKernel::take_rows`] over a run of a chunk the scan covers
    /// whole, read through the chunk's image, whose columns are `image`.
    fn take_image(
        &self,
        run: &Run<'_, Row>,
        image: &[&Column],
        room: usize,
        cols: &mut [Column],
    ) -> Result<(usize, usize)> {
        let (from, n) = (run.offset(), run.vals().len());
        let survivors = match &self.image_residual {
            None => None,
            Some(p) => {
                // a resumed chunk reads from where the last batch stopped
                let rows: Option<Vec<u32>> =
                    (from > 0).then(|| (from..from + n).map(|i| i as u32).collect());
                match p.select_rows(image, rows.as_deref(), n, self.now) {
                    Ok(survivors) => Some(survivors),
                    Err(_) => return self.take_rows(run.vals(), room, cols),
                }
            }
        };
        Ok(match survivors {
            None => {
                let k = n.min(room);
                for (col, cells) in cols.iter_mut().zip(image) {
                    col.extend_range(cells, from..from + k);
                }
                (k, k)
            }
            Some(survivors) => {
                let k = survivors.len().min(room);
                let picked = &survivors[..k];
                for (col, cells) in cols.iter_mut().zip(image) {
                    col.extend_from(cells, Some(picked));
                }
                match k < survivors.len() {
                    true => (picked[k - 1] as usize + 1 - from, k),
                    false => (n, k),
                }
            }
        })
    }

    /// Fill one batch of up to `target` surviving rows from the cursor.
    fn fill(
        &self,
        table: &Table,
        cursor: &mut ScanCursor,
        target: usize,
        room: usize,
        counters: &ExecCounters,
    ) -> Result<Option<Batch>> {
        let mut cols = self.fresh_cols(room);
        let (mut filled, mut image_runs, mut row_runs) = (0usize, 0u64, 0u64);
        while filled < target {
            let Some(run) = table.next_run(cursor) else {
                break;
            };
            let image: Option<Vec<&Column>> = match run.covers_chunk() {
                true => Some(self.mapping.iter().map(|&c| run.column(c)).collect()),
                false => None,
            };
            let (taken, survived) = match image {
                Some(image) => {
                    image_runs += 1;
                    self.take_image(&run, &image, target - filled, &mut cols)?
                }
                None => {
                    row_runs += 1;
                    self.take_rows(run.vals(), target - filled, &mut cols)?
                }
            };
            filled += survived;
            table.advance(cursor, taken);
        }
        counters.count_scan_runs(image_runs, row_runs);
        Ok((filled > 0).then(|| Batch::from_columns(cols, filled)))
    }
}

impl Operator for LocalScanOp<'_> {
    fn schema(&self) -> &Schema {
        &self.scan.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        // One immutable snapshot for the whole scan: no lock is held while
        // scanning, and a concurrent refresh publish cannot tear the view.
        let table: TableSnapshot = ctx.storage.table(&self.scan.object)?.snapshot();
        let kernel = self.scan.kernel(&table, &ctx.slots, now_millis(ctx))?;
        let (index, range) = seek(self.access, &ctx.slots);
        let cursor = match index {
            None => table.scan_cursor(&range),
            Some(index) => table.index_cursor(index, &range)?,
        };
        self.state = ScanState::Streaming {
            table,
            cursor,
            kernel,
            room: 0,
        };
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        match &mut self.state {
            ScanState::Idle => Err(Error::internal("LocalScan next_batch before open")),
            ScanState::Streaming {
                table,
                cursor,
                kernel,
                room,
            } => {
                // batches are cut at `batch_rows` *surviving* rows
                let batch =
                    kernel.fill(table, cursor, ctx.batch_rows.max(1), *room, &ctx.counters)?;
                *room = batch.as_ref().map_or(0, Batch::len);
                Ok(batch)
            }
        }
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.state = ScanState::Idle;
        Ok(())
    }
}

// ------------------------------------------------------------ RemoteQuery

/// Ships SQL to the back-end and streams the returned rows as batches.
pub struct RemoteQueryOp<'a> {
    sql: &'a SqlText,
    /// The planned schema, typed as the back-end reported it once open.
    schema: Cow<'a, Schema>,
    buffer: VecDeque<Batch>,
}

impl<'a> RemoteQueryOp<'a> {
    /// Build; the text is rendered with the execution's values at open.
    pub(crate) fn new(sql: &'a SqlText, schema: &'a Schema) -> RemoteQueryOp<'a> {
        RemoteQueryOp {
            sql,
            schema: Cow::Borrowed(schema),
            buffer: VecDeque::new(),
        }
    }
}

impl Operator for RemoteQueryOp<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        let (reported, rows) = ship_remote(ctx, &self.sql.render(&ctx.slots))?;
        for row in &rows {
            if row.len() != self.schema.len() {
                return Err(Error::Remote(format!(
                    "remote result arity {} does not match expected schema arity {}",
                    row.len(),
                    self.schema.len()
                )));
            }
        }
        if let Some(adopted) = adopt_remote_types(&self.schema, &reported) {
            self.schema = Cow::Owned(adopted);
        }
        self.buffer = rows_to_batches(self.schema.len(), rows, ctx.batch_rows);
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecContext) -> Result<Option<Batch>> {
        Ok(self.buffer.pop_front())
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.buffer.clear();
        Ok(())
    }
}

// ------------------------------------------------------------ SwitchUnion

/// The dynamic-plan operator: its selector (the currency guard) is
/// evaluated **once** at open; all batches then come from the chosen
/// branch and the other input is never touched. Batching amortizes the
/// guard further: one evaluation now covers thousands of rows instead of
/// being revisited per row of bookkeeping. A certified guard is not
/// evaluated at all by an execution that runs certified guards: the
/// decision picks the branch.
pub struct SwitchUnionOp<'a> {
    guard: &'a CurrencyGuard,
    /// The guard's certified decision: (node number, takes the local arm).
    decided: Option<(usize, bool)>,
    local: BoxedOp<'a>,
    remote: BoxedOp<'a>,
    use_local: bool,
    opened: bool,
}

impl<'a> SwitchUnionOp<'a> {
    /// Build.
    pub(crate) fn new(
        guard: &'a CurrencyGuard,
        decided: Option<(usize, bool)>,
        local: BoxedOp<'a>,
        remote: BoxedOp<'a>,
    ) -> SwitchUnionOp<'a> {
        SwitchUnionOp {
            guard,
            decided,
            local,
            remote,
            use_local: false,
            opened: false,
        }
    }
}

impl Operator for SwitchUnionOp<'_> {
    fn schema(&self) -> &Schema {
        self.local.schema()
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.use_local = choose_local(ctx, self.guard, self.decided)?;
        self.opened = true;
        if self.use_local {
            self.local.open(ctx)
        } else {
            self.remote.open(ctx)
        }
    }

    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        if self.use_local {
            self.local.next_batch(ctx)
        } else {
            self.remote.next_batch(ctx)
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        if !self.opened {
            return Ok(());
        }
        self.opened = false;
        if self.use_local {
            self.local.close(ctx)
        } else {
            self.remote.close(ctx)
        }
    }
}

// ----------------------------------------------------------------- Filter

/// Predicate filter: narrows each input batch with a selection vector —
/// survivors are never copied.
pub struct FilterOp<'a> {
    input: BoxedOp<'a>,
    prepared: &'a PhysExpr,
    /// `prepared` with the execution's slot values, bound at open.
    predicate: Cow<'a, PhysExpr>,
}

impl<'a> FilterOp<'a> {
    /// Build.
    pub(crate) fn new(input: BoxedOp<'a>, predicate: &'a PhysExpr) -> FilterOp<'a> {
        FilterOp {
            input,
            prepared: predicate,
            predicate: Cow::Borrowed(predicate),
        }
    }
}

impl Operator for FilterOp<'_> {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        self.predicate = self.prepared.bind(&ctx.slots);
        Ok(())
    }
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let now = now_millis(ctx);
        while let Some(batch) = self.input.next_batch(ctx)? {
            let sel = self.predicate.select(&batch, now)?;
            if let Some(metrics) = ctx.metrics.as_deref() {
                metrics
                    .batch_selectivity()
                    .observe(sel.len() as f64 / batch.len() as f64);
            }
            if let Some(narrowed) = batch.narrowed(sel) {
                return Ok(Some(narrowed));
            }
        }
        Ok(None)
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}

// ---------------------------------------------------------------- Project

/// Expression projection over whole batches. Bare-column outputs move or
/// gather the input column wholesale; computed outputs are evaluated a
/// column at a time.
pub struct ProjectOp<'a> {
    input: BoxedOp<'a>,
    prepared: &'a [PhysExpr],
    /// `prepared` with the execution's slot values, bound at open.
    compiled: Cow<'a, [PhysExpr]>,
    schema: &'a Schema,
}

impl<'a> ProjectOp<'a> {
    /// Build; `schema` is the projection's output.
    pub(crate) fn new(
        input: BoxedOp<'a>,
        exprs: &'a [PhysExpr],
        schema: &'a Schema,
    ) -> ProjectOp<'a> {
        ProjectOp {
            input,
            prepared: exprs,
            compiled: Cow::Borrowed(exprs),
            schema,
        }
    }
}

impl Operator for ProjectOp<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        self.compiled = bind_all(self.prepared, &ctx.slots);
        Ok(())
    }
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let now = now_millis(ctx);
        let Some(mut batch) = self.input.next_batch(ctx)? else {
            return Ok(None);
        };
        let n = batch.len();
        // computed and gathered outputs first: they read columns the dense
        // bare-column outputs move out of the batch below
        let mut outputs: Vec<Option<Column>> = self
            .compiled
            .iter()
            .map(|e| match (e.as_column(), &batch.sel) {
                (Some(_), None) => Ok(None),
                _ => e.eval_column(&batch, now).map(Some),
            })
            .collect::<Result<_>>()?;
        // a dense batch gives each bare column away on its last use and
        // clones it for the earlier ones
        for (k, output) in outputs.iter_mut().enumerate() {
            if let (None, Some(i)) = (&output, self.compiled[k].as_column()) {
                let later = &self.compiled[k + 1..];
                *output = Some(match later.iter().any(|e| e.as_column() == Some(i)) {
                    true => batch.columns[i].clone(),
                    false => std::mem::take(&mut batch.columns[i]),
                });
            }
        }
        let columns = outputs
            .into_iter()
            .map(|c| c.expect("every output produced"))
            .collect();
        Ok(Some(Batch::from_columns(columns, n)))
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}

// --------------------------------------------------------------- HashJoin

/// Hash join: builds on the right input, probes with whole left batches.
/// Semi/anti joins narrow the left batch with a selection vector; inner
/// joins gather the matching left and build rows column by column.
pub struct HashJoinOp<'a> {
    left: BoxedOp<'a>,
    right: BoxedOp<'a>,
    left_keys: &'a [PhysExpr],
    right_keys: &'a [PhysExpr],
    /// `left_keys` with the execution's slot values, bound at open.
    compiled_left: Cow<'a, [PhysExpr]>,
    kind: JoinKind,
    schema: &'a Schema,
    /// Every build row, in arrival order.
    build: Vec<Column>,
    /// Build keys, numbered; `matches[g]` lists the build rows of key `g`.
    keys: GroupTable,
    matches: Vec<Vec<u32>>,
    /// Did a build row have a NULL key part? (`NOT IN` asks.)
    build_null: bool,
}

impl<'a> HashJoinOp<'a> {
    /// Build; `schema` is the join's output.
    pub(crate) fn new(
        left: BoxedOp<'a>,
        right: BoxedOp<'a>,
        left_keys: &'a [PhysExpr],
        right_keys: &'a [PhysExpr],
        kind: JoinKind,
        schema: &'a Schema,
    ) -> HashJoinOp<'a> {
        HashJoinOp {
            left,
            right,
            left_keys,
            right_keys,
            compiled_left: Cow::Borrowed(left_keys),
            kind,
            schema,
            build: Vec::new(),
            keys: GroupTable::default(),
            matches: Vec::new(),
            build_null: false,
        }
    }

    /// The build rows matching each logical row of a left batch; `None`
    /// for a row whose key has a NULL part.
    fn probe(&self, batch: &Batch, now: i64) -> Result<Vec<Option<&[u32]>>> {
        let parts = key_columns(&self.compiled_left, batch, now)?;
        let parts: Vec<&Column> = parts.iter().map(|c| c.as_ref()).collect();
        Ok((0..batch.len())
            .map(|k| match self.keys.find(&parts, k) {
                _ if any_null(&parts, k) => None,
                Some(g) => Some(self.matches[g as usize].as_slice()),
                None => Some(&[][..]),
            })
            .collect())
    }
}

/// The key columns of a batch, each in logical row order.
fn key_columns<'a>(keys: &[PhysExpr], batch: &'a Batch, now: i64) -> Result<Vec<Cow<'a, Column>>> {
    keys.iter().map(|e| logical_column(e, batch, now)).collect()
}

/// Is any part of row `row`'s key NULL? (NULL keys never match.)
fn any_null(parts: &[&Column], row: usize) -> bool {
    parts.iter().any(|c| c.is_null(row))
}

impl Operator for HashJoinOp<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        let now = now_millis(ctx);
        self.right.open(ctx)?;
        let right_keys = bind_all(self.right_keys, &ctx.slots);
        self.build = vec![Column::new(); self.right.schema().len()];
        self.keys = GroupTable::new(right_keys.len());
        self.matches.clear();
        self.build_null = false;
        let mut built = 0u32;
        while let Some(batch) = self.right.next_batch(ctx)? {
            let parts = key_columns(&right_keys, &batch, now)?;
            let parts: Vec<&Column> = parts.iter().map(|c| c.as_ref()).collect();
            for k in 0..batch.len() {
                if any_null(&parts, k) {
                    self.build_null = true;
                } else {
                    let g = self.keys.group_of(&parts, k) as usize;
                    if g == self.matches.len() {
                        self.matches.push(Vec::new());
                    }
                    self.matches[g].push(built + k as u32);
                }
            }
            for (all, col) in self.build.iter_mut().zip(&batch.columns) {
                all.extend_from(col, batch.sel.as_deref());
            }
            built += batch.len() as u32;
        }
        self.right.close(ctx)?;
        self.left.open(ctx)?;
        self.compiled_left = bind_all(self.left_keys, &ctx.slots);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let now = now_millis(ctx);
        if self.kind == JoinKind::NullAwareAnti && self.build_null {
            return Ok(None); // a NULL on the build side: no left row survives
        }
        // with no NULL key, a build row is in a key group
        let build_empty = self.matches.is_empty();
        while let Some(batch) = self.left.next_batch(ctx)? {
            let matches = self.probe(&batch, now)?;
            match self.kind {
                JoinKind::Inner => {
                    let (mut left_rows, mut build_rows) = (Vec::new(), Vec::new());
                    for (k, ms) in matches.into_iter().enumerate() {
                        let ms = ms.unwrap_or_default();
                        left_rows.extend(std::iter::repeat_n(batch.phys(k) as u32, ms.len()));
                        build_rows.extend_from_slice(ms);
                    }
                    if !left_rows.is_empty() {
                        let left = batch.columns.iter().map(|c| c.gather(&left_rows));
                        let right = self.build.iter().map(|c| c.gather(&build_rows));
                        let columns = left.chain(right).collect();
                        return Ok(Some(Batch::from_columns(columns, left_rows.len())));
                    }
                }
                kind => {
                    let mut sel: Vec<u32> = Vec::new();
                    for (k, ms) in matches.into_iter().enumerate() {
                        let found = ms.map(|ms| !ms.is_empty());
                        if survives(kind, found, || Ok(build_empty))? {
                            sel.push(batch.phys(k) as u32);
                        }
                    }
                    if let Some(narrowed) = batch.narrowed(sel) {
                        return Ok(Some(narrowed));
                    }
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.build.clear();
        self.keys = GroupTable::default();
        self.matches.clear();
        self.left.close(ctx)
    }
}

// -------------------------------------------------------------- MergeJoin

/// Pulls rows one at a time off a batched input — the streaming shim merge
/// join needs for its lookahead discipline.
struct RowStream<'a> {
    op: BoxedOp<'a>,
    batch: Option<Batch>,
    idx: usize,
}

impl<'a> RowStream<'a> {
    fn new(op: BoxedOp<'a>) -> RowStream<'a> {
        RowStream {
            op,
            batch: None,
            idx: 0,
        }
    }

    fn next_row(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        loop {
            if let Some(batch) = &self.batch {
                if self.idx < batch.len() {
                    let row = batch.row(self.idx);
                    self.idx += 1;
                    return Ok(Some(row));
                }
            }
            match self.op.next_batch(ctx)? {
                Some(batch) => {
                    self.batch = Some(batch);
                    self.idx = 0;
                }
                None => {
                    self.batch = None;
                    return Ok(None);
                }
            }
        }
    }
}

/// Merge join over inputs already sorted (non-decreasing) on the join
/// keys. Handles duplicate keys on both sides by buffering the right-hand
/// group. Inner joins only — the optimizer routes semi/anti joins through
/// the hash path. Works a row at a time, as its lookahead discipline
/// does; output rows are re-batched at `ctx.batch_rows`.
pub struct MergeJoinOp<'a> {
    left: RowStream<'a>,
    right: RowStream<'a>,
    prepared: (&'a PhysExpr, &'a PhysExpr),
    /// The keys with the execution's slot values, bound at open.
    left_key: Cow<'a, PhysExpr>,
    right_key: Cow<'a, PhysExpr>,
    schema: &'a Schema,
    /// current right-hand duplicate group and its key
    right_group: Vec<Row>,
    right_group_key: Option<Value>,
    /// lookahead row already pulled from the right input
    right_pending: Option<Row>,
    /// current left row and the index into the right group
    left_current: Option<(Row, usize)>,
    right_done: bool,
}

impl<'a> MergeJoinOp<'a> {
    /// Build; `schema` is the join's output.
    pub(crate) fn new(
        left: BoxedOp<'a>,
        right: BoxedOp<'a>,
        left_key: &'a PhysExpr,
        right_key: &'a PhysExpr,
        schema: &'a Schema,
    ) -> MergeJoinOp<'a> {
        MergeJoinOp {
            left: RowStream::new(left),
            right: RowStream::new(right),
            prepared: (left_key, right_key),
            left_key: Cow::Borrowed(left_key),
            right_key: Cow::Borrowed(right_key),
            schema,
            right_group: Vec::new(),
            right_group_key: None,
            right_pending: None,
            left_current: None,
            right_done: false,
        }
    }

    fn next_right(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        if let Some(r) = self.right_pending.take() {
            return Ok(Some(r));
        }
        if self.right_done {
            return Ok(None);
        }
        match self.right.next_row(ctx)? {
            Some(r) => Ok(Some(r)),
            None => {
                self.right_done = true;
                Ok(None)
            }
        }
    }

    /// Advance the right-hand group until its key is ≥ `key`; returns true
    /// when the group's key equals `key`.
    fn align_right_group(&mut self, ctx: &ExecContext, key: &Value) -> Result<bool> {
        let now = now_millis(ctx);
        let right_key = self.right_key.clone();
        loop {
            if let Some(gk) = &self.right_group_key {
                match gk.total_cmp(key) {
                    Ordering::Equal => return Ok(true),
                    Ordering::Greater => return Ok(false),
                    Ordering::Less => {}
                }
            }
            // build the next group
            let first = match self.next_right(ctx)? {
                Some(r) => r,
                None => {
                    // exhausted: only match if the last group equals key
                    return Ok(self
                        .right_group_key
                        .as_ref()
                        .map(|gk| gk == key)
                        .unwrap_or(false));
                }
            };
            let gk = right_key.eval(first.values(), now)?;
            let mut group = vec![first];
            while let Some(r) = self.next_right(ctx)? {
                let k = right_key.eval(r.values(), now)?;
                if k == gk {
                    group.push(r);
                } else {
                    self.right_pending = Some(r);
                    break;
                }
            }
            self.right_group = group;
            self.right_group_key = Some(gk);
        }
    }

    /// One output row of the merge, or `None` when the join is drained.
    fn next_joined_row(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        let now = now_millis(ctx);
        let left_key = self.left_key.clone();
        loop {
            // emit the remainder of the current (left row × right group)
            if let Some((row, idx)) = &mut self.left_current {
                if *idx < self.right_group.len() {
                    let out = row.concat(&self.right_group[*idx]);
                    *idx += 1;
                    return Ok(Some(out));
                }
                self.left_current = None;
            }
            let left_row = match self.left.next_row(ctx)? {
                Some(r) => r,
                None => return Ok(None),
            };
            let key = left_key.eval(left_row.values(), now)?;
            if key.is_null() {
                continue; // NULL keys never match
            }
            if self.align_right_group(ctx, &key)? {
                self.left_current = Some((left_row, 0));
            }
        }
    }
}

impl Operator for MergeJoinOp<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.right_group.clear();
        self.right_group_key = None;
        self.right_pending = None;
        self.left_current = None;
        self.right_done = false;
        self.left.op.open(ctx)?;
        self.right.op.open(ctx)?;
        self.left_key = self.prepared.0.bind(&ctx.slots);
        self.right_key = self.prepared.1.bind(&ctx.slots);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let target = ctx.batch_rows.max(1);
        let mut out: Vec<Row> = Vec::new();
        while out.len() < target {
            match self.next_joined_row(ctx)? {
                Some(row) => out.push(row),
                None => break,
            }
        }
        if out.is_empty() {
            Ok(None)
        } else {
            Ok(Some(Batch::from_rows(self.schema.len(), out)))
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.right_group.clear();
        self.left.op.close(ctx)?;
        self.right.op.close(ctx)
    }
}

// ------------------------------------------------------------ IndexNLJoin

/// The inner side of an index nested-loop join, prepared once: the access
/// as planned, the local object it seeks mapped and filtered as a scan,
/// and where a remotely fetched inner row holds its seek key.
#[derive(Debug)]
pub(crate) struct InnerPlan {
    pub(crate) access: InnerAccess,
    pub(crate) scan: ScanPlan,
    seek: usize,
    /// The guard's certified decision: (the join's node number, takes the
    /// local inner).
    decided: Option<(usize, bool)>,
}

impl InnerPlan {
    /// Prepare `access`, whose guard is `decided` if certified, against
    /// `storage` as it is now.
    pub(crate) fn prepare(
        access: &InnerAccess,
        decided: Option<(usize, bool)>,
        storage: &StorageEngine,
    ) -> Result<InnerPlan> {
        Ok(InnerPlan {
            decided,
            scan: ScanPlan::prepare(
                &access.object,
                &access.schema,
                access.residual.as_ref(),
                storage,
            )?,
            seek: access.schema.resolve(None, &access.seek_col)?,
            access: access.clone(),
        })
    }
}

enum InnerMode<'a> {
    /// Probe the local object, against one immutable snapshot pinned at
    /// open — every probe of the join sees the same table state, and no
    /// lock is held across the join. The kernel maps and filters the
    /// stored inner rows.
    Local(TableSnapshot, ScanKernel<'a>),
    /// The guard failed: inner rows were fetched remotely and hashed.
    Hashed(HashMap<Value, Vec<Row>>),
    /// Not opened yet (or closed).
    Idle,
}

/// Index nested-loop join with an optionally guarded inner side, probing
/// one whole outer batch per `next_batch` call. Over a local inner
/// clustered on the seek column the batch is one forward pass
/// (`probe_clustered`); a secondary-index inner is sought key by key,
/// and a remotely fetched one is hashed. Semi/anti joins narrow the outer
/// batch with a selection vector; inner joins gather the outer columns to
/// match the inner ones.
pub struct IndexNLJoinOp<'a> {
    outer: BoxedOp<'a>,
    prepared: &'a PhysExpr,
    /// The outer key with the execution's slot values, bound at open.
    outer_key: Cow<'a, PhysExpr>,
    inner: &'a InnerPlan,
    kind: JoinKind,
    schema: &'a Schema,
    mode: InnerMode<'a>,
    /// For `NOT IN`, once known: does the filtered inner side hold a NULL
    /// seek key, and is it empty?
    inner_null: Option<bool>,
    inner_empty: Option<bool>,
}

/// One outer batch's matches, in outer order and each outer row's in
/// clustered order: the physical outer row of each match, and the matched
/// inner rows' columns — none when only existence is asked and there is no
/// residual to test on them.
struct Matches {
    outer: Vec<u32>,
    inner: Vec<Column>,
}

impl<'a> IndexNLJoinOp<'a> {
    /// Build; `schema` is the join's output.
    pub(crate) fn new(
        outer: BoxedOp<'a>,
        outer_key: &'a PhysExpr,
        inner: &'a InnerPlan,
        kind: JoinKind,
        schema: &'a Schema,
    ) -> IndexNLJoinOp<'a> {
        IndexNLJoinOp {
            outer,
            prepared: outer_key,
            outer_key: Cow::Borrowed(outer_key),
            inner,
            kind,
            schema,
            mode: InnerMode::Idle,
            inner_null: None,
            inner_empty: None,
        }
    }

    /// The inner rows matching each logical row of `batch`, whose keys are
    /// `keys`; a NULL key matches nothing. `gather`: append the matches'
    /// columns.
    fn matches(
        &self,
        batch: &Batch,
        keys: &Column,
        gather: bool,
        ctx: &ExecContext,
    ) -> Result<Matches> {
        let width = if gather {
            self.inner.scan.schema.len()
        } else {
            0
        };
        let mut m = Matches {
            outer: Vec::new(),
            inner: vec![Column::new(); width],
        };
        match &self.mode {
            InnerMode::Local(table, kernel) => match &self.inner.access.use_index {
                None => probe_clustered(table, kernel, batch, keys, &mut m, &ctx.counters)?,
                Some(index) => {
                    let mut row_runs = 0u64;
                    for k in (0..batch.len()).filter(|&k| !keys.is_null(k)) {
                        let range = KeyRange::eq(keys.value(k));
                        let mut cursor = table.index_cursor(index, &range)?;
                        while let Some(run) = table.next_run(&mut cursor) {
                            let (taken, survived) =
                                kernel.take_rows(run.vals(), usize::MAX, &mut m.inner)?;
                            let phys = batch.phys(k) as u32;
                            m.outer.extend(std::iter::repeat_n(phys, survived));
                            table.advance(&mut cursor, taken);
                            row_runs += 1;
                        }
                    }
                    ctx.counters.count_scan_runs(0, row_runs);
                }
            },
            InnerMode::Hashed(map) => {
                for k in (0..batch.len()).filter(|&k| !keys.is_null(k)) {
                    for row in map.get(&keys.value(k)).into_iter().flatten() {
                        for (col, v) in m.inner.iter_mut().zip(row.values()) {
                            col.push_value(v);
                        }
                        m.outer.push(batch.phys(k) as u32);
                    }
                }
            }
            InnerMode::Idle => return Err(Error::internal("IndexNLJoin next before open")),
        }
        Ok(m)
    }

    /// Does the filtered inner side hold a row whose seek column is NULL?
    fn inner_holds_null(&mut self, ctx: &ExecContext) -> Result<bool> {
        if self.inner_null.is_none() {
            let null = KeyRange::eq(Value::Null);
            self.inner_null = Some(match &self.inner.access.use_index {
                None => self.inner_survivor(ctx, |t| Ok(t.scan_cursor(&null)))?,
                Some(index) => self.inner_survivor(ctx, |t| t.index_cursor(index, &null))?,
            });
        }
        Ok(self.inner_null == Some(true))
    }

    /// Is the filtered inner side empty?
    fn inner_is_empty(&mut self, ctx: &ExecContext) -> Result<bool> {
        if self.inner_empty.is_none() {
            let all = KeyRange::all();
            let found = self.inner_survivor(ctx, |t| Ok(t.scan_cursor(&all)))?;
            self.inner_empty = Some(!found);
        }
        Ok(self.inner_empty == Some(true))
    }

    /// Does a row the residual keeps lie on the local inner's `cursor`?
    /// (A remotely fetched inner answers both questions at open.)
    fn inner_survivor(
        &self,
        ctx: &ExecContext,
        cursor: impl FnOnce(&Table) -> Result<ScanCursor>,
    ) -> Result<bool> {
        let InnerMode::Local(table, kernel) = &self.mode else {
            return Err(Error::internal("IndexNLJoin inner facts before open"));
        };
        let mut cursor = cursor(table)?;
        Ok(kernel
            .fill(table, &mut cursor, 1, 0, &ctx.counters)?
            .is_some())
    }
}

/// Are the batch's non-NULL keys in ascending order?
fn ascending(keys: &Column) -> bool {
    let mut last: Option<ValueRef<'_>> = None;
    for k in 0..keys.len() {
        let key = keys.get(k);
        if key.is_null() {
            continue;
        }
        if last.is_some_and(|last| last.total_cmp(key).is_gt()) {
            return false;
        }
        last = Some(key);
    }
    true
}

/// Probe a local inner clustered on the seek column with a whole outer
/// batch: every key's span is found in one forward pass over the table
/// ([`Table::span_finder`]) — in batch order when the keys ascend, else
/// in key order and then read back in batch order — and each span's cells
/// are appended column by column from its chunks' images ([`SpanCopy`]).
/// The residual
/// runs once, over all the matches gathered; if it fails, the matches are
/// replayed a row at a time so the error is the one the first failing
/// row, in output order, raises.
fn probe_clustered(
    table: &Table,
    kernel: &ScanKernel<'_>,
    batch: &Batch,
    keys: &Column,
    m: &mut Matches,
    counters: &ExecCounters,
) -> Result<()> {
    let residual = kernel.image_residual.as_deref();
    if residual.is_some() && m.inner.is_empty() {
        m.inner = kernel.fresh_cols(0);
    }
    let mut copy = SpanCopy {
        table,
        mapping: &kernel.mapping,
        pending: KeySpan::EMPTY,
        runs: 0,
    };
    let mut finder = table.span_finder();
    if ascending(keys) {
        for k in (0..keys.len()).filter(|&k| !keys.is_null(k)) {
            copy.read(batch.phys(k), finder.find(keys.get(k)), m);
        }
    } else {
        let mut order: Vec<u32> = (0..keys.len() as u32)
            .filter(|&k| !keys.is_null(k as usize))
            .collect();
        order.sort_by(|&a, &b| keys.get(a as usize).total_cmp(keys.get(b as usize)));
        let mut spans = vec![KeySpan::EMPTY; keys.len()];
        for k in order {
            spans[k as usize] = finder.find(keys.get(k as usize));
        }
        for (k, span) in spans.into_iter().enumerate() {
            copy.read(batch.phys(k), span, m);
        }
    }
    copy.flush(m);
    counters.count_scan_runs(copy.runs, 0);
    let Some(residual) = residual else {
        return Ok(());
    };
    let n = m.outer.len();
    let columns: Vec<&Column> = m.inner.iter().collect();
    let survivors = match residual.select_rows(&columns, None, n, kernel.now) {
        Ok(survivors) => survivors,
        Err(err) => {
            for i in 0..n {
                let row: Vec<Value> = columns.iter().map(|c| c.value(i)).collect();
                residual.eval_predicate(&row, kernel.now)?;
            }
            return Err(err);
        }
    };
    if survivors.len() < n {
        m.outer = survivors.iter().map(|&i| m.outer[i as usize]).collect();
        m.inner = m.inner.iter().map(|c| c.gather(&survivors)).collect();
    }
    Ok(())
}

/// Appends the inner rows of each outer row's span to a batch's matches,
/// in outer order. The spans of consecutive keys often lie back to back
/// (every customer has orders), so a span that starts where the last one
/// ended only extends it, and the cells of the whole stretch are copied
/// with one `extend_range` per column and chunk.
struct SpanCopy<'t> {
    table: &'t Table,
    /// Output column `c` is stored column `mapping[c]`.
    mapping: &'t [usize],
    /// The stretch read but not copied yet.
    pending: KeySpan,
    /// Chunk runs copied, for `rcc_scan_chunks_total{path="image"}`.
    runs: u64,
}

impl SpanCopy<'_> {
    /// The rows of `span` match the outer row `phys`.
    fn read(&mut self, phys: usize, span: KeySpan, m: &mut Matches) {
        if m.inner.is_empty() {
            // existence only
            if !span.is_empty() {
                m.outer.push(phys as u32);
            }
            return;
        }
        let rows = (self.table.span_runs(span))
            .map(|run| run.vals().len())
            .sum();
        m.outer.extend(std::iter::repeat_n(phys as u32, rows));
        if let Some(both) = self.pending.followed_by(span) {
            self.pending = both;
        } else {
            self.flush(m);
            self.pending = span;
        }
    }

    /// Copy the pending stretch's cells from its chunks' images.
    fn flush(&mut self, m: &mut Matches) {
        for run in self.table.span_runs(self.pending) {
            let cells = run.offset()..run.offset() + run.vals().len();
            for (col, &c) in m.inner.iter_mut().zip(self.mapping) {
                col.extend_range(run.column(c), cells.clone());
            }
            self.runs += 1;
        }
        self.pending = KeySpan::EMPTY;
    }
}

/// Does an outer row survive a semi or anti join? `matched`: whether it
/// found a match, `None` when its key is NULL. Under `NOT IN` a NULL key
/// survives only an empty inner side; `inner_empty` is asked only then.
fn survives(
    kind: JoinKind,
    matched: Option<bool>,
    inner_empty: impl FnOnce() -> Result<bool>,
) -> Result<bool> {
    Ok(match (kind, matched) {
        (JoinKind::NullAwareAnti, None) => inner_empty()?,
        (JoinKind::Semi, matched) => matched == Some(true),
        (_, matched) => matched != Some(true),
    })
}

impl Operator for IndexNLJoinOp<'_> {
    fn schema(&self) -> &Schema {
        self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        let access = &self.inner.access;
        let use_local = if access.force_remote {
            false
        } else {
            match &access.guard {
                Some(g) => choose_local(ctx, g, self.inner.decided)?,
                None => true,
            }
        };
        (self.inner_null, self.inner_empty) = (None, None);
        if use_local {
            let table = ctx.storage.table(&access.object)?.snapshot();
            let kernel = self
                .inner
                .scan
                .kernel(&table, &ctx.slots, now_millis(ctx))?;
            self.mode = InnerMode::Local(table, kernel);
        } else {
            let sql = (access.remote_sql.as_ref())
                .ok_or_else(|| Error::internal("guarded NL inner without a remote fallback"))?;
            let (_, rows) = ship_remote(ctx, &sql.render(&ctx.slots))?;
            (self.inner_null, self.inner_empty) = (Some(false), Some(rows.is_empty()));
            let mut map: HashMap<Value, Vec<Row>> = HashMap::new();
            for row in rows {
                let k = row.get(self.inner.seek).clone();
                match k.is_null() {
                    true => self.inner_null = Some(true),
                    false => map.entry(k).or_default().push(row),
                }
            }
            self.mode = InnerMode::Hashed(map);
        }
        self.outer.open(ctx)?;
        self.outer_key = self.prepared.bind(&ctx.slots);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let now = now_millis(ctx);
        if self.kind == JoinKind::NullAwareAnti && self.inner_holds_null(ctx)? {
            return Ok(None); // a NULL on the inner side: no outer row survives
        }
        while let Some(batch) = self.outer.next_batch(ctx)? {
            let keys = logical_column(&self.outer_key, &batch, now)?;
            match self.kind {
                JoinKind::Inner => {
                    let m = self.matches(&batch, &keys, true, ctx)?;
                    if !m.outer.is_empty() {
                        let outer = batch.columns.iter().map(|c| c.gather(&m.outer));
                        let columns = outer.chain(m.inner).collect();
                        return Ok(Some(Batch::from_columns(columns, m.outer.len())));
                    }
                }
                kind => {
                    // existence only: no column to append matches to
                    let m = self.matches(&batch, &keys, false, ctx)?;
                    let mut matched = vec![false; batch.rows];
                    for &r in &m.outer {
                        matched[r as usize] = true;
                    }
                    let mut sel: Vec<u32> = Vec::new();
                    for k in 0..batch.len() {
                        let r = batch.phys(k);
                        let found = (!keys.is_null(k)).then_some(matched[r]);
                        if survives(kind, found, || self.inner_is_empty(ctx))? {
                            sel.push(r as u32);
                        }
                    }
                    drop(keys);
                    if let Some(narrowed) = batch.narrowed(sel) {
                        return Ok(Some(narrowed));
                    }
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.mode = InnerMode::Idle;
        self.outer.close(ctx)
    }
}

// ---------------------------------------------------------- HashAggregate

/// The running state of one aggregate call, one slot per group id, fed a
/// batch at a time in input order (so float sums keep their bits).
enum Accumulator {
    Count(Vec<i64>),
    /// SUM, or AVG when `avg`.
    Sum {
        sums: Vec<Sum>,
        avg: bool,
    },
    /// MIN keeps a cell that orders `Less` than the best so far, MAX one
    /// that orders `Greater`.
    Extreme {
        best: Vec<Option<Value>>,
        keeps: Ordering,
    },
}

/// One group's SUM / AVG so far: the total of its cells in input order,
/// how many there were, and whether any was a float.
#[derive(Clone, Copy, Default)]
struct Sum {
    total: f64,
    count: i64,
    float: bool,
}

impl Sum {
    #[inline]
    fn add(&mut self, x: f64, float: bool) {
        self.total += x;
        self.count += 1;
        self.float |= float;
    }
}

impl Accumulator {
    fn new(func: AggFunc) -> Accumulator {
        match func {
            AggFunc::Count => Accumulator::Count(Vec::new()),
            AggFunc::Sum | AggFunc::Avg => Accumulator::Sum {
                sums: Vec::new(),
                avg: func == AggFunc::Avg,
            },
            AggFunc::Min | AggFunc::Max => Accumulator::Extreme {
                best: Vec::new(),
                keeps: if func == AggFunc::Min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                },
            },
        }
    }

    /// Make room for `groups` groups.
    fn grow(&mut self, groups: usize) {
        match self {
            Accumulator::Count(n) => n.resize(groups, 0),
            Accumulator::Sum { sums, .. } => sums.resize(groups, Sum::default()),
            Accumulator::Extreme { best, .. } => best.resize(groups, None),
        }
    }

    /// Feed one batch: `groups[k]` is the group of logical row `k`, `arg`
    /// the argument's column (`None`: the call has no argument, which only
    /// `COUNT(*)` counts). NULLs are skipped.
    fn update(&mut self, groups: &[u32], arg: Option<&Column>) -> Result<()> {
        match (self, arg) {
            (Accumulator::Count(n), arg) => {
                // `COUNT(*)`, or a typed column without NULLs: every row counts
                let nullable = arg.filter(|arg| {
                    arg.validity().is_some() || matches!(arg.data(), ColumnData::Any(_))
                });
                match nullable {
                    None => groups.iter().for_each(|&g| n[g as usize] += 1),
                    Some(arg) => (groups.iter().enumerate())
                        .filter(|&(k, _)| !arg.is_null(k))
                        .for_each(|(_, &g)| n[g as usize] += 1),
                }
            }
            (_, None) => {}
            (Accumulator::Sum { sums, .. }, Some(arg)) => add_numbers(sums, groups, arg)?,
            (Accumulator::Extreme { best, keeps }, Some(arg)) => {
                for (k, &g) in groups.iter().enumerate() {
                    let cell = arg.get(k);
                    if cell.is_null() {
                        continue;
                    }
                    let best = &mut best[g as usize];
                    let better = match best {
                        Some(b) => cell.total_cmp(ValueRef::of(b)) == *keeps,
                        None => true,
                    };
                    if better {
                        *best = Some(cell.to_value());
                    }
                }
            }
        }
        Ok(())
    }

    /// The result column, one cell per group.
    fn finish(self) -> Column {
        let values: Vec<Value> = match self {
            Accumulator::Count(n) => n.into_iter().map(Value::Int).collect(),
            Accumulator::Sum { sums, avg } => sums
                .into_iter()
                .map(|sum| match (sum.count, avg, sum.float) {
                    (0, _, _) => Value::Null,
                    (count, true, _) => Value::Float(sum.total / count as f64),
                    (_, false, false) => Value::Int(sum.total as i64),
                    (_, false, true) => Value::Float(sum.total),
                })
                .collect(),
            Accumulator::Extreme { best, .. } => {
                best.into_iter().map(|b| b.unwrap_or(Value::Null)).collect()
            }
        };
        Column::from_values(values)
    }
}

/// Add every non-NULL cell of `arg` to its row's group, as SUM / AVG add,
/// in row order. A column of integers or floats without NULLs is walked as
/// the vector it is, its type settled once for the batch. Any other column
/// goes cell by cell; a cell that is not a number is the type error
/// `Value::as_float` reports.
fn add_numbers(sums: &mut [Sum], groups: &[u32], arg: &Column) -> Result<()> {
    fn add_all(sums: &mut [Sum], groups: &[u32], cells: impl Iterator<Item = f64>, float: bool) {
        for (&g, x) in groups.iter().zip(cells) {
            sums[g as usize].add(x, float);
        }
    }
    match (arg.data(), arg.validity()) {
        (ColumnData::Float(d), None) => add_all(sums, groups, d.iter().copied(), true),
        (ColumnData::Int(d), None) => add_all(sums, groups, d.iter().map(|&i| i as f64), false),
        _ => {
            for (k, &g) in groups.iter().enumerate() {
                let (x, float) = match arg.get(k) {
                    ValueRef::Null => continue,
                    ValueRef::Int(i) => (i as f64, false),
                    ValueRef::Float(f) => (f, true),
                    other => (other.to_value().as_float()?, false),
                };
                sums[g as usize].add(x, float);
            }
        }
    }
    Ok(())
}

/// An aggregation as a plan holds it, its expressions compiled: group keys
/// and aggregate arguments over the input, HAVING over the output.
#[derive(Debug)]
pub(crate) struct AggregatePlan {
    pub(crate) group_by: Vec<PhysExpr>,
    pub(crate) aggs: Vec<(AggFunc, Option<PhysExpr>)>,
    pub(crate) having: Option<PhysExpr>,
    /// Group keys, then aggregates.
    pub(crate) schema: Schema,
}

impl AggregatePlan {
    /// Compile an aggregation over rows of `input`.
    pub(crate) fn prepare(
        group_by: &[(BoundExpr, String)],
        aggs: &[AggCall],
        having: Option<&BoundExpr>,
        input: &Schema,
    ) -> Result<AggregatePlan> {
        let schema = aggregate_schema(group_by, aggs, input);
        let compile = |e: &BoundExpr| PhysExpr::compile(e, input);
        Ok(AggregatePlan {
            group_by: group_by
                .iter()
                .map(|(e, _)| compile(e))
                .collect::<Result<_>>()?,
            aggs: (aggs.iter())
                .map(|a| Ok((a.func, a.arg.as_ref().map(compile).transpose()?)))
                .collect::<Result<_>>()?,
            having: having.map(|h| PhysExpr::compile(h, &schema)).transpose()?,
            schema,
        })
    }
}

/// Hash aggregation with HAVING, consuming whole input batches: group keys
/// are numbered by a [`GroupTable`], each aggregate keeps one vector slot
/// per group, and the result is assembled as columns.
pub struct HashAggregateOp<'a> {
    input: BoxedOp<'a>,
    plan: &'a AggregatePlan,
    results: VecDeque<Batch>,
}

impl<'a> HashAggregateOp<'a> {
    /// Build.
    pub(crate) fn new(input: BoxedOp<'a>, plan: &'a AggregatePlan) -> HashAggregateOp<'a> {
        HashAggregateOp {
            input,
            plan,
            results: VecDeque::new(),
        }
    }
}

impl Operator for HashAggregateOp<'_> {
    fn schema(&self) -> &Schema {
        &self.plan.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        let now = now_millis(ctx);
        let group_by = bind_all(&self.plan.group_by, &ctx.slots);
        let args: Vec<Option<Cow<'_, PhysExpr>>> = (self.plan.aggs.iter())
            .map(|(_, arg)| arg.as_ref().map(|e| e.bind(&ctx.slots)))
            .collect();
        // groups are numbered in first-seen order, which is the output order;
        // without GROUP BY there is the one group, rows or no rows
        let global = group_by.is_empty();
        let mut table = GroupTable::new(group_by.len());
        let mut accumulators: Vec<Accumulator> = (self.plan.aggs.iter())
            .map(|&(func, _)| Accumulator::new(func))
            .collect();
        while let Some(batch) = self.input.next_batch(ctx)? {
            let parts = key_columns(&group_by, &batch, now)?;
            let parts: Vec<&Column> = parts.iter().map(|c| c.as_ref()).collect();
            let groups: Vec<u32> = match global {
                true => vec![0; batch.len()],
                false => table.group_rows(&parts, batch.len()),
            };
            for (acc, arg) in accumulators.iter_mut().zip(&args) {
                acc.grow(if global { 1 } else { table.len() });
                let arg = arg
                    .as_ref()
                    .map(|e| logical_column(e, &batch, now))
                    .transpose()?;
                acc.update(&groups, arg.as_deref())?;
            }
        }
        self.input.close(ctx)?;

        let groups = if global { 1 } else { table.len() };
        let mut columns = table.into_keys();
        for mut acc in accumulators {
            acc.grow(groups);
            columns.push(acc.finish());
        }
        let result = Batch::from_columns(columns, groups);
        let keep: Vec<u32> = match &self.plan.having {
            Some(h) => h.bind(&ctx.slots).select(&result, now)?,
            None => (0..groups as u32).collect(),
        };
        self.results = gather_batches(&result.columns, &keep, ctx.batch_rows);
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecContext) -> Result<Option<Batch>> {
        Ok(self.results.pop_front())
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.results.clear();
        Ok(())
    }
}

// --------------------------------------------------- Sort, Limit, Distinct

/// Full sort on output ordinals: drains the input into one set of columns,
/// sorts a permutation of its rows, then gathers batches in that order.
pub struct SortOp<'a> {
    input: BoxedOp<'a>,
    keys: &'a [(usize, bool)],
    buffer: VecDeque<Batch>,
}

impl<'a> SortOp<'a> {
    /// Build.
    pub(crate) fn new(input: BoxedOp<'a>, keys: &'a [(usize, bool)]) -> SortOp<'a> {
        SortOp {
            input,
            keys,
            buffer: VecDeque::new(),
        }
    }
}

impl Operator for SortOp<'_> {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        let mut columns = vec![Column::new(); self.input.schema().len()];
        let mut rows = 0usize;
        while let Some(batch) = self.input.next_batch(ctx)? {
            for (all, col) in columns.iter_mut().zip(&batch.columns) {
                all.extend_from(col, batch.sel.as_deref());
            }
            rows += batch.len();
        }
        self.input.close(ctx)?;
        let mut order: Vec<u32> = (0..rows as u32).collect();
        // stable, so rows that tie keep their input order
        order.sort_by(|&a, &b| {
            for &(ord, asc) in self.keys {
                let col = &columns[ord];
                let cmp = col.get(a as usize).total_cmp(col.get(b as usize));
                let cmp = if asc { cmp } else { cmp.reverse() };
                if cmp != Ordering::Equal {
                    return cmp;
                }
            }
            Ordering::Equal
        });
        self.buffer = gather_batches(&columns, &order, ctx.batch_rows);
        Ok(())
    }
    fn next_batch(&mut self, _ctx: &ExecContext) -> Result<Option<Batch>> {
        Ok(self.buffer.pop_front())
    }
    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.buffer.clear();
        Ok(())
    }
}

/// LIMIT n: truncates the batch that crosses the limit.
pub struct LimitOp<'a> {
    input: BoxedOp<'a>,
    n: u64,
    produced: u64,
}

impl<'a> LimitOp<'a> {
    /// Build.
    pub(crate) fn new(input: BoxedOp<'a>, n: u64) -> LimitOp<'a> {
        LimitOp {
            input,
            n,
            produced: 0,
        }
    }
}

impl Operator for LimitOp<'_> {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.produced = 0;
        self.input.open(ctx)
    }
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        if self.produced >= self.n {
            return Ok(None);
        }
        match self.input.next_batch(ctx)? {
            Some(mut batch) => {
                let remaining = (self.n - self.produced) as usize;
                if batch.len() > remaining {
                    batch.truncate(remaining);
                }
                self.produced += batch.len() as u64;
                Ok(Some(batch))
            }
            None => Ok(None),
        }
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}

/// DISTINCT over whole rows, narrowing each batch to its first-seen rows
/// with a selection vector.
pub struct DistinctOp<'a> {
    input: BoxedOp<'a>,
    seen: GroupTable,
}

impl<'a> DistinctOp<'a> {
    /// Build.
    pub(crate) fn new(input: BoxedOp<'a>) -> DistinctOp<'a> {
        DistinctOp {
            input,
            seen: GroupTable::default(),
        }
    }
}

impl Operator for DistinctOp<'_> {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.seen = GroupTable::new(self.input.schema().len());
        self.input.open(ctx)
    }
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        while let Some(batch) = self.input.next_batch(ctx)? {
            let parts: Vec<&Column> = batch.columns.iter().collect();
            let mut sel: Vec<u32> = Vec::new();
            for p in (0..batch.len()).map(|k| batch.phys(k)) {
                let known = self.seen.len();
                if self.seen.group_of(&parts, p) as usize == known {
                    sel.push(p as u32); // a row not seen before
                }
            }
            drop(parts);
            if let Some(narrowed) = batch.narrowed(sel) {
                return Ok(Some(narrowed));
            }
        }
        Ok(None)
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.seen = GroupTable::default();
        self.input.close(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_column_of_a_fresh_scan_batch_has_room() {
        let kernel = ScanKernel {
            mapping: Cow::Owned(vec![2, 0, 1]),
            residual: None,
            image_residual: None,
            now: 0,
        };
        for col in kernel.fresh_cols(64) {
            let room = match col.data() {
                ColumnData::Int(cells) => cells.capacity(),
                other => panic!("a fresh column holds no type yet: {other:?}"),
            };
            assert!(room >= 64, "room for {room} cells");
        }
    }
}
