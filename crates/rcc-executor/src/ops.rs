//! The physical operators — vectorized batch edition.
//!
//! Every operator follows the batched volcano discipline: `open` acquires
//! resources, compiles its expressions to ordinals ([`PhysExpr`]) and
//! computes whatever the strategy needs up front (hash tables, guard
//! decisions, buffered scans); `next_batch` yields a columnar [`Batch`] of
//! up to `ctx.batch_rows` logical rows at a time; `close` releases.
//! Operators never return an empty batch — exhaustion is `None` — so
//! consumers can loop on `next_batch` without special-casing zero rows.
//!
//! Filters narrow batches with **selection vectors** (ascending physical
//! row indices) instead of copying survivors, and scans fill column
//! buffers straight out of [`rcc_storage::Table::fill_morsel_columns`] —
//! rejected rows are never materialized, and per-row virtual dispatch,
//! name resolution and `Row` allocation are gone from the hot loop. The
//! original row-at-a-time engine survives as [`crate::rowref`], the
//! differential oracle this engine is held byte-identical to.

use crate::batch::{Batch, BatchSource, PhysExpr, RowSource};
use crate::context::ExecContext;
use crate::guard::evaluate_guard;
use rcc_common::{Error, Result, Row, Schema, Value};
use rcc_optimizer::graph::JoinKind;
use rcc_optimizer::physical::{AccessPath, InnerAccess};
use rcc_optimizer::{AggCall, AggFunc, BoundExpr, CurrencyGuard};
use rcc_storage::{KeyRange, Table, TableSnapshot};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

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

/// Boxed operator tree node.
pub type BoxedOp = Box<dyn Operator>;

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

// ----------------------------------------------------------------- OneRow

/// Emits a single zero-width batch of cardinality one.
pub struct OneRowOp {
    schema: Schema,
    done: bool,
}

impl OneRowOp {
    /// Build.
    pub fn new() -> OneRowOp {
        OneRowOp {
            schema: Schema::empty(),
            done: false,
        }
    }
}

impl Default for OneRowOp {
    fn default() -> Self {
        Self::new()
    }
}

impl Operator for OneRowOp {
    fn schema(&self) -> &Schema {
        &self.schema
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
            Ok(Some(Batch::new(vec![], 1)))
        }
    }
    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        Ok(())
    }
}

// -------------------------------------------------------------- LocalScan

/// Scan of a local storage object with access-path pushdown, producing one
/// columnar batch per morsel.
pub struct LocalScanOp {
    object: String,
    schema: Schema,
    access: AccessPath,
    residual: Option<BoundExpr>,
    buffer: VecDeque<Batch>,
}

impl LocalScanOp {
    /// Build from plan-node fields.
    pub fn new(
        object: String,
        schema: Schema,
        access: AccessPath,
        residual: Option<BoundExpr>,
    ) -> LocalScanOp {
        LocalScanOp {
            object,
            schema,
            access,
            residual,
            buffer: VecDeque::new(),
        }
    }
}

/// The scan kernel: decide per stored row whether it survives the residual
/// predicate, and append survivors' mapped columns to output buffers. The
/// residual is compiled against the scan's *output* schema, then remapped
/// into *stored* ordinals — so it runs directly on stored rows and
/// rejected rows are never projected or copied. One kernel is shared (via
/// `Arc`) by the serial path and all parallel morsels, so both paths run
/// identical per-row code — which keeps them bit-identical.
struct ScanKernel {
    mapping: Arc<Vec<usize>>,
    /// Residual in stored ordinals.
    residual: Option<PhysExpr>,
    now: i64,
}

impl ScanKernel {
    fn keep(&self, row: &Row) -> Result<bool> {
        match &self.residual {
            Some(p) => p.eval_predicate(&RowSource(row.values()), self.now),
            None => Ok(true),
        }
    }

    fn push(&self, row: &Row, cols: &mut [Vec<Value>]) {
        for (c, col) in cols.iter_mut().enumerate() {
            col.push(row.get(self.mapping[c]).clone());
        }
    }

    fn fresh_cols(&self, capacity: usize) -> Vec<Vec<Value>> {
        (0..self.mapping.len())
            .map(|_| Vec::with_capacity(capacity))
            .collect()
    }

    /// Fill one clustered morsel into a single columnar batch.
    fn fill_clustered(
        &self,
        table: &Table,
        range: &KeyRange,
        start: Option<&[Value]>,
        end: Option<&[Value]>,
    ) -> Result<Batch> {
        let mut cols = self.fresh_cols(0);
        let n = table.fill_morsel_columns(
            range,
            start,
            end,
            &self.mapping,
            |row| self.keep(row),
            &mut cols,
        )?;
        Ok(Batch::new(cols, n))
    }
}

/// Inclusive-start / exclusive-end key bounds of one morsel, owned so the
/// bound vector can be scattered across pool workers.
type MorselBounds = (Option<Vec<Value>>, Option<Vec<Value>>);

/// Run one clustered-range scan over an immutable snapshot, splitting it
/// into key-ordered morsels on the context's pool when that is worthwhile
/// (one columnar batch per morsel). Morsel batches are concatenated in
/// morsel order, so the logical row stream is exactly what the serial scan
/// would produce, in the same order.
fn scan_clustered(
    ctx: &ExecContext,
    table: &TableSnapshot,
    range: &KeyRange,
    kernel: &Arc<ScanKernel>,
) -> Result<VecDeque<Batch>> {
    use std::sync::atomic::Ordering;
    if let Some(pool) = ctx.scan_pool.as_ref().filter(|p| p.size() > 1) {
        let plan = table.plan_morsels(range, ctx.morsel_rows.max(1));
        let morsels = plan.morsel_count();
        if morsels >= 2 {
            ctx.counters.parallel_scans.fetch_add(1, Ordering::Relaxed);
            ctx.counters
                .scan_morsels
                .fetch_add(morsels as u64, Ordering::Relaxed);
            if let Some(metrics) = ctx.metrics.as_deref() {
                metrics.scan_morsels().observe(morsels as f64);
            }
            let bounds: Vec<MorselBounds> = (0..morsels)
                .map(|i| {
                    let (start, end) = plan.bounds(i);
                    (start.map(|k| k.to_vec()), end.map(|k| k.to_vec()))
                })
                .collect();
            // One shared fill closure: the snapshot, range and kernel are
            // captured once behind the Arc, not cloned per morsel.
            let table = Arc::clone(table);
            let range = range.clone();
            let kernel = Arc::clone(kernel);
            let fill = Arc::new(move |(start, end): MorselBounds| -> Result<Batch> {
                kernel.fill_clustered(&table, &range, start.as_deref(), end.as_deref())
            });
            return pool
                .scatter_map(bounds, fill)
                .into_iter()
                .filter(|b| !matches!(b, Ok(b) if b.is_empty()))
                .collect();
        }
    }
    ctx.counters.serial_scans.fetch_add(1, Ordering::Relaxed);
    // Serial: one pass over the range, splitting full column buffers off
    // into batches of `ctx.batch_rows` as they fill.
    let target = ctx.batch_rows.max(1);
    let mut batches = VecDeque::new();
    let mut cols = kernel.fresh_cols(target);
    let mut filled = 0usize;
    let mut err: Option<Error> = None;
    table.scan_range(
        range,
        |_| true,
        |row| {
            if err.is_some() {
                return;
            }
            match kernel.keep(row) {
                Ok(true) => {
                    kernel.push(row, &mut cols);
                    filled += 1;
                    if filled == target {
                        let full = std::mem::replace(&mut cols, kernel.fresh_cols(target));
                        batches.push_back(Batch::new(full, filled));
                        filled = 0;
                    }
                }
                Ok(false) => {}
                Err(e) => err = Some(e),
            }
        },
    );
    if let Some(e) = err {
        return Err(e);
    }
    if filled > 0 {
        batches.push_back(Batch::new(cols, filled));
    }
    Ok(batches)
}

/// Run one secondary-index scan over an immutable snapshot. The ordered
/// clustered-key list (the result's spine) is resolved serially from the
/// index; when a pool is available the point lookups are chunked across
/// workers (one batch per chunk) and re-concatenated in chunk order —
/// same rows, same order as the serial path.
fn scan_index(
    ctx: &ExecContext,
    table: &TableSnapshot,
    index: &str,
    range: &KeyRange,
    kernel: &Arc<ScanKernel>,
) -> Result<VecDeque<Batch>> {
    use std::sync::atomic::Ordering;
    let morsel_rows = ctx.morsel_rows.max(1);
    if let Some(pool) = ctx.scan_pool.as_ref().filter(|p| p.size() > 1) {
        let pks = table.index_pks(index, range)?;
        if pks.len() >= 2 * morsel_rows {
            let chunks: Vec<Vec<Vec<Value>>> =
                pks.chunks(morsel_rows).map(|c| c.to_vec()).collect();
            ctx.counters.parallel_scans.fetch_add(1, Ordering::Relaxed);
            ctx.counters
                .scan_morsels
                .fetch_add(chunks.len() as u64, Ordering::Relaxed);
            if let Some(metrics) = ctx.metrics.as_deref() {
                metrics.scan_morsels().observe(chunks.len() as f64);
            }
            let table = Arc::clone(table);
            let kernel = Arc::clone(kernel);
            let fill = Arc::new(move |chunk: Vec<Vec<Value>>| -> Result<Batch> {
                let mut cols = kernel.fresh_cols(chunk.len());
                let mut n = 0usize;
                for pk in &chunk {
                    if let Some(row) = table.get(pk) {
                        if kernel.keep(row)? {
                            kernel.push(row, &mut cols);
                            n += 1;
                        }
                    }
                }
                Ok(Batch::new(cols, n))
            });
            return pool
                .scatter_map(chunks, fill)
                .into_iter()
                .filter(|b| !matches!(b, Ok(b) if b.is_empty()))
                .collect();
        }
    }
    ctx.counters.serial_scans.fetch_add(1, Ordering::Relaxed);
    let target = ctx.batch_rows.max(1);
    let mut batches = VecDeque::new();
    let mut cols = kernel.fresh_cols(target);
    let mut filled = 0usize;
    for row in table.index_scan(index, range)? {
        if kernel.keep(&row)? {
            kernel.push(&row, &mut cols);
            filled += 1;
            if filled == target {
                let full = std::mem::replace(&mut cols, kernel.fresh_cols(target));
                batches.push_back(Batch::new(full, filled));
                filled = 0;
            }
        }
    }
    if filled > 0 {
        batches.push_back(Batch::new(cols, filled));
    }
    Ok(batches)
}

impl Operator for LocalScanOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        // One immutable snapshot for the whole scan: no lock is held while
        // scanning, and a concurrent refresh publish cannot tear the view.
        let table: TableSnapshot = ctx.storage.table(&self.object)?.snapshot();
        // map output columns to stored ordinals by name
        let mapping: Arc<Vec<usize>> = Arc::new(
            self.schema
                .columns()
                .iter()
                .map(|c| table.schema().resolve(None, &c.name))
                .collect::<Result<_>>()?,
        );
        let residual = match &self.residual {
            Some(p) => Some(PhysExpr::compile(p, &self.schema)?.remap(&mapping)),
            None => None,
        };
        let kernel = Arc::new(ScanKernel {
            mapping,
            residual,
            now: now_millis(ctx),
        });
        self.buffer = match &self.access {
            AccessPath::FullScan => scan_clustered(ctx, &table, &KeyRange::all(), &kernel)?,
            AccessPath::ClusteredRange { range, .. } => {
                scan_clustered(ctx, &table, range, &kernel)?
            }
            AccessPath::IndexRange { index, range, .. } => {
                scan_index(ctx, &table, index, range, &kernel)?
            }
        };
        Ok(())
    }

    fn next_batch(&mut self, _ctx: &ExecContext) -> Result<Option<Batch>> {
        // morsels that filtered down to nothing are skipped
        while let Some(batch) = self.buffer.pop_front() {
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.buffer.clear();
        Ok(())
    }
}

// ------------------------------------------------------------ RemoteQuery

/// Ships SQL to the back-end and streams the returned rows as batches.
pub struct RemoteQueryOp {
    sql: String,
    schema: Schema,
    buffer: VecDeque<Batch>,
}

impl RemoteQueryOp {
    /// Build.
    pub fn new(sql: String, schema: Schema) -> RemoteQueryOp {
        RemoteQueryOp {
            sql,
            schema,
            buffer: VecDeque::new(),
        }
    }
}

impl Operator for RemoteQueryOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        let (_, rows) = ship_remote(ctx, &self.sql)?;
        for row in &rows {
            if row.len() != self.schema.len() {
                return Err(Error::Remote(format!(
                    "remote result arity {} does not match expected schema arity {}",
                    row.len(),
                    self.schema.len()
                )));
            }
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
/// being revisited per row of bookkeeping.
pub struct SwitchUnionOp {
    guard: CurrencyGuard,
    local: BoxedOp,
    remote: BoxedOp,
    use_local: bool,
    opened: bool,
}

impl SwitchUnionOp {
    /// Build.
    pub fn new(guard: CurrencyGuard, local: BoxedOp, remote: BoxedOp) -> SwitchUnionOp {
        SwitchUnionOp {
            guard,
            local,
            remote,
            use_local: false,
            opened: false,
        }
    }
}

impl Operator for SwitchUnionOp {
    fn schema(&self) -> &Schema {
        self.local.schema()
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.use_local = evaluate_guard(ctx, &self.guard)?;
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
pub struct FilterOp {
    input: BoxedOp,
    predicate: BoundExpr,
    compiled: Option<PhysExpr>,
}

impl FilterOp {
    /// Build.
    pub fn new(input: BoxedOp, predicate: BoundExpr) -> FilterOp {
        FilterOp {
            input,
            predicate,
            compiled: None,
        }
    }
}

impl Operator for FilterOp {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        self.compiled = Some(PhysExpr::compile(&self.predicate, self.input.schema())?);
        Ok(())
    }
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let now = now_millis(ctx);
        let predicate = self
            .compiled
            .as_ref()
            .ok_or_else(|| Error::internal("Filter next_batch before open"))?;
        while let Some(batch) = self.input.next_batch(ctx)? {
            let len = batch.len();
            let mut sel: Vec<u32> = Vec::with_capacity(len);
            for i in 0..len {
                let p = batch.phys(i);
                let src = BatchSource {
                    columns: &batch.columns,
                    row: p,
                };
                if predicate.eval_predicate(&src, now)? {
                    sel.push(p as u32);
                }
            }
            if let Some(metrics) = ctx.metrics.as_deref() {
                metrics
                    .batch_selectivity()
                    .observe(sel.len() as f64 / len as f64);
            }
            if sel.is_empty() {
                continue;
            }
            if sel.len() == len {
                return Ok(Some(batch)); // everything survived: keep as-is
            }
            return Ok(Some(batch.with_sel(sel)));
        }
        Ok(None)
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.compiled = None;
        self.input.close(ctx)
    }
}

// ---------------------------------------------------------------- Project

/// Expression projection over whole batches. Bare-column outputs move or
/// gather the input buffer wholesale; computed outputs evaluate per row
/// through the compiled expression.
pub struct ProjectOp {
    input: BoxedOp,
    exprs: Vec<BoundExpr>,
    compiled: Vec<PhysExpr>,
    schema: Schema,
}

impl ProjectOp {
    /// Build; `exprs` paired with output names.
    pub fn new(input: BoxedOp, exprs: Vec<(BoundExpr, String)>) -> ProjectOp {
        use rcc_common::{Column, DataType};
        let schema = Schema::new(
            exprs
                .iter()
                .map(|(_, n)| Column::new(n.clone(), DataType::Int))
                .collect(),
        );
        ProjectOp {
            input,
            exprs: exprs.into_iter().map(|(e, _)| e).collect(),
            compiled: Vec::new(),
            schema,
        }
    }
}

impl Operator for ProjectOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        self.compiled = PhysExpr::compile_all(&self.exprs, self.input.schema())?;
        Ok(())
    }
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let now = now_millis(ctx);
        let mut batch = match self.input.next_batch(ctx)? {
            Some(b) => b,
            None => return Ok(None),
        };
        let n = batch.len();
        let mut outputs: Vec<Option<Vec<Value>>> = vec![None; self.compiled.len()];
        // computed outputs first — they may read columns that bare-column
        // outputs move out below
        for (k, e) in self.compiled.iter().enumerate() {
            if e.as_column().is_none() {
                let mut col = Vec::with_capacity(n);
                for i in 0..n {
                    let src = BatchSource {
                        columns: &batch.columns,
                        row: batch.phys(i),
                    };
                    col.push(e.eval(&src, now)?);
                }
                outputs[k] = Some(col);
            }
        }
        // bare columns: dense batches move the buffer on its last use and
        // clone earlier ones; selected batches gather through the selection
        match batch.sel.clone() {
            None => {
                let mut remaining: HashMap<usize, usize> = HashMap::new();
                for e in &self.compiled {
                    if let Some(i) = e.as_column() {
                        *remaining.entry(i).or_insert(0) += 1;
                    }
                }
                for (k, e) in self.compiled.iter().enumerate() {
                    if let Some(i) = e.as_column() {
                        let uses = remaining.get_mut(&i).expect("counted above");
                        *uses -= 1;
                        outputs[k] = Some(if *uses == 0 {
                            std::mem::take(&mut batch.columns[i])
                        } else {
                            batch.columns[i].clone()
                        });
                    }
                }
            }
            Some(sel) => {
                for (k, e) in self.compiled.iter().enumerate() {
                    if let Some(i) = e.as_column() {
                        let col = &batch.columns[i];
                        outputs[k] = Some(sel.iter().map(|&p| col[p as usize].clone()).collect());
                    }
                }
            }
        }
        let columns = outputs
            .into_iter()
            .map(|c| c.expect("every output produced"))
            .collect();
        Ok(Some(Batch::new(columns, n)))
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.compiled.clear();
        self.input.close(ctx)
    }
}

// --------------------------------------------------------------- HashJoin

/// Hash join: builds on the right input, probes with whole left batches.
/// Semi/anti joins narrow the left batch with a selection vector; inner
/// joins materialize concatenated rows.
pub struct HashJoinOp {
    left: BoxedOp,
    right: BoxedOp,
    left_keys: Vec<BoundExpr>,
    right_keys: Vec<BoundExpr>,
    compiled_left: Vec<PhysExpr>,
    kind: JoinKind,
    schema: Schema,
    table: HashMap<Vec<Value>, Vec<Row>>,
}

impl HashJoinOp {
    /// Build.
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        kind: JoinKind,
    ) -> HashJoinOp {
        let schema = match kind {
            JoinKind::Inner => left.schema().join(right.schema()),
            JoinKind::Semi | JoinKind::Anti => left.schema().clone(),
        };
        HashJoinOp {
            left,
            right,
            left_keys,
            right_keys,
            compiled_left: Vec::new(),
            kind,
            schema,
            table: HashMap::new(),
        }
    }
}

/// Evaluate join keys for one batch row; `None` when any key is NULL
/// (NULL keys never match).
fn eval_batch_keys(
    keys: &[PhysExpr],
    src: &BatchSource<'_>,
    now: i64,
) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = k.eval(src, now)?;
        if v.is_null() {
            return Ok(None);
        }
        out.push(v);
    }
    Ok(Some(out))
}

impl Operator for HashJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        let now = now_millis(ctx);
        self.right.open(ctx)?;
        let right_keys = PhysExpr::compile_all(&self.right_keys, self.right.schema())?;
        while let Some(batch) = self.right.next_batch(ctx)? {
            for i in 0..batch.len() {
                let src = BatchSource {
                    columns: &batch.columns,
                    row: batch.phys(i),
                };
                if let Some(key) = eval_batch_keys(&right_keys, &src, now)? {
                    self.table.entry(key).or_default().push(batch.row(i));
                }
            }
        }
        self.right.close(ctx)?;
        self.left.open(ctx)?;
        self.compiled_left = PhysExpr::compile_all(&self.left_keys, self.left.schema())?;
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let now = now_millis(ctx);
        while let Some(batch) = self.left.next_batch(ctx)? {
            match self.kind {
                JoinKind::Inner => {
                    let mut out: Vec<Row> = Vec::new();
                    for i in 0..batch.len() {
                        let src = BatchSource {
                            columns: &batch.columns,
                            row: batch.phys(i),
                        };
                        let key = eval_batch_keys(&self.compiled_left, &src, now)?;
                        if let Some(ms) = key.as_ref().and_then(|k| self.table.get(k)) {
                            let left_row = batch.row(i);
                            for m in ms {
                                out.push(left_row.concat(m));
                            }
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(Batch::from_rows(self.schema.len(), out)));
                    }
                }
                JoinKind::Semi | JoinKind::Anti => {
                    let want_match = self.kind == JoinKind::Semi;
                    let mut sel: Vec<u32> = Vec::new();
                    for i in 0..batch.len() {
                        let p = batch.phys(i);
                        let src = BatchSource {
                            columns: &batch.columns,
                            row: p,
                        };
                        let key = eval_batch_keys(&self.compiled_left, &src, now)?;
                        let matched = key
                            .as_ref()
                            .and_then(|k| self.table.get(k))
                            .map(|m| !m.is_empty())
                            .unwrap_or(false);
                        if matched == want_match {
                            sel.push(p as u32);
                        }
                    }
                    if sel.len() == batch.len() {
                        return Ok(Some(batch));
                    }
                    if !sel.is_empty() {
                        return Ok(Some(batch.with_sel(sel)));
                    }
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.table.clear();
        self.compiled_left.clear();
        self.left.close(ctx)
    }
}

// -------------------------------------------------------------- MergeJoin

/// Pulls rows one at a time off a batched input — the streaming shim merge
/// join needs for its lookahead discipline.
struct RowStream {
    op: BoxedOp,
    batch: Option<Batch>,
    idx: usize,
}

impl RowStream {
    fn new(op: BoxedOp) -> RowStream {
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
/// the hash path. Output rows are re-batched at `ctx.batch_rows`.
pub struct MergeJoinOp {
    left: RowStream,
    right: RowStream,
    left_key: BoundExpr,
    right_key: BoundExpr,
    compiled_left: Option<PhysExpr>,
    compiled_right: Option<PhysExpr>,
    schema: Schema,
    /// current right-hand duplicate group and its key
    right_group: Vec<Row>,
    right_group_key: Option<Value>,
    /// lookahead row already pulled from the right input
    right_pending: Option<Row>,
    /// current left row and the index into the right group
    left_current: Option<(Row, usize)>,
    right_done: bool,
}

impl MergeJoinOp {
    /// Build.
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        left_key: BoundExpr,
        right_key: BoundExpr,
    ) -> MergeJoinOp {
        let schema = left.schema().join(right.schema());
        MergeJoinOp {
            left: RowStream::new(left),
            right: RowStream::new(right),
            left_key,
            right_key,
            compiled_left: None,
            compiled_right: None,
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
        let right_key = self
            .compiled_right
            .clone()
            .ok_or_else(|| Error::internal("MergeJoin next before open"))?;
        loop {
            if let Some(gk) = &self.right_group_key {
                match gk.total_cmp(key) {
                    std::cmp::Ordering::Equal => return Ok(true),
                    std::cmp::Ordering::Greater => return Ok(false),
                    std::cmp::Ordering::Less => {}
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
            let gk = right_key.eval(&RowSource(first.values()), now)?;
            let mut group = vec![first];
            while let Some(r) = self.next_right(ctx)? {
                let k = right_key.eval(&RowSource(r.values()), now)?;
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
        let left_key = self
            .compiled_left
            .clone()
            .ok_or_else(|| Error::internal("MergeJoin next before open"))?;
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
            let key = left_key.eval(&RowSource(left_row.values()), now)?;
            if key.is_null() {
                continue; // NULL keys never match
            }
            if self.align_right_group(ctx, &key)? {
                self.left_current = Some((left_row, 0));
            }
        }
    }
}

impl Operator for MergeJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.right_group.clear();
        self.right_group_key = None;
        self.right_pending = None;
        self.left_current = None;
        self.right_done = false;
        self.left.op.open(ctx)?;
        self.right.op.open(ctx)?;
        self.compiled_left = Some(PhysExpr::compile(&self.left_key, self.left.op.schema())?);
        self.compiled_right = Some(PhysExpr::compile(&self.right_key, self.right.op.schema())?);
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

enum InnerMode {
    /// Seek the local object per outer row, against one immutable snapshot
    /// pinned at open — every seek of the join sees the same table state,
    /// and no lock is held across the join.
    Local(TableSnapshot),
    /// The guard failed: inner rows were fetched remotely and hashed.
    Hashed(HashMap<Value, Vec<Row>>),
    /// Not opened yet (or closed).
    Idle,
}

/// Index nested-loop join with an optionally guarded inner side, probing
/// one whole outer batch per `next_batch` call. Semi/anti joins narrow the
/// outer batch with a selection vector.
pub struct IndexNLJoinOp {
    outer: BoxedOp,
    outer_key: BoundExpr,
    compiled_key: Option<PhysExpr>,
    inner: InnerAccess,
    kind: JoinKind,
    schema: Schema,
    mode: InnerMode,
    /// precomputed mapping from inner schema to the stored table (local mode)
    mapping: Vec<usize>,
    /// inner residual in stored ordinals (local mode)
    inner_residual: Option<PhysExpr>,
}

impl IndexNLJoinOp {
    /// Build.
    pub fn new(
        outer: BoxedOp,
        outer_key: BoundExpr,
        inner: InnerAccess,
        kind: JoinKind,
    ) -> IndexNLJoinOp {
        let schema = match kind {
            JoinKind::Inner => outer.schema().join(&inner.schema),
            JoinKind::Semi | JoinKind::Anti => outer.schema().clone(),
        };
        IndexNLJoinOp {
            outer,
            outer_key,
            compiled_key: None,
            inner,
            kind,
            schema,
            mode: InnerMode::Idle,
            mapping: Vec::new(),
            inner_residual: None,
        }
    }

    fn seek_local(&self, ctx: &ExecContext, table: &Table, key: &Value) -> Result<Vec<Row>> {
        let range = KeyRange::eq(key.clone());
        let raw: Vec<Row> = match &self.inner.use_index {
            Some(ix) => table.index_scan(ix, &range)?,
            None => table.collect_range(&range, |_| true),
        };
        let now = now_millis(ctx);
        let mut out = Vec::with_capacity(raw.len());
        for row in raw {
            let keep = match &self.inner_residual {
                Some(p) => p.eval_predicate(&RowSource(row.values()), now)?,
                None => true,
            };
            if keep {
                out.push(Row::new(
                    self.mapping.iter().map(|&i| row.get(i).clone()).collect(),
                ));
            }
        }
        Ok(out)
    }

    fn matches_for(&self, ctx: &ExecContext, key: &Value) -> Result<Vec<Row>> {
        if key.is_null() {
            return Ok(Vec::new()); // NULL keys never match
        }
        match &self.mode {
            InnerMode::Local(snap) => self.seek_local(ctx, snap, key),
            InnerMode::Hashed(map) => Ok(map.get(key).cloned().unwrap_or_default()),
            InnerMode::Idle => Err(Error::internal("IndexNLJoin next before open")),
        }
    }
}

impl Operator for IndexNLJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        let use_local = if self.inner.force_remote {
            false
        } else {
            match &self.inner.guard {
                Some(g) => evaluate_guard(ctx, g)?,
                None => true,
            }
        };
        if use_local {
            let table = ctx.storage.table(&self.inner.object)?.snapshot();
            self.mapping = self
                .inner
                .schema
                .columns()
                .iter()
                .map(|c| table.schema().resolve(None, &c.name))
                .collect::<Result<_>>()?;
            self.inner_residual = match &self.inner.residual {
                Some(p) => Some(PhysExpr::compile(p, &self.inner.schema)?.remap(&self.mapping)),
                None => None,
            };
            self.mode = InnerMode::Local(table);
        } else {
            let sql = self
                .inner
                .remote_sql
                .as_ref()
                .ok_or_else(|| Error::internal("guarded NL inner without a remote fallback"))?;
            let (_, rows) = ship_remote(ctx, sql)?;
            let seek_ord = self.inner.schema.resolve(None, &self.inner.seek_col)?;
            let mut map: HashMap<Value, Vec<Row>> = HashMap::new();
            for row in rows {
                let k = row.get(seek_ord).clone();
                if !k.is_null() {
                    map.entry(k).or_default().push(row);
                }
            }
            self.mode = InnerMode::Hashed(map);
        }
        self.outer.open(ctx)?;
        self.compiled_key = Some(PhysExpr::compile(&self.outer_key, self.outer.schema())?);
        Ok(())
    }

    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        let now = now_millis(ctx);
        let outer_key = self
            .compiled_key
            .clone()
            .ok_or_else(|| Error::internal("IndexNLJoin next before open"))?;
        while let Some(batch) = self.outer.next_batch(ctx)? {
            match self.kind {
                JoinKind::Inner => {
                    let mut out: Vec<Row> = Vec::new();
                    for i in 0..batch.len() {
                        let src = BatchSource {
                            columns: &batch.columns,
                            row: batch.phys(i),
                        };
                        let key = outer_key.eval(&src, now)?;
                        let matches = self.matches_for(ctx, &key)?;
                        if !matches.is_empty() {
                            let outer_row = batch.row(i);
                            for m in &matches {
                                out.push(outer_row.concat(m));
                            }
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(Batch::from_rows(self.schema.len(), out)));
                    }
                }
                JoinKind::Semi | JoinKind::Anti => {
                    let want_match = self.kind == JoinKind::Semi;
                    let mut sel: Vec<u32> = Vec::new();
                    for i in 0..batch.len() {
                        let p = batch.phys(i);
                        let src = BatchSource {
                            columns: &batch.columns,
                            row: p,
                        };
                        let key = outer_key.eval(&src, now)?;
                        let matched = !self.matches_for(ctx, &key)?.is_empty();
                        if matched == want_match {
                            sel.push(p as u32);
                        }
                    }
                    if sel.len() == batch.len() {
                        return Ok(Some(batch));
                    }
                    if !sel.is_empty() {
                        return Ok(Some(batch.with_sel(sel)));
                    }
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.mode = InnerMode::Idle;
        self.compiled_key = None;
        self.inner_residual = None;
        self.outer.close(ctx)
    }
}

// ---------------------------------------------------------- HashAggregate

#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum { total: f64, seen: bool, int: bool },
    Avg { total: f64, count: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(call: &AggCall) -> AggState {
        match call.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                seen: false,
                int: true,
            },
            AggFunc::Avg => AggState::Avg {
                total: 0.0,
                count: 0,
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<Value>) -> Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) gets None-argument calls counted unconditionally;
                // COUNT(e) skips NULLs — the builder passes Some(NULL) there.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::Sum { total, seen, int } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        if matches!(val, Value::Float(_)) {
                            *int = false;
                        }
                        *total += val.as_float()?;
                        *seen = true;
                    }
                }
            }
            AggState::Avg { total, count } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *total += val.as_float()?;
                        *count += 1;
                    }
                }
            }
            AggState::Min(cur) => {
                if let Some(val) = v {
                    if !val.is_null() && cur.as_ref().map(|c| &val < c).unwrap_or(true) {
                        *cur = Some(val);
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(val) = v {
                    if !val.is_null() && cur.as_ref().map(|c| &val > c).unwrap_or(true) {
                        *cur = Some(val);
                    }
                }
            }
        }
        Ok(())
    }

    fn finalize(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum { total, seen, int } => {
                if !seen {
                    Value::Null
                } else if int {
                    Value::Int(total as i64)
                } else {
                    Value::Float(total)
                }
            }
            AggState::Avg { total, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(total / count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Hash aggregation with HAVING, consuming whole input batches.
pub struct HashAggregateOp {
    input: BoxedOp,
    group_by: Vec<BoundExpr>,
    aggs: Vec<AggCall>,
    having: Option<BoundExpr>,
    schema: Schema,
    results: VecDeque<Batch>,
}

impl HashAggregateOp {
    /// Build.
    pub fn new(
        input: BoxedOp,
        group_by: Vec<(BoundExpr, String)>,
        aggs: Vec<AggCall>,
        having: Option<BoundExpr>,
    ) -> HashAggregateOp {
        use rcc_common::{Column, DataType};
        let mut cols = Vec::new();
        for (_, name) in &group_by {
            cols.push(Column::new(name.clone(), DataType::Int).with_qualifier("#agg"));
        }
        for a in &aggs {
            cols.push(Column::new(a.output_name.clone(), DataType::Float).with_qualifier("#agg"));
        }
        HashAggregateOp {
            input,
            group_by: group_by.into_iter().map(|(e, _)| e).collect(),
            aggs,
            having,
            schema: Schema::new(cols),
            results: VecDeque::new(),
        }
    }
}

impl Operator for HashAggregateOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        let now = now_millis(ctx);
        let in_schema = self.input.schema();
        let group_by = PhysExpr::compile_all(&self.group_by, in_schema)?;
        let args: Vec<Option<PhysExpr>> = self
            .aggs
            .iter()
            .map(|a| {
                a.arg
                    .as_ref()
                    .map(|e| PhysExpr::compile(e, in_schema))
                    .transpose()
            })
            .collect::<Result<_>>()?;
        // insertion-ordered groups for deterministic output
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        let mut saw_row = false;
        while let Some(batch) = self.input.next_batch(ctx)? {
            for i in 0..batch.len() {
                saw_row = true;
                let src = BatchSource {
                    columns: &batch.columns,
                    row: batch.phys(i),
                };
                let key: Vec<Value> = group_by
                    .iter()
                    .map(|e| e.eval(&src, now))
                    .collect::<Result<_>>()?;
                let states = match groups.get_mut(&key) {
                    Some(s) => s,
                    None => {
                        order.push(key.clone());
                        groups
                            .entry(key.clone())
                            .or_insert_with(|| self.aggs.iter().map(AggState::new).collect())
                    }
                };
                for (arg, state) in args.iter().zip(states.iter_mut()) {
                    let v = match arg {
                        Some(e) => Some(e.eval(&src, now)?),
                        None => None,
                    };
                    state.update(v)?;
                }
            }
        }
        self.input.close(ctx)?;

        // global aggregation over an empty input still yields one row
        if !saw_row && self.group_by.is_empty() {
            order.push(vec![]);
            groups.insert(vec![], self.aggs.iter().map(AggState::new).collect());
        }

        let having = self
            .having
            .as_ref()
            .map(|h| PhysExpr::compile(h, &self.schema))
            .transpose()?;
        let mut out_rows = Vec::with_capacity(order.len());
        for key in order {
            let states = groups.remove(&key).expect("group recorded");
            let mut values = key;
            for s in states {
                values.push(s.finalize());
            }
            let keep = match &having {
                Some(h) => h.eval_predicate(&RowSource(&values), now)?,
                None => true,
            };
            if keep {
                out_rows.push(Row::new(values));
            }
        }
        self.results = rows_to_batches(self.schema.len(), out_rows, ctx.batch_rows);
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

/// Full sort on output ordinals: drains the input, sorts row-major, then
/// re-batches.
pub struct SortOp {
    input: BoxedOp,
    keys: Vec<(usize, bool)>,
    buffer: VecDeque<Batch>,
}

impl SortOp {
    /// Build.
    pub fn new(input: BoxedOp, keys: Vec<(usize, bool)>) -> SortOp {
        SortOp {
            input,
            keys,
            buffer: VecDeque::new(),
        }
    }
}

impl Operator for SortOp {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        let width = self.input.schema().len();
        let mut rows = Vec::new();
        while let Some(batch) = self.input.next_batch(ctx)? {
            rows.extend(batch.into_rows());
        }
        self.input.close(ctx)?;
        let keys = self.keys.clone();
        rows.sort_by(|a, b| {
            for (ord, asc) in &keys {
                let cmp = a.get(*ord).total_cmp(b.get(*ord));
                let cmp = if *asc { cmp } else { cmp.reverse() };
                if cmp != std::cmp::Ordering::Equal {
                    return cmp;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.buffer = rows_to_batches(width, rows, ctx.batch_rows);
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
pub struct LimitOp {
    input: BoxedOp,
    n: u64,
    produced: u64,
}

impl LimitOp {
    /// Build.
    pub fn new(input: BoxedOp, n: u64) -> LimitOp {
        LimitOp {
            input,
            n,
            produced: 0,
        }
    }
}

impl Operator for LimitOp {
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
pub struct DistinctOp {
    input: BoxedOp,
    seen: HashSet<Row>,
}

impl DistinctOp {
    /// Build.
    pub fn new(input: BoxedOp) -> DistinctOp {
        DistinctOp {
            input,
            seen: HashSet::new(),
        }
    }
}

impl Operator for DistinctOp {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.seen.clear();
        self.input.open(ctx)
    }
    fn next_batch(&mut self, ctx: &ExecContext) -> Result<Option<Batch>> {
        while let Some(batch) = self.input.next_batch(ctx)? {
            let mut sel: Vec<u32> = Vec::new();
            for i in 0..batch.len() {
                let p = batch.phys(i);
                if self.seen.insert(batch.row(i)) {
                    sel.push(p as u32);
                }
            }
            if sel.len() == batch.len() {
                return Ok(Some(batch));
            }
            if !sel.is_empty() {
                return Ok(Some(batch.with_sel(sel)));
            }
        }
        Ok(None)
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.seen.clear();
        self.input.close(ctx)
    }
}
