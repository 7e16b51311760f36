//! The row-at-a-time reference engine.
//!
//! This is the original volcano executor, preserved verbatim after the
//! batched engine in [`crate::ops`] replaced it on the hot path. It serves
//! two jobs: the differential oracle for the batched engine (the identity
//! sweep asserts batched wire bytes equal these wire bytes on every corpus
//! query) and the row-engine baseline in `BENCH_scan.json`'s
//! batched-vs-row comparison. Operators follow the volcano discipline:
//! `open` acquires resources, `next` yields one row at a time, `close`
//! releases.

use crate::build::{ExecutionResult, PhaseTimings};
use crate::context::ExecContext;
use crate::guard::evaluate_guard;
use crate::ops::{adopt_remote_types, aggregate_schema, project_schema, ship_remote};
use rcc_common::{Error, Result, Row, Schema, Value};
use rcc_optimizer::graph::JoinKind;
use rcc_optimizer::physical::{AccessPath, InnerAccess};
use rcc_optimizer::{AggCall, AggFunc, BoundExpr, CurrencyGuard, PhysicalPlan};
use rcc_storage::{KeyRange, Table, TableSnapshot};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Instant;

/// The row-at-a-time operator interface.
pub trait RowOperator: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// Prepare for producing rows.
    fn open(&mut self, ctx: &ExecContext) -> Result<()>;
    /// Produce the next row, or `None` when exhausted.
    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>>;
    /// Release resources.
    fn close(&mut self, ctx: &ExecContext) -> Result<()>;
}

/// Boxed row-operator tree node.
pub type BoxedRowOp = Box<dyn RowOperator>;

fn now_millis(ctx: &ExecContext) -> i64 {
    ctx.clock.now().millis()
}

// ----------------------------------------------------------------- OneRow

/// Emits a single empty row.
struct OneRowOp {
    schema: Schema,
    done: bool,
}

impl OneRowOp {
    fn new() -> OneRowOp {
        OneRowOp {
            schema: Schema::empty(),
            done: false,
        }
    }
}

impl RowOperator for OneRowOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn open(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.done = false;
        Ok(())
    }
    fn next(&mut self, _ctx: &ExecContext) -> Result<Option<Row>> {
        if self.done {
            Ok(None)
        } else {
            self.done = true;
            Ok(Some(Row::new(vec![])))
        }
    }
    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        Ok(())
    }
}

// -------------------------------------------------------------- LocalScan

/// Scan of a local storage object with access-path pushdown.
struct LocalScanOp {
    object: String,
    schema: Schema,
    access: AccessPath,
    residual: Option<BoundExpr>,
    buffer: VecDeque<Row>,
}

impl LocalScanOp {
    fn new(
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

/// The per-row scan kernel: project a stored row through `mapping`, apply
/// the residual predicate, and append survivors to `out`.
struct ScanKernel {
    mapping: Vec<usize>,
    schema: Schema,
    residual: Option<BoundExpr>,
    now: i64,
}

impl ScanKernel {
    fn apply(&self, row: &[Value], out: &mut Vec<Row>) -> Result<()> {
        let projected = Row::new(self.mapping.iter().map(|&i| row[i].clone()).collect());
        let keep = match &self.residual {
            Some(p) => p.eval_predicate(projected.values(), &self.schema, self.now)?,
            None => true,
        };
        if keep {
            out.push(projected);
        }
        Ok(())
    }
}

/// Run one clustered-range scan over an immutable snapshot.
fn scan_clustered(
    table: &TableSnapshot,
    range: &KeyRange,
    kernel: &ScanKernel,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    let mut err = None;
    table.scan_range(
        range,
        |_| true,
        |row| {
            if err.is_none() {
                if let Err(e) = kernel.apply(row, &mut out) {
                    err = Some(e);
                }
            }
        },
    );
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Run one secondary-index scan over an immutable snapshot.
fn scan_index(
    table: &TableSnapshot,
    index: &str,
    range: &KeyRange,
    kernel: &ScanKernel,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for row in table.index_scan(index, range)? {
        kernel.apply(row.values(), &mut out)?;
    }
    Ok(out)
}

impl RowOperator for LocalScanOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        // One immutable snapshot for the whole scan: no lock is held while
        // scanning, and a concurrent refresh publish cannot tear the view.
        let table: TableSnapshot = ctx.storage.table(&self.object)?.snapshot();
        // map output columns to stored ordinals by name
        let mapping: Vec<usize> = self
            .schema
            .columns()
            .iter()
            .map(|c| table.schema().resolve(None, &c.name))
            .collect::<Result<_>>()?;
        let kernel = ScanKernel {
            mapping,
            schema: self.schema.clone(),
            residual: self.residual.clone(),
            now: now_millis(ctx),
        };
        let rows = match &self.access {
            AccessPath::FullScan => scan_clustered(&table, &KeyRange::all(), &kernel)?,
            AccessPath::ClusteredRange { range, .. } => scan_clustered(&table, range, &kernel)?,
            AccessPath::IndexRange { index, range, .. } => {
                scan_index(&table, index, range, &kernel)?
            }
        };
        self.buffer = rows.into();
        Ok(())
    }

    fn next(&mut self, _ctx: &ExecContext) -> Result<Option<Row>> {
        Ok(self.buffer.pop_front())
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.buffer.clear();
        Ok(())
    }
}

// ------------------------------------------------------------ RemoteQuery

/// Ships SQL to the back-end and streams the returned rows.
struct RemoteQueryOp {
    sql: String,
    schema: Schema,
    buffer: VecDeque<Row>,
}

impl RemoteQueryOp {
    fn new(sql: String, schema: Schema) -> RemoteQueryOp {
        RemoteQueryOp {
            sql,
            schema,
            buffer: VecDeque::new(),
        }
    }
}

impl RowOperator for RemoteQueryOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        let (reported, rows) = ship_remote(ctx, &self.sql)?;
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
            self.schema = adopted;
        }
        self.buffer = rows.into();
        Ok(())
    }

    fn next(&mut self, _ctx: &ExecContext) -> Result<Option<Row>> {
        Ok(self.buffer.pop_front())
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.buffer.clear();
        Ok(())
    }
}

// ------------------------------------------------------------ SwitchUnion

/// The dynamic-plan operator: its selector (the currency guard) is
/// evaluated once at open; all rows then come from the chosen branch.
struct SwitchUnionOp {
    guard: CurrencyGuard,
    local: BoxedRowOp,
    remote: BoxedRowOp,
    use_local: bool,
    opened: bool,
}

impl SwitchUnionOp {
    fn new(guard: CurrencyGuard, local: BoxedRowOp, remote: BoxedRowOp) -> SwitchUnionOp {
        SwitchUnionOp {
            guard,
            local,
            remote,
            use_local: false,
            opened: false,
        }
    }
}

impl RowOperator for SwitchUnionOp {
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

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        if self.use_local {
            self.local.next(ctx)
        } else {
            self.remote.next(ctx)
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

/// Predicate filter.
struct FilterOp {
    input: BoxedRowOp,
    predicate: BoundExpr,
}

impl RowOperator for FilterOp {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)
    }
    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        let now = now_millis(ctx);
        let schema = self.input.schema().clone();
        while let Some(row) = self.input.next(ctx)? {
            if self.predicate.eval_predicate(row.values(), &schema, now)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}

// ---------------------------------------------------------------- Project

/// Expression projection.
struct ProjectOp {
    input: BoxedRowOp,
    exprs: Vec<BoundExpr>,
    schema: Schema,
}

impl ProjectOp {
    fn new(input: BoxedRowOp, exprs: Vec<(BoundExpr, String)>) -> ProjectOp {
        let schema = project_schema(&exprs, input.schema());
        ProjectOp {
            input,
            exprs: exprs.into_iter().map(|(e, _)| e).collect(),
            schema,
        }
    }
}

impl RowOperator for ProjectOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)
    }
    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        let now = now_millis(ctx);
        let in_schema = self.input.schema().clone();
        match self.input.next(ctx)? {
            Some(row) => {
                let values: Vec<Value> = self
                    .exprs
                    .iter()
                    .map(|e| e.eval(row.values(), &in_schema, now))
                    .collect::<Result<_>>()?;
                Ok(Some(Row::new(values)))
            }
            None => Ok(None),
        }
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}

// --------------------------------------------------------------- HashJoin

/// Hash join: builds on the right input, probes with the left.
struct HashJoinOp {
    left: BoxedRowOp,
    right: BoxedRowOp,
    left_keys: Vec<BoundExpr>,
    right_keys: Vec<BoundExpr>,
    kind: JoinKind,
    schema: Schema,
    table: HashMap<Vec<Value>, Vec<Row>>,
    /// Did the build side have a row, and one with a NULL key part?
    build_any: bool,
    build_null: bool,
    pending: VecDeque<Row>,
}

impl HashJoinOp {
    fn new(
        left: BoxedRowOp,
        right: BoxedRowOp,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        kind: JoinKind,
    ) -> HashJoinOp {
        let schema = match kind {
            JoinKind::Inner => left.schema().join(right.schema()),
            _ => left.schema().clone(),
        };
        HashJoinOp {
            left,
            right,
            left_keys,
            right_keys,
            kind,
            schema,
            table: HashMap::new(),
            build_any: false,
            build_null: false,
            pending: VecDeque::new(),
        }
    }
}

fn eval_keys(
    keys: &[BoundExpr],
    row: &Row,
    schema: &Schema,
    now: i64,
) -> Result<Option<Vec<Value>>> {
    let mut out = Vec::with_capacity(keys.len());
    for k in keys {
        let v = k.eval(row.values(), schema, now)?;
        if v.is_null() {
            return Ok(None); // NULL keys never match
        }
        out.push(v);
    }
    Ok(Some(out))
}

impl RowOperator for HashJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        let now = now_millis(ctx);
        self.right.open(ctx)?;
        let right_schema = self.right.schema().clone();
        (self.build_any, self.build_null) = (false, false);
        while let Some(row) = self.right.next(ctx)? {
            self.build_any = true;
            match eval_keys(&self.right_keys, &row, &right_schema, now)? {
                Some(key) => self.table.entry(key).or_default().push(row),
                None => self.build_null = true,
            }
        }
        self.right.close(ctx)?;
        self.left.open(ctx)
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        if let Some(row) = self.pending.pop_front() {
            return Ok(Some(row));
        }
        let now = now_millis(ctx);
        let left_schema = self.left.schema().clone();
        while let Some(left_row) = self.left.next(ctx)? {
            let key = eval_keys(&self.left_keys, &left_row, &left_schema, now)?;
            let matches = key.as_ref().and_then(|k| self.table.get(k));
            match self.kind {
                JoinKind::Inner => {
                    if let Some(ms) = matches {
                        for m in ms {
                            self.pending.push_back(left_row.concat(m));
                        }
                        if let Some(row) = self.pending.pop_front() {
                            return Ok(Some(row));
                        }
                    }
                }
                JoinKind::Semi => {
                    if matches.map(|m| !m.is_empty()).unwrap_or(false) {
                        return Ok(Some(left_row));
                    }
                }
                JoinKind::Anti => {
                    if matches.map(|m| m.is_empty()).unwrap_or(true) {
                        return Ok(Some(left_row));
                    }
                }
                JoinKind::NullAwareAnti => {
                    let keep = match &key {
                        _ if self.build_null => false,
                        None => !self.build_any,
                        Some(_) => matches.is_none(),
                    };
                    if keep {
                        return Ok(Some(left_row));
                    }
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.table.clear();
        self.pending.clear();
        self.left.close(ctx)
    }
}

// -------------------------------------------------------------- MergeJoin

/// Merge join over inputs already sorted (non-decreasing) on the join
/// keys. Handles duplicate keys on both sides by buffering the right-hand
/// group. Inner joins only — the optimizer routes semi/anti joins through
/// the hash path.
struct MergeJoinOp {
    left: BoxedRowOp,
    right: BoxedRowOp,
    left_key: BoundExpr,
    right_key: BoundExpr,
    /// Only `Inner` runs: the merge has no semi/anti rules.
    kind: JoinKind,
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
    fn new(
        left: BoxedRowOp,
        right: BoxedRowOp,
        left_key: BoundExpr,
        right_key: BoundExpr,
        kind: JoinKind,
    ) -> MergeJoinOp {
        let schema = left.schema().join(right.schema());
        MergeJoinOp {
            left,
            right,
            left_key,
            right_key,
            kind,
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
        match self.right.next(ctx)? {
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
        let right_schema = self.right.schema().clone();
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
            let gk = self.right_key.eval(first.values(), &right_schema, now)?;
            let mut group = vec![first];
            while let Some(r) = self.next_right(ctx)? {
                let k = self.right_key.eval(r.values(), &right_schema, now)?;
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
}

impl RowOperator for MergeJoinOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        if self.kind != JoinKind::Inner {
            return Err(Error::internal(format!(
                "merge join of kind {:?}",
                self.kind
            )));
        }
        self.right_group.clear();
        self.right_group_key = None;
        self.right_pending = None;
        self.left_current = None;
        self.right_done = false;
        self.left.open(ctx)?;
        self.right.open(ctx)
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        let now = now_millis(ctx);
        let left_schema = self.left.schema().clone();
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
            let left_row = match self.left.next(ctx)? {
                Some(r) => r,
                None => return Ok(None),
            };
            let key = self.left_key.eval(left_row.values(), &left_schema, now)?;
            if key.is_null() {
                continue; // NULL keys never match
            }
            if self.align_right_group(ctx, &key)? {
                self.left_current = Some((left_row, 0));
            }
        }
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.right_group.clear();
        self.left.close(ctx)?;
        self.right.close(ctx)
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

/// Index nested-loop join with an optionally guarded inner side.
struct IndexNLJoinOp {
    outer: BoxedRowOp,
    outer_key: BoundExpr,
    inner: InnerAccess,
    kind: JoinKind,
    schema: Schema,
    mode: InnerMode,
    pending: VecDeque<Row>,
    /// precomputed mapping from inner schema to the stored table (local mode)
    mapping: Vec<usize>,
    /// Does the filtered inner side hold a row, and one with a NULL seek
    /// key? (`NOT IN` asks.)
    inner_any: bool,
    inner_null: bool,
}

impl IndexNLJoinOp {
    fn new(
        outer: BoxedRowOp,
        outer_key: BoundExpr,
        inner: InnerAccess,
        kind: JoinKind,
    ) -> IndexNLJoinOp {
        let schema = match kind {
            JoinKind::Inner => outer.schema().join(&inner.schema),
            _ => outer.schema().clone(),
        };
        IndexNLJoinOp {
            outer,
            outer_key,
            inner,
            kind,
            schema,
            mode: InnerMode::Idle,
            pending: VecDeque::new(),
            mapping: Vec::new(),
            inner_any: false,
            inner_null: false,
        }
    }

    fn seek_local(&self, ctx: &ExecContext, table: &Table, key: &Value) -> Result<Vec<Row>> {
        let range = KeyRange::eq(key.clone());
        let raw: Vec<Row> = match &self.inner.use_index {
            Some(ix) => table.index_scan(ix, &range)?,
            None => table.collect_range(&range, |_| true),
        };
        self.filter_local(ctx, raw)
    }

    /// Record what `NOT IN` asks of the filtered inner side, `rows`.
    fn note_inner(&mut self, rows: &[Row]) -> Result<()> {
        let seek = self.inner.schema.resolve(None, &self.inner.seek_col)?;
        self.inner_any = !rows.is_empty();
        self.inner_null = rows.iter().any(|row| row.get(seek).is_null());
        Ok(())
    }

    /// Map stored inner rows to the inner schema and keep those the
    /// residual passes.
    fn filter_local(&self, ctx: &ExecContext, raw: Vec<Row>) -> Result<Vec<Row>> {
        let now = now_millis(ctx);
        let mut out = Vec::with_capacity(raw.len());
        for row in raw {
            let projected = Row::new(self.mapping.iter().map(|&i| row.get(i).clone()).collect());
            let keep = match &self.inner.residual {
                Some(p) => p.eval_predicate(projected.values(), &self.inner.schema, now)?,
                None => true,
            };
            if keep {
                out.push(projected);
            }
        }
        Ok(out)
    }
}

impl RowOperator for IndexNLJoinOp {
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
            if self.kind == JoinKind::NullAwareAnti {
                let rows = self.filter_local(ctx, table.collect_all())?;
                self.note_inner(&rows)?;
            }
            self.mode = InnerMode::Local(table);
        } else {
            let sql = self
                .inner
                .remote_sql
                .as_ref()
                .ok_or_else(|| Error::internal("guarded NL inner without a remote fallback"))?;
            let (_, rows) = ship_remote(ctx, sql)?;
            self.note_inner(&rows)?;
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
        self.outer.open(ctx)
    }

    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        if let Some(row) = self.pending.pop_front() {
            return Ok(Some(row));
        }
        let now = now_millis(ctx);
        let outer_schema = self.outer.schema().clone();
        while let Some(outer_row) = self.outer.next(ctx)? {
            let key = self
                .outer_key
                .eval(outer_row.values(), &outer_schema, now)?;
            let matches: Vec<Row> = if key.is_null() {
                Vec::new()
            } else {
                match &self.mode {
                    InnerMode::Local(snap) => self.seek_local(ctx, snap, &key)?,
                    InnerMode::Hashed(map) => map.get(&key).cloned().unwrap_or_default(),
                    InnerMode::Idle => return Err(Error::internal("IndexNLJoin next before open")),
                }
            };
            match self.kind {
                JoinKind::Inner => {
                    for m in &matches {
                        self.pending.push_back(outer_row.concat(m));
                    }
                    if let Some(row) = self.pending.pop_front() {
                        return Ok(Some(row));
                    }
                }
                JoinKind::Semi => {
                    if !matches.is_empty() {
                        return Ok(Some(outer_row));
                    }
                }
                JoinKind::Anti => {
                    if matches.is_empty() {
                        return Ok(Some(outer_row));
                    }
                }
                JoinKind::NullAwareAnti => {
                    let keep = match key.is_null() {
                        _ if self.inner_null => false,
                        true => !self.inner_any,
                        false => matches.is_empty(),
                    };
                    if keep {
                        return Ok(Some(outer_row));
                    }
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.pending.clear();
        self.mode = InnerMode::Idle;
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

/// Hash aggregation with HAVING.
struct HashAggregateOp {
    input: BoxedRowOp,
    group_by: Vec<BoundExpr>,
    aggs: Vec<AggCall>,
    having: Option<BoundExpr>,
    schema: Schema,
    results: VecDeque<Row>,
}

impl HashAggregateOp {
    fn new(
        input: BoxedRowOp,
        group_by: Vec<(BoundExpr, String)>,
        aggs: Vec<AggCall>,
        having: Option<BoundExpr>,
    ) -> HashAggregateOp {
        let schema = aggregate_schema(&group_by, &aggs, input.schema());
        HashAggregateOp {
            input,
            group_by: group_by.into_iter().map(|(e, _)| e).collect(),
            aggs,
            having,
            schema,
            results: VecDeque::new(),
        }
    }
}

impl RowOperator for HashAggregateOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        let now = now_millis(ctx);
        let in_schema = self.input.schema().clone();
        // insertion-ordered groups for deterministic output
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        let mut saw_row = false;
        while let Some(row) = self.input.next(ctx)? {
            saw_row = true;
            let key: Vec<Value> = self
                .group_by
                .iter()
                .map(|e| e.eval(row.values(), &in_schema, now))
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
            for (call, state) in self.aggs.iter().zip(states.iter_mut()) {
                let v = match &call.arg {
                    Some(e) => Some(e.eval(row.values(), &in_schema, now)?),
                    None => None,
                };
                state.update(v)?;
            }
        }
        self.input.close(ctx)?;

        // global aggregation over an empty input still yields one row
        if !saw_row && self.group_by.is_empty() {
            order.push(vec![]);
            groups.insert(vec![], self.aggs.iter().map(AggState::new).collect());
        }

        for key in order {
            let states = groups.remove(&key).expect("group recorded");
            let mut values = key;
            for s in states {
                values.push(s.finalize());
            }
            let row = Row::new(values);
            let keep = match &self.having {
                Some(h) => h.eval_predicate(row.values(), &self.schema, now)?,
                None => true,
            };
            if keep {
                self.results.push_back(row);
            }
        }
        Ok(())
    }

    fn next(&mut self, _ctx: &ExecContext) -> Result<Option<Row>> {
        Ok(self.results.pop_front())
    }

    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.results.clear();
        Ok(())
    }
}

// --------------------------------------------------- Sort, Limit, Distinct

/// Full sort on output ordinals.
struct SortOp {
    input: BoxedRowOp,
    keys: Vec<(usize, bool)>,
    buffer: VecDeque<Row>,
}

impl RowOperator for SortOp {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.open(ctx)?;
        let mut rows = Vec::new();
        while let Some(row) = self.input.next(ctx)? {
            rows.push(row);
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
        self.buffer = rows.into();
        Ok(())
    }
    fn next(&mut self, _ctx: &ExecContext) -> Result<Option<Row>> {
        Ok(self.buffer.pop_front())
    }
    fn close(&mut self, _ctx: &ExecContext) -> Result<()> {
        self.buffer.clear();
        Ok(())
    }
}

/// LIMIT n.
struct LimitOp {
    input: BoxedRowOp,
    n: u64,
    produced: u64,
}

impl RowOperator for LimitOp {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.produced = 0;
        self.input.open(ctx)
    }
    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        if self.produced >= self.n {
            return Ok(None);
        }
        match self.input.next(ctx)? {
            Some(row) => {
                self.produced += 1;
                Ok(Some(row))
            }
            None => Ok(None),
        }
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.input.close(ctx)
    }
}

/// DISTINCT over whole rows.
struct DistinctOp {
    input: BoxedRowOp,
    seen: HashSet<Row>,
}

impl RowOperator for DistinctOp {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }
    fn open(&mut self, ctx: &ExecContext) -> Result<()> {
        self.seen.clear();
        self.input.open(ctx)
    }
    fn next(&mut self, ctx: &ExecContext) -> Result<Option<Row>> {
        while let Some(row) = self.input.next(ctx)? {
            if self.seen.insert(row.clone()) {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
    fn close(&mut self, ctx: &ExecContext) -> Result<()> {
        self.seen.clear();
        self.input.close(ctx)
    }
}

// ----------------------------------------------------------------- driver

/// Translate a physical plan into a row-operator tree.
pub fn build_row_operator(plan: &PhysicalPlan) -> BoxedRowOp {
    match plan {
        PhysicalPlan::OneRow => Box::new(OneRowOp::new()),
        PhysicalPlan::LocalScan(n) => Box::new(LocalScanOp::new(
            n.object.clone(),
            n.schema.clone(),
            n.access.clone(),
            n.residual.clone(),
        )),
        PhysicalPlan::RemoteQuery(n) => {
            Box::new(RemoteQueryOp::new(n.sql.to_string(), n.schema.clone()))
        }
        PhysicalPlan::SwitchUnion {
            guard,
            local,
            remote,
        } => Box::new(SwitchUnionOp::new(
            guard.clone(),
            build_row_operator(local),
            build_row_operator(remote),
        )),
        PhysicalPlan::Filter { input, predicate } => Box::new(FilterOp {
            input: build_row_operator(input),
            predicate: predicate.clone(),
        }),
        PhysicalPlan::Project { input, exprs } => {
            Box::new(ProjectOp::new(build_row_operator(input), exprs.clone()))
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            kind,
        } => Box::new(HashJoinOp::new(
            build_row_operator(left),
            build_row_operator(right),
            left_keys.clone(),
            right_keys.clone(),
            *kind,
        )),
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
            kind,
        } => Box::new(MergeJoinOp::new(
            build_row_operator(left),
            build_row_operator(right),
            left_key.clone(),
            right_key.clone(),
            *kind,
        )),
        PhysicalPlan::IndexNLJoin {
            outer,
            outer_key,
            inner,
            kind,
        } => Box::new(IndexNLJoinOp::new(
            build_row_operator(outer),
            outer_key.clone(),
            inner.clone(),
            *kind,
        )),
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggs,
            having,
        } => Box::new(HashAggregateOp::new(
            build_row_operator(input),
            group_by.clone(),
            aggs.clone(),
            having.clone(),
        )),
        PhysicalPlan::Sort { input, keys } => Box::new(SortOp {
            input: build_row_operator(input),
            keys: keys.clone(),
            buffer: VecDeque::new(),
        }),
        PhysicalPlan::Limit { input, n } => Box::new(LimitOp {
            input: build_row_operator(input),
            n: *n,
            produced: 0,
        }),
        PhysicalPlan::Distinct { input } => Box::new(DistinctOp {
            input: build_row_operator(input),
            seen: HashSet::new(),
        }),
    }
}

/// Execute a plan to completion on the row-at-a-time reference engine,
/// with the same per-phase timing as [`crate::execute_plan`]. Semantics
/// are identical to the batched engine — the identity sweep in
/// `rcc-bench` holds the two to byte-equal wire output.
pub fn execute_plan_rows(plan: &PhysicalPlan, ctx: &ExecContext) -> Result<ExecutionResult> {
    let t0 = Instant::now();
    // the reference engine knows nothing of statement slots: it is handed
    // the plan with this execution's values in place
    let resolved = (!ctx.slots.is_empty()).then(|| plan.with_slots(&ctx.slots));
    let mut op = build_row_operator(resolved.as_ref().unwrap_or(plan));
    op.open(ctx)?;
    let t1 = Instant::now();

    let schema = op.schema().clone();
    let mut rows = Vec::new();
    while let Some(row) = op.next(ctx)? {
        rows.push(row);
    }
    let t2 = Instant::now();

    op.close(ctx)?;
    let t3 = Instant::now();

    Ok(ExecutionResult {
        schema,
        rows,
        timings: PhaseTimings {
            setup: t1 - t0,
            run: t2 - t1,
            shutdown: t3 - t2,
        },
    })
}
