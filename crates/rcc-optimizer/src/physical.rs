//! Physical plans.
//!
//! The executable plan shape produced by the optimizer and interpreted by
//! `rcc-executor`. Dynamic plans use [`PhysicalPlan::SwitchUnion`] exactly
//! as in the paper (Sec. 3.2.3): a *currency guard* selector — equivalent
//! to `EXISTS (SELECT 1 FROM Heartbeat_R WHERE TimeStamp > getdate() − B)`
//! — chooses between a local branch over a cached view and a remote branch
//! that ships SQL to the back-end. For index-nested-loop joins the guarded
//! choice lives inside [`InnerAccess`]: the selector is evaluated once when
//! the join opens (the paper evaluates guards once per operator open) and
//! either seeks the local view per outer row or fetches the inner data with
//! one remote query and probes it hashed.

use crate::constraint::OperandId;
use crate::expr::{slot_value, AggCall, BoundExpr};
use crate::graph::JoinKind;
use crate::property::DeliveredProperty;
use rcc_common::{Duration, RegionId, Schema, Value};
use rcc_storage::KeyRange;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::ops::{Bound, Deref};

/// A key range as a plan holds it: the range, and for each end that is one
/// statement slot's value, which slot — so an execution with other values
/// seeks its own range ([`SeekRange::with_slots`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SeekRange {
    /// The range for the values the plan was compiled with.
    pub range: KeyRange,
    /// The slot whose value the low end is, if it is one's.
    pub low_slot: Option<u32>,
    /// The slot whose value the high end is, if it is one's.
    pub high_slot: Option<u32>,
}

impl SeekRange {
    /// Both ranges at once. An end only one of them bounds keeps its slot;
    /// an end both bound is whichever value is tighter *now*, which is no
    /// slot's value in general — it names none, and
    /// [`slot_domains`](crate::slots::slot_domains) pins every slot that
    /// lost an end this way to the value it has.
    pub fn intersect(&self, other: &SeekRange) -> SeekRange {
        fn end(a: (&Bound<Value>, Option<u32>), b: (&Bound<Value>, Option<u32>)) -> Option<u32> {
            match (a.0, b.0) {
                (Bound::Unbounded, _) => b.1,
                (_, Bound::Unbounded) => a.1,
                _ => None,
            }
        }
        SeekRange {
            range: self.range.intersect(&other.range),
            low_slot: end(
                (&self.range.low, self.low_slot),
                (&other.range.low, other.low_slot),
            ),
            high_slot: end(
                (&self.range.high, self.high_slot),
                (&other.range.high, other.high_slot),
            ),
        }
    }

    /// The key range an execution with value vector `slots` seeks: the
    /// plan's own when no end is a slot's (or no values are given). The one
    /// place a range end is resolved, for [`SeekRange::with_slots`] and the
    /// executor's scans alike.
    pub fn bind(&self, slots: &[Value]) -> Cow<'_, KeyRange> {
        fn end(bound: &Bound<Value>, slot: Option<u32>, slots: &[Value]) -> Bound<Value> {
            match (bound, slot) {
                (Bound::Included(v), Some(s)) => Bound::Included(slot_value(slots, s, v).clone()),
                (Bound::Excluded(v), Some(s)) => Bound::Excluded(slot_value(slots, s, v).clone()),
                (bound, _) => bound.clone(),
            }
        }
        if slots.is_empty() || (self.low_slot, self.high_slot) == (None, None) {
            return Cow::Borrowed(&self.range);
        }
        Cow::Owned(KeyRange {
            low: end(&self.range.low, self.low_slot, slots),
            high: end(&self.range.high, self.high_slot, slots),
        })
    }

    /// The range an execution with value vector `slots` seeks.
    pub fn with_slots(&self, slots: &[Value]) -> SeekRange {
        SeekRange {
            range: self.bind(slots).into_owned(),
            ..*self
        }
    }
}

/// ` {?n=value}` per end that is a slot's value (nothing for a range of
/// literals) — what EXPLAIN appends to a seek.
impl fmt::Display for SeekRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let end = |slot: Option<u32>, bound: &Bound<Value>| match bound {
            Bound::Included(v) | Bound::Excluded(v) => slot.map(|s| (s, v.clone())),
            Bound::Unbounded => None,
        };
        let low = end(self.low_slot, &self.range.low);
        // a point range is one slot at both ends: named once
        let high = end(self.high_slot, &self.range.high).filter(|h| Some(h) != low.as_ref());
        for (slot, v) in low.iter().chain(&high) {
            write!(f, " {{?{slot}={v}}}")?;
        }
        Ok(())
    }
}

impl From<KeyRange> for SeekRange {
    fn from(range: KeyRange) -> SeekRange {
        SeekRange {
            range,
            low_slot: None,
            high_slot: None,
        }
    }
}

/// The range for the values the plan was compiled with (what every
/// compile-time reader of a range wants).
impl Deref for SeekRange {
    type Target = KeyRange;
    fn deref(&self) -> &KeyRange {
        &self.range
    }
}

/// SQL text a plan ships to the back-end: the text for the values the plan
/// was compiled with, and where in it each statement slot's value stands —
/// so an execution with other values ships the text a compilation for
/// *those* values would have generated, byte for byte
/// ([`SqlText::render`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SqlText {
    text: String,
    /// `(start, end, slot)`: `text[start..end]` is the rendering of that
    /// slot's value; in text order.
    slots: Vec<(u32, u32, u32)>,
}

impl SqlText {
    /// From generated SQL in which slot `n` is written `$?n` (how the
    /// unparser renders the parameter named `?n`, and nothing else it
    /// renders outside a string literal looks like that), with
    /// `compiled[n]` the value it has in this compilation.
    pub fn from_marked(marked: &str, compiled: &[Value]) -> SqlText {
        let b = marked.as_bytes();
        let mut text = String::with_capacity(marked.len());
        let mut slots = Vec::new();
        let (mut copied, mut i, mut in_string) = (0, 0, false);
        while i < b.len() {
            match b[i] {
                // a quote opens or closes a literal ('' does both)
                b'\'' => {
                    in_string = !in_string;
                    i += 1;
                }
                b'$' if !in_string && b.get(i + 1) == Some(&b'?') => {
                    let digits = b[i + 2..].iter().take_while(|c| c.is_ascii_digit());
                    let end = i + 2 + digits.count();
                    let slot: u32 = marked[i + 2..end]
                        .parse()
                        .expect("the unparser wrote a slot number");
                    text.push_str(&marked[copied..i]);
                    let start = text.len() as u32;
                    let _ = write!(text, "{}", compiled[slot as usize]);
                    slots.push((start, text.len() as u32, slot));
                    (copied, i) = (end, end);
                }
                _ => i += 1,
            }
        }
        text.push_str(&marked[copied..]);
        SqlText { text, slots }
    }

    /// The text an execution with value vector `slots` ships.
    pub fn render(&self, slots: &[Value]) -> String {
        let mut out = String::with_capacity(self.text.len() + 8);
        let mut copied = 0;
        for &(start, end, slot) in &self.slots {
            out.push_str(&self.text[copied..start as usize]);
            match slots.get(slot as usize) {
                Some(value) => {
                    let _ = write!(out, "{value}");
                }
                None => out.push_str(&self.text[start as usize..end as usize]),
            }
            copied = end as usize;
        }
        out.push_str(&self.text[copied..]);
        out
    }

    /// This text with the values of `slots` in place and no slot left.
    pub fn with_slots(&self, slots: &[Value]) -> SqlText {
        self.render(slots).into()
    }
}

/// The text for the values the plan was compiled with.
impl Deref for SqlText {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl From<String> for SqlText {
    fn from(text: String) -> SqlText {
        SqlText {
            text,
            slots: Vec::new(),
        }
    }
}

/// The text for the values the plan was compiled with — all there is to a
/// text whose slots are resolved ([`SqlText::with_slots`]).
impl From<SqlText> for String {
    fn from(sql: SqlText) -> String {
        sql.text
    }
}

impl From<&str> for SqlText {
    fn from(text: &str) -> SqlText {
        text.to_string().into()
    }
}

impl fmt::Display for SqlText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// How a local scan reaches its rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every row.
    FullScan,
    /// Range (or point) restriction on the leading clustered-key column.
    ClusteredRange {
        /// Column name.
        column: String,
        /// The key range.
        range: SeekRange,
    },
    /// Range over a secondary index.
    IndexRange {
        /// Secondary index name.
        index: String,
        /// Column name.
        column: String,
        /// The key range.
        range: SeekRange,
    },
}

/// The runtime currency check attached to a guarded local access.
#[derive(Debug, Clone, PartialEq)]
pub struct CurrencyGuard {
    /// The region whose staleness is checked.
    pub region: RegionId,
    /// Name of the region's local heartbeat table (`Heartbeat_R`).
    pub heartbeat_table: String,
    /// The applicable currency bound `B` from the query.
    pub bound: Duration,
}

/// A scan over a locally stored object (a cached view at the mid-tier
/// cache, or a master table when planning in back-end role).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalScanNode {
    /// Storage object name.
    pub object: String,
    /// Output schema (columns qualified by the operand binding).
    pub schema: Schema,
    /// Access path.
    pub access: AccessPath,
    /// Residual predicate evaluated on each fetched row.
    pub residual: Option<BoundExpr>,
    /// The operand this scan implements.
    pub operand: OperandId,
    /// Cardinality estimate (for EXPLAIN; costing happens in the optimizer).
    pub est_rows: f64,
}

/// A query shipped to the back-end server.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteQueryNode {
    /// The SQL text sent to the back-end.
    pub sql: SqlText,
    /// Schema of the returned rows (qualified by operand bindings).
    pub schema: Schema,
    /// Operands the remote result covers.
    pub operands: BTreeSet<OperandId>,
    /// Cardinality estimate.
    pub est_rows: f64,
}

/// Inner side of an index nested-loop join.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerAccess {
    /// Local object to seek.
    pub object: String,
    /// Inner schema (qualified).
    pub schema: Schema,
    /// Column seeked per outer row.
    pub seek_col: String,
    /// Secondary index to use (None = leading clustered-key seek).
    pub use_index: Option<String>,
    /// Residual predicate on inner rows.
    pub residual: Option<BoundExpr>,
    /// Currency guard; when it fails at open, the executor falls back to
    /// fetching `remote_sql` once and probing it hashed.
    pub guard: Option<CurrencyGuard>,
    /// Remote fallback SQL fetching the full (filtered) inner input.
    pub remote_sql: Option<SqlText>,
    /// The operand this access implements.
    pub operand: OperandId,
    /// Expected matching rows per probe.
    pub est_rows_per_probe: f64,
    /// Force the remote (fetch + hash probe) mode unconditionally — used
    /// only by guard-stripped baseline plans in the overhead experiments.
    pub force_remote: bool,
}

/// A physical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// A single empty row — source for FROM-less queries (`SELECT 1`).
    OneRow,
    /// Local scan leaf.
    LocalScan(LocalScanNode),
    /// Remote query leaf.
    RemoteQuery(RemoteQueryNode),
    /// Dynamic plan: guard picks local or remote at open time.
    SwitchUnion {
        /// The currency guard (selector expression).
        guard: CurrencyGuard,
        /// Branch used when the guard passes.
        local: Box<PhysicalPlan>,
        /// Branch used when the guard fails.
        remote: Box<PhysicalPlan>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Predicate.
        predicate: BoundExpr,
    },
    /// Projection / expression evaluation.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Output expressions with names.
        exprs: Vec<(BoundExpr, String)>,
    },
    /// Hash join (inner/semi/anti).
    HashJoin {
        /// Probe side.
        left: Box<PhysicalPlan>,
        /// Build side.
        right: Box<PhysicalPlan>,
        /// Probe keys.
        left_keys: Vec<BoundExpr>,
        /// Build keys.
        right_keys: Vec<BoundExpr>,
        /// Join kind.
        kind: JoinKind,
    },
    /// Merge join over inputs already ordered on the join keys — the plan
    /// shape enabled by *delivered sort properties* (the paper's Sec. 3.2.2
    /// uses the sort property as its canonical plan-property example:
    /// "a merge join operator requires that its inputs be sorted on the
    /// join columns").
    MergeJoin {
        /// Left input, ordered on `left_key`.
        left: Box<PhysicalPlan>,
        /// Right input, ordered on `right_key`.
        right: Box<PhysicalPlan>,
        /// Left join key.
        left_key: BoundExpr,
        /// Right join key.
        right_key: BoundExpr,
        /// Join kind.
        kind: JoinKind,
    },
    /// Index nested-loop join: per outer row, seek the inner access.
    IndexNLJoin {
        /// Outer input.
        outer: Box<PhysicalPlan>,
        /// Expression over the outer row producing the seek key.
        outer_key: BoundExpr,
        /// Inner access descriptor.
        inner: InnerAccess,
        /// Join kind.
        kind: JoinKind,
    },
    /// Hash aggregation with optional HAVING.
    HashAggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Group-by expressions with output names.
        group_by: Vec<(BoundExpr, String)>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// HAVING predicate over the aggregate output (qualifier `#agg`).
        having: Option<BoundExpr>,
    },
    /// Full sort on output ordinals.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// (output ordinal, ascending) keys.
        keys: Vec<(usize, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Maximum rows.
        n: u64,
    },
    /// Duplicate elimination over whole rows.
    Distinct {
        /// Input plan.
        input: Box<PhysicalPlan>,
    },
}

/// Which fields of a node are its children, and in what order: the body of
/// [`PhysicalPlan::children`] (`$child` = `&PhysicalPlan`) and
/// [`PhysicalPlan::children_mut`] (`&mut PhysicalPlan`).
macro_rules! children {
    ($plan:expr, $child:ty) => {{
        let (first, second): (Option<$child>, Option<$child>) = match $plan {
            PhysicalPlan::OneRow | PhysicalPlan::LocalScan(_) | PhysicalPlan::RemoteQuery(_) => {
                (None, None)
            }
            PhysicalPlan::SwitchUnion { local, remote, .. } => (Some(local), Some(remote)),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::IndexNLJoin { outer: input, .. } => (Some(input), None),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }};
}

impl PhysicalPlan {
    /// Delivered consistency property (paper Sec. 3.2.2), bottom-up.
    pub fn delivered(&self) -> DeliveredProperty {
        match self {
            PhysicalPlan::OneRow => DeliveredProperty::default(),
            PhysicalPlan::LocalScan(_) => {
                // Local scans only appear guarded at the cache; in back-end
                // role every scan reads the master = latest snapshot.
                // The optimizer tags the property when it *builds* guarded
                // plans, so a bare LocalScan is treated as backend data.
                DeliveredProperty::remote_leaf(self.operand_set())
            }
            PhysicalPlan::RemoteQuery(n) => {
                DeliveredProperty::remote_leaf(n.operands.iter().copied())
            }
            PhysicalPlan::SwitchUnion {
                guard,
                local,
                remote,
            } => {
                let mut local_prop = DeliveredProperty::default();
                // the local branch's operands are served from the guard's region
                for op in local.operand_set() {
                    local_prop = local_prop.join(&DeliveredProperty::local_leaf(guard.region, op));
                }
                DeliveredProperty::switch_union(&[local_prop, remote.delivered()])
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => input.delivered(),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. } => {
                left.delivered().join(&right.delivered())
            }
            PhysicalPlan::IndexNLJoin { outer, inner, .. } => {
                let inner_prop = match (&inner.guard, &inner.remote_sql) {
                    (Some(g), Some(_)) => DeliveredProperty::switch_union(&[
                        DeliveredProperty::local_leaf(g.region, inner.operand),
                        DeliveredProperty::remote_leaf([inner.operand]),
                    ]),
                    _ => DeliveredProperty::remote_leaf([inner.operand]),
                };
                outer.delivered().join(&inner_prop)
            }
        }
    }

    /// All operands contributing rows to this plan.
    pub fn operand_set(&self) -> BTreeSet<OperandId> {
        match self {
            PhysicalPlan::LocalScan(n) => BTreeSet::from([n.operand]),
            PhysicalPlan::RemoteQuery(n) => n.operands.clone(),
            // both branches implement the same operands: the local one says
            // which
            PhysicalPlan::SwitchUnion { local, .. } => local.operand_set(),
            PhysicalPlan::IndexNLJoin { outer, inner, .. } => {
                let mut s = outer.operand_set();
                s.insert(inner.operand);
                s
            }
            _ => self
                .children()
                .flat_map(PhysicalPlan::operand_set)
                .collect(),
        }
    }

    /// The node's direct children: SwitchUnion local then remote, joins
    /// left/outer then right. An index-join's inner access is part of the
    /// join node, not a child. With [`PhysicalPlan::children_mut`] (one
    /// definition, `children!`) this is a plan's structure: walking
    /// `[self] ++ children (recursively)` yields the pre-order every
    /// plan-node number is counted in — the flow analysis' certificates and
    /// its verifier, `Executable::prepare`'s guard decisions, EXPLAIN and
    /// EXPLAIN ANALYZE. A walk that only carries children goes through
    /// them; one whose arms say what a node *means* matches every variant,
    /// so a new variant fails to compile there.
    pub fn children(&self) -> impl Iterator<Item = &PhysicalPlan> {
        children!(self, &PhysicalPlan)
    }

    /// The node's direct children, mutable, in [`PhysicalPlan::children`]
    /// order.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut PhysicalPlan> {
        children!(self, &mut PhysicalPlan)
    }

    /// Visit every node in pre-order ([`PhysicalPlan::children`]).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PhysicalPlan)) {
        f(self);
        for child in self.children() {
            child.visit(f);
        }
    }

    /// Number of plan nodes (an index-join's inner access counts with its
    /// join node).
    pub fn node_count(&self) -> usize {
        1 + self.children().map(PhysicalPlan::node_count).sum::<usize>()
    }

    /// Number of currency guards in the plan: one per SwitchUnion and per
    /// guarded index-join inner.
    pub fn guard_count(&self) -> usize {
        let mut guards = 0;
        self.visit(&mut |node| {
            guards += usize::from(match node {
                PhysicalPlan::SwitchUnion { .. } => true,
                PhysicalPlan::IndexNLJoin { inner, .. } => inner.guard.is_some(),
                _ => false,
            })
        });
        guards
    }

    /// Strip every currency guard, keeping the chosen branch — used by the
    /// guard-overhead experiments (paper Sec. 4.3) to build the
    /// "traditional plans without currency checking" baseline. `use_local`
    /// keeps local branches (the local baseline); otherwise remote
    /// branches are kept.
    pub fn strip_guards(&self, use_local: bool) -> PhysicalPlan {
        let mut plan = self.clone();
        plan.strip_guards_in_place(use_local);
        plan
    }

    fn strip_guards_in_place(&mut self, use_local: bool) {
        match self {
            PhysicalPlan::SwitchUnion { local, remote, .. } => {
                let kept = if use_local { local } else { remote };
                *self = std::mem::replace(&mut **kept, PhysicalPlan::OneRow);
                return self.strip_guards_in_place(use_local);
            }
            PhysicalPlan::IndexNLJoin { inner, .. } => {
                // the remote baseline always fetches and probes hashed
                inner.force_remote |=
                    !use_local && inner.guard.is_some() && inner.remote_sql.is_some();
                inner.guard = None;
            }
            _ => {}
        }
        for child in self.children_mut() {
            child.strip_guards_in_place(use_local);
        }
    }

    /// The plan as an execution with value vector `slots` runs it: a copy
    /// with every slot — in expressions, seek ranges and shipped SQL —
    /// holding that execution's value. The reference definition of where a
    /// plan holds slots: EXPLAIN prints this copy and the row reference
    /// engine is handed it; the executor binds a prepared plan's slots
    /// where it reads them, and debug builds hold every such binding to
    /// this copy.
    pub fn with_slots(&self, slots: &[Value]) -> PhysicalPlan {
        let mut plan = self.clone();
        plan.bind_slots(slots);
        plan
    }

    /// [`PhysicalPlan::with_slots`] in place. Every variant is named: one
    /// that holds an expression, a range or SQL must say how it binds.
    fn bind_slots(&mut self, slots: &[Value]) {
        let bind = |e: &mut BoundExpr| *e = e.with_slots(slots);
        match self {
            PhysicalPlan::LocalScan(n) => {
                match &mut n.access {
                    AccessPath::FullScan => {}
                    AccessPath::ClusteredRange { range, .. }
                    | AccessPath::IndexRange { range, .. } => *range = range.with_slots(slots),
                }
                n.residual.iter_mut().for_each(bind);
            }
            PhysicalPlan::RemoteQuery(n) => n.sql = n.sql.with_slots(slots),
            PhysicalPlan::Filter { predicate, .. } => bind(predicate),
            PhysicalPlan::Project { exprs, .. } => exprs.iter_mut().for_each(|(e, _)| bind(e)),
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                ..
            } => left_keys.iter_mut().chain(right_keys).for_each(bind),
            PhysicalPlan::MergeJoin {
                left_key,
                right_key,
                ..
            } => {
                bind(left_key);
                bind(right_key);
            }
            PhysicalPlan::IndexNLJoin {
                outer_key, inner, ..
            } => {
                bind(outer_key);
                inner.residual.iter_mut().for_each(bind);
                if let Some(sql) = &mut inner.remote_sql {
                    *sql = sql.with_slots(slots);
                }
            }
            PhysicalPlan::HashAggregate {
                group_by,
                aggs,
                having,
                ..
            } => {
                group_by.iter_mut().for_each(|(e, _)| bind(e));
                aggs.iter_mut().for_each(|a| *a = a.with_slots(slots));
                having.iter_mut().for_each(bind);
            }
            PhysicalPlan::OneRow
            | PhysicalPlan::SwitchUnion { .. }
            | PhysicalPlan::Sort { .. }
            | PhysicalPlan::Limit { .. }
            | PhysicalPlan::Distinct { .. } => {}
        }
        for child in self.children_mut() {
            child.bind_slots(slots);
        }
    }

    /// Multi-line EXPLAIN rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// One-line label for this node (no padding/children) — shared by
    /// [`PhysicalPlan::explain`] and the executor's EXPLAIN ANALYZE report.
    pub fn node_label(&self) -> String {
        match self {
            PhysicalPlan::OneRow => "OneRow".to_string(),
            PhysicalPlan::LocalScan(n) => {
                let access = match &n.access {
                    AccessPath::FullScan => "scan".to_string(),
                    AccessPath::ClusteredRange { column, range } => {
                        format!("clustered seek on {column}{range}")
                    }
                    AccessPath::IndexRange {
                        index,
                        column,
                        range,
                    } => {
                        format!("index {index} seek on {column}{range}")
                    }
                };
                format!(
                    "LocalScan {} [{access}] (~{:.0} rows)",
                    n.object, n.est_rows
                )
            }
            PhysicalPlan::RemoteQuery(n) => {
                format!("RemoteQuery (~{:.0} rows): {}", n.est_rows, n.sql)
            }
            PhysicalPlan::SwitchUnion { guard, .. } => format!(
                "SwitchUnion [guard: {} fresh within {}]",
                guard.heartbeat_table, guard.bound
            ),
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysicalPlan::Project { exprs, .. } => {
                let names: Vec<&str> = exprs.iter().map(|(_, n)| n.as_str()).collect();
                format!("Project [{}]", names.join(", "))
            }
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                kind,
                ..
            } => {
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect();
                format!("HashJoin[{kind:?}] on {}", keys.join(" AND "))
            }
            PhysicalPlan::MergeJoin {
                left_key,
                right_key,
                kind,
                ..
            } => {
                format!("MergeJoin[{kind:?}] on {left_key} = {right_key}")
            }
            PhysicalPlan::IndexNLJoin {
                outer_key,
                inner,
                kind,
                ..
            } => {
                let guard = match &inner.guard {
                    Some(g) => format!(" [guard: {} fresh within {}]", g.heartbeat_table, g.bound),
                    None => String::new(),
                };
                format!(
                    "IndexNLJoin[{kind:?}] {outer_key} -> {}.{}{guard}",
                    inner.object, inner.seek_col
                )
            }
            PhysicalPlan::HashAggregate {
                group_by,
                aggs,
                having,
                ..
            } => {
                let gs: Vec<&str> = group_by.iter().map(|(_, n)| n.as_str()).collect();
                let asum: Vec<String> = aggs
                    .iter()
                    .map(|a| {
                        format!(
                            "{}({})",
                            a.func.sql(),
                            a.arg
                                .as_ref()
                                .map(|e| e.to_string())
                                .unwrap_or_else(|| "*".into())
                        )
                    })
                    .collect();
                let h = having
                    .as_ref()
                    .map(|h| format!(" having {h}"))
                    .unwrap_or_default();
                format!(
                    "HashAggregate by [{}] computing [{}]{h}",
                    gs.join(", "),
                    asum.join(", ")
                )
            }
            PhysicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(o, asc)| format!("#{o}{}", if *asc { "" } else { " desc" }))
                    .collect();
                format!("Sort [{}]", ks.join(", "))
            }
            PhysicalPlan::Limit { n, .. } => format!("Limit {n}"),
            PhysicalPlan::Distinct { .. } => "Distinct".to_string(),
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let _ = writeln!(out, "{}{}", "  ".repeat(depth), self.node_label());
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType};

    fn scan(operand: OperandId) -> PhysicalPlan {
        PhysicalPlan::LocalScan(LocalScanNode {
            object: format!("v{operand}"),
            schema: Schema::new(vec![Column::new("id", DataType::Int).with_qualifier("t")]),
            access: AccessPath::FullScan,
            residual: None,
            operand,
            est_rows: 100.0,
        })
    }

    fn remote(ops: &[OperandId]) -> PhysicalPlan {
        PhysicalPlan::RemoteQuery(RemoteQueryNode {
            sql: "SELECT 1 x".into(),
            schema: Schema::new(vec![Column::new("id", DataType::Int).with_qualifier("t")]),
            operands: ops.iter().copied().collect(),
            est_rows: 100.0,
        })
    }

    fn guard(region: u32) -> CurrencyGuard {
        CurrencyGuard {
            region: RegionId(region),
            heartbeat_table: format!("heartbeat_cr{region}"),
            bound: Duration::from_secs(10),
        }
    }

    fn guarded(operand: OperandId, region: u32) -> PhysicalPlan {
        PhysicalPlan::SwitchUnion {
            guard: guard(region),
            local: Box::new(scan(operand)),
            remote: Box::new(remote(&[operand])),
        }
    }

    #[test]
    fn shipped_sql_is_rendered_as_a_compile_for_those_values_renders_it() {
        let compiled = [Value::Int(17), Value::from("it's $?9"), Value::Float(-2.5)];
        // what the unparser writes for slots 0, 1, 2 — beside a literal that
        // only looks like a marker
        let marked = "SELECT c.n FROM c WHERE (c.k = $?0) AND (c.s <> $?1) AND (c.t = '$?0') \
                      AND (c.b > $?2) AND (c.k2 = $?0)";
        let sql = SqlText::from_marked(marked, &compiled);
        let expected = |k: &str, s: &str, b: &str| {
            format!(
                "SELECT c.n FROM c WHERE (c.k = {k}) AND (c.s <> {s}) AND (c.t = '$?0') \
                 AND (c.b > {b}) AND (c.k2 = {k})"
            )
        };
        assert_eq!(&*sql, expected("17", "'it''s $?9'", "-2.5"));
        assert_eq!(sql.render(&[]), &*sql, "no values: as compiled");
        let later = [Value::Int(-4), Value::from(""), Value::Float(1e9)];
        assert_eq!(sql.render(&later), expected("-4", "''", "1000000000"));
        // resolved text holds no slot any more
        assert_eq!(sql.with_slots(&later).render(&compiled), sql.render(&later));
        // plain text is plain text
        let plain: SqlText = "SELECT '$?0'".into();
        assert_eq!(plain.render(&later), "SELECT '$?0'");
    }

    #[test]
    fn a_seek_range_keeps_the_slot_of_an_end_only_it_bounds() {
        let at_least = |v, slot| SeekRange {
            range: KeyRange::at_least(Value::Int(v)),
            low_slot: slot,
            high_slot: None,
        };
        let below = |v, slot| SeekRange {
            range: KeyRange::less_than(Value::Int(v)),
            low_slot: None,
            high_slot: slot,
        };
        // one end each: both slots survive, and follow their values
        let both = at_least(10, Some(0)).intersect(&below(40, Some(1)));
        assert_eq!((both.low_slot, both.high_slot), (Some(0), Some(1)));
        assert_eq!(both.to_string(), " {?0=10} {?1=40}");
        let later = both.with_slots(&[Value::Int(3), Value::Int(7)]);
        assert_eq!(
            later.range,
            KeyRange::at_least(Value::Int(3)).intersect(&KeyRange::less_than(Value::Int(7)))
        );
        // an end two conjuncts bound is nobody's: which is tighter depends on
        // the values, so it stays what it was compiled as
        let shared = below(30, Some(0)).intersect(&below(45, Some(1)));
        assert_eq!((shared.low_slot, shared.high_slot), (None, None));
        assert_eq!(shared.with_slots(&[Value::Int(99), Value::Int(98)]), shared);
        assert_eq!(shared.to_string(), "");
        // a point range is one slot at both ends, printed once
        let point = SeekRange {
            range: KeyRange::eq(Value::Int(5)),
            low_slot: Some(2),
            high_slot: Some(2),
        };
        assert_eq!(point.to_string(), " {?2=5}");
        let plain: SeekRange = KeyRange::eq(Value::Int(5)).into();
        assert_eq!(plain.with_slots(&[Value::Int(1)]), plain);
    }

    #[test]
    fn guard_counting() {
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(guarded(0, 1)),
            right: Box::new(guarded(1, 2)),
            left_keys: vec![],
            right_keys: vec![],
            kind: JoinKind::Inner,
        };
        assert_eq!(plan.guard_count(), 2);
        assert_eq!(remote(&[0]).guard_count(), 0);
    }

    #[test]
    fn operand_sets_accumulate() {
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(guarded(0, 1)),
            right: Box::new(remote(&[1, 2])),
            left_keys: vec![],
            right_keys: vec![],
            kind: JoinKind::Inner,
        };
        assert_eq!(plan.operand_set(), [0, 1, 2].into_iter().collect());
    }

    #[test]
    fn delivered_property_of_guarded_leaf_is_mixed() {
        let d = guarded(0, 1).delivered();
        assert_eq!(d.groups.len(), 1);
        assert_eq!(d.groups[0].tag, crate::property::RegionTag::Mixed);
    }

    #[test]
    fn strip_guards_keeps_chosen_branch() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(guarded(0, 1)),
            n: 5,
        };
        let kept = |branch| PhysicalPlan::Limit {
            input: Box::new(branch),
            n: 5,
        };
        assert_eq!(plan.strip_guards(true), kept(scan(0)));
        assert_eq!(plan.strip_guards(false), kept(remote(&[0])));
    }

    /// Every variant at least once, with a guarded SwitchUnion and an index
    /// join whose inner is guarded and can fetch remotely.
    fn every_variant() -> PhysicalPlan {
        let id = |q: &str| BoundExpr::col(q, "id");
        let boxed = Box::new;
        let inner = InnerAccess {
            object: "v2".into(),
            schema: Schema::new(vec![Column::new("id", DataType::Int).with_qualifier("u")]),
            seek_col: "id".into(),
            use_index: None,
            residual: None,
            guard: Some(guard(2)),
            remote_sql: Some("SELECT id FROM u".into()),
            operand: 2,
            est_rows_per_probe: 1.0,
            force_remote: false,
        };
        let mut far = remote(&[3]);
        if let PhysicalPlan::RemoteQuery(n) = &mut far {
            n.sql = "SELECT 3 x".into();
        }
        let join = PhysicalPlan::HashJoin {
            left: boxed(PhysicalPlan::MergeJoin {
                left: boxed(PhysicalPlan::IndexNLJoin {
                    outer: boxed(guarded(0, 1)),
                    outer_key: id("t"),
                    inner,
                    kind: JoinKind::Inner,
                }),
                right: boxed(PhysicalPlan::OneRow),
                left_key: id("t"),
                right_key: id("t"),
                kind: JoinKind::Inner,
            }),
            right: boxed(far),
            left_keys: vec![id("t")],
            right_keys: vec![id("x")],
            kind: JoinKind::Inner,
        };
        let aggregate = PhysicalPlan::HashAggregate {
            input: boxed(PhysicalPlan::Filter {
                input: boxed(join),
                predicate: id("t"),
            }),
            group_by: vec![(id("t"), "id".into())],
            aggs: vec![],
            having: None,
        };
        PhysicalPlan::Limit {
            input: boxed(PhysicalPlan::Distinct {
                input: boxed(PhysicalPlan::Sort {
                    input: boxed(PhysicalPlan::Project {
                        input: boxed(aggregate),
                        exprs: vec![(id("#agg"), "id".into())],
                    }),
                    keys: vec![(0, true)],
                }),
            }),
            n: 5,
        }
    }

    #[test]
    fn the_structural_walk_visits_every_node_once_in_pre_order() {
        const PRE_ORDER: [&str; 14] = [
            "Limit 5",
            "Distinct",
            "Sort [#0]",
            "Project [id]",
            "HashAggregate by [id]",
            "Filter t.id",
            "HashJoin[Inner]",
            "MergeJoin[Inner]",
            "IndexNLJoin[Inner] t.id -> v2.id [guard: heartbeat_cr2",
            "SwitchUnion [guard: heartbeat_cr1",
            "LocalScan v0",
            "RemoteQuery (~100 rows): SELECT 1 x",
            "OneRow",
            "RemoteQuery (~100 rows): SELECT 3 x",
        ];
        fn by_children_mut(plan: &mut PhysicalPlan, out: &mut Vec<String>) {
            out.push(plan.node_label());
            for child in plan.children_mut() {
                by_children_mut(child, out);
            }
        }
        let mut plan = every_variant();
        // `visit` is the pre-order walk over `children`
        let (mut visited, mut walked_mut) = (vec![], vec![]);
        plan.visit(&mut |node| visited.push(node.node_label()));
        by_children_mut(&mut plan, &mut walked_mut);
        for labels in [&visited, &walked_mut] {
            assert_eq!(labels.len(), PRE_ORDER.len(), "{labels:#?}");
            for (label, expected) in labels.iter().zip(PRE_ORDER) {
                assert!(label.starts_with(expected), "{label} is not {expected}");
            }
        }
        assert_eq!(plan.node_count(), PRE_ORDER.len());
        assert_eq!(plan.guard_count(), 2);
        assert_eq!(plan.operand_set(), [0, 2, 3].into_iter().collect());

        // stripping drops the SwitchUnion and the branch not kept, and the
        // index join's guard; the remote baseline fetches its inner
        for (use_local, leaf) in [(true, PRE_ORDER[10]), (false, PRE_ORDER[11])] {
            let stripped = plan.strip_guards(use_local);
            assert_eq!(stripped.guard_count(), 0);
            let mut labels = vec![];
            stripped.visit(&mut |node| labels.push(node.node_label()));
            assert_eq!(labels.len(), PRE_ORDER.len() - 2);
            assert!(labels[9].starts_with(leaf), "{labels:#?}");
            stripped.visit(&mut |node| {
                if let PhysicalPlan::IndexNLJoin { inner, .. } = node {
                    assert_eq!(inner.force_remote, !use_local);
                }
            });
        }
    }

    #[test]
    fn explain_renders_tree() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(guarded(0, 1)),
            n: 5,
        };
        let text = plan.explain();
        assert!(text.contains("Limit 5"));
        assert!(text.contains("SwitchUnion"));
        assert!(text.contains("heartbeat_cr1"));
        assert!(text.contains("LocalScan v0"));
        assert!(text.contains("RemoteQuery"));
    }
}
