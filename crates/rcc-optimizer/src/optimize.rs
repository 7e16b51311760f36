//! Plan enumeration and selection.
//!
//! "Optimization is entirely cost based" (paper Sec. 3). For each operand
//! the enumerator builds the available access paths — a remote fetch, and
//! one guarded SwitchUnion per matching cached view (discarded at compile
//! time when the bound can never be met: `B < d`, Sec. 3.2.2 last
//! paragraph) — then runs Selinger-style dynamic programming over join
//! orders with hash, merge and index-nested-loop methods. Partial plans
//! violating the consistency rules are pruned as they are built; at the
//! root the satisfaction rule filters the candidates, the fully remote plan
//! is always among them, and the cheapest survivor wins.
//!
//! Per DP subset the enumerator keeps the cheapest candidate *per delivered
//! consistency property* (the memo-with-properties discipline of
//! transformation-based optimizers): a pricier sub-plan whose property can
//! still satisfy the constraint must not be shadowed by a cheaper one that
//! cannot.
//!
//! The search never holds a plan. Everything it needs to know about an
//! operand — required columns, schema, statistics, the master scan, the
//! view matches, what a remote fetch costs — is derived once per call
//! ([`OperandFacts`]). A candidate is an entry in an arena: the step that
//! produced it, naming its inputs by index, plus its cost, row estimate and
//! the two properties pruning looks at, carried forward by the rules
//! [`PhysicalPlan::delivered`] and [`delivered_order`] define for trees.
//! One [`PhysicalPlan`] is built, for the winner, and remote SQL is rendered
//! only for the nodes of that plan. Among candidates of equal cost the one
//! generated first wins, so the choice is a function of the query alone.

use crate::constraint::OperandId;
use crate::cost::CostParams;
use crate::expr::BoundExpr;
use crate::graph::{JoinEdge, JoinKind, QueryGraph};
use crate::ordering::{delivered_order, scan_order, OrderProp};
use crate::physical::{
    AccessPath, CurrencyGuard, InnerAccess, LocalScanNode, PhysicalPlan, RemoteQueryNode,
};
use crate::property::DeliveredProperty;
use crate::sqlgen;
use crate::viewmatch::{self, OperandProfile, ViewMatch};
use rcc_catalog::{Catalog, CurrencyRegion};
use rcc_common::{Duration, Error, Result};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

/// Which server the plan is produced for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The mid-tier cache: base tables are reachable only through cached
    /// views (guarded) or remote queries.
    Cache,
    /// The back-end server: every base table is local and current.
    Backend,
}

/// Optimizer settings.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Server role.
    pub role: Role,
    /// Enable the paper's future-work *SwitchUnion pull-up*: when every
    /// operand of a consistency class has a view in one region, consider a
    /// single guard over the whole local sub-plan instead of per-leaf
    /// guards — this lets multi-table consistency classes be answered
    /// locally.
    pub pullup_switch_union: bool,
    /// Cost constants.
    pub cost: CostParams,
    /// Whether the back-end can be reached. When false (the *traditional
    /// replicated database* scenario — a replica with no master link), the
    /// optimizer never plans plain remote fetches or fully remote queries;
    /// guarded local plans keep their remote branch, which then acts as the
    /// run-time violation detector.
    pub backend_available: bool,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            role: Role::Cache,
            pullup_switch_union: false,
            cost: CostParams::default(),
            backend_available: true,
        }
    }
}

impl OptimizerConfig {
    /// Config for the back-end server.
    pub fn backend() -> OptimizerConfig {
        OptimizerConfig {
            role: Role::Backend,
            ..OptimizerConfig::default()
        }
    }
}

/// Shape classification of the chosen plan, mirroring the paper's plans
/// 1–5 (Fig. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// Plan 1: the whole query shipped to the back-end.
    FullRemote,
    /// Plan 2: base tables fetched remotely, joined locally.
    RemoteFetchLocalJoin,
    /// Plan 4: some inputs local (guarded), some remote.
    Mixed,
    /// Plan 5: every input served by a guarded local view.
    AllLocalGuarded,
    /// Back-end role: everything local and current.
    BackendLocal,
    /// Extension: one pulled-up SwitchUnion over a fully local sub-plan.
    PulledUpSwitchUnion,
}

/// The optimizer's output.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The executable plan.
    pub plan: PhysicalPlan,
    /// Estimated cost in abstract units.
    pub cost: f64,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Shape classification.
    pub choice: PlanChoice,
}

/// Candidates kept per DP subset after pruning.
const KEPT_PER_SUBSET: usize = 12;

/// Optimize a bound query graph.
pub fn optimize(
    catalog: &Catalog,
    graph: &QueryGraph,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    if graph.operands.is_empty() {
        let finishing = Finishing::decide(graph, config, 1.0, None);
        return Ok(Optimized {
            plan: finishing.apply(graph, PhysicalPlan::OneRow),
            cost: 1.0,
            est_rows: 1.0,
            choice: PlanChoice::BackendLocal,
        });
    }
    if graph.operands.len() > 20 {
        return Err(Error::analysis(
            "too many tables in one query block (max 20)",
        ));
    }
    if graph.residuals.len() > 64 {
        return Err(Error::analysis(
            "too many cross-table predicates in one query block (max 64)",
        ));
    }
    let facts = operand_facts(catalog, graph, config);
    let search = Search::run(graph, config, &facts)?;
    search.choose()
}

// ---------------------------------------------------------- operand facts

/// Everything the search needs to know about one operand, derived once per
/// [`optimize`] call and read by the leaf alternatives, all three join
/// builders, the full-query estimate and the pull-up.
struct OperandFacts {
    profile: OperandProfile,
    /// The operand's currency bound.
    bound: Duration,
    /// Scan of the master table: the operand's access in back-end role, and
    /// what serving a remote fetch costs the back-end.
    master: LocalScanNode,
    master_cost: f64,
    master_order: Option<OrderProp>,
    /// Cost of fetching the operand (`master.est_rows` rows of the
    /// profile's schema) from the back-end.
    remote_cost: f64,
    /// What a remote fetch — or the master scan, in back-end role — delivers.
    current: Rc<DeliveredProperty>,
    /// The matching cached views, in match order; none in back-end role.
    views: Vec<ViewFacts>,
}

struct ViewFacts {
    matched: ViewMatch,
    /// Cost of the local scan.
    scan_cost: f64,
    /// The guarded access, unless the region can never meet the operand's
    /// bound (`B < d`, or `B = 0`): such a view is discarded at compile time.
    guarded: Option<GuardedAccess>,
}

struct GuardedAccess {
    /// Probability that the guard passes — formula (1).
    p_local: f64,
    /// What the guarded access delivers, as a SwitchUnion leaf and as the
    /// inner of an index join alike.
    delivered: Rc<DeliveredProperty>,
}

fn operand_facts(
    catalog: &Catalog,
    graph: &QueryGraph,
    config: &OptimizerConfig,
) -> Vec<OperandFacts> {
    (0..graph.operands.len() as OperandId)
        .map(|id| OperandFacts::derive(catalog, graph, config, id))
        .collect()
}

impl OperandFacts {
    fn derive(
        catalog: &Catalog,
        graph: &QueryGraph,
        config: &OptimizerConfig,
        id: OperandId,
    ) -> OperandFacts {
        let profile = OperandProfile::derive(catalog, graph, id);
        let bound = graph.constraint.bound_of(id);
        let master = viewmatch::master_scan(graph, id, &profile);
        let master_cost = scan_cost(config, &master, profile.stats.row_count as f64);
        let remote_cost = config.cost.remote(
            master_cost,
            master.est_rows,
            profile.schema.estimated_row_width() as f64,
        );
        let views = match config.role {
            Role::Backend => Vec::new(),
            Role::Cache => viewmatch::match_views(catalog, graph, id, &profile)
                .into_iter()
                .map(|matched| {
                    let region = &matched.region;
                    let discarded = bound < region.min_guaranteed_currency() || bound.is_zero();
                    let guarded = (!discarded).then(|| GuardedAccess {
                        p_local: config.cost.p_local(bound, region),
                        delivered: Rc::new(DeliveredProperty::switch_union(&[
                            DeliveredProperty::local_leaf(region.id, id),
                            DeliveredProperty::remote_leaf([id]),
                        ])),
                    });
                    ViewFacts {
                        scan_cost: scan_cost(config, &matched.scan, matched.stats_rows as f64),
                        matched,
                        guarded,
                    }
                })
                .collect(),
        };
        OperandFacts {
            bound,
            master_cost,
            master_order: scan_order(&master),
            master,
            remote_cost,
            current: Rc::new(DeliveredProperty::remote_leaf([id])),
            views,
            profile,
        }
    }

    /// Distinct values of `column` in the base table, at least 1.
    fn distinct(&self, column: &str) -> f64 {
        self.profile.stats.column(column).distinct.max(1) as f64
    }
}

fn scan_cost(config: &OptimizerConfig, scan: &LocalScanNode, total_rows: f64) -> f64 {
    match &scan.access {
        AccessPath::FullScan => config.cost.scan(total_rows, scan.est_rows),
        AccessPath::ClusteredRange { .. } => {
            // touched rows ≈ output rows before residual; est_rows already
            // includes all filters, which is close enough for ranges that
            // drive the access path
            config.cost.range_seek(scan.est_rows.max(1.0))
        }
        AccessPath::IndexRange { .. } => config.cost.index_range(scan.est_rows.max(1.0)),
    }
}

// ------------------------------------------------------------- join edges

/// One end of an equi-join edge.
#[derive(Clone, Copy)]
struct KeyCol<'g> {
    binding: &'g str,
    column: &'g str,
}

impl KeyCol<'_> {
    fn expr(&self) -> BoundExpr {
        BoundExpr::col(self.binding, self.column)
    }
}

/// `edge` as it looks when operand `right` joins operands already in
/// place: the key on their side, the key on `right`'s side, and the join
/// kind — an operand is existential only as the right end of its edges.
fn orient<'g>(
    graph: &'g QueryGraph,
    edge: &'g JoinEdge,
    right: OperandId,
) -> (KeyCol<'g>, KeyCol<'g>, JoinKind) {
    let end = |operand: OperandId, column: &'g str| KeyCol {
        binding: &graph.operand(operand).binding,
        column,
    };
    let (left_end, right_end) = (
        end(edge.left, &edge.left_col),
        end(edge.right, &edge.right_col),
    );
    if edge.right == right {
        (left_end, right_end, edge.kind)
    } else {
        (right_end, left_end, JoinKind::Inner)
    }
}

/// The edges connecting operand `right` to the operands in `mask`.
fn connecting_edges(graph: &QueryGraph, mask: u64, right: OperandId) -> Vec<&JoinEdge> {
    graph
        .edges
        .iter()
        .filter(|e| {
            (mask & (1 << e.left) != 0 && e.right == right)
                || (mask & (1 << e.right) != 0 && e.left == right && e.kind == JoinKind::Inner)
        })
        .collect()
}

/// The edges between operand `right` and the operands in `mask`, of any
/// kind and in either direction — how the full-query estimate and the
/// pull-up, which join in operand order, connect the next operand.
fn edges_in_operand_order(graph: &QueryGraph, mask: u64, right: OperandId) -> Vec<&JoinEdge> {
    graph
        .edges
        .iter()
        .filter(|e| {
            (mask & (1 << e.left) != 0 && e.right == right)
                || (mask & (1 << e.right) != 0 && e.left == right)
        })
        .collect()
}

/// Probe keys, build keys and kind of a hash join bringing in `right`.
fn hash_join_keys(
    graph: &QueryGraph,
    edges: &[&JoinEdge],
    right: OperandId,
) -> (Vec<BoundExpr>, Vec<BoundExpr>, JoinKind) {
    let mut left_keys = Vec::with_capacity(edges.len());
    let mut right_keys = Vec::with_capacity(edges.len());
    for e in edges {
        let (outer, inner, _) = orient(graph, e, right);
        left_keys.push(outer.expr());
        right_keys.push(inner.expr());
    }
    (left_keys, right_keys, hash_join_kind(graph, edges, right))
}

fn hash_join_kind(graph: &QueryGraph, edges: &[&JoinEdge], right: OperandId) -> JoinKind {
    // the last semi/anti edge names the kind
    edges
        .iter()
        .rev()
        .map(|e| orient(graph, e, right).2)
        .find(|kind| *kind != JoinKind::Inner)
        .unwrap_or(JoinKind::Inner)
}

/// Per edge, the distinct counts of its left and right columns.
fn edge_distincts(facts: &[OperandFacts], edges: &[&JoinEdge]) -> Vec<(f64, f64)> {
    edges
        .iter()
        .map(|e| {
            (
                facts[e.left as usize].distinct(&e.left_col),
                facts[e.right as usize].distinct(&e.right_col),
            )
        })
        .collect()
}

fn join_cardinality(
    left_rows: f64,
    right_rows: f64,
    distincts: &[(f64, f64)],
    kind: JoinKind,
) -> f64 {
    // classic containment assumption: |L ⋈ R| = |L|·|R| / max(d_l, d_r)
    // per equi edge, with distinct counts from base-table statistics
    let mut inner = left_rows * right_rows;
    let mut d_left_max = 1.0f64;
    for &(d_l, d_r) in distincts {
        inner /= d_l.max(d_r);
        d_left_max = d_left_max.max(d_l);
    }
    if distincts.is_empty() {
        // cross join
        return match kind {
            JoinKind::Inner => inner,
            JoinKind::Semi => left_rows,
            JoinKind::Anti | JoinKind::NullAwareAnti => 1.0,
        };
    }
    match kind {
        JoinKind::Inner => inner.max(0.0),
        JoinKind::Semi => {
            // P(left row has a match) ≈ min(1, |R| / d_left)
            let p = (right_rows / d_left_max).min(1.0);
            (left_rows * p).max(1.0)
        }
        JoinKind::Anti | JoinKind::NullAwareAnti => {
            let p = (right_rows / d_left_max).min(1.0);
            (left_rows * (1.0 - p)).max(1.0)
        }
    }
}

// ------------------------------------------------------------- candidates

/// Index of a candidate in the search's arena. Candidates are appended as
/// they are generated, so a smaller id was generated earlier.
type CandId = usize;

/// How a candidate is produced from its inputs.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The operand's master-table scan (back-end role).
    MasterScan(OperandId),
    /// A remote fetch of the operand.
    RemoteFetch(OperandId),
    /// The operand's `view`-th matching view behind a currency guard.
    GuardedView { operand: OperandId, view: usize },
    /// Hash join; `right` is a leaf alternative.
    HashJoin { left: CandId, right: CandId },
    /// Merge join; `right` is a leaf alternative.
    MergeJoin { left: CandId, right: CandId },
    /// Index nested-loop join seeking operand `inner` ([`Seek`]).
    IndexNLJoin { outer: CandId, inner: OperandId },
    /// `graph.residuals[residual]` filtering `input`.
    Residual { input: CandId, residual: usize },
}

/// A partial plan, as the search sees it.
struct Cand<'a> {
    step: Step,
    /// The operands joined.
    mask: u64,
    cost: f64,
    rows: f64,
    /// Delivered consistency property, by the rules of
    /// [`PhysicalPlan::delivered`].
    delivered: Rc<DeliveredProperty>,
    /// Delivered order, by the rules of [`delivered_order`].
    order: Option<&'a OrderProp>,
    /// The residuals applied, by index.
    applied: u64,
}

/// Do two candidates compete — same consistency groups (in any order), same
/// order, same residuals applied? Only the cheaper of two that do is kept:
/// an ordered-but-pricier sub-plan may enable a merge join above and must
/// not be shadowed.
fn same_properties(a: &Cand<'_>, b: &Cand<'_>) -> bool {
    // an operand is in at most one group, so no group repeats
    let same_groups = |x: &DeliveredProperty, y: &DeliveredProperty| {
        x.groups.len() == y.groups.len() && x.groups.iter().all(|g| y.groups.contains(g))
    };
    a.applied == b.applied
        && a.order == b.order
        && (Rc::ptr_eq(&a.delivered, &b.delivered) || same_groups(&a.delivered, &b.delivered))
}

/// What is fixed about joining operand `right` to a subset, whichever
/// candidate stands for the subset.
struct JoinSite<'a> {
    right: OperandId,
    edges: Vec<&'a JoinEdge>,
    distincts: Vec<(f64, f64)>,
    hash_kind: JoinKind,
    /// The index nested-loop join, when the one connecting edge's column is
    /// seekable on `right`'s side.
    seek: Option<Seek<'a>>,
}

struct Seek<'a> {
    /// At the cache: which of the operand's matching views is sought, and
    /// its guard's pass probability. `None`: the master table (back-end
    /// role).
    guarded_view: Option<(usize, f64)>,
    kind: JoinKind,
    /// Expected matching rows per probe.
    per_probe: f64,
    /// What the inner side delivers.
    delivered: &'a Rc<DeliveredProperty>,
}

/// The enumerator's state: the arena of candidates and, per operand subset,
/// the candidates kept.
struct Search<'a> {
    graph: &'a QueryGraph,
    config: &'a OptimizerConfig,
    facts: &'a [OperandFacts],
    /// Per residual, the operands it references; `None` when it names
    /// something that is no operand, and so is never ready.
    residual_operands: Vec<Option<u64>>,
    arena: Vec<Cand<'a>>,
    /// Per operand, its access alternatives.
    leaves: Vec<Vec<CandId>>,
    memo: BTreeMap<u64, Vec<CandId>>,
}

impl<'a> Search<'a> {
    fn run(
        graph: &'a QueryGraph,
        config: &'a OptimizerConfig,
        facts: &'a [OperandFacts],
    ) -> Result<Search<'a>> {
        let residual_operands = graph
            .residuals
            .iter()
            .map(|r| {
                r.referenced_qualifiers().iter().try_fold(0u64, |mask, q| {
                    let op = graph.operands.iter().find(|o| o.binding == *q)?;
                    Some(mask | 1 << op.id)
                })
            })
            .collect();
        let mut search = Search {
            graph,
            config,
            facts,
            residual_operands,
            arena: Vec::new(),
            leaves: Vec::with_capacity(facts.len()),
            memo: BTreeMap::new(),
        };
        let n = facts.len();
        for id in 0..n as OperandId {
            let alts = search.leaf_alternatives(id);
            if alts.is_empty() {
                return Err(Error::NoPlan(format!(
                    "no access path for operand {} ({})",
                    id,
                    graph.operand(id).binding
                )));
            }
            search.leaves.push(alts);
        }
        for id in 0..n {
            if graph.operand(id as OperandId).existential {
                continue; // existential operands never stand alone
            }
            let cands = search.leaves[id]
                .clone()
                .into_iter()
                .map(|c| search.apply_ready_residuals(c))
                .collect();
            let kept = search.prune(cands);
            search.memo.insert(1 << id, kept);
        }
        for size in 1..n as u32 {
            let masks: Vec<u64> = search
                .memo
                .keys()
                .copied()
                .filter(|m| m.count_ones() == size)
                .collect();
            for mask in masks {
                for j in 0..n as OperandId {
                    if mask & (1 << j) == 0 {
                        search.extend(mask, j);
                    }
                }
            }
        }
        Ok(search)
    }

    fn push(&mut self, cand: Cand<'a>) -> CandId {
        self.arena.push(cand);
        self.arena.len() - 1
    }

    // ---------------------------------------------------------- leaf access

    fn leaf_alternatives(&mut self, id: OperandId) -> Vec<CandId> {
        let facts = &self.facts[id as usize];
        let leaf = |step, cost, rows, delivered: &Rc<DeliveredProperty>, order| Cand {
            step,
            mask: 1 << id,
            cost,
            rows,
            delivered: Rc::clone(delivered),
            order,
            applied: 0,
        };
        let mut alts = Vec::new();
        if self.config.role == Role::Backend {
            alts.push(leaf(
                Step::MasterScan(id),
                facts.master_cost,
                facts.master.est_rows,
                &facts.current,
                facts.master_order.as_ref(),
            ));
        } else {
            if self.config.backend_available {
                alts.push(leaf(
                    Step::RemoteFetch(id),
                    facts.remote_cost,
                    facts.master.est_rows,
                    &facts.current,
                    None,
                ));
            }
            for (view, v) in facts.views.iter().enumerate() {
                let Some(guarded) = &v.guarded else { continue };
                let est_rows = v.matched.scan.est_rows;
                alts.push(leaf(
                    Step::GuardedView { operand: id, view },
                    self.config.cost.switch_union(
                        guarded.p_local,
                        v.scan_cost,
                        facts.remote_cost,
                        est_rows,
                    ),
                    est_rows,
                    &guarded.delivered,
                    None,
                ));
            }
        }
        alts.into_iter().map(|c| self.push(c)).collect()
    }

    // ---------------------------------------------------------------- joins

    /// Join operand `j` to every candidate kept for `mask`, by every method
    /// and over each of `j`'s access alternatives.
    fn extend(&mut self, mask: u64, j: OperandId) {
        let graph = self.graph;
        let edges = connecting_edges(graph, mask, j);
        if graph.operand(j).existential {
            // all semi/anti edges for j must have their outer side present
            let ready = graph
                .edges
                .iter()
                .filter(|e| e.right == j && e.kind != JoinKind::Inner)
                .all(|e| mask & (1 << e.left) != 0);
            if !ready || edges.is_empty() {
                return;
            }
        } else if edges.is_empty() {
            // allow cross joins only when j connects to nothing at all
            let connects_somewhere = graph.edges.iter().any(|e| e.left == j || e.right == j);
            if connects_somewhere {
                return;
            }
        }
        let site = self.join_site(j, edges);
        let lefts = self.memo[&mask].clone();
        let rights = self.leaves[j as usize].clone();
        let mut kept = self.memo.remove(&(mask | 1 << j)).unwrap_or_default();
        for &left in &lefts {
            for &right in &rights {
                let joined = self.hash_join(&site, left, right);
                self.admit(joined, &mut kept);
                if let Some(joined) = self.merge_join(&site, left, right) {
                    self.admit(joined, &mut kept);
                }
            }
            if let Some(joined) = self.index_nl_join(&site, left) {
                self.admit(joined, &mut kept);
            }
        }
        let kept = self.prune(kept);
        self.memo.insert(mask | 1 << j, kept);
    }

    /// Keep a freshly joined candidate unless it violates the constraint
    /// already, with every residual that has become ready applied.
    fn admit(&mut self, cand: Cand<'a>, kept: &mut Vec<CandId>) {
        if cand.delivered.violates(&self.graph.constraint) {
            return;
        }
        let id = self.push(cand);
        kept.push(self.apply_ready_residuals(id));
    }

    fn join_site(&self, right: OperandId, edges: Vec<&'a JoinEdge>) -> JoinSite<'a> {
        JoinSite {
            right,
            distincts: edge_distincts(self.facts, &edges),
            hash_kind: hash_join_kind(self.graph, &edges, right),
            seek: self.seek(right, &edges),
            edges,
        }
    }

    fn hash_join(&self, site: &JoinSite<'a>, left_id: CandId, right_id: CandId) -> Cand<'a> {
        let (left, right) = (&self.arena[left_id], &self.arena[right_id]);
        let out_rows = join_cardinality(left.rows, right.rows, &site.distincts, site.hash_kind);
        Cand {
            step: Step::HashJoin {
                left: left_id,
                right: right_id,
            },
            mask: left.mask | right.mask,
            cost: left.cost
                + right.cost
                + self.config.cost.hash_join(left.rows, right.rows, out_rows),
            rows: out_rows,
            delivered: Rc::new(left.delivered.join(&right.delivered)),
            order: None,
            applied: left.applied | right.applied,
        }
    }

    /// Merge join: admissible only when *both* inputs already deliver the
    /// join-key order (no sort enforcers are inserted — BTree scans provide
    /// key order for free, which is the case the paper's sort-property
    /// example is about). Inner joins only; semi/anti stay on the hash path.
    fn merge_join(
        &self,
        site: &JoinSite<'a>,
        left_id: CandId,
        right_id: CandId,
    ) -> Option<Cand<'a>> {
        let [e] = site.edges[..] else { return None };
        if e.kind != JoinKind::Inner {
            return None;
        }
        let (left, right) = (&self.arena[left_id], &self.arena[right_id]);
        // required sort properties: each input must deliver its key's order
        let (left_key, right_key, _) = orient(self.graph, e, site.right);
        if !left.order?.names(left_key.binding, left_key.column)
            || !right.order?.names(right_key.binding, right_key.column)
        {
            return None;
        }
        let out_rows = join_cardinality(left.rows, right.rows, &site.distincts, JoinKind::Inner);
        // linear merge: one pass over each input plus output materialization
        let cost = left.cost
            + right.cost
            + (left.rows + right.rows) * self.config.cost.cpu_row
            + out_rows * self.config.cost.output_row;
        Some(Cand {
            step: Step::MergeJoin {
                left: left_id,
                right: right_id,
            },
            mask: left.mask | right.mask,
            cost,
            rows: out_rows,
            delivered: Rc::new(left.delivered.join(&right.delivered)),
            order: left.order,
            applied: left.applied | right.applied,
        })
    }

    /// The index nested-loop access to operand `right` over `edges`: exactly
    /// one connecting equi edge whose column on `right`'s side is seekable —
    /// on the master table in back-end role, on the first matching view
    /// that leads with it or indexes it at the cache (behind that view's
    /// guard, so not at all when the region cannot meet the bound).
    fn seek(&self, right: OperandId, edges: &[&'a JoinEdge]) -> Option<Seek<'a>> {
        let [e] = edges[..] else { return None };
        let (_, inner, kind) = orient(self.graph, e, right);
        let facts = &self.facts[right as usize];
        let table = &self.graph.operand(right).table;
        let table_rows = facts.profile.stats.row_count as f64;
        let per_probe =
            (table_rows / facts.distinct(inner.column) * facts.profile.selectivity).max(0.0);
        match self.config.role {
            Role::Backend => {
                // the leading clustered key or a secondary index
                (table.is_leading_key(inner.column) || table.index_on(inner.column).is_some())
                    .then_some(Seek {
                        guarded_view: None,
                        kind,
                        per_probe,
                        delivered: &facts.current,
                    })
            }
            Role::Cache => {
                let view = facts.views.iter().position(|v| {
                    let view = &v.matched.view;
                    view.is_leading_key(inner.column) || view.local_index_on(inner.column).is_some()
                })?;
                let guarded = facts.views[view].guarded.as_ref()?;
                Some(Seek {
                    guarded_view: Some((view, guarded.p_local)),
                    kind,
                    per_probe,
                    delivered: &guarded.delivered,
                })
            }
        }
    }

    fn index_nl_join(&self, site: &JoinSite<'a>, outer_id: CandId) -> Option<Cand<'a>> {
        let seek = site.seek.as_ref()?;
        let outer = &self.arena[outer_id];
        let cost = &self.config.cost;
        let matched = outer.rows * seek.per_probe;
        let nl_local = cost.index_nl_join(outer.rows, seek.per_probe);
        let join_cost = match seek.guarded_view {
            None => nl_local,
            Some((_, p)) => {
                // when the guard fails: fetch the inner once, probe it hashed
                let inner = &self.facts[site.right as usize];
                let fallback =
                    inner.remote_cost + cost.hash_join(outer.rows, inner.master.est_rows, matched);
                cost.switch_union(p, nl_local, fallback, matched)
            }
        };
        let out_rows = match seek.kind {
            JoinKind::Inner => matched,
            kind => join_cardinality(outer.rows, matched, &site.distincts, kind),
        };
        Some(Cand {
            step: Step::IndexNLJoin {
                outer: outer_id,
                inner: site.right,
            },
            mask: outer.mask | 1 << site.right,
            cost: outer.cost + join_cost,
            rows: out_rows.max(0.0),
            delivered: Rc::new(outer.delivered.join(seek.delivered)),
            order: None,
            applied: outer.applied,
        })
    }

    // ------------------------------------------------------------ residuals

    /// Filter candidate `id` by every residual not yet applied whose
    /// operands it has all joined; returns the topmost filter (or `id`).
    fn apply_ready_residuals(&mut self, mut id: CandId) -> CandId {
        for residual in 0..self.residual_operands.len() {
            let cand = &self.arena[id];
            let ready = self.residual_operands[residual].is_some_and(|ops| ops & !cand.mask == 0);
            if !ready || cand.applied & (1 << residual) != 0 {
                continue;
            }
            let filtered = Cand {
                step: Step::Residual {
                    input: id,
                    residual,
                },
                mask: cand.mask,
                cost: cand.cost + cand.rows * self.config.cost.cpu_row,
                rows: (cand.rows * 0.33).max(0.0),
                delivered: Rc::clone(&cand.delivered),
                order: cand.order,
                applied: cand.applied | 1 << residual,
            };
            id = self.push(filtered);
        }
        id
    }

    // -------------------------------------------------------------- pruning

    /// Of the candidates with the same properties ([`same_properties`]) keep
    /// the cheapest, then the [`KEPT_PER_SUBSET`] cheapest of those. Equal
    /// costs rank in generation order.
    fn prune(&self, cands: Vec<CandId>) -> Vec<CandId> {
        let arena = &self.arena;
        let mut best: Vec<CandId> = Vec::with_capacity(cands.len());
        for id in cands {
            match best
                .iter_mut()
                .find(|kept| same_properties(&arena[**kept], &arena[id]))
            {
                Some(kept) if arena[*kept].cost <= arena[id].cost => {}
                Some(kept) => *kept = id,
                None => best.push(id),
            }
        }
        best.sort_by(|a, b| arena[*a].cost.total_cmp(&arena[*b].cost).then(a.cmp(b)));
        best.truncate(KEPT_PER_SUBSET);
        debug_assert!(best
            .iter()
            .all(|&id| self.carries_what_its_plan_delivers(id)));
        best
    }

    /// The tree-walking definitions stay the reference: the properties a
    /// candidate carries must be the ones its plan, once built, is found to
    /// deliver.
    fn carries_what_its_plan_delivers(&self, id: CandId) -> bool {
        let plan = self.build(id);
        let cand = &self.arena[id];
        *cand.delivered == plan.delivered() && cand.order.cloned() == delivered_order(&plan)
    }

    // ----------------------------------------------------------------- root

    /// Pick the cheapest complete plan that satisfies the constraint — among
    /// the joined candidates, the fully remote plan (always available at
    /// the cache, always satisfying) and the pulled-up SwitchUnion — and
    /// build it.
    fn choose(&self) -> Result<Optimized> {
        let (graph, config) = (self.graph, self.config);
        let full_mask = (1u64 << self.facts.len()) - 1;
        let mut root: Vec<(f64, Root)> = Vec::new();
        for &id in self.memo.get(&full_mask).into_iter().flatten() {
            let cand = &self.arena[id];
            if cand.delivered.satisfies(&graph.constraint) {
                root.push((cand.cost, Root::Joined(id)));
            }
        }
        if config.role == Role::Cache && config.backend_available {
            let full = estimate_full_query(self.facts, graph, config);
            root.push((full.cost, Root::FullRemote(full)));
            if config.pullup_switch_union {
                if let Some(pullup) = self.plan_pullup(full) {
                    root.push((pullup.cost, Root::PulledUp(pullup)));
                }
            }
        }
        // the first of the cheapest
        let (cost, best) = root
            .into_iter()
            .reduce(|best, next| {
                if next.0.total_cmp(&best.0).is_lt() {
                    next
                } else {
                    best
                }
            })
            .ok_or_else(|| {
                Error::NoPlan(format!(
                    "no plan satisfies the consistency constraint {}",
                    graph.constraint
                ))
            })?;
        Ok(match best {
            // Out of the memo: the local finishing operators go on top.
            Root::Joined(id) => {
                let cand = &self.arena[id];
                let plan = self.build(id);
                let choice = classify(&plan, config.role);
                let finishing = Finishing::decide(graph, config, cand.rows, cand.order);
                Optimized {
                    plan: finishing.apply(graph, plan),
                    cost: cost + finishing.extra,
                    est_rows: finishing.rows,
                    choice,
                }
            }
            // Whole-query-remote plans perform aggregation, ordering and
            // projection at the back-end.
            Root::FullRemote(full) => Optimized {
                plan: PhysicalPlan::RemoteQuery(self.full_remote(full)),
                cost,
                est_rows: full.rows,
                choice: PlanChoice::FullRemote,
            },
            Root::PulledUp(pullup) => Optimized {
                plan: self.build_pullup(&pullup),
                cost,
                est_rows: pullup.rows,
                choice: PlanChoice::PulledUpSwitchUnion,
            },
        })
    }

    // ---------------------------------------------------------------- build

    /// The plan of candidate `id`: the one tree construction of the search,
    /// run for the winner (and, in debug builds, to check what candidates
    /// carry).
    fn build(&self, id: CandId) -> PhysicalPlan {
        let graph = self.graph;
        let cand = &self.arena[id];
        let right_operand = |right: CandId| self.arena[right].mask.trailing_zeros() as OperandId;
        match cand.step {
            Step::MasterScan(operand) => {
                PhysicalPlan::LocalScan(self.facts[operand as usize].master.clone())
            }
            Step::RemoteFetch(operand) => PhysicalPlan::RemoteQuery(self.remote_fetch(operand)),
            Step::GuardedView { operand, view } => {
                let matched = &self.facts[operand as usize].views[view].matched;
                PhysicalPlan::SwitchUnion {
                    guard: self.guard(operand, &matched.region),
                    local: Box::new(PhysicalPlan::LocalScan(matched.scan.clone())),
                    remote: Box::new(PhysicalPlan::RemoteQuery(self.remote_fetch(operand))),
                }
            }
            Step::HashJoin { left, right } => {
                let j = right_operand(right);
                let edges = connecting_edges(graph, self.arena[left].mask, j);
                let (left_keys, right_keys, kind) = hash_join_keys(graph, &edges, j);
                PhysicalPlan::HashJoin {
                    left: Box::new(self.build(left)),
                    right: Box::new(self.build(right)),
                    left_keys,
                    right_keys,
                    kind,
                }
            }
            Step::MergeJoin { left, right } => {
                let j = right_operand(right);
                let edges = connecting_edges(graph, self.arena[left].mask, j);
                let (left_key, right_key, _) = orient(graph, edges[0], j);
                PhysicalPlan::MergeJoin {
                    left: Box::new(self.build(left)),
                    right: Box::new(self.build(right)),
                    left_key: left_key.expr(),
                    right_key: right_key.expr(),
                    kind: JoinKind::Inner,
                }
            }
            Step::IndexNLJoin { outer, inner } => {
                let edges = connecting_edges(graph, self.arena[outer].mask, inner);
                let (outer_key, inner_key, kind) = orient(graph, edges[0], inner);
                let seek = self
                    .seek(inner, &edges)
                    .expect("an index join is only proposed over a seekable edge");
                let op = graph.operand(inner);
                let facts = &self.facts[inner as usize];
                let seek_col = inner_key.column;
                let (object, use_index, guard, remote_sql) = match seek.guarded_view {
                    None => (
                        op.table.name.clone(),
                        (!op.table.is_leading_key(seek_col))
                            .then(|| op.table.index_on(seek_col).map(|ix| ix.name.clone()))
                            .flatten(),
                        None,
                        None,
                    ),
                    Some((view, _)) => {
                        let matched = &facts.views[view].matched;
                        (
                            matched.view.name.clone(),
                            (!matched.view.is_leading_key(seek_col))
                                .then(|| matched.view.local_index_on(seek_col).map(str::to_string))
                                .flatten(),
                            Some(self.guard(inner, &matched.region)),
                            Some(self.remote_fetch(inner).sql),
                        )
                    }
                };
                PhysicalPlan::IndexNLJoin {
                    outer: Box::new(self.build(outer)),
                    outer_key: outer_key.expr(),
                    inner: InnerAccess {
                        object,
                        schema: facts.profile.schema.clone(),
                        seek_col: seek_col.to_string(),
                        use_index,
                        residual: BoundExpr::and_all(op.filters.clone()),
                        guard,
                        remote_sql,
                        operand: inner,
                        est_rows_per_probe: seek.per_probe,
                        force_remote: false,
                    },
                    kind,
                }
            }
            Step::Residual { input, residual } => PhysicalPlan::Filter {
                input: Box::new(self.build(input)),
                predicate: graph.residuals[residual].clone(),
            },
        }
    }

    /// The whole query shipped to the back-end, its SQL rendered.
    fn full_remote(&self, full: FullQuery) -> RemoteQueryNode {
        let (sql, schema) = sqlgen::full_query_sql(self.graph);
        RemoteQueryNode {
            sql,
            schema,
            operands: (0..self.facts.len() as OperandId).collect(),
            est_rows: full.rows,
        }
    }

    /// The remote fetch of one operand, its SQL rendered.
    fn remote_fetch(&self, operand: OperandId) -> RemoteQueryNode {
        let facts = &self.facts[operand as usize];
        let (sql, schema) = sqlgen::operand_sql(self.graph, operand, &facts.profile.required);
        RemoteQueryNode {
            sql,
            schema,
            operands: [operand].into_iter().collect(),
            est_rows: facts.master.est_rows,
        }
    }

    fn guard(&self, operand: OperandId, region: &CurrencyRegion) -> CurrencyGuard {
        CurrencyGuard {
            region: region.id,
            heartbeat_table: region.heartbeat_table_name(),
            bound: self.facts[operand as usize].bound,
        }
    }

    // -------------------------------------------------------------- pull-up

    /// The SwitchUnion pull-up extension: if every operand has a matching
    /// view and all those views live in ONE region, propose
    /// `SwitchUnion(local-only join plan, full remote)` with a single guard
    /// whose bound is the tightest class bound. The local branch joins the
    /// operands' first matching views in operand order, left-deep and
    /// hashed, and is finished to the shape the remote branch computes.
    fn plan_pullup(&self, full: FullQuery) -> Option<Pullup> {
        let (graph, config) = (self.graph, self.config);
        let mut scans = self.facts.iter().map(|f| f.views.first());
        let first = scans.next()??;
        let region = &first.matched.region;
        let bound = graph
            .constraint
            .classes
            .iter()
            .map(|c| c.bound)
            .min()
            .unwrap_or(Duration::ZERO);
        // the pull-up costs its scans against the views' own statistics
        let scan_cost = |m: &ViewMatch| scan_cost(config, &m.scan, m.analyzed_rows.max(1) as f64);
        let mut local_cost = scan_cost(&first.matched);
        let mut rows = first.matched.scan.est_rows;
        let mut joined = 1u64 << first.matched.scan.operand;
        for v in scans {
            let m = &v?.matched;
            if m.region.id != region.id {
                return None;
            }
            let edges = edges_in_operand_order(graph, joined, m.scan.operand);
            let right_rows = m.scan.est_rows;
            local_cost += scan_cost(m)
                + config
                    .cost
                    .hash_join(rows, right_rows, rows.max(right_rows));
            rows = match hash_join_kind(graph, &edges, m.scan.operand) {
                JoinKind::Inner => rows.max(right_rows),
                JoinKind::Semi => rows * 0.8,
                JoinKind::Anti | JoinKind::NullAwareAnti => rows * 0.2,
            };
            joined |= 1 << m.scan.operand;
        }
        if bound < region.min_guaranteed_currency() || bound.is_zero() {
            return None;
        }
        // delivered: all operands consistent in both branches (single
        // region vs. backend) → one Mixed group covering everything
        let operands = 0..self.facts.len() as OperandId;
        let local = operands
            .clone()
            .fold(DeliveredProperty::default(), |local, op| {
                local.join(&DeliveredProperty::local_leaf(region.id, op))
            });
        let delivered =
            DeliveredProperty::switch_union(&[local, DeliveredProperty::remote_leaf(operands)]);
        if !delivered.satisfies(&graph.constraint) {
            return None;
        }
        let order = match self.facts {
            [_] => scan_order(&first.matched.scan),
            _ => None,
        };
        let finishing = Finishing::decide(graph, config, rows, order.as_ref());
        let p = config.cost.p_local(bound, region);
        Some(Pullup {
            cost: config
                .cost
                .switch_union(p, local_cost + finishing.extra, full.cost, rows),
            rows,
            region: Arc::clone(region),
            bound,
            finishing,
            full,
        })
    }

    fn build_pullup(&self, pullup: &Pullup) -> PhysicalPlan {
        let graph = self.graph;
        let mut scans = self.facts.iter().map(|f| &f.views[0].matched.scan);
        let first = scans.next().expect("a pull-up has operands");
        let mut joined = 1u64 << first.operand;
        let mut local = PhysicalPlan::LocalScan(first.clone());
        for scan in scans {
            let edges = edges_in_operand_order(graph, joined, scan.operand);
            let (left_keys, right_keys, kind) = hash_join_keys(graph, &edges, scan.operand);
            joined |= 1 << scan.operand;
            local = PhysicalPlan::HashJoin {
                left: Box::new(local),
                right: Box::new(PhysicalPlan::LocalScan(scan.clone())),
                left_keys,
                right_keys,
                kind,
            };
        }
        // the remote branch computes the FULL query, so the local branch
        // is finished to the same shape before being unioned
        PhysicalPlan::SwitchUnion {
            guard: CurrencyGuard {
                region: pullup.region.id,
                heartbeat_table: pullup.region.heartbeat_table_name(),
                bound: pullup.bound,
            },
            local: Box::new(pullup.finishing.apply(graph, local)),
            remote: Box::new(PhysicalPlan::RemoteQuery(self.full_remote(pullup.full))),
        }
    }
}

/// A complete plan the root chooses among.
enum Root {
    /// A candidate joining every operand; needs the finishing operators.
    Joined(CandId),
    /// The whole query shipped to the back-end.
    FullRemote(FullQuery),
    /// One guard over a fully local plan, the whole query as its fallback.
    PulledUp(Pullup),
}

struct Pullup {
    region: Arc<CurrencyRegion>,
    bound: Duration,
    cost: f64,
    /// Rows out of the local join (before finishing).
    rows: f64,
    /// How the local branch is finished.
    finishing: Finishing,
    /// The remote branch.
    full: FullQuery,
}

// ------------------------------------------------------------- finishing

/// Aggregation, distinct, projection, sort and limit on top of a join
/// result: decided — what it costs, how many rows remain, whether the sort
/// can be elided — from the row estimate and order a candidate carries, and
/// applied to a plan once one is built.
struct Finishing {
    extra: f64,
    rows: f64,
    /// Whether a Sort operator is needed for the ORDER BY.
    sort: bool,
}

impl Finishing {
    fn decide(
        graph: &QueryGraph,
        config: &OptimizerConfig,
        mut rows: f64,
        order: Option<&OrderProp>,
    ) -> Finishing {
        let mut extra = 0.0;
        if let Some(agg) = &graph.aggregate {
            let groups = if agg.group_by.is_empty() {
                1.0
            } else {
                (rows / 10.0).max(1.0)
            };
            extra += config.cost.aggregate(rows, groups);
            rows = groups;
        }
        // the projection (after an aggregate: renaming its columns)
        extra += rows * config.cost.cpu_row;
        if graph.distinct {
            extra += rows * config.cost.hash_build;
            rows = (rows * 0.9).max(1.0);
        }
        // sort elision via the delivered order property: a single ascending
        // ORDER BY over a column the input already delivers in order (e.g. a
        // clustered-range scan) needs no Sort operator — the projection
        // keeps the column, only DISTINCT's hashing would lose the order
        let elidable = match (graph.order_by.as_slice(), &graph.aggregate) {
            ([(ordinal, true)], None) if !graph.distinct => graph
                .projections
                .get(*ordinal)
                .is_some_and(|(expr, _)| order.is_some_and(|o| o.matches(expr))),
            _ => false,
        };
        let sort = !graph.order_by.is_empty() && !elidable;
        if sort {
            extra += config.cost.sort(rows);
        }
        if let Some(n) = graph.limit {
            rows = rows.min(n as f64);
        }
        Finishing { extra, rows, sort }
    }

    fn apply(&self, graph: &QueryGraph, mut plan: PhysicalPlan) -> PhysicalPlan {
        match &graph.aggregate {
            Some(agg) => {
                plan = PhysicalPlan::HashAggregate {
                    input: Box::new(plan),
                    group_by: agg.group_by.clone(),
                    aggs: agg.aggs.clone(),
                    having: agg.having.clone(),
                };
                // rename #agg columns to plain output names
                let exprs = graph
                    .output_schema()
                    .columns()
                    .iter()
                    .map(|c| (BoundExpr::col("#agg", &c.name), c.name.clone()))
                    .collect();
                plan = PhysicalPlan::Project {
                    input: Box::new(plan),
                    exprs,
                };
            }
            None => {
                plan = PhysicalPlan::Project {
                    input: Box::new(plan),
                    exprs: graph.projections.clone(),
                };
            }
        }
        if graph.distinct {
            plan = PhysicalPlan::Distinct {
                input: Box::new(plan),
            };
        }
        if !graph.order_by.is_empty() {
            // the decision was made on a carried order; the plan's own
            // delivered order must agree that an elided sort is not needed
            debug_assert!(
                self.sort
                    || delivered_order(&plan)
                        .is_some_and(|o| o.matches(&graph.projections[graph.order_by[0].0].0))
            );
            if self.sort {
                plan = PhysicalPlan::Sort {
                    input: Box::new(plan),
                    keys: graph.order_by.clone(),
                };
            }
        }
        if let Some(n) = graph.limit {
            plan = PhysicalPlan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        plan
    }
}

// ------------------------------------------------------- full-query remote

/// What shipping the whole query costs.
#[derive(Clone, Copy)]
struct FullQuery {
    /// Rows shipped back.
    rows: f64,
    /// Cost of executing at the back-end and shipping the result.
    cost: f64,
}

fn estimate_full_query(
    facts: &[OperandFacts],
    graph: &QueryGraph,
    config: &OptimizerConfig,
) -> FullQuery {
    // back-end execution: best access per operand, then joins in operand
    // order, each costed as min(hash join, index NL when the join column
    // leads the inner's clustered key)
    let mut backend_cost = 0.0;
    let mut rows = 0.0f64;
    let mut width = 0.0f64;
    let mut joined = 0u64;
    for (op, f) in graph.operands.iter().zip(facts) {
        let op_rows = f.master.est_rows;
        let op_width = f.profile.schema.estimated_row_width() as f64;
        if joined == 0 {
            backend_cost += f.master_cost;
            rows = op_rows;
            if !op.existential {
                width = op_width;
            }
            joined |= 1 << op.id;
            continue;
        }
        let edges = edges_in_operand_order(graph, joined, op.id);
        let kind = edges
            .iter()
            .find(|e| e.kind != JoinKind::Inner)
            .map(|e| e.kind)
            .unwrap_or(JoinKind::Inner);
        let out = join_cardinality(rows, op_rows, &edge_distincts(facts, &edges), kind);
        // hash: scan the operand fully and build
        let hash = f.master_cost + config.cost.hash_join(rows, op_rows, out);
        // NL: seek the operand's clustered key per outer row, if possible
        let nl = edges
            .iter()
            .find(|e| {
                let (inner_col, inner_op) = if e.right == op.id {
                    (&e.right_col, e.right)
                } else {
                    (&e.left_col, e.left)
                };
                inner_op == op.id && op.table.is_leading_key(inner_col)
            })
            .map(|_| {
                let d = f.distinct(op.table.key.first().map(String::as_str).unwrap_or(""));
                let per_probe = f.profile.stats.row_count as f64 / d;
                config.cost.index_nl_join(rows, per_probe)
            })
            .unwrap_or(f64::INFINITY);
        backend_cost += hash.min(nl);
        rows = out;
        if !op.existential {
            width += op_width;
        }
        joined |= 1 << op.id;
    }
    // residuals cut cardinality
    for _ in &graph.residuals {
        rows *= 0.33;
    }
    // aggregation shrinks the shipped result
    if graph.aggregate.is_some() {
        rows = (rows / 10.0).max(1.0);
        width = graph.output_schema().estimated_row_width() as f64;
    } else if !graph.projections.is_empty() {
        // shipped width is the projected width
        width = (graph.projections.len() as f64 * 10.0).min(width).max(8.0);
    }
    if let Some(nl) = graph.limit {
        rows = rows.min(nl as f64);
    }
    let (rows, width) = (rows.max(1.0), width.max(8.0));
    FullQuery {
        rows,
        cost: config.cost.remote(backend_cost, rows, width),
    }
}

// ----------------------------------------------------------- classification

fn classify(plan: &PhysicalPlan, role: Role) -> PlanChoice {
    if role == Role::Backend {
        return PlanChoice::BackendLocal;
    }
    let guards = plan.guard_count();
    let leaves = count_remote_leaves(plan);
    match (guards, leaves) {
        (0, 0) => PlanChoice::AllLocalGuarded, // unreachable at the cache
        (0, 1) => PlanChoice::FullRemote,      // one remote fetch serves everything
        (0, _) => PlanChoice::RemoteFetchLocalJoin,
        (_, 0) => PlanChoice::AllLocalGuarded,
        _ => PlanChoice::Mixed,
    }
}

/// Remote leaves that are NOT the fallback branch of a SwitchUnion.
fn count_remote_leaves(plan: &PhysicalPlan) -> usize {
    match plan {
        PhysicalPlan::RemoteQuery(_) => 1,
        PhysicalPlan::SwitchUnion { local, .. } => count_remote_leaves(local),
        _ => plan.children().map(count_remote_leaves).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::bind_select;
    use rcc_catalog::{CachedViewDef, TableMeta};
    use rcc_common::{RegionId, Schema, TableId, Value, ViewId};
    use rcc_storage::{ColumnStats, TableStats};
    use std::collections::HashMap;

    /// The paper's rig as a bare catalog: Customer and Orders with uniform
    /// statistics, `cust_prj` in CR1 (15 s / 5 s) and `orders_prj` in CR2
    /// (10 s / 5 s).
    fn paper_catalog() -> Catalog {
        let cat = Catalog::new();
        let customer = cat
            .register_table(rcc_tpcd::customer_meta(TableId(1)))
            .unwrap();
        let orders = cat
            .register_table(rcc_tpcd::orders_meta(TableId(2)))
            .unwrap();
        for (id, name, interval) in [(1, "CR1", 15), (2, "CR2", 10)] {
            cat.register_region(CurrencyRegion::new(
                RegionId(id),
                name,
                Duration::from_secs(interval),
                Duration::from_secs(5),
            ))
            .unwrap();
        }
        let view = |id, name: &str, region, table: &TableMeta, columns: &[&str]| CachedViewDef {
            id: ViewId(id),
            name: name.into(),
            region: RegionId(region),
            base_table: table.id,
            base_table_name: table.name.clone(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            predicate: None,
            schema: Schema::new(
                columns
                    .iter()
                    .map(|c| {
                        let ord = table.schema.resolve(None, c).unwrap();
                        table.schema.column(ord).clone().with_source(table.id)
                    })
                    .collect(),
            )
            .with_qualifier(name),
            key_ordinals: (0..table.key.len()).collect(),
            local_indexes: vec![],
        };
        cat.register_view(view(
            1,
            "cust_prj",
            1,
            &customer,
            &["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
        ))
        .unwrap();
        cat.register_view(view(
            2,
            "orders_prj",
            2,
            &orders,
            &["o_custkey", "o_orderkey", "o_totalprice"],
        ))
        .unwrap();
        let uniform = |distinct: u64, max: f64, rows: u64| ColumnStats {
            min: Some(Value::Float(1.0)),
            max: Some(Value::Float(max)),
            distinct,
            nulls: 0,
            histogram: vec![rows / 64; 64],
        };
        let stats = |rows: u64, columns: &[(&str, u64, f64)]| TableStats {
            row_count: rows,
            avg_row_bytes: 48.0,
            columns: columns
                .iter()
                .map(|(name, distinct, max)| (name.to_string(), uniform(*distinct, *max, rows)))
                .collect(),
        };
        let customer_stats = stats(
            1_500,
            &[
                ("c_custkey", 1_500, 1_500.0),
                ("c_nationkey", 25, 25.0),
                ("c_acctbal", 1_400, 9_999.0),
            ],
        );
        let orders_stats = stats(
            15_000,
            &[
                ("o_custkey", 1_500, 1_500.0),
                ("o_orderkey", 15_000, 60_000.0),
                ("o_totalprice", 14_000, 400_000.0),
            ],
        );
        cat.set_stats("customer", customer_stats.clone());
        cat.set_stats("cust_prj", customer_stats);
        cat.set_stats("orders", orders_stats.clone());
        cat.set_stats("orders_prj", orders_stats);
        cat
    }

    fn graph(cat: &Catalog, sql: &str) -> QueryGraph {
        let stmt = match rcc_sql::parse_statement(sql).unwrap() {
            rcc_sql::Statement::Select(s) => *s,
            other => panic!("{other:?}"),
        };
        bind_select(cat, &stmt, &HashMap::new()).unwrap()
    }

    /// Five and six operands — more candidates per subset than are kept, a
    /// residual, a semi join — and a residual over a join whose inputs are
    /// both ordered on the key (a filtered merge join in back-end role).
    const JOINS: [&str; 3] = [
        "SELECT c1.c_name, o1.o_totalprice, o2.o_orderkey, c2.c_acctbal, o3.o_totalprice \
         FROM customer c1, orders o1, orders o2, customer c2, orders o3 \
         WHERE c1.c_custkey = o1.o_custkey AND c1.c_custkey = o2.o_custkey \
         AND c2.c_custkey = o2.o_custkey AND c2.c_custkey = o3.o_custkey \
         AND c1.c_custkey <= 40 AND o1.o_totalprice > 1000 \
         CURRENCY BOUND 30 SEC ON (c1), 30 SEC ON (o1), 1 MIN ON (o2), \
         10 MIN ON (c2), 1 HOUR ON (o3)",
        "SELECT c1.c_name, c2.c_name, o1.o_orderkey, o2.o_orderkey, o3.o_totalprice \
         FROM customer c1, customer c2, orders o1, orders o2, orders o3 \
         WHERE c1.c_custkey = o1.o_custkey AND c2.c_custkey = o2.o_custkey \
         AND c1.c_nationkey = c2.c_nationkey AND c2.c_custkey = o3.o_custkey \
         AND c1.c_custkey BETWEEN 10 AND 30 AND o1.o_totalprice > o2.o_totalprice \
         AND EXISTS (SELECT * FROM orders o4 WHERE o4.o_custkey = c1.c_custkey) \
         CURRENCY BOUND 1 MIN ON (c1, c2), 2 MIN ON (o1), 2 MIN ON (o2), 10 MIN ON (o3)",
        "SELECT c.c_name FROM customer c, orders o \
         WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 100 AND o.o_custkey <= 100 \
         AND c.c_acctbal > o.o_totalprice CURRENCY BOUND 1 MIN ON (c), 1 MIN ON (o)",
    ];

    /// What a candidate carries is what its plan delivers — for every
    /// candidate the search keeps (not only the winner), over the identity
    /// sweeps' corpus and three more joins, with and without pull-up and in
    /// back-end role. In release builds too, where `prune`'s own
    /// `debug_assert` of the same is compiled out.
    #[test]
    fn carried_properties_are_the_derived_ones() {
        let cat = paper_catalog();
        let mut statements = rcc_tpcd::currency_corpus(160, 7, 1_500);
        statements.extend(JOINS.map(String::from));
        let configs = [
            OptimizerConfig::default(),
            OptimizerConfig {
                pullup_switch_union: true,
                ..OptimizerConfig::default()
            },
            OptimizerConfig::backend(),
        ];
        let (mut checked, mut ordered, mut guarded) = (0, 0, 0);
        for sql in &statements {
            let g = graph(&cat, sql);
            for config in &configs {
                let facts = operand_facts(&cat, &g, config);
                let search = Search::run(&g, config, &facts).unwrap();
                for &id in search.memo.values().flatten() {
                    let cand = &search.arena[id];
                    let plan = search.build(id);
                    assert_eq!(
                        *cand.delivered,
                        plan.delivered(),
                        "{sql}\n{}",
                        plan.explain()
                    );
                    assert_eq!(
                        cand.order.cloned(),
                        delivered_order(&plan),
                        "{sql}\n{}",
                        plan.explain()
                    );
                    assert_eq!(cand.mask.count_ones() as usize, plan.operand_set().len());
                    checked += 1;
                    ordered += usize::from(cand.order.is_some());
                    guarded += usize::from(plan.guard_count() > 0);
                }
                // the winner is one of them, finished
                search.choose().unwrap();
            }
        }
        assert!(
            checked > 2_000 && ordered > 100 && guarded > 500,
            "{checked} candidates, {ordered} ordered, {guarded} guarded"
        );
    }

    /// A cost tie is broken by generation order, not by a hash seed: a
    /// table joined with itself under identical filters costs the same in
    /// either join order (in back-end role the two merge joins even deliver
    /// different orders, so both survive pruning and tie at the root), and
    /// every `HashMap` in one process hashes with its own keys.
    #[test]
    fn equal_costs_choose_the_same_plan_every_time() {
        let cat = paper_catalog();
        let g = graph(
            &cat,
            "SELECT a.c_name, b.c_name FROM customer a, customer b \
             WHERE a.c_custkey = b.c_custkey AND a.c_custkey <= 100 AND b.c_custkey <= 100 \
             CURRENCY BOUND 1 MIN ON (a), 1 MIN ON (b)",
        );
        for config in [OptimizerConfig::default(), OptimizerConfig::backend()] {
            let facts = operand_facts(&cat, &g, &config);
            let search = Search::run(&g, &config, &facts).unwrap();
            let costs: Vec<f64> = search.memo[&0b11]
                .iter()
                .map(|&id| search.arena[id].cost)
                .collect();
            if config.role == Role::Backend {
                assert_eq!(costs[0], costs[1], "the tie this test is about: {costs:?}");
            }
            let first = optimize(&cat, &g, &config).unwrap().plan.explain();
            for _ in 0..50 {
                assert_eq!(optimize(&cat, &g, &config).unwrap().plan.explain(), first);
            }
            if config.role == Role::Backend {
                assert!(
                    first.contains("MergeJoin[Inner] on a.c_custkey = b.c_custkey"),
                    "the first generated of the two:\n{first}"
                );
            }
        }
    }

    #[test]
    fn too_many_residuals_are_refused() {
        let cat = paper_catalog();
        let mut g = graph(
            &cat,
            "SELECT c.c_name FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_acctbal > o.o_totalprice",
        );
        assert_eq!(g.residuals.len(), 1);
        optimize(&cat, &g, &OptimizerConfig::default()).unwrap();
        let residual = g.residuals[0].clone();
        g.residuals.resize(65, residual);
        assert!(optimize(&cat, &g, &OptimizerConfig::default()).is_err());
    }
}
