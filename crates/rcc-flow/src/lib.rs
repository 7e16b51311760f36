//! Currency-interval dataflow analysis over optimized physical plans.
//!
//! An abstract interpreter that walks a [`PhysicalPlan`] from the scan
//! leaves to the root propagating a *currency lattice*: per-operand
//! staleness intervals `[lo, hi]` (how stale the rows an operator delivers
//! can possibly be) joined across operators, plus consistency-class
//! grouping facts (which operands are guaranteed to come from the same
//! snapshot source). Every plan node receives a [`NodeFlow`] certificate of
//! the delivered-currency bound it can prove, and every currency guard
//! receives a [`GuardCert`] recording the static verdict on its runtime
//! check.
//!
//! # The healthy-replication envelope
//!
//! All certificates are *premised*. A cached view in region `R` with
//! propagation delay `d`, refresh interval `f`, and heartbeat granularity
//! `hb` delivers rows whose staleness under **healthy replication** lies in
//! `[d, d + f + hb]`: the freshest possible content is one propagation
//! delay old, and the heartbeat timestamp a guard compares against can
//! itself trail the replica's true watermark by up to one heartbeat
//! interval. `H(R) = d + f + hb` is the envelope ceiling. A guard with
//! bound `B > H(R)` can never fail while the premises hold
//! ([`GuardVerdict::AlwaysPass`]); a guard with `B == 0` or `B < d` can
//! never pass ([`GuardVerdict::NeverPass`], matching the optimizer's
//! compile-time discard and the verifier's well-formedness boundary);
//! anything in between is [`GuardVerdict::Contingent`] and must survive to
//! runtime.
//!
//! The premises are: (1) replication is healthy — no stalled agent, so the
//! heartbeat ceiling holds; (2) the session imposes no timeline floors;
//! (3) the query is not running in forced-local (serve-stale) degradation.
//! The execution layer only skips a certified guard when (2) and (3)
//! hold, and the runtime cross-check (`rcc_flow_interval_violations_total`)
//! exists precisely to catch (1) breaking.
//!
//! # Certified elision
//!
//! The plan is not rewritten: [`FlowAnalysis::decided`] lists each decided
//! guard's node and arm — `AlwaysPass` takes the local branch, `NeverPass`
//! the remote one, a guarded index-join inner is read locally or shipped
//! the same way — and the one prepared executable skips those guards in
//! executions that run certified. [`elide`] lists the certificates of the
//! guards such an execution can reach. Each decision carries its
//! [`GuardCert`] so `rcc-verify` can replay the arithmetic from the
//! catalog alone and reject a corrupted analysis ([`Mutation`] enumerates
//! the corruptions the test suite must prove are caught).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use rcc_catalog::{Catalog, CurrencyRegion};
use rcc_common::{Duration, RegionId};
use rcc_optimizer::constraint::OperandId;
use rcc_optimizer::physical::{CurrencyGuard, InnerAccess, PhysicalPlan};
use std::collections::BTreeMap;
use std::fmt;

/// The replication-health envelope of a currency region: the three terms
/// that bound how stale a healthy replica (and its heartbeat) can be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Propagation delay `d`: the freshest content is this old.
    pub update_delay: Duration,
    /// Refresh interval `f`: updates land in batches this far apart.
    pub update_interval: Duration,
    /// Heartbeat granularity `hb`: the guard's timestamp can trail the
    /// replica's true watermark by this much.
    pub heartbeat_interval: Duration,
}

impl Envelope {
    /// The envelope for a catalog region.
    pub fn of(region: &CurrencyRegion) -> Envelope {
        Envelope {
            update_delay: region.update_delay,
            update_interval: region.update_interval,
            heartbeat_interval: region.heartbeat_interval,
        }
    }

    /// `H(R) = d + f + hb` — the worst heartbeat staleness a guard can
    /// observe while replication is healthy.
    pub fn worst_healthy(&self) -> Duration {
        self.update_delay
            .plus(self.update_interval)
            .plus(self.heartbeat_interval)
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d={} f={} hb={} H={}",
            self.update_delay,
            self.update_interval,
            self.heartbeat_interval,
            self.worst_healthy()
        )
    }
}

/// Upper end of a currency interval: finite, or unknown (no envelope).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StalenessBound {
    /// Staleness provably at most this much.
    Finite(Duration),
    /// No static bound (e.g. a region the catalog cannot resolve).
    Unbounded,
}

impl StalenessBound {
    /// Pointwise max (lattice join of upper bounds).
    pub fn join(self, other: StalenessBound) -> StalenessBound {
        match (self, other) {
            (StalenessBound::Finite(a), StalenessBound::Finite(b)) => {
                StalenessBound::Finite(a.max(b))
            }
            _ => StalenessBound::Unbounded,
        }
    }

    /// Pointwise min (used when a runtime guard caps the branch).
    pub fn cap(self, bound: Duration) -> StalenessBound {
        match self {
            StalenessBound::Finite(a) => StalenessBound::Finite(a.min(bound)),
            StalenessBound::Unbounded => StalenessBound::Finite(bound),
        }
    }
}

impl fmt::Display for StalenessBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StalenessBound::Finite(d) => write!(f, "{d}"),
            StalenessBound::Unbounded => write!(f, "∞"),
        }
    }
}

/// A staleness interval `[lo, hi]`: every row the operator delivers is at
/// least `lo` and at most `hi` stale (under the analysis premises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CurrencyInterval {
    /// Minimum possible staleness.
    pub lo: Duration,
    /// Maximum possible staleness.
    pub hi: StalenessBound,
}

impl CurrencyInterval {
    /// The backend interval: rows read at the master are exactly current.
    pub fn exact_current() -> CurrencyInterval {
        CurrencyInterval {
            lo: Duration::ZERO,
            hi: StalenessBound::Finite(Duration::ZERO),
        }
    }

    /// The healthy-replica interval `[d, H(R)]`.
    pub fn healthy(env: &Envelope) -> CurrencyInterval {
        CurrencyInterval {
            lo: env.update_delay,
            hi: StalenessBound::Finite(env.worst_healthy()),
        }
    }

    /// Lattice join: the smallest interval containing both.
    pub fn hull(&self, other: &CurrencyInterval) -> CurrencyInterval {
        CurrencyInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.join(other.hi),
        }
    }

    /// Cap the upper end at a runtime-guard bound `B`: when the guard
    /// passed, the heartbeat was newer than `now − B`, so delivered
    /// staleness is below `B`.
    pub fn cap(&self, bound: Duration) -> CurrencyInterval {
        let hi = self.hi.cap(bound);
        let lo = match hi {
            StalenessBound::Finite(h) => self.lo.min(h),
            StalenessBound::Unbounded => self.lo,
        };
        CurrencyInterval { lo, hi }
    }

    /// Does this interval contain `other`? (`self` is at least as wide.)
    /// Containment is the soundness order the verifier replays: a claimed
    /// interval narrower than the honest one is an unsound certificate.
    pub fn contains(&self, other: &CurrencyInterval) -> bool {
        self.lo <= other.lo
            && match (self.hi, other.hi) {
                (StalenessBound::Unbounded, _) => true,
                (StalenessBound::Finite(_), StalenessBound::Unbounded) => false,
                (StalenessBound::Finite(a), StalenessBound::Finite(b)) => a >= b,
            }
    }
}

impl fmt::Display for CurrencyInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Static verdict on a currency guard's runtime check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// The guard can never fail while the premises hold: `B > H(R)`.
    AlwaysPass {
        /// Slack `B − H(R)` — how far the bound clears the envelope.
        margin: Duration,
    },
    /// The guard can never pass: `B == 0` or `B < d` (the replica's
    /// guaranteed minimum staleness already exceeds the bound).
    NeverPass,
    /// The outcome depends on runtime state; the guard must survive.
    Contingent,
}

impl GuardVerdict {
    /// Short lowercase label for EXPLAIN FLOW output and audits.
    pub fn label(&self) -> String {
        match self {
            GuardVerdict::AlwaysPass { margin } => format!("always-pass (margin {margin})"),
            GuardVerdict::NeverPass => "never-pass".to_string(),
            GuardVerdict::Contingent => "contingent".to_string(),
        }
    }
}

/// What the elision transform does with a guard, derived from its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Drop the guard and keep only the local branch (`AlwaysPass`).
    ElideLocal,
    /// Drop the guard and keep only the remote branch (`NeverPass`).
    CollapseRemote,
    /// Keep the runtime guard (`Contingent`).
    Keep,
}

impl Decision {
    /// Short lowercase label for EXPLAIN FLOW output and audits.
    pub fn label(&self) -> &'static str {
        match self {
            Decision::ElideLocal => "elide-local",
            Decision::CollapseRemote => "collapse-remote",
            Decision::Keep => "keep",
        }
    }

    /// The decision a verdict maps to — the verifier replays this mapping.
    pub fn of(verdict: GuardVerdict) -> Decision {
        match verdict {
            GuardVerdict::AlwaysPass { .. } => Decision::ElideLocal,
            GuardVerdict::NeverPass => Decision::CollapseRemote,
            GuardVerdict::Contingent => Decision::Keep,
        }
    }
}

/// Compute the honest verdict for bound `B` against an envelope.
pub fn verdict_for(env: &Envelope, bound: Duration) -> GuardVerdict {
    if bound.is_zero() || bound < env.update_delay {
        GuardVerdict::NeverPass
    } else if bound > env.worst_healthy() {
        GuardVerdict::AlwaysPass {
            margin: bound.saturating_sub(env.worst_healthy()),
        }
    } else {
        GuardVerdict::Contingent
    }
}

/// Honest verdict for a bound against a catalog region — the single entry
/// point `rcc-lint` (L007) and the verifier's replay arithmetic share.
pub fn region_verdict(region: &CurrencyRegion, bound: Duration) -> GuardVerdict {
    verdict_for(&Envelope::of(region), bound)
}

/// Per-node certificate: the delivered-currency interval a plan node can
/// prove, plus the guard verdict/decision when the node carries a guard.
/// Nodes are listed in pre-order (node 0 is the root; SwitchUnion visits
/// local then remote; joins visit left/outer then right).
#[derive(Debug, Clone)]
pub struct NodeFlow {
    /// Pre-order index of the node in the plan.
    pub node: usize,
    /// Nesting depth (root = 0), for indented rendering.
    pub depth: usize,
    /// The node's one-line operator label.
    pub label: String,
    /// Delivered staleness interval over all operands the node produces.
    pub interval: CurrencyInterval,
    /// Consistency-class grouping fact: operands by snapshot source, e.g.
    /// `CR1:{0} backend:{1}` or `mixed:{0}` below a contingent guard.
    pub groups: String,
    /// Static verdict, for guard-bearing nodes.
    pub verdict: Option<GuardVerdict>,
    /// Elision decision, for guard-bearing nodes.
    pub decision: Option<Decision>,
}

/// Machine-checkable certificate for one currency guard site. The verifier
/// replays `verdict` and `decision` from the catalog alone; any mismatch
/// rejects the analysis.
#[derive(Debug, Clone)]
pub struct GuardCert {
    /// Pre-order index of the guard-bearing node.
    pub node: usize,
    /// Operator label of the guard-bearing node.
    pub label: String,
    /// Region whose staleness the guard checks.
    pub region: RegionId,
    /// Heartbeat table the runtime check reads.
    pub heartbeat_table: String,
    /// The clause bound `B`.
    pub bound: Duration,
    /// The envelope the verdict was computed against (recorded so the
    /// verifier can cross-check it against the catalog).
    pub envelope: Envelope,
    /// The analysis' claimed verdict.
    pub verdict: GuardVerdict,
    /// The analysis' claimed elision decision.
    pub decision: Decision,
}

/// The result of analyzing a plan: one [`NodeFlow`] per plan node in
/// pre-order, and one [`GuardCert`] per guard site in the same order.
#[derive(Debug, Clone)]
pub struct FlowAnalysis {
    /// Per-node certificates, pre-order; `nodes[0]` is the plan root.
    pub nodes: Vec<NodeFlow>,
    /// Per-guard certificates, in pre-order of their bearing nodes.
    pub guards: Vec<GuardCert>,
}

impl FlowAnalysis {
    /// The root node's certificate (every plan has at least one node).
    pub fn root(&self) -> &NodeFlow {
        &self.nodes[0]
    }

    /// Every guard whose decision removes the runtime check, as the
    /// pre-order number of its node and whether it takes the local arm:
    /// what an executable is prepared with to skip those checks.
    pub fn decided(&self) -> Vec<(usize, bool)> {
        let decided = |g: &GuardCert| match g.decision {
            Decision::ElideLocal => Some((g.node, true)),
            Decision::CollapseRemote => Some((g.node, false)),
            Decision::Keep => None,
        };
        self.guards.iter().filter_map(decided).collect()
    }
}

/// A deliberate corruption of the analysis, used by mutation tests and the
/// `flow-audit` sweep (crate `rcc-bench`) to prove the verifier rejects
/// unsound certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Widen the set of states considered current: leaf intervals collapse
    /// to `[d, d]`, claiming replicas are never staler than the propagation
    /// delay. Rejected by the verifier's interval-containment replay.
    WidenInterval,
    /// Drop the heartbeat term from the envelope join: `H := d + f`,
    /// forgetting that the guard's timestamp trails the watermark. Rejected
    /// by verdict replay for bounds in `(d+f, d+f+hb]`.
    DropHeartbeatJoin,
    /// Elide a falsifiable guard: report `Contingent` sites as
    /// `AlwaysPass` with zero margin. Rejected by verdict replay.
    ElideFalsifiable,
    /// Assume a stale clock: `AlwaysPass` whenever `B ≥ d`, as if the
    /// heartbeat could never age past one propagation delay. Rejected by
    /// verdict replay.
    StaleClock,
}

impl Mutation {
    /// All mutations, for audit sweeps.
    pub const ALL: [Mutation; 4] = [
        Mutation::WidenInterval,
        Mutation::DropHeartbeatJoin,
        Mutation::ElideFalsifiable,
        Mutation::StaleClock,
    ];

    /// Short label for audit output.
    pub fn label(&self) -> &'static str {
        match self {
            Mutation::WidenInterval => "widen-interval",
            Mutation::DropHeartbeatJoin => "drop-heartbeat-join",
            Mutation::ElideFalsifiable => "elide-falsifiable",
            Mutation::StaleClock => "stale-clock",
        }
    }
}

/// Which snapshot source an operand's rows come from — the grouping fact.
/// Operands sharing a single concrete source are mutually consistent (same
/// snapshot family); `Mixed` records that a contingent guard makes the
/// source a runtime choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceFact {
    Backend,
    Region(RegionId),
    Mixed,
}

#[derive(Debug, Clone, Copy)]
struct OpFact {
    source: SourceFact,
    interval: CurrencyInterval,
}

/// Analyze a plan, producing per-node and per-guard certificates.
pub fn analyze(catalog: &Catalog, plan: &PhysicalPlan) -> FlowAnalysis {
    analyze_mutated(catalog, plan, None)
}

/// Analyze with an optional deliberate corruption (`None` = honest). Only
/// audits and mutation tests pass `Some`.
pub fn analyze_mutated(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    mutation: Option<Mutation>,
) -> FlowAnalysis {
    let mut az = Analyzer {
        catalog,
        mutation,
        nodes: Vec::new(),
        guards: Vec::new(),
        next: 0,
    };
    az.visit(plan, 0);
    FlowAnalysis {
        nodes: az.nodes,
        guards: az.guards,
    }
}

struct Analyzer<'a> {
    catalog: &'a Catalog,
    mutation: Option<Mutation>,
    nodes: Vec<NodeFlow>,
    guards: Vec<GuardCert>,
    next: usize,
}

impl Analyzer<'_> {
    /// The envelope the mutated analysis *believes* (only the verdict
    /// arithmetic is corrupted; the recorded envelope fields stay honest,
    /// modeling an analysis whose arithmetic — not its inputs — is buggy).
    fn verdict(&self, env: &Envelope, bound: Duration) -> GuardVerdict {
        match self.mutation {
            Some(Mutation::DropHeartbeatJoin) => {
                let worst = env.update_delay.plus(env.update_interval);
                if bound.is_zero() || bound < env.update_delay {
                    GuardVerdict::NeverPass
                } else if bound > worst {
                    GuardVerdict::AlwaysPass {
                        margin: bound.saturating_sub(worst),
                    }
                } else {
                    GuardVerdict::Contingent
                }
            }
            Some(Mutation::ElideFalsifiable) => match verdict_for(env, bound) {
                GuardVerdict::Contingent => GuardVerdict::AlwaysPass {
                    margin: Duration::ZERO,
                },
                v => v,
            },
            Some(Mutation::StaleClock) => {
                if bound.is_zero() || bound < env.update_delay {
                    GuardVerdict::NeverPass
                } else {
                    GuardVerdict::AlwaysPass {
                        margin: bound.saturating_sub(env.update_delay),
                    }
                }
            }
            _ => verdict_for(env, bound),
        }
    }

    fn healthy_leaf(&self, env: &Envelope) -> CurrencyInterval {
        if self.mutation == Some(Mutation::WidenInterval) {
            CurrencyInterval {
                lo: env.update_delay,
                hi: StalenessBound::Finite(env.update_delay),
            }
        } else {
            CurrencyInterval::healthy(env)
        }
    }

    /// Facts for a local read of `object` implementing `operand`.
    fn local_object_facts(&self, object: &str, operand: OperandId) -> BTreeMap<OperandId, OpFact> {
        let mut ops = BTreeMap::new();
        if let Ok(view) = self.catalog.view(object) {
            let fact = match self.catalog.region(view.region) {
                Ok(region) => OpFact {
                    source: SourceFact::Region(region.id),
                    interval: self.healthy_leaf(&Envelope::of(&region)),
                },
                Err(_) => OpFact {
                    source: SourceFact::Region(view.region),
                    interval: CurrencyInterval {
                        lo: Duration::ZERO,
                        hi: StalenessBound::Unbounded,
                    },
                },
            };
            ops.insert(operand, fact);
        } else {
            // A master table scanned in back-end role: exactly current.
            ops.insert(
                operand,
                OpFact {
                    source: SourceFact::Backend,
                    interval: CurrencyInterval::exact_current(),
                },
            );
        }
        ops
    }

    /// Visit a node: reserve its pre-order slot, analyze children, fill in
    /// the certificate, and return the operand facts it delivers.
    fn visit(&mut self, plan: &PhysicalPlan, depth: usize) -> BTreeMap<OperandId, OpFact> {
        let my = self.next;
        self.next += 1;
        // Reserve the slot so children (visited next) land after it.
        self.nodes.push(NodeFlow {
            node: my,
            depth,
            label: plan.node_label(),
            interval: CurrencyInterval::exact_current(),
            groups: String::new(),
            verdict: None,
            decision: None,
        });

        let ops = match plan {
            PhysicalPlan::OneRow => BTreeMap::new(),
            PhysicalPlan::LocalScan(n) => self.local_object_facts(&n.object, n.operand),
            PhysicalPlan::RemoteQuery(n) => n
                .operands
                .iter()
                .map(|op| {
                    (
                        *op,
                        OpFact {
                            source: SourceFact::Backend,
                            interval: CurrencyInterval::exact_current(),
                        },
                    )
                })
                .collect(),
            PhysicalPlan::SwitchUnion {
                guard,
                local,
                remote,
            } => {
                let (verdict, _decision) = self.certify_guard(guard, my, plan);
                let local_ops = self.visit(local, depth + 1);
                let remote_ops = self.visit(remote, depth + 1);
                self.merge_guarded(guard, verdict, local_ops, remote_ops)
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => self.visit(input, depth + 1),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::MergeJoin { left, right, .. } => {
                let mut ops = self.visit(left, depth + 1);
                ops.extend(self.visit(right, depth + 1));
                ops
            }
            PhysicalPlan::IndexNLJoin { outer, inner, .. } => {
                let mut ops = self.visit(outer, depth + 1);
                ops.extend(self.inner_facts(inner, my, plan));
                ops
            }
        };

        // Fill in the node's certificate now that children are known
        // (nodes are pushed in pre-order, so `nodes[my].node == my`).
        self.nodes[my].interval = ops
            .values()
            .map(|f| f.interval)
            .reduce(|a, b| a.hull(&b))
            .unwrap_or_else(CurrencyInterval::exact_current);
        self.nodes[my].groups = render_groups(&ops);
        let guard_facts = self
            .guards
            .iter()
            .find(|g| g.node == my)
            .map(|g| (g.verdict, g.decision));
        if let Some((verdict, decision)) = guard_facts {
            self.nodes[my].verdict = Some(verdict);
            self.nodes[my].decision = Some(decision);
        }
        ops
    }

    /// Compute and record the certificate for a guard at node `node`.
    fn certify_guard(
        &mut self,
        guard: &CurrencyGuard,
        node: usize,
        plan: &PhysicalPlan,
    ) -> (GuardVerdict, Decision) {
        let env = match self.catalog.region(guard.region) {
            Ok(region) => Envelope::of(&region),
            Err(_) => Envelope {
                update_delay: Duration::ZERO,
                update_interval: Duration::ZERO,
                heartbeat_interval: Duration::ZERO,
            },
        };
        let verdict = if self.catalog.region(guard.region).is_err() {
            // Unknown region: never elide.
            GuardVerdict::Contingent
        } else {
            self.verdict(&env, guard.bound)
        };
        let decision = Decision::of(verdict);
        self.guards.push(GuardCert {
            node,
            label: plan.node_label(),
            region: guard.region,
            heartbeat_table: guard.heartbeat_table.clone(),
            bound: guard.bound,
            envelope: env,
            verdict,
            decision,
        });
        (verdict, decision)
    }

    /// Merge the two branches of a guarded choice according to the verdict.
    fn merge_guarded(
        &self,
        guard: &CurrencyGuard,
        verdict: GuardVerdict,
        local: BTreeMap<OperandId, OpFact>,
        remote: BTreeMap<OperandId, OpFact>,
    ) -> BTreeMap<OperandId, OpFact> {
        match verdict {
            GuardVerdict::AlwaysPass { .. } => local,
            GuardVerdict::NeverPass => remote,
            GuardVerdict::Contingent => {
                // Guard passing caps same-region local facts at the bound;
                // the runtime choice makes each operand's source mixed.
                let mut out = BTreeMap::new();
                for (op, lf) in &local {
                    let capped = if lf.source == SourceFact::Region(guard.region) {
                        lf.interval.cap(guard.bound)
                    } else {
                        lf.interval
                    };
                    let fact = match remote.get(op) {
                        Some(rf) => OpFact {
                            source: if rf.source == lf.source {
                                lf.source
                            } else {
                                SourceFact::Mixed
                            },
                            interval: capped.hull(&rf.interval),
                        },
                        None => OpFact {
                            source: SourceFact::Mixed,
                            interval: capped,
                        },
                    };
                    out.insert(*op, fact);
                }
                for (op, rf) in remote {
                    out.entry(op).or_insert(OpFact {
                        source: SourceFact::Mixed,
                        interval: rf.interval,
                    });
                }
                out
            }
        }
    }

    /// Facts for an index-join inner access (part of the join node itself).
    fn inner_facts(
        &mut self,
        inner: &InnerAccess,
        node: usize,
        plan: &PhysicalPlan,
    ) -> BTreeMap<OperandId, OpFact> {
        if inner.force_remote {
            let mut ops = BTreeMap::new();
            ops.insert(
                inner.operand,
                OpFact {
                    source: SourceFact::Backend,
                    interval: CurrencyInterval::exact_current(),
                },
            );
            return ops;
        }
        match &inner.guard {
            None => self.local_object_facts(&inner.object, inner.operand),
            Some(guard) => {
                let (verdict, _decision) = self.certify_guard(guard, node, plan);
                let local = self.local_object_facts(&inner.object, inner.operand);
                let mut remote = BTreeMap::new();
                remote.insert(
                    inner.operand,
                    OpFact {
                        source: SourceFact::Backend,
                        interval: CurrencyInterval::exact_current(),
                    },
                );
                self.merge_guarded(guard, verdict, local, remote)
            }
        }
    }
}

fn render_groups(ops: &BTreeMap<OperandId, OpFact>) -> String {
    if ops.is_empty() {
        return "-".to_string();
    }
    // Group operands by source, rendered in a stable order.
    let mut groups: BTreeMap<String, Vec<OperandId>> = BTreeMap::new();
    for (op, fact) in ops {
        let key = match fact.source {
            SourceFact::Backend => "backend".to_string(),
            SourceFact::Region(r) => format!("region{}", r.0),
            SourceFact::Mixed => "mixed".to_string(),
        };
        groups.entry(key).or_default().push(*op);
    }
    groups
        .into_iter()
        .map(|(src, ops)| {
            let list = ops
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!("{src}:{{{list}}}")
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The certificates of the guards an elision skips.
#[derive(Debug, Clone)]
pub struct Elided {
    /// Certificates of the decided guards (decision != Keep) an execution
    /// can reach: a guard inside an arm that another decided guard drops
    /// is never reached, so it is not among them.
    pub elided: Vec<GuardCert>,
}

/// The guards an execution of `plan` skips when it runs certified: for
/// every `AlwaysPass` guard the local arm, for every `NeverPass` one the
/// remote arm is the only one opened (a guarded index-join inner is read
/// locally or shipped the same way), so the guards of the other arm are
/// never reached. The walk follows the analysis' pre-order, so
/// certificates pair with their sites by node index.
pub fn elide(plan: &PhysicalPlan, analysis: &FlowAnalysis) -> Elided {
    let by_node: BTreeMap<usize, &GuardCert> =
        analysis.guards.iter().map(|g| (g.node, g)).collect();
    let mut elided = Vec::new();
    reach(plan, &by_node, &mut 0, &mut elided);
    Elided { elided }
}

fn reach(
    plan: &PhysicalPlan,
    certs: &BTreeMap<usize, &GuardCert>,
    counter: &mut usize,
    elided: &mut Vec<GuardCert>,
) {
    let my = *counter;
    *counter += 1;
    let decision = certs.get(&my).map(|cert| cert.decision);
    if let Some(cert) = certs.get(&my).filter(|c| c.decision != Decision::Keep) {
        elided.push((*cert).clone());
    }
    for (arm, child) in plan.children().enumerate() {
        // a decided SwitchUnion opens one arm: the local (first) one or
        // the remote one
        let dropped = match (plan, decision) {
            (PhysicalPlan::SwitchUnion { .. }, Some(Decision::ElideLocal)) => arm == 1,
            (PhysicalPlan::SwitchUnion { .. }, Some(Decision::CollapseRemote)) => arm == 0,
            _ => false,
        };
        match dropped {
            true => *counter += child.node_count(),
            false => reach(child, certs, counter, elided),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_catalog::{CachedViewDef, CurrencyRegion, TableMeta};
    use rcc_common::{Column, DataType, Schema};
    use rcc_optimizer::physical::{AccessPath, LocalScanNode, RemoteQueryNode};
    use std::sync::Arc;

    /// CR1: d=5 f=15 hb=2 → H=22; CR2: d=5 f=10 hb=2 → H=17.
    fn catalog() -> Arc<Catalog> {
        let catalog = Arc::new(Catalog::new());
        let cm = rcc_tpcd::customer_meta(catalog.next_table_id());
        let cm = catalog.register_table(cm).expect("customer");
        let om = rcc_tpcd::orders_meta(catalog.next_table_id());
        let om = catalog.register_table(om).expect("orders");
        let cr1 = catalog
            .register_region(CurrencyRegion::new(
                RegionId(1),
                "CR1",
                Duration::from_secs(15),
                Duration::from_secs(5),
            ))
            .expect("CR1");
        let cr2 = catalog
            .register_region(CurrencyRegion::new(
                RegionId(2),
                "CR2",
                Duration::from_secs(10),
                Duration::from_secs(5),
            ))
            .expect("CR2");
        register_view(&catalog, "cust_prj", cr1.id, &cm);
        register_view(&catalog, "orders_prj", cr2.id, &om);
        catalog
    }

    fn register_view(catalog: &Arc<Catalog>, name: &str, region: RegionId, base: &Arc<TableMeta>) {
        let columns: Vec<String> = base.key.clone();
        let schema = Schema::new(
            columns
                .iter()
                .map(|c| {
                    let ord = base.schema.resolve(None, c).expect("col");
                    let mut col = base.schema.column(ord).clone();
                    col.qualifier = Some(name.to_string());
                    col.source = Some(base.id);
                    col
                })
                .collect(),
        );
        let key_ordinals: Vec<usize> = (0..columns.len()).collect();
        catalog
            .register_view(CachedViewDef {
                id: catalog.next_view_id(),
                name: name.to_string(),
                region,
                base_table: base.id,
                base_table_name: base.name.clone(),
                columns,
                predicate: None,
                schema,
                key_ordinals,
                local_indexes: Vec::new(),
            })
            .expect("view");
    }

    fn scan(object: &str, operand: OperandId) -> PhysicalPlan {
        PhysicalPlan::LocalScan(LocalScanNode {
            object: object.to_string(),
            schema: Schema::new(vec![Column::new("c", DataType::Int)]),
            access: AccessPath::FullScan,
            residual: None,
            operand,
            est_rows: 10.0,
        })
    }

    fn remote(ops: &[OperandId]) -> PhysicalPlan {
        PhysicalPlan::RemoteQuery(RemoteQueryNode {
            sql: "SELECT 1".into(),
            schema: Schema::new(vec![Column::new("c", DataType::Int)]),
            operands: ops.iter().copied().collect(),
            est_rows: 10.0,
        })
    }

    fn su(
        region: RegionId,
        bound_secs: i64,
        local: PhysicalPlan,
        remote: PhysicalPlan,
    ) -> PhysicalPlan {
        PhysicalPlan::SwitchUnion {
            guard: CurrencyGuard {
                region,
                heartbeat_table: format!("heartbeat_cr{}", region.0),
                bound: Duration::from_secs(bound_secs),
            },
            local: Box::new(local),
            remote: Box::new(remote),
        }
    }

    #[test]
    fn envelope_arithmetic() {
        let catalog = catalog();
        let cr1 = catalog.region(RegionId(1)).expect("CR1");
        let env = Envelope::of(&cr1);
        assert_eq!(env.worst_healthy(), Duration::from_secs(22));
        assert_eq!(
            verdict_for(&env, Duration::from_secs(30)),
            GuardVerdict::AlwaysPass {
                margin: Duration::from_secs(8)
            }
        );
        assert_eq!(
            verdict_for(&env, Duration::from_secs(2)),
            GuardVerdict::NeverPass
        );
        assert_eq!(verdict_for(&env, Duration::ZERO), GuardVerdict::NeverPass);
        // The boundary cases stay contingent (conservative).
        assert_eq!(
            verdict_for(&env, Duration::from_secs(5)),
            GuardVerdict::Contingent
        );
        assert_eq!(
            verdict_for(&env, Duration::from_secs(22)),
            GuardVerdict::Contingent
        );
    }

    #[test]
    fn backend_leaf_is_exact_current() {
        let catalog = catalog();
        let analysis = analyze(&catalog, &remote(&[0]));
        assert_eq!(analysis.nodes.len(), 1);
        assert_eq!(analysis.root().interval, CurrencyInterval::exact_current());
        assert_eq!(analysis.root().groups, "backend:{0}");
        assert!(analysis.guards.is_empty());
    }

    #[test]
    fn view_leaf_gets_healthy_interval() {
        let catalog = catalog();
        let analysis = analyze(&catalog, &scan("cust_prj", 0));
        let root = analysis.root();
        assert_eq!(root.interval.lo, Duration::from_secs(5));
        assert_eq!(
            root.interval.hi,
            StalenessBound::Finite(Duration::from_secs(22))
        );
        assert_eq!(root.groups, "region1:{0}");
    }

    #[test]
    fn always_pass_guard_elides_to_local() {
        let catalog = catalog();
        let plan = su(RegionId(1), 30, scan("cust_prj", 0), remote(&[0]));
        let analysis = analyze(&catalog, &plan);
        assert_eq!(analysis.guards.len(), 1);
        assert!(matches!(
            analysis.guards[0].verdict,
            GuardVerdict::AlwaysPass { .. }
        ));
        assert_eq!(analysis.guards[0].decision, Decision::ElideLocal);
        // Node facts: root SU keeps the local branch's facts.
        assert_eq!(analysis.root().interval.lo, Duration::from_secs(5));
        let elided = elide(&plan, &analysis);
        assert_eq!(elided.elided.len(), 1);
        assert_eq!(analysis.decided(), [(0, true)]);
    }

    #[test]
    fn never_pass_guard_collapses_to_remote() {
        let catalog = catalog();
        let plan = su(RegionId(1), 2, scan("cust_prj", 0), remote(&[0]));
        let analysis = analyze(&catalog, &plan);
        assert_eq!(analysis.guards[0].verdict, GuardVerdict::NeverPass);
        let elided = elide(&plan, &analysis);
        assert_eq!(elided.elided.len(), 1);
        assert_eq!(analysis.decided(), [(0, false)]);
    }

    #[test]
    fn contingent_guard_is_kept_and_caps_interval() {
        let catalog = catalog();
        let plan = su(RegionId(1), 10, scan("cust_prj", 0), remote(&[0]));
        let analysis = analyze(&catalog, &plan);
        assert_eq!(analysis.guards[0].verdict, GuardVerdict::Contingent);
        assert_eq!(analysis.guards[0].decision, Decision::Keep);
        let root = analysis.root();
        // Hull of capped-local [5, 10] and backend [0, 0] = [0, 10].
        assert_eq!(root.interval.lo, Duration::ZERO);
        assert_eq!(
            root.interval.hi,
            StalenessBound::Finite(Duration::from_secs(10))
        );
        assert_eq!(root.groups, "mixed:{0}");
        let elided = elide(&plan, &analysis);
        assert_eq!(elided.elided.len(), 0);
        assert!(analysis.decided().is_empty());
    }

    #[test]
    fn join_merges_disjoint_operand_facts() {
        let catalog = catalog();
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(su(RegionId(1), 30, scan("cust_prj", 0), remote(&[0]))),
            right: Box::new(remote(&[1])),
            left_keys: vec![],
            right_keys: vec![],
            kind: rcc_optimizer::graph::JoinKind::Inner,
        };
        let analysis = analyze(&catalog, &plan);
        let root = analysis.root();
        // Hull of [5, 22] (view under elided guard) and [0, 0] (backend).
        assert_eq!(root.interval.lo, Duration::ZERO);
        assert_eq!(
            root.interval.hi,
            StalenessBound::Finite(Duration::from_secs(22))
        );
        assert_eq!(root.groups, "backend:{1} region1:{0}");
        // Pre-order: join, SU, local scan, remote, right remote.
        assert_eq!(analysis.nodes.len(), 5);
        assert_eq!(analysis.guards[0].node, 1);
    }

    #[test]
    fn nested_elision_consumes_certs_in_preorder() {
        let catalog = catalog();
        // Two sibling SwitchUnions under a join: first elides local
        // (30s > 22s on CR1), second collapses remote (2s < 5s on CR2).
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(su(RegionId(1), 30, scan("cust_prj", 0), remote(&[0]))),
            right: Box::new(su(RegionId(2), 2, scan("orders_prj", 1), remote(&[1]))),
            left_keys: vec![],
            right_keys: vec![],
            kind: rcc_optimizer::graph::JoinKind::Inner,
        };
        let analysis = analyze(&catalog, &plan);
        assert_eq!(analysis.guards.len(), 2);
        let elided = elide(&plan, &analysis);
        assert_eq!(elided.elided.len(), 2);
        // pre-order: join, SU, its scan, its remote, SU, its scan, ...
        assert_eq!(analysis.decided(), [(1, true), (4, false)]);
        // a guard inside an arm a decided guard drops is never reached
        let nested = su(RegionId(1), 30, scan("cust_prj", 0), plan);
        let analysis = analyze(&catalog, &nested);
        assert_eq!(analysis.decided().len(), 3);
        let elided = elide(&nested, &analysis);
        assert_eq!(elided.elided.len(), 1);
    }

    #[test]
    fn mutations_diverge_from_honest_analysis() {
        let catalog = catalog();
        // Bound 16s on CR2 (d+f = 15 < 16 ≤ 17 = H): the dropped-heartbeat
        // mutation wrongly promotes the verdict to always-pass.
        let plan = su(RegionId(2), 16, scan("orders_prj", 0), remote(&[0]));
        let honest = analyze(&catalog, &plan);
        assert_eq!(honest.guards[0].verdict, GuardVerdict::Contingent);
        let m = analyze_mutated(&catalog, &plan, Some(Mutation::DropHeartbeatJoin));
        assert!(matches!(
            m.guards[0].verdict,
            GuardVerdict::AlwaysPass { .. }
        ));
        // Stale clock: any bound ≥ d is promoted.
        let plan10 = su(RegionId(2), 10, scan("orders_prj", 0), remote(&[0]));
        let m = analyze_mutated(&catalog, &plan10, Some(Mutation::StaleClock));
        assert!(matches!(
            m.guards[0].verdict,
            GuardVerdict::AlwaysPass { .. }
        ));
        // Elide-falsifiable: contingent reported as always-pass.
        let m = analyze_mutated(&catalog, &plan10, Some(Mutation::ElideFalsifiable));
        assert_eq!(m.guards[0].decision, Decision::ElideLocal);
        // Widened interval: the leaf claims [d, d] instead of [d, H].
        let m = analyze_mutated(
            &catalog,
            &scan("cust_prj", 0),
            Some(Mutation::WidenInterval),
        );
        assert_eq!(
            m.root().interval.hi,
            StalenessBound::Finite(Duration::from_secs(5))
        );
        let honest_leaf = analyze(&catalog, &scan("cust_prj", 0));
        assert!(!m.root().interval.contains(&honest_leaf.root().interval));
    }

    #[test]
    fn interval_lattice_laws() {
        let a = CurrencyInterval {
            lo: Duration::from_secs(5),
            hi: StalenessBound::Finite(Duration::from_secs(22)),
        };
        let b = CurrencyInterval::exact_current();
        let h = a.hull(&b);
        assert_eq!(h.lo, Duration::ZERO);
        assert_eq!(h.hi, StalenessBound::Finite(Duration::from_secs(22)));
        assert!(h.contains(&a));
        assert!(h.contains(&b));
        assert!(!b.contains(&a));
        let capped = a.cap(Duration::from_secs(10));
        assert_eq!(capped.hi, StalenessBound::Finite(Duration::from_secs(10)));
        assert!(a.contains(&capped));
        let unb = CurrencyInterval {
            lo: Duration::ZERO,
            hi: StalenessBound::Unbounded,
        };
        assert!(unb.contains(&a));
        assert!(!a.contains(&unb));
    }

    #[test]
    fn guarded_inner_access_certifies_on_the_join_node() {
        let catalog = catalog();
        let inner = InnerAccess {
            object: "orders_prj".to_string(),
            schema: Schema::new(vec![Column::new("o", DataType::Int)]),
            seek_col: "o_custkey".to_string(),
            use_index: None,
            residual: None,
            guard: Some(CurrencyGuard {
                region: RegionId(2),
                heartbeat_table: "heartbeat_cr2".to_string(),
                bound: Duration::from_secs(30),
            }),
            remote_sql: Some("SELECT 1".into()),
            operand: 1,
            est_rows_per_probe: 1.0,
            force_remote: false,
        };
        let plan = PhysicalPlan::IndexNLJoin {
            outer: Box::new(remote(&[0])),
            outer_key: rcc_optimizer::expr::BoundExpr::Literal(rcc_common::Value::Int(1)),
            inner,
            kind: rcc_optimizer::graph::JoinKind::Inner,
        };
        let analysis = analyze(&catalog, &plan);
        assert_eq!(analysis.guards.len(), 1);
        assert_eq!(analysis.guards[0].node, 0);
        assert_eq!(analysis.guards[0].decision, Decision::ElideLocal);
        let elided = elide(&plan, &analysis);
        assert_eq!(elided.elided.len(), 1);
        assert_eq!(analysis.decided(), [(0, true)]);
    }
}
