#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Static C&C plan-conformance analysis.
//!
//! The paper's enforcement story splits in two: *consistency* constraints
//! are discharged at compile time by the optimizer's property machinery
//! (`rcc-optimizer/src/property.rs`), and *currency* bounds at run time by
//! SwitchUnion guards. Nothing in that pipeline audits itself — a bug in
//! the delivered-property algebra would silently serve too-stale or
//! mutually-inconsistent rows while every test still passes.
//!
//! This crate is the independent auditor. It re-derives what a physical
//! plan can deliver **without sharing any code with the optimizer's
//! property derivation**: instead of the bottom-up group algebra of
//! `DeliveredProperty`, it enumerates the plan's *worlds* — one per
//! combination of currency-guard outcomes — and checks, world by world,
//! that the normalized constraint's classes are satisfied. Per plan it
//! discharges four proof obligations:
//!
//! 1. **single-source** — every consistency class reads all of its
//!    operands from one snapshot source (one region, or the back-end) in
//!    every reachable world;
//! 2. **bound-satisfiable** — every currency bound is met at compile time
//!    (back-end reads) or covered by a guard at least as tight as the
//!    bound, from a region whose propagation delay can meet it;
//! 3. **guard-well-formed** — every guard predicate references only the
//!    heartbeat-replicated timestamp table of a region that exists in the
//!    catalog, with a non-trivial, achievable bound;
//! 4. **remote-fallback-safe** — the fallback branch of every SwitchUnion
//!    (and every guarded index-join inner) is unconditionally C&C-safe:
//!    pure back-end reads, no residual guards.
//!
//! [`verify_plan`] runs all of them and returns a [`VerifyReport`];
//! `flow-audit` (crate `rcc-bench`) sweeps a generated corpus with it;
//! `rcc-mtcache` runs the same analysis as a `debug_assertions` audit after
//! every optimization and surfaces it through the `VERIFY SELECT ...`
//! statement.

pub mod elision;
pub mod rig;

pub use elision::{elision_ok, verify_elision};

use rcc_catalog::Catalog;
use rcc_common::{Duration, RegionId};
use rcc_optimizer::physical::InnerAccess;
use rcc_optimizer::{CCConstraint, CurrencyGuard, OperandId, PhysicalPlan};
use std::collections::BTreeMap;
use std::fmt;

/// Upper bound on enumerated guard-outcome worlds. Each SwitchUnion (or
/// guarded index-join inner) doubles the world count; real plans carry a
/// handful of guards, so hitting this cap indicates a malformed plan and is
/// reported as a violation rather than silently truncated.
const MAX_WORLDS: usize = 4096;

/// The kind of proof obligation discharged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObligationKind {
    /// Every operand of a consistency class reads from one snapshot source.
    SingleSource,
    /// Every currency bound is compile-time satisfiable or guard-covered.
    BoundSatisfiable,
    /// Guard predicates reference only heartbeat-replicated timestamps.
    GuardWellFormed,
    /// A SwitchUnion guard dominates every table of its local branch.
    GuardDominatesLocal,
    /// The remote fallback branch is unconditionally C&C-safe.
    RemoteFallbackSafe,
    /// Guard elision is maximal-but-sound: every decided guard carries a
    /// certificate whose arithmetic replays from the catalog, and every
    /// undecided guard is independently contingent (see [`verify_elision`]).
    ElisionCertified,
}

impl ObligationKind {
    /// Stable lowercase name (used in reports and the VERIFY result set).
    pub fn name(&self) -> &'static str {
        match self {
            ObligationKind::SingleSource => "single-source",
            ObligationKind::BoundSatisfiable => "bound-satisfiable",
            ObligationKind::GuardWellFormed => "guard-well-formed",
            ObligationKind::GuardDominatesLocal => "guard-dominates-local",
            ObligationKind::RemoteFallbackSafe => "remote-fallback-safe",
            ObligationKind::ElisionCertified => "elision-certified",
        }
    }
}

impl fmt::Display for ObligationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObligationStatus {
    /// The obligation holds in every reachable world.
    Proved,
    /// The obligation fails; the payload says why.
    Violated(String),
}

impl ObligationStatus {
    /// True when proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, ObligationStatus::Proved)
    }
}

/// One discharged (or failed) proof obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obligation {
    /// What is being proved.
    pub kind: ObligationKind,
    /// The subject: a consistency class, a guard, or a plan site.
    pub subject: String,
    /// Outcome.
    pub status: ObligationStatus,
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.status {
            ObligationStatus::Proved => write!(f, "[proved]   {}: {}", self.kind, self.subject),
            ObligationStatus::Violated(why) => {
                write!(f, "[VIOLATED] {}: {} — {}", self.kind, self.subject, why)
            }
        }
    }
}

/// The result of verifying one plan.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Every obligation the analyzer discharged, in derivation order.
    pub obligations: Vec<Obligation>,
    /// Number of guard-outcome worlds enumerated.
    pub worlds: usize,
}

impl VerifyReport {
    /// True when every obligation is proved.
    pub fn ok(&self) -> bool {
        self.obligations.iter().all(|o| o.status.is_proved())
    }

    /// The violated obligations only.
    pub fn violations(&self) -> Vec<&Obligation> {
        self.obligations
            .iter()
            .filter(|o| !o.status.is_proved())
            .collect()
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.obligations {
            out.push_str(&o.to_string());
            out.push('\n');
        }
        let failed = self.violations().len();
        out.push_str(&format!(
            "{} obligation(s) over {} world(s): {}\n",
            self.obligations.len(),
            self.worlds,
            if failed == 0 {
                "all proved".to_string()
            } else {
                format!("{failed} VIOLATED")
            }
        ));
        out
    }
}

/// Where one operand's rows come from in a particular world.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Source {
    /// Served by the back-end master — the latest snapshot, consistent
    /// with every other back-end read and satisfying any bound.
    Backend,
    /// Served from a cached view in `region`. `covered` is the bound of
    /// the innermost guard protecting this access (`None` = unguarded).
    Local {
        region: RegionId,
        covered: Option<Duration>,
    },
}

impl Source {
    fn label(&self) -> String {
        match self {
            Source::Backend => "backend".to_string(),
            Source::Local { region, covered } => match covered {
                Some(b) => format!("region {region} (guarded within {b})"),
                None => format!("region {region} (UNGUARDED)"),
            },
        }
    }
}

/// One world: a complete operand → source assignment reachable under some
/// combination of guard outcomes.
type World = BTreeMap<OperandId, Source>;

/// Verify that `plan` delivers the properties `required` demands, against
/// `catalog` (regions, heartbeat tables, view → region mapping). This is a
/// standalone pass: it never consults the optimizer's
/// `PhysicalPlan::delivered` / `DeliveredProperty` machinery.
pub fn verify_plan(
    catalog: &Catalog,
    required: &CCConstraint,
    plan: &PhysicalPlan,
) -> VerifyReport {
    let mut report = VerifyReport::default();
    let worlds = enumerate_worlds(catalog, plan, &mut report);
    report.worlds = worlds.len();
    check_classes(catalog, required, &worlds, &mut report);
    report
}

/// Describe one class for report subjects, e.g. `30s ON (#0, #1)`.
fn class_subject(class: &rcc_optimizer::CCClass) -> String {
    let ops: Vec<String> = class.operands.iter().map(|o| format!("#{o}")).collect();
    format!("class {} ON ({})", class.bound, ops.join(", "))
}

/// Root checks: obligations 1 and 2, per class, quantified over worlds.
fn check_classes(
    catalog: &Catalog,
    required: &CCConstraint,
    worlds: &[World],
    report: &mut VerifyReport,
) {
    for class in &required.classes {
        // --- obligation 1: single snapshot source per world
        let mut split: Option<String> = None;
        'single: for (i, world) in worlds.iter().enumerate() {
            let mut first: Option<&Source> = None;
            for op in &class.operands {
                let Some(src) = world.get(op) else {
                    split = Some(format!("operand #{op} is not produced by the plan"));
                    break 'single;
                };
                match first {
                    None => first = Some(src),
                    Some(prev) => {
                        let same = match (prev, src) {
                            (Source::Backend, Source::Backend) => true,
                            (Source::Local { region: a, .. }, Source::Local { region: b, .. }) => {
                                a == b
                            }
                            _ => false,
                        };
                        if !same {
                            split = Some(format!(
                                "world {i}: operand #{op} reads {} while another operand reads {}",
                                src.label(),
                                prev.label()
                            ));
                            break 'single;
                        }
                    }
                }
            }
        }
        report.obligations.push(Obligation {
            kind: ObligationKind::SingleSource,
            subject: class_subject(class),
            status: match split {
                None => ObligationStatus::Proved,
                Some(why) => ObligationStatus::Violated(why),
            },
        });

        // --- obligation 2: the bound is met in every world
        let mut too_stale: Option<String> = None;
        'bound: for (i, world) in worlds.iter().enumerate() {
            for op in &class.operands {
                let Some(src) = world.get(op) else { continue };
                let Source::Local { region, covered } = src else {
                    continue; // back-end = latest snapshot, meets any bound
                };
                if class.bound.is_zero() {
                    too_stale = Some(format!(
                        "world {i}: operand #{op} is served locally but the class \
                         requires the latest snapshot (bound 0)"
                    ));
                    break 'bound;
                }
                match covered {
                    None => {
                        too_stale = Some(format!(
                            "world {i}: operand #{op} reads {} with no covering guard",
                            src.label()
                        ));
                        break 'bound;
                    }
                    Some(b) if *b > class.bound => {
                        too_stale = Some(format!(
                            "world {i}: operand #{op} guard admits staleness up to {b}, \
                             looser than the required bound {}",
                            class.bound
                        ));
                        break 'bound;
                    }
                    Some(_) => {}
                }
                if let Ok(r) = catalog.region(*region) {
                    if r.min_guaranteed_currency() > class.bound {
                        too_stale = Some(format!(
                            "world {i}: operand #{op} region {} has propagation delay {} \
                             and can never satisfy bound {}",
                            r.name,
                            r.min_guaranteed_currency(),
                            class.bound
                        ));
                        break 'bound;
                    }
                }
            }
        }
        report.obligations.push(Obligation {
            kind: ObligationKind::BoundSatisfiable,
            subject: class_subject(class),
            status: match too_stale {
                None => ObligationStatus::Proved,
                Some(why) => ObligationStatus::Violated(why),
            },
        });
    }
}

/// Obligation 3: a guard must name an existing region, reference exactly
/// that region's heartbeat-replicated timestamp table, and carry a bound
/// the region can actually meet.
fn check_guard(catalog: &Catalog, guard: &CurrencyGuard, report: &mut VerifyReport) {
    let subject = format!(
        "guard on {} (region {}, bound {})",
        guard.heartbeat_table, guard.region, guard.bound
    );
    let status = match catalog.region(guard.region) {
        Err(_) => ObligationStatus::Violated(format!(
            "region {} does not exist in the catalog",
            guard.region
        )),
        Ok(region) => {
            if guard.heartbeat_table != region.heartbeat_table_name() {
                ObligationStatus::Violated(format!(
                    "predicate reads '{}', which is not region {}'s heartbeat table '{}'",
                    guard.heartbeat_table,
                    region.name,
                    region.heartbeat_table_name()
                ))
            } else if guard.bound.is_zero() {
                ObligationStatus::Violated(
                    "a zero bound can never pass a heartbeat check".to_string(),
                )
            } else if guard.bound < region.min_guaranteed_currency() {
                ObligationStatus::Violated(format!(
                    "bound {} is below region {}'s propagation delay {} — the guard \
                     could pass only on data that cannot exist",
                    guard.bound,
                    region.name,
                    region.min_guaranteed_currency()
                ))
            } else {
                ObligationStatus::Proved
            }
        }
    };
    report.obligations.push(Obligation {
        kind: ObligationKind::GuardWellFormed,
        subject,
        status,
    });
}

/// Bottom-up world enumeration. Site-local obligations (3, 4 and the
/// fallback-safety half of 4) are recorded into `report` along the way.
fn enumerate_worlds(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    report: &mut VerifyReport,
) -> Vec<World> {
    match plan {
        PhysicalPlan::OneRow => vec![World::new()],
        PhysicalPlan::LocalScan(n) => {
            vec![leaf_world(catalog, &n.object, n.operand)]
        }
        PhysicalPlan::RemoteQuery(n) => {
            let mut w = World::new();
            for op in &n.operands {
                w.insert(*op, Source::Backend);
            }
            vec![w]
        }
        PhysicalPlan::SwitchUnion {
            guard,
            local,
            remote,
        } => {
            check_guard(catalog, guard, report);
            let mut local_worlds = enumerate_worlds(catalog, local, report);
            // the guard covers exactly its own region's unguarded accesses
            for world in &mut local_worlds {
                for src in world.values_mut() {
                    if let Source::Local { region, covered } = src {
                        if *region == guard.region && covered.is_none() {
                            *covered = Some(guard.bound);
                        }
                    }
                }
            }
            // obligation 4 (domination): after applying this guard, no
            // local access in the guard-passes worlds may remain uncovered
            let mut stray: Option<String> = None;
            for world in &local_worlds {
                for (op, src) in world {
                    if let Source::Local { covered: None, .. } = src {
                        stray = Some(format!(
                            "local branch operand #{op} reads {} outside the guard's \
                             region — the guard predicate does not dominate it",
                            src.label()
                        ));
                    }
                }
            }
            report.obligations.push(Obligation {
                kind: ObligationKind::GuardDominatesLocal,
                subject: format!("SwitchUnion guarded by {}", guard.heartbeat_table),
                status: match stray {
                    None => ObligationStatus::Proved,
                    Some(why) => ObligationStatus::Violated(why),
                },
            });

            let remote_worlds = enumerate_worlds(catalog, remote, report);
            // obligation 4b (fallback safety): the remote branch must be
            // unconditionally safe — back-end reads in every world
            let mut unsafe_src: Option<String> = None;
            for world in &remote_worlds {
                for (op, src) in world {
                    if !matches!(src, Source::Backend) {
                        unsafe_src = Some(format!(
                            "fallback operand #{op} reads {} instead of the back-end",
                            src.label()
                        ));
                    }
                }
            }
            report.obligations.push(Obligation {
                kind: ObligationKind::RemoteFallbackSafe,
                subject: format!("SwitchUnion guarded by {}", guard.heartbeat_table),
                status: match unsafe_src {
                    None => ObligationStatus::Proved,
                    Some(why) => ObligationStatus::Violated(why),
                },
            });

            join_alternatives(local_worlds, remote_worlds, report)
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Distinct { input } => enumerate_worlds(catalog, input, report),
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::MergeJoin { left, right, .. } => {
            let l = enumerate_worlds(catalog, left, report);
            let r = enumerate_worlds(catalog, right, report);
            cross_product(l, r, report)
        }
        PhysicalPlan::IndexNLJoin { outer, inner, .. } => {
            let o = enumerate_worlds(catalog, outer, report);
            let i = inner_access_worlds(catalog, inner, report);
            cross_product(o, i, report)
        }
    }
}

/// The worlds an [`InnerAccess`] can serve its operand from.
fn inner_access_worlds(
    catalog: &Catalog,
    inner: &InnerAccess,
    report: &mut VerifyReport,
) -> Vec<World> {
    if inner.force_remote {
        // guard-stripped baseline mode: unconditional remote fetch
        let mut w = World::new();
        w.insert(inner.operand, Source::Backend);
        return vec![w];
    }
    match &inner.guard {
        Some(guard) => {
            check_guard(catalog, guard, report);
            // domination for the index-join form: the guarded object must
            // be a view maintained by the guard's own region
            let dominated = match catalog.view(&inner.object) {
                Ok(view) if view.region == guard.region => ObligationStatus::Proved,
                Ok(view) => ObligationStatus::Violated(format!(
                    "inner view {} lives in region {}, not the guard's region {}",
                    inner.object, view.region, guard.region
                )),
                Err(_) => ObligationStatus::Violated(format!(
                    "guarded inner object {} is not a cached view",
                    inner.object
                )),
            };
            report.obligations.push(Obligation {
                kind: ObligationKind::GuardDominatesLocal,
                subject: format!(
                    "IndexNLJoin inner {} guarded by {}",
                    inner.object, guard.heartbeat_table
                ),
                status: dominated,
            });
            // fallback safety: a guard without a remote fallback would leave
            // the executor nowhere safe to go when the check fails
            report.obligations.push(Obligation {
                kind: ObligationKind::RemoteFallbackSafe,
                subject: format!("IndexNLJoin inner {}", inner.object),
                status: if inner.remote_sql.is_some() {
                    ObligationStatus::Proved
                } else {
                    ObligationStatus::Violated(
                        "guarded inner access carries no remote fallback SQL".to_string(),
                    )
                },
            });
            let mut local = World::new();
            local.insert(
                inner.operand,
                Source::Local {
                    region: guard.region,
                    covered: Some(guard.bound),
                },
            );
            let mut worlds = vec![local];
            if inner.remote_sql.is_some() {
                let mut remote = World::new();
                remote.insert(inner.operand, Source::Backend);
                worlds.push(remote);
            }
            worlds
        }
        None => vec![leaf_world(catalog, &inner.object, inner.operand)],
    }
}

/// The source of an unguarded scan: a cached view is region data (still
/// uncovered at this point — an enclosing guard may cover it); anything
/// else is a back-end-role master table, i.e. the latest snapshot.
fn leaf_world(catalog: &Catalog, object: &str, operand: OperandId) -> World {
    let src = match catalog.view(object) {
        Ok(view) => Source::Local {
            region: view.region,
            covered: None,
        },
        Err(_) => Source::Backend,
    };
    let mut w = World::new();
    w.insert(operand, src);
    w
}

/// Union of two alternative world sets (branches of a SwitchUnion).
fn join_alternatives(mut a: Vec<World>, b: Vec<World>, report: &mut VerifyReport) -> Vec<World> {
    a.extend(b);
    cap_worlds(a, report)
}

/// Cross product of independent sub-plan world sets (join inputs).
fn cross_product(a: Vec<World>, b: Vec<World>, report: &mut VerifyReport) -> Vec<World> {
    let mut out = Vec::with_capacity(a.len().saturating_mul(b.len()).min(MAX_WORLDS));
    'outer: for wa in &a {
        for wb in &b {
            if out.len() >= MAX_WORLDS {
                break 'outer;
            }
            let mut w = wa.clone();
            for (op, src) in wb {
                w.insert(*op, src.clone());
            }
            out.push(w);
        }
    }
    if a.len().saturating_mul(b.len()) > MAX_WORLDS {
        overflow(report);
    }
    out
}

fn cap_worlds(worlds: Vec<World>, report: &mut VerifyReport) -> Vec<World> {
    if worlds.len() > MAX_WORLDS {
        overflow(report);
        worlds.into_iter().take(MAX_WORLDS).collect()
    } else {
        worlds
    }
}

fn overflow(report: &mut VerifyReport) {
    // only report the blow-up once per plan
    let already = report
        .obligations
        .iter()
        .any(|o| o.kind == ObligationKind::SingleSource && o.subject == "world enumeration");
    if !already {
        report.obligations.push(Obligation {
            kind: ObligationKind::SingleSource,
            subject: "world enumeration".to_string(),
            status: ObligationStatus::Violated(format!(
                "plan has more than {MAX_WORLDS} guard-outcome worlds; analysis truncated"
            )),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType, Schema};
    use rcc_optimizer::physical::{AccessPath, LocalScanNode, RemoteQueryNode};

    fn catalog_with_region() -> std::sync::Arc<Catalog> {
        rig::audit_catalog(0.01, 7).expect("rig").0
    }

    use crate::rig;

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

    #[test]
    fn pure_remote_plan_satisfies_tight_default() {
        let catalog = catalog_with_region();
        let required = CCConstraint::tight_default([0]);
        let report = verify_plan(&catalog, &required, &remote(&[0]));
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.worlds, 1);
    }

    #[test]
    fn unguarded_view_scan_violates_bound() {
        let catalog = catalog_with_region();
        let required = CCConstraint::normalize(
            vec![(Duration::from_secs(30), [0].into_iter().collect(), vec![])],
            [0],
        );
        let report = verify_plan(&catalog, &required, &scan("cust_prj", 0));
        assert!(!report.ok());
        assert!(report
            .violations()
            .iter()
            .any(|o| o.kind == ObligationKind::BoundSatisfiable));
    }

    #[test]
    fn guarded_view_scan_is_proved() {
        let catalog = catalog_with_region();
        let region = catalog.region_by_name("CR1").expect("CR1");
        let required = CCConstraint::normalize(
            vec![(Duration::from_secs(30), [0].into_iter().collect(), vec![])],
            [0],
        );
        let plan = PhysicalPlan::SwitchUnion {
            guard: CurrencyGuard {
                region: region.id,
                heartbeat_table: region.heartbeat_table_name(),
                bound: Duration::from_secs(30),
            },
            local: Box::new(scan("cust_prj", 0)),
            remote: Box::new(remote(&[0])),
        };
        let report = verify_plan(&catalog, &required, &plan);
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.worlds, 2);
    }

    #[test]
    fn loosened_guard_bound_is_caught() {
        let catalog = catalog_with_region();
        let region = catalog.region_by_name("CR1").expect("CR1");
        let required = CCConstraint::normalize(
            vec![(Duration::from_secs(30), [0].into_iter().collect(), vec![])],
            [0],
        );
        let plan = PhysicalPlan::SwitchUnion {
            guard: CurrencyGuard {
                region: region.id,
                heartbeat_table: region.heartbeat_table_name(),
                bound: Duration::from_secs(120), // looser than required
            },
            local: Box::new(scan("cust_prj", 0)),
            remote: Box::new(remote(&[0])),
        };
        let report = verify_plan(&catalog, &required, &plan);
        assert!(!report.ok());
        assert!(report
            .violations()
            .iter()
            .any(|o| o.kind == ObligationKind::BoundSatisfiable));
    }

    #[test]
    fn wrong_heartbeat_table_is_caught() {
        let catalog = catalog_with_region();
        let region = catalog.region_by_name("CR1").expect("CR1");
        let required = CCConstraint::normalize(
            vec![(Duration::from_secs(30), [0].into_iter().collect(), vec![])],
            [0],
        );
        let plan = PhysicalPlan::SwitchUnion {
            guard: CurrencyGuard {
                region: region.id,
                heartbeat_table: "customer".to_string(), // not a heartbeat table
                bound: Duration::from_secs(30),
            },
            local: Box::new(scan("cust_prj", 0)),
            remote: Box::new(remote(&[0])),
        };
        let report = verify_plan(&catalog, &required, &plan);
        assert!(report
            .violations()
            .iter()
            .any(|o| o.kind == ObligationKind::GuardWellFormed));
    }

    #[test]
    fn local_fallback_branch_is_caught() {
        let catalog = catalog_with_region();
        let region = catalog.region_by_name("CR1").expect("CR1");
        let required = CCConstraint::normalize(
            vec![(Duration::from_secs(30), [0].into_iter().collect(), vec![])],
            [0],
        );
        let plan = PhysicalPlan::SwitchUnion {
            guard: CurrencyGuard {
                region: region.id,
                heartbeat_table: region.heartbeat_table_name(),
                bound: Duration::from_secs(30),
            },
            local: Box::new(scan("cust_prj", 0)),
            remote: Box::new(scan("cust_prj", 0)), // fallback serves stale data
        };
        let report = verify_plan(&catalog, &required, &plan);
        assert!(report
            .violations()
            .iter()
            .any(|o| o.kind == ObligationKind::RemoteFallbackSafe));
    }

    #[test]
    fn per_leaf_guards_cannot_serve_multi_table_class() {
        // the paper's observation: leaf-level guards admit worlds where one
        // operand goes local and the other remote — not a single snapshot
        let catalog = catalog_with_region();
        let cr1 = catalog.region_by_name("CR1").expect("CR1");
        let cr2 = catalog.region_by_name("CR2").expect("CR2");
        let guarded = |object: &str, op: OperandId, r: &rcc_catalog::CurrencyRegion| {
            PhysicalPlan::SwitchUnion {
                guard: CurrencyGuard {
                    region: r.id,
                    heartbeat_table: r.heartbeat_table_name(),
                    bound: Duration::from_secs(30),
                },
                local: Box::new(scan(object, op)),
                remote: Box::new(remote(&[op])),
            }
        };
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(guarded("cust_prj", 0, &cr1)),
            right: Box::new(guarded("orders_prj", 1, &cr2)),
            left_keys: vec![],
            right_keys: vec![],
            kind: rcc_optimizer::graph::JoinKind::Inner,
        };
        let required = CCConstraint::normalize(
            vec![(
                Duration::from_secs(30),
                [0, 1].into_iter().collect(),
                vec![],
            )],
            [0, 1],
        );
        let report = verify_plan(&catalog, &required, &plan);
        assert_eq!(report.worlds, 4);
        assert!(report
            .violations()
            .iter()
            .any(|o| o.kind == ObligationKind::SingleSource));
    }
}
