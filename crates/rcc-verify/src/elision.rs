//! The sixth proof obligation: **elision-certified**.
//!
//! `rcc-flow` certifies currency guards whose verdict it can prove
//! statically, and an executable is prepared with those decisions, so an
//! execution that runs certified skips the guards. This module is the
//! independent auditor of the decisions. It deliberately re-implements the
//! certificate arithmetic and the walk over guard sites from scratch —
//! sharing no code with `rcc_flow::analyze` — so a bug (or a test mutation)
//! in the analysis cannot also blind the check:
//!
//! 1. **certificate replay** — for every guard site in the plan,
//!    the recorded [`GuardCert`] must match the catalog (region, heartbeat
//!    table, bound, envelope terms) and its verdict must equal the verdict
//!    recomputed here from the catalog alone (`NeverPass` iff `B == 0` or
//!    `B < d`; `AlwaysPass` iff `B > d + f + hb`);
//! 2. **interval soundness** — every local-scan leaf's claimed interval
//!    must contain the honest healthy-replication interval `[d, d+f+hb]`
//!    (a narrower claim is an unsound certificate);
//! 3. **decision replay** — the decisions the executable is prepared with
//!    must be exactly the certified ones, numbered by this module's own
//!    pre-order walk, each taking the arm its decision names;
//! 4. **maximality** — every guard *not* decided must be independently
//!    contingent: an undecided statically-dead guard means the elision was
//!    sound but not maximal.

use crate::{Obligation, ObligationKind, ObligationStatus};
use rcc_catalog::Catalog;
use rcc_common::Duration;
use rcc_flow::{Decision, FlowAnalysis, GuardCert, GuardVerdict};
use rcc_optimizer::physical::CurrencyGuard;
use rcc_optimizer::PhysicalPlan;
use std::collections::BTreeMap;

/// Independently recomputed verdict, with its own arithmetic (kept in
/// deliberate duplication of `rcc_flow::verdict_for` — see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Replayed {
    AlwaysPass,
    NeverPass,
    Contingent,
}

fn replay_verdict(catalog: &Catalog, guard: &CurrencyGuard) -> Option<Replayed> {
    let region = catalog.region(guard.region).ok()?;
    let worst = region
        .update_delay
        .plus(region.update_interval)
        .plus(region.heartbeat_interval);
    Some(
        if guard.bound.is_zero() || guard.bound < region.update_delay {
            Replayed::NeverPass
        } else if guard.bound > worst {
            Replayed::AlwaysPass
        } else {
            Replayed::Contingent
        },
    )
}

fn verdict_matches(claimed: GuardVerdict, replayed: Replayed) -> bool {
    matches!(
        (claimed, replayed),
        (GuardVerdict::AlwaysPass { .. }, Replayed::AlwaysPass)
            | (GuardVerdict::NeverPass, Replayed::NeverPass)
            | (GuardVerdict::Contingent, Replayed::Contingent)
    )
}

fn decision_matches(claimed: Decision, replayed: Replayed) -> bool {
    matches!(
        (claimed, replayed),
        (Decision::ElideLocal, Replayed::AlwaysPass)
            | (Decision::CollapseRemote, Replayed::NeverPass)
            | (Decision::Keep, Replayed::Contingent)
    )
}

/// A guard site found by this module's own pre-order walk.
struct GuardSite<'a> {
    node: usize,
    guard: &'a CurrencyGuard,
}

/// A local-scan leaf found by the same walk.
struct LeafSite<'a> {
    node: usize,
    object: &'a str,
}

fn collect_sites<'a>(
    plan: &'a PhysicalPlan,
    counter: &mut usize,
    guards: &mut Vec<GuardSite<'a>>,
    leaves: &mut Vec<LeafSite<'a>>,
) {
    let my = *counter;
    *counter += 1;
    match plan {
        PhysicalPlan::SwitchUnion { guard, .. } => guards.push(GuardSite { node: my, guard }),
        PhysicalPlan::IndexNLJoin { inner, .. } => {
            if let Some(guard) = &inner.guard {
                guards.push(GuardSite { node: my, guard });
            }
        }
        PhysicalPlan::LocalScan(n) => leaves.push(LeafSite {
            node: my,
            object: &n.object,
        }),
        _ => {}
    }
    for child in plan.children() {
        collect_sites(child, counter, guards, leaves);
    }
}

fn violated(subject: impl Into<String>, why: impl Into<String>) -> Obligation {
    Obligation {
        kind: ObligationKind::ElisionCertified,
        subject: subject.into(),
        status: ObligationStatus::Violated(why.into()),
    }
}

fn proved(subject: impl Into<String>) -> Obligation {
    Obligation {
        kind: ObligationKind::ElisionCertified,
        subject: subject.into(),
        status: ObligationStatus::Proved,
    }
}

/// Verify that `decided` — what an executable of `plan` is prepared with:
/// (pre-order node number, takes the local arm) per skipped guard — is
/// exactly the analysis' certified decisions, that every certificate
/// replays from the catalog, and that the elision is maximal. Returns one
/// obligation per guard site plus one for interval soundness and one for
/// the decision replay.
pub fn verify_elision(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    analysis: &FlowAnalysis,
    decided: &[(usize, bool)],
) -> Vec<Obligation> {
    let mut out = Vec::new();
    let mut counter = 0usize;
    let mut guard_sites = Vec::new();
    let mut leaf_sites = Vec::new();
    collect_sites(plan, &mut counter, &mut guard_sites, &mut leaf_sites);

    let certs: BTreeMap<usize, &GuardCert> = analysis.guards.iter().map(|g| (g.node, g)).collect();

    // 1. certificate replay, per guard site.
    for site in &guard_sites {
        let subject = format!(
            "guard on {} (bound {}) @node {}",
            site.guard.heartbeat_table, site.guard.bound, site.node
        );
        let Some(cert) = certs.get(&site.node) else {
            out.push(violated(&subject, "guard site carries no certificate"));
            continue;
        };
        if cert.region != site.guard.region
            || cert.heartbeat_table != site.guard.heartbeat_table
            || cert.bound != site.guard.bound
        {
            out.push(violated(
                &subject,
                "certificate does not describe this guard",
            ));
            continue;
        }
        let Some(replayed) = replay_verdict(catalog, site.guard) else {
            // Unknown region: the analysis must not have elided it.
            if cert.decision == Decision::Keep {
                out.push(proved(&subject));
            } else {
                out.push(violated(&subject, "elided a guard on an unknown region"));
            }
            continue;
        };
        let region = match catalog.region(site.guard.region) {
            Ok(r) => r,
            Err(_) => unreachable!("replay_verdict resolved the region"),
        };
        if cert.envelope.update_delay != region.update_delay
            || cert.envelope.update_interval != region.update_interval
            || cert.envelope.heartbeat_interval != region.heartbeat_interval
        {
            out.push(violated(
                &subject,
                format!(
                    "certificate envelope ({}) disagrees with the catalog",
                    cert.envelope
                ),
            ));
            continue;
        }
        if !verdict_matches(cert.verdict, replayed) {
            out.push(violated(
                &subject,
                format!(
                    "claimed verdict '{}' does not replay from the catalog",
                    cert.verdict.label()
                ),
            ));
            continue;
        }
        if !decision_matches(cert.decision, replayed) {
            out.push(violated(
                &subject,
                format!(
                    "decision '{}' does not follow from the replayed verdict",
                    cert.decision.label()
                ),
            ));
            continue;
        }
        out.push(proved(&subject));
    }
    // Certificates for sites that do not exist are also unsound.
    for cert in &analysis.guards {
        if !guard_sites.iter().any(|s| s.node == cert.node) {
            out.push(violated(
                format!("certificate @node {}", cert.node),
                "certificate names a node that carries no guard",
            ));
        }
    }

    // 2. interval soundness at the leaves.
    let mut leaf_ok = true;
    for leaf in &leaf_sites {
        let Ok(view) = catalog.view(leaf.object) else {
            continue; // master-table scan: no replication interval to check
        };
        let Ok(region) = catalog.region(view.region) else {
            continue;
        };
        let Some(node) = analysis.nodes.iter().find(|n| n.node == leaf.node) else {
            out.push(violated(
                format!("leaf {} @node {}", leaf.object, leaf.node),
                "leaf has no flow certificate",
            ));
            leaf_ok = false;
            continue;
        };
        let honest = rcc_flow::CurrencyInterval {
            lo: region.update_delay,
            hi: rcc_flow::StalenessBound::Finite(
                region
                    .update_delay
                    .plus(region.update_interval)
                    .plus(region.heartbeat_interval),
            ),
        };
        if !node.interval.contains(&honest) {
            out.push(violated(
                format!("leaf {} @node {}", leaf.object, leaf.node),
                format!(
                    "claimed interval {} is narrower than the healthy envelope {}",
                    node.interval, honest
                ),
            ));
            leaf_ok = false;
        }
    }
    if leaf_ok && !leaf_sites.is_empty() {
        out.push(proved("leaf intervals contain the healthy envelope"));
    }

    // 3. decision replay: the executable's decisions are the certified
    // ones at this walk's guard sites.
    let certified: Vec<(usize, bool)> = (guard_sites.iter())
        .filter_map(|site| match certs.get(&site.node)?.decision {
            Decision::ElideLocal => Some((site.node, true)),
            Decision::CollapseRemote => Some((site.node, false)),
            Decision::Keep => None,
        })
        .collect();
    let mut replayed = decided.to_vec();
    replayed.sort_unstable();
    if replayed == certified {
        out.push(proved("decided guards replay"));
    } else {
        out.push(violated(
            "decided guards",
            format!("the executable decides {decided:?}, the certificates {certified:?}"),
        ));
    }

    // 4. maximality: every undecided guard must be contingent on its own.
    for site in guard_sites
        .iter()
        .filter(|s| !decided.iter().any(|d| d.0 == s.node))
    {
        let subject = format!(
            "undecided guard on {} (bound {}) @node {}",
            site.guard.heartbeat_table, site.guard.bound, site.node
        );
        match replay_verdict(catalog, site.guard) {
            None | Some(Replayed::Contingent) => out.push(proved(&subject)),
            Some(Replayed::AlwaysPass) => out.push(violated(
                &subject,
                "statically always-satisfied guard is evaluated; elision is not maximal",
            )),
            Some(Replayed::NeverPass) => out.push(violated(
                &subject,
                "statically unreachable local branch is kept; elision is not maximal",
            )),
        }
    }
    out
}

/// Convenience used by audits: true when every obligation is proved.
pub fn elision_ok(obligations: &[Obligation]) -> bool {
    obligations.iter().all(|o| o.status.is_proved())
}

/// A probe bound that separates the honest envelope from a dropped
/// heartbeat term for `region_name` (i.e. `d + f < B ≤ d + f + hb`), if
/// the region's heartbeat interval is non-zero. Audits use this to make
/// the dropped-heartbeat mutation observable on corpora whose bounds skip
/// that window.
pub fn heartbeat_probe_bound(catalog: &Catalog, region_name: &str) -> Option<Duration> {
    let region = catalog.region_by_name(region_name).ok()?;
    if region.heartbeat_interval.is_zero() {
        return None;
    }
    Some(
        region
            .update_delay
            .plus(region.update_interval)
            .plus(Duration::from_millis(1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig;
    use rcc_common::{Column, DataType, RegionId, Schema};
    use rcc_flow::{analyze, analyze_mutated, Mutation};
    use rcc_optimizer::physical::{AccessPath, LocalScanNode, RemoteQueryNode};
    use std::collections::BTreeSet;

    fn scan(object: &str, operand: u32) -> PhysicalPlan {
        PhysicalPlan::LocalScan(LocalScanNode {
            object: object.to_string(),
            schema: Schema::new(vec![Column::new("c", DataType::Int)]),
            access: AccessPath::FullScan,
            residual: None,
            operand,
            est_rows: 10.0,
        })
    }

    fn remote(ops: &[u32]) -> PhysicalPlan {
        PhysicalPlan::RemoteQuery(RemoteQueryNode {
            sql: "SELECT 1".into(),
            schema: Schema::new(vec![Column::new("c", DataType::Int)]),
            operands: ops.iter().copied().collect::<BTreeSet<_>>(),
            est_rows: 10.0,
        })
    }

    fn su(
        region: RegionId,
        bound_secs: i64,
        local: PhysicalPlan,
        rem: PhysicalPlan,
    ) -> PhysicalPlan {
        PhysicalPlan::SwitchUnion {
            guard: CurrencyGuard {
                region,
                heartbeat_table: format!("heartbeat_cr{}", region.0),
                bound: Duration::from_secs(bound_secs),
            },
            local: Box::new(local),
            remote: Box::new(rem),
        }
    }

    #[test]
    fn honest_analysis_passes_all_obligations() {
        let (catalog, _m) = rig::audit_catalog(0.005, 7).expect("rig");
        // CR1 H = 22s: bound 30 elides, bound 10 stays, bound 2 collapses.
        for bound in [30, 10, 2] {
            let plan = su(RegionId(1), bound, scan("cust_prj", 0), remote(&[0]));
            let analysis = analyze(&catalog, &plan);
            let obs = verify_elision(&catalog, &plan, &analysis, &analysis.decided());
            assert!(
                elision_ok(&obs),
                "bound {bound}: {:?}",
                obs.iter()
                    .filter(|o| !o.status.is_proved())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn every_mutation_is_rejected() {
        let (catalog, _m) = rig::audit_catalog(0.005, 7).expect("rig");
        // Contingent bound for CR2 on the heartbeat-probe window: d+f = 15,
        // H = 17, so 16s flips under the dropped-heartbeat mutation. A 10s
        // guard exposes the stale-clock and elide-falsifiable mutations,
        // and the widened interval shows up at any view leaf.
        for mutation in Mutation::ALL {
            let bound = match mutation {
                Mutation::DropHeartbeatJoin => 16,
                _ => 10,
            };
            let plan = su(RegionId(2), bound, scan("orders_prj", 0), remote(&[0]));
            let analysis = analyze_mutated(&catalog, &plan, Some(mutation));
            let obs = verify_elision(&catalog, &plan, &analysis, &analysis.decided());
            assert!(
                !elision_ok(&obs),
                "mutation {} must be rejected",
                mutation.label()
            );
        }
    }

    #[test]
    fn surviving_dead_guard_fails_maximality() {
        let (catalog, _m) = rig::audit_catalog(0.005, 7).expect("rig");
        let plan = su(RegionId(1), 30, scan("cust_prj", 0), remote(&[0]));
        let analysis = analyze(&catalog, &plan);
        // Lie: pretend nothing was decided — the guard is evaluated.
        let obs = verify_elision(&catalog, &plan, &analysis, &[]);
        assert!(!elision_ok(&obs));
        assert!(obs.iter().any(|o| matches!(
            &o.status,
            ObligationStatus::Violated(why) if why.contains("not maximal")
        )));
    }

    #[test]
    fn foreign_decisions_fail_decision_replay() {
        let (catalog, _m) = rig::audit_catalog(0.005, 7).expect("rig");
        let plan = su(RegionId(1), 10, scan("cust_prj", 0), remote(&[0]));
        let analysis = analyze(&catalog, &plan);
        // Keep decision, but hand the verifier a collapsed guard, or one
        // numbered for the node after it.
        for decided in [(0, false), (1, true)] {
            let obs = verify_elision(&catalog, &plan, &analysis, &[decided]);
            assert!(!elision_ok(&obs), "{decided:?}");
        }
        // CR1 H = 22s: a 30s guard is decided local, not remote
        let plan = su(RegionId(1), 30, scan("cust_prj", 0), remote(&[0]));
        let analysis = analyze(&catalog, &plan);
        let obs = verify_elision(&catalog, &plan, &analysis, &[(0, false)]);
        assert!(!elision_ok(&obs));
    }

    #[test]
    fn probe_bound_sits_in_heartbeat_window() {
        let (catalog, _m) = rig::audit_catalog(0.005, 7).expect("rig");
        let b = heartbeat_probe_bound(&catalog, "CR2").expect("probe");
        let region = catalog.region_by_name("CR2").expect("CR2");
        let df = region.update_delay.plus(region.update_interval);
        assert!(b > df);
        assert!(b <= df.plus(region.heartbeat_interval));
    }
}
