//! Mutation tests: take *real* optimizer output for paper-shaped queries,
//! deliberately corrupt it the way an optimizer bug would, and prove the
//! static analyzer rejects every corrupted plan while accepting the
//! original. This is the regression guard that keeps `rcc-verify`
//! independent of — and adversarial to — the optimizer's own property
//! derivation.

use rcc_common::Duration;
use rcc_optimizer::physical::{LocalScanNode, PhysicalPlan};
use rcc_optimizer::{bind_select, optimize, OptimizerConfig};
use rcc_verify::{rig, verify_plan, ObligationKind};
use std::collections::HashMap;

fn optimize_sql(
    sql: &str,
    pullup: bool,
) -> (
    std::sync::Arc<rcc_catalog::Catalog>,
    rcc_optimizer::constraint::CCConstraint,
    PhysicalPlan,
) {
    let (catalog, _master) = rig::audit_catalog(0.005, 3).expect("rig");
    let stmt = match rcc_sql::parser::parse_statement(sql).expect("parse") {
        rcc_sql::ast::Statement::Select(s) => s,
        other => panic!("expected SELECT, got {other:?}"),
    };
    let graph = bind_select(&catalog, &stmt, &HashMap::new()).expect("bind");
    let config = OptimizerConfig {
        pullup_switch_union: pullup,
        ..OptimizerConfig::default()
    };
    let optimized = optimize(&catalog, &graph, &config).expect("optimize");
    (catalog, graph.constraint, optimized.plan)
}

/// Apply `f` to every SwitchUnion node in the plan; panics if none found
/// (the mutation would silently test nothing).
fn mutate_switch_unions(
    plan: &mut PhysicalPlan,
    f: &mut dyn FnMut(&mut rcc_optimizer::CurrencyGuard, &mut PhysicalPlan, &mut PhysicalPlan),
) -> usize {
    let mut hits = 0;
    visit(plan, f, &mut hits);
    assert!(hits > 0, "plan contains no SwitchUnion to mutate");
    return hits;

    fn visit(
        plan: &mut PhysicalPlan,
        f: &mut dyn FnMut(&mut rcc_optimizer::CurrencyGuard, &mut PhysicalPlan, &mut PhysicalPlan),
        hits: &mut usize,
    ) {
        if let PhysicalPlan::SwitchUnion {
            guard,
            local,
            remote,
        } = plan
        {
            *hits += 1;
            f(guard, local, remote);
        }
        for child in plan.children_mut() {
            visit(child, f, hits);
        }
    }
}

/// Find the first LocalScan anywhere in the plan (used to fabricate a
/// corrupted "local fallback" branch).
fn find_local_scan(plan: &PhysicalPlan) -> Option<LocalScanNode> {
    match plan {
        PhysicalPlan::LocalScan(n) => Some(n.clone()),
        _ => plan.children().find_map(find_local_scan),
    }
}

const GUARDED_POINT: &str = "SELECT c_name, c_acctbal FROM customer \
     WHERE c_custkey = 17 CURRENCY BOUND 30 SEC ON (customer)";

#[test]
fn pristine_optimizer_output_verifies() {
    for pullup in [false, true] {
        let (catalog, constraint, plan) = optimize_sql(GUARDED_POINT, pullup);
        let report = verify_plan(&catalog, &constraint, &plan);
        assert!(report.ok(), "pristine plan rejected:\n{}", report.render());
    }
}

#[test]
fn loosened_guard_bound_is_caught() {
    let (catalog, constraint, mut plan) = optimize_sql(GUARDED_POINT, false);
    // Optimizer-bug simulation: the guard tests a bound looser than the
    // query's 30 s class, silently serving stale rows as "current enough".
    mutate_switch_unions(&mut plan, &mut |guard, _, _| {
        guard.bound = Duration::from_secs(600);
    });
    let report = verify_plan(&catalog, &constraint, &plan);
    assert!(!report.ok());
    assert!(report
        .violations()
        .iter()
        .any(|o| o.kind == ObligationKind::BoundSatisfiable));
}

#[test]
fn wrong_heartbeat_table_is_caught() {
    let (catalog, constraint, mut plan) = optimize_sql(GUARDED_POINT, false);
    // Guard probes a non-replicated table: its timestamp says nothing about
    // the region's snapshot, so the guard proves nothing.
    mutate_switch_unions(&mut plan, &mut |guard, _, _| {
        guard.heartbeat_table = "customer".into();
    });
    let report = verify_plan(&catalog, &constraint, &plan);
    assert!(!report.ok());
    assert!(report
        .violations()
        .iter()
        .any(|o| o.kind == ObligationKind::GuardWellFormed));
}

#[test]
fn local_fallback_branch_is_caught() {
    let (catalog, constraint, mut plan) = optimize_sql(GUARDED_POINT, false);
    // Replace the remote fallback with a copy of the local branch: when the
    // guard fails there is nowhere safe to go.
    let mut local_copy = None;
    mutate_switch_unions(&mut plan, &mut |_, local, _| {
        local_copy = Some(local.clone());
    });
    let scan = local_copy.expect("local branch");
    mutate_switch_unions(&mut plan, &mut |_, _, remote| {
        *remote = scan.clone();
    });
    let report = verify_plan(&catalog, &constraint, &plan);
    assert!(!report.ok());
    assert!(report
        .violations()
        .iter()
        .any(|o| o.kind == ObligationKind::RemoteFallbackSafe));
}

#[test]
fn cross_region_guard_swap_is_caught() {
    let (catalog, constraint, mut plan) = optimize_sql(GUARDED_POINT, false);
    // The customer view lives in CR1; point the guard at CR2's heartbeat.
    // The guard is internally consistent (real region, real heartbeat,
    // plausible bound) but dominates the wrong tables.
    let cr2 = catalog.region_by_name("CR2").expect("CR2");
    mutate_switch_unions(&mut plan, &mut |guard, _, _| {
        guard.region = cr2.id;
        guard.heartbeat_table = cr2.heartbeat_table_name();
    });
    let report = verify_plan(&catalog, &constraint, &plan);
    assert!(!report.ok());
    assert!(report
        .violations()
        .iter()
        .any(|o| o.kind == ObligationKind::GuardDominatesLocal
            || o.kind == ObligationKind::BoundSatisfiable));
}

#[test]
fn dropped_guard_is_caught() {
    let (catalog, constraint, plan) = optimize_sql(GUARDED_POINT, false);
    // Strip the SwitchUnion entirely, leaving the bare local branch — the
    // classic "forgot the guard" bug the audit hook exists for.
    let bare = find_local_scan(&plan).expect("local scan");
    let stripped = PhysicalPlan::LocalScan(bare);
    let report = verify_plan(&catalog, &constraint, &stripped);
    assert!(!report.ok());
    assert!(report
        .violations()
        .iter()
        .any(|o| o.kind == ObligationKind::BoundSatisfiable));
}

#[test]
fn loosened_guard_under_distinct_is_caught() {
    // `Distinct` is the root here: the walk must reach the guard under it
    let distinct = GUARDED_POINT.replacen("SELECT", "SELECT DISTINCT", 1);
    for pullup in [false, true] {
        let (catalog, constraint, mut plan) = optimize_sql(&distinct, pullup);
        assert!(matches!(plan, PhysicalPlan::Distinct { .. }), "{plan:?}");
        assert!(verify_plan(&catalog, &constraint, &plan).ok());
        mutate_switch_unions(&mut plan, &mut |guard, _, _| {
            guard.bound = Duration::from_secs(600);
        });
        let report = verify_plan(&catalog, &constraint, &plan);
        assert!(report
            .violations()
            .iter()
            .any(|o| o.kind == ObligationKind::BoundSatisfiable));
    }
}
