//! `flow-audit`: sweep the generated C&C corpus through the currency
//! dataflow analysis and prove every guard-elision certificate sound,
//! statically and dynamically.
//!
//! ```text
//! cargo run -p rcc-bench --bin flow-audit -- [--queries N] [--seed S] [--scale F]
//! ```
//!
//! Three phases, all deterministic:
//!
//! * **Static sweep** — every corpus query is optimized under both
//!   pull-up modes; the analysis' guard decisions must pass the independent
//!   certificate replay ([`rcc_verify::verify_elision`]) *and* the plan
//!   must conform to its currency clause ([`rcc_verify::verify_plan`]). Two
//!   heartbeat-window probe queries (bounds in `(d+f, d+f+hb]`) are
//!   appended so envelope terms that the fixed corpus bounds skip are
//!   still exercised.
//! * **Mutation sweep** — each deliberate corruption in
//!   [`rcc_flow::Mutation::ALL`] is injected into the analysis; wherever
//!   the corrupted analysis changes the decisions, the verifier must
//!   reject it, and every mutation must be observed and rejected at least
//!   once across the corpus.
//! * **Differential replay** — the corpus runs end-to-end on the paper
//!   rig with elision off and on; result wire bytes, remote usage, and
//!   warnings must be identical, at least one guard must actually be
//!   elided, the runtime premise cross-check
//!   (`rcc_flow_interval_violations_total`) must read zero, and flipping
//!   elision must cost no plan-cache miss: each pull-up mode's misses are
//!   its elision-off runs' own.

use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_optimizer::{bind_select, optimize, OptimizerConfig};
use rcc_sql::ast::Statement;
use rcc_verify::{elision_ok, rig, verify_elision, verify_plan};
use std::collections::HashMap;
use std::process::ExitCode;

struct Args {
    queries: usize,
    seed: u64,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        queries: 160,
        seed: 7,
        scale: 0.01,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--queries" => {
                args.queries = grab("--queries")?
                    .parse()
                    .map_err(|e| format!("--queries: {e}"))?
            }
            "--seed" => {
                args.seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--scale" => {
                args.scale = grab("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--help" | "-h" => {
                println!("usage: flow-audit [--queries N] [--seed S] [--scale F]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flow-audit: {e}");
            return ExitCode::from(2);
        }
    };

    let (catalog, _master) = match rig::audit_catalog(args.scale, args.seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flow-audit: failed to build audit catalog: {e}");
            return ExitCode::from(2);
        }
    };
    let max_custkey = catalog.stats("customer").row_count.max(1) as i64;
    let mut corpus = rcc_tpcd::currency_corpus(args.queries, args.seed, max_custkey);
    // Heartbeat-window probes: a bound in (d+f, d+f+hb] separates the
    // honest envelope from one whose heartbeat term was dropped, which the
    // corpus' coarse bound grid (2 s .. 1 h) can otherwise straddle.
    for (region, probe) in [
        (
            "CR1",
            "SELECT c_name FROM customer CURRENCY BOUND {B} MS ON (customer)",
        ),
        (
            "CR2",
            "SELECT o_totalprice FROM orders WHERE o_custkey = 1 \
             CURRENCY BOUND {B} MS ON (orders)",
        ),
    ] {
        if let Some(b) = rcc_verify::elision::heartbeat_probe_bound(&catalog, region) {
            corpus.push(probe.replace("{B}", &b.millis().to_string()));
        }
    }

    let params: HashMap<String, rcc_common::Value> = HashMap::new();
    let configs = [
        ("pullup=off", OptimizerConfig::default()),
        (
            "pullup=on",
            OptimizerConfig {
                pullup_switch_union: true,
                ..OptimizerConfig::default()
            },
        ),
    ];

    let mut failures = 0usize;
    let mut plans = 0usize;
    let mut unsound = 0usize;
    let mut elided_static = 0usize;
    let mut kept_static = 0usize;
    let mut worlds_max = 0usize;
    let mut rejected = [0usize; rcc_flow::Mutation::ALL.len()];

    for (qi, sql) in corpus.iter().enumerate() {
        let stmt = match rcc_sql::parser::parse_statement(sql) {
            Ok(Statement::Select(s)) => s,
            Ok(_) => {
                eprintln!("query {qi}: generator produced a non-SELECT statement");
                failures += 1;
                continue;
            }
            Err(e) => {
                eprintln!("query {qi}: parse error: {e}\n  {sql}");
                failures += 1;
                continue;
            }
        };
        let graph = match bind_select(&catalog, &stmt, &params) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("query {qi}: bind error: {e}\n  {sql}");
                failures += 1;
                continue;
            }
        };
        for (mode, config) in &configs {
            let optimized = match optimize(&catalog, &graph, config) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("query {qi} [{mode}]: optimize error: {e}\n  {sql}");
                    failures += 1;
                    continue;
                }
            };
            plans += 1;

            // Honest analysis: the decisions an executable is prepared
            // with must replay cleanly.
            let flow = rcc_flow::analyze(&catalog, &optimized.plan);
            let honest = flow.decided();
            elided_static += honest.len();
            kept_static += flow.guards.len() - honest.len();
            let obligations = verify_elision(&catalog, &optimized.plan, &flow, &honest);
            if !elision_ok(&obligations) {
                unsound += 1;
                eprintln!("UNSOUND CERTIFICATE on query {qi} [{mode}]:\n  {sql}");
                for o in obligations.iter().filter(|o| !o.status.is_proved()) {
                    eprintln!("  {o}");
                }
            }
            // The plan must conform to the clause with every guard
            // evaluated — skipping the decided ones conforms only under
            // the healthy-replication premise, which is exactly what the
            // certificate replay above proves.
            let report = verify_plan(&catalog, &graph.constraint, &optimized.plan);
            worlds_max = worlds_max.max(report.worlds);
            if !report.ok() {
                unsound += 1;
                eprintln!("OPTIMIZED PLAN DIVERGES on query {qi} [{mode}]:\n  {sql}");
                eprintln!("{}", report.render());
            }

            // Mutation sweep: wherever a corrupted analysis differs from
            // the honest one — in the decisions or in the claimed
            // certificates — the verifier must catch it.
            let honest_claims = format!("{flow:?}");
            for (mi, m) in rcc_flow::Mutation::ALL.iter().enumerate() {
                let mflow = rcc_flow::analyze_mutated(&catalog, &optimized.plan, Some(*m));
                let mutated = mflow.decided();
                if mutated == honest && format!("{mflow:?}") == honest_claims {
                    continue; // mutation unobservable on this plan
                }
                let obs = verify_elision(&catalog, &optimized.plan, &mflow, &mutated);
                if !elision_ok(&obs) {
                    rejected[mi] += 1;
                } else if mutated != honest {
                    // The verifier accepted decisions the honest analysis
                    // would not have made — a genuine soundness escape.
                    failures += 1;
                    eprintln!(
                        "MUTATION ESCAPE: {} accepted on query {qi} [{mode}]:\n  {sql}",
                        m.label()
                    );
                }
                // Otherwise the corruption only perturbed advisory
                // bookkeeping (e.g. an always-pass margin) while the applied
                // transform and every verified claim stayed honest — benign.
            }
        }
    }
    for (mi, m) in rcc_flow::Mutation::ALL.iter().enumerate() {
        if rejected[mi] == 0 {
            failures += 1;
            eprintln!(
                "mutation {} was never observed and rejected — the corpus no longer \
                 exercises it",
                m.label()
            );
        }
    }

    // Differential replay on the paper rig: elision on/off must be
    // byte-identical on the wire encoding, and the runtime premise
    // cross-check must stay silent.
    let cache = match paper_setup(args.scale, args.seed).and_then(|c| {
        warm_up(&c)?;
        Ok(c)
    }) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("flow-audit: failed to build paper rig: {e}");
            return ExitCode::from(2);
        }
    };
    let dyn_max = cache.catalog().stats("customer").row_count.max(1) as i64;
    let dyn_corpus = rcc_tpcd::currency_corpus(args.queries, args.seed, dyn_max);
    let mut replayed = 0usize;
    let mut mismatches = 0usize;
    for pullup in [false, true] {
        cache.set_pullup_switch_union(pullup);
        // the setting is read per execution: flipping it recompiles
        // nothing, so the mode's plan-cache misses are the elision-off
        // runs' own (fewer than the texts where texts share a shape)
        let (_, misses_before) = cache.plan_cache().stats();
        let mut off_misses = 0u64;
        for (qi, sql) in dyn_corpus.iter().enumerate() {
            cache.set_elide_guards(false);
            let off = cache.execute(sql);
            cache.set_elide_guards(true);
            let on = cache.execute(sql);
            replayed += 1;
            match (off, on) {
                (Ok(off), Ok(on)) => {
                    off_misses += u64::from(!off.stats.plan_cache_hit);
                    let off_bytes = rcc_executor::wire::encode_result(&off.schema, &off.rows);
                    let on_bytes = rcc_executor::wire::encode_result(&on.schema, &on.rows);
                    if off_bytes != on_bytes
                        || off.used_remote != on.used_remote
                        || off.warnings != on.warnings
                    {
                        mismatches += 1;
                        eprintln!(
                            "DIFFERENTIAL MISMATCH on query {qi} [pullup={pullup}]:\n  {sql}\n  \
                             bytes {}≠{} remote {}≠{} warnings {:?}≠{:?}",
                            off_bytes.len(),
                            on_bytes.len(),
                            off.used_remote,
                            on.used_remote,
                            off.warnings,
                            on.warnings
                        );
                    }
                }
                (off, on) => {
                    mismatches += 1;
                    eprintln!(
                        "EXECUTION ERROR on query {qi} [pullup={pullup}]:\n  {sql}\n  \
                         off: {off:?}\n  on: {on:?}"
                    );
                }
            }
        }
        let misses = cache.plan_cache().stats().1 - misses_before;
        if misses != off_misses {
            failures += 1;
            eprintln!(
                "{misses} plan-cache misses replaying {} texts [pullup={pullup}], \
                 {off_misses} of them with elision off: toggling elision must not recompile",
                dyn_corpus.len()
            );
        }
    }
    let snap = cache.metrics().snapshot();
    let violations = snap.counter("rcc_flow_interval_violations_total");
    let elided_dynamic = snap.counter("rcc_flow_guards_elided_total");
    if violations != 0 {
        failures += 1;
        eprintln!("runtime premise cross-check fired {violations} time(s) — envelope broken");
    }
    if elided_dynamic == 0 {
        failures += 1;
        eprintln!("no guard was elided during replay — the sweep proves nothing");
    }

    println!(
        "flow-audit: {} queries, {} plans analyzed (max {} worlds/plan), {} guards \
         elided / {} kept (static), {} certificates unsound, {} mutation rejections {:?}, \
         {} replays, {} mismatches, {} guards elided (dynamic), {} interval \
         violations",
        corpus.len(),
        plans,
        worlds_max,
        elided_static,
        kept_static,
        unsound,
        rejected.iter().sum::<usize>(),
        rejected,
        replayed,
        mismatches,
        elided_dynamic,
        violations
    );
    if failures == 0 && unsound == 0 && mismatches == 0 {
        println!(
            "flow-audit: every elision certificate is sound, every mutation is \
             rejected, and elided runs are byte-identical on the wire"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
