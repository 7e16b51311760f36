//! `perf check`: the harness tested against itself, at tiny sizes.
//!
//! Every workload goes through the untraced run and the traced run on a
//! scale-0.01 rig; what is checked is the harness, not the speed: that
//! `BENCHMARK.json` and the binary name the same workloads and metrics,
//! that every declared metric comes out once with a unit and a finite
//! value, that all three passes of the traced run give answers the oracle
//! accepts (so the staged pipeline's rows are `Session::execute`'s rows
//! and the layer numbers describe the same work), that exact counts repeat
//! for a seed, and that a corrupted oracle is noticed.

use crate::json::Json;
use crate::run::{self, Outcome, Plan};
use crate::workloads::{Spec, SPECS};
use crate::{declared, result_line, trace, BENCHMARK_JSON};

/// Counts that must be bit-identical between two runs of one seed.
const EXACT: [&str; 6] = [
    "mtcache.plan_cache_hit_ratio",
    "mtcache.plan_cache_entries",
    "executor.rows_out_per_op",
    "executor.guards_evaluated_per_op",
    "net.wire_bytes_per_op",
    "optimizer.plan_nodes_per_plan",
];

fn tiny(spec: Spec, seed: u64) -> Plan {
    Plan {
        spec: Spec {
            ops_per_round: 300,
            warmup_ops: 50,
            trace_ops: 120,
            ..spec
        },
        seed,
        seconds: 0.0,
        scale: 0.01,
        setups: 1,
        corrupt_oracle: false,
    }
}

fn manifest_matches_binary() -> Result<(), String> {
    let manifest = Json::parse(BENCHMARK_JSON)?;
    let listed: Vec<&str> = manifest
        .get("workloads")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let built: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    if listed != built {
        return Err(format!(
            "BENCHMARK.json lists {listed:?}, the binary has {built:?}"
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for section in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(section) {
            let well_formed = !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !well_formed || unit.is_empty() {
                return Err(format!("{section}: bad metric {name:?} [{unit:?}]"));
            }
            if !seen.insert(name.clone()) {
                return Err(format!("metric {name} is declared twice"));
            }
        }
    }
    Ok(())
}

/// The outcome must be correct and carry exactly the section's metrics.
fn well_formed(section: &str, outcome: &Outcome) -> Result<(), String> {
    let line = Json::parse(&result_line(section, outcome)?)?;
    if line.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "incorrect: {} failed op(s), problems {:?}",
            outcome.tally.failed, outcome.problems
        ));
    }
    let emitted = line.get("metrics").map_or(0, |m| match m {
        Json::Obj(pairs) => pairs.len(),
        _ => 0,
    });
    if emitted != declared(section).len() || outcome.metrics.len() != emitted {
        return Err(format!(
            "{section}: {emitted} metrics emitted, {} produced, {} declared",
            outcome.metrics.len(),
            declared(section).len()
        ));
    }
    Ok(())
}

/// Run the whole self-test; the first failure is the error.
pub fn check() -> Result<(), String> {
    manifest_matches_binary()?;
    eprintln!("check: BENCHMARK.json and the binary agree on workloads and metric names");
    for spec in SPECS {
        let at = |stage: &str, e: String| format!("{} ({stage}): {e}", spec.name);
        let plan = tiny(spec, 1);
        let untraced = run::run(&plan).map_err(|e| at("run", e))?;
        well_formed("end_to_end", &untraced).map_err(|e| at("run", e))?;
        let traced = trace::run(&plan).map_err(|e| at("trace", e))?;
        well_formed("per_layer", &traced).map_err(|e| at("trace", e))?;
        let again = trace::run(&plan).map_err(|e| at("trace again", e))?;
        for name in EXACT {
            if traced.metrics[name].to_bits() != again.metrics[name].to_bits() {
                return Err(at(
                    "trace again",
                    format!(
                        "{name} does not repeat: {} then {}",
                        traced.metrics[name], again.metrics[name]
                    ),
                ));
            }
        }
        let corrupted = run::run(&Plan {
            corrupt_oracle: true,
            ..plan
        })
        .map_err(|e| at("corrupt", e))?;
        if corrupted.correct() || corrupted.tally.failed == 0 {
            return Err(at(
                "corrupt",
                "a wrong expected answer went unnoticed".into(),
            ));
        }
        eprintln!(
            "check: {:<12} run ok ({} ops), trace ok ({} ops, {} spans), counts repeat, corrupt oracle caught ({} failed)",
            spec.name,
            untraced.tally.attempted,
            traced.tally.attempted,
            traced.spans.len(),
            corrupted.tally.failed
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_self_test() {
        super::check().unwrap();
    }
}
