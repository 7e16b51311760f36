//! `perf` — the repository's benchmark.
//!
//! One pinned, seeded, self-checking closed-loop benchmark over real
//! loopback TCP: five workloads, six end-to-end metrics from an untraced
//! run, and the per-layer metrics from a separate traced run. See
//! `README.md` beside this package, and `BENCHMARK.json` at the repository
//! root, which names every workload and metric and is compiled in here so
//! the two cannot drift apart.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! perf all [--seed N] [--seconds S]                    every workload, untraced then traced
//! perf check                                           harness self-test (tiny sizes)
//! ```

mod json;
mod procfs;
mod rig;
mod run;
mod selftest;
mod spans;
mod staged;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::{Outcome, Plan};
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// The contract this binary is checked against, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let manifest = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    manifest
        .get(section)
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn default_seconds() -> f64 {
    Json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|m| m.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0)
}

/// The one JSON object the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`, the metrics being those of `section`. A metric the
/// run did not produce, or a value that is not finite, is an error.
fn result_line(section: &str, outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in declared(section) {
        let value = *outcome
            .metrics
            .get(name.as_str())
            .ok_or_else(|| format!("metric {name} was not produced"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.tally.attempted as f64)),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render())
}

/// Where reports and span files go: `perf-report/` in the build's target
/// directory, two levels above the executable.
fn report_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("perf"));
    let target = exe.parent().and_then(|p| p.parent());
    target
        .unwrap_or(std::path::Path::new("."))
        .join("perf-report")
}

fn write_report(file: &str, body: &str) {
    let dir = report_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(file), body));
    if let Err(e) = written {
        eprintln!("perf: cannot write {}: {e}", dir.join(file).display());
    }
}

/// With one closed-loop client only one thread is runnable at a time;
/// unpinned, the client/server ping-pong flips between same-core and
/// cross-core wake-ups from run to run. So the benchmark pins itself to
/// the last CPU it is allowed, by re-executing under `taskset`. Returns
/// whether this process now runs on exactly one CPU.
fn pin_to_one_cpu() -> bool {
    let cpus = procfs::parse_cpu_list(&procfs::cpus_allowed_list());
    if cpus.len() <= 1 {
        return true;
    }
    if std::env::var_os("PERF_REEXEC").is_some() {
        return false;
    }
    let (Some(last), Ok(exe)) = (cpus.last(), std::env::current_exe()) else {
        return false;
    };
    let err = Command::new("taskset")
        .arg("-c")
        .arg(last.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env("PERF_REEXEC", "1")
        .exec();
    eprintln!("perf: cannot pin with taskset ({err}); running unpinned");
    false
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(pinned: bool) -> Json {
    Json::obj([
        ("pinned", Json::Bool(pinned)),
        ("cpus_allowed_list", Json::str(procfs::cpus_allowed_list())),
        ("nproc", Json::Num(procfs::machine_cpus() as f64)),
        ("rustc", Json::str(rustc_version())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: default_seconds(),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

/// One run of one workload, as the driver invokes it.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let spec = workloads::spec(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name} (known: {})", known.join(", "))
    })?;
    let pinned = pin_to_one_cpu();
    let plan = Plan::full(spec, args.seed, args.seconds);
    let (section, file, outcome) = if args.trace {
        (
            "per_layer",
            format!("{name}.trace.json"),
            trace::run(&plan)?,
        )
    } else {
        ("end_to_end", format!("{name}.json"), run::run(&plan)?)
    };
    let line = result_line(section, &outcome)?;

    for (metric, unit) in declared(section) {
        eprintln!(
            "{name} {metric} {} {unit}",
            outcome.metrics[metric.as_str()]
        );
    }
    for note in &outcome.notes {
        eprintln!("{note}");
    }
    if let Some(failure) = &outcome.tally.first_failure {
        eprintln!("perf: {name}: first failed op: {failure}");
    }
    for problem in &outcome.problems {
        eprintln!("perf: {name}: {problem}");
    }
    if outcome.report.get("noisy") == Some(&Json::Bool(true)) {
        eprintln!("perf: {name}: noisy=true (per-round qps IQR above 10 % of its median)");
    }
    if !pinned {
        eprintln!("perf: {name}: pinned=false");
    }
    let report = Json::obj([
        ("environment", environment(pinned)),
        ("run", outcome.report.clone()),
        ("result", Json::parse(&line)?),
    ]);
    write_report(&file, &report.render());
    if !outcome.spans.is_empty() {
        write_report(
            &format!("{name}.spans.json"),
            &spans::to_json(&outcome.spans).render(),
        );
    }
    println!("{line}");
    Ok(outcome.correct())
}

/// `perf all`: every workload in a fresh process each, untraced then
/// traced; one `workload metric value unit` line per declared metric.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for spec in workloads::SPECS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(&exe)
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::null())
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = Json::parse(stdout.lines().last().unwrap_or(""))
                .map_err(|e| format!("{} --trace {trace}: no result ({e})", spec.name))?;
            let correct = result.get("correct") == Some(&Json::Bool(true));
            for (metric, unit) in declared(section) {
                match result
                    .get("metrics")
                    .and_then(|m| m.get(&metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                {
                    Some(v) => println!("{} {metric} {v} {unit}", spec.name),
                    None => {
                        println!("{} {metric} MISSING {unit}", spec.name);
                        ok = false;
                    }
                }
            }
            let file = if trace == "1" {
                format!("{}.trace.json", spec.name)
            } else {
                format!("{}.json", spec.name)
            };
            let report = std::fs::read_to_string(report_dir().join(file))
                .ok()
                .and_then(|s| Json::parse(&s).ok());
            let flag = |section: &str, key: &str| {
                report
                    .as_ref()
                    .and_then(|r| r.get(section)?.get(key).cloned())
            };
            let pinned = flag("environment", "pinned") == Some(Json::Bool(true));
            let noisy = flag("run", "noisy") == Some(Json::Bool(true));
            println!(
                "{} --trace {trace}: correct={correct} pinned={pinned} noisy={noisy} exit={}",
                spec.name,
                out.status.code().unwrap_or(-1)
            );
            ok &= correct && pinned && out.status.success();
        }
    }
    println!("reports and span files: {}", report_dir().display());
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("check") => selftest::check().map(|()| true),
        Some("all") => parse_flags(&argv[1..]).and_then(|a| run_all(&a)),
        _ => parse_flags(&argv).and_then(|a| run_one(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
