//! The untraced run: every end-to-end metric comes from here.
//!
//! Load model: closed loop, one client connection, one process per
//! workload. A run is set-up, a discarded warm-up round, then measured
//! rounds of a fixed number of ops each. How many rounds is fixed too:
//! `--seconds` is turned into a round count at the workload's nominal rate
//! (so on the reference box a run measures for about `--seconds`), and two
//! builds are then compared over exactly the same ops — a slower build
//! takes longer, it does not do less. That matters on `point_cold`, whose
//! plan cache grows with every op.
//!
//! Estimator: `qps`, `lat_p50_us`, `lat_p99_us` and `cpu_us_per_op` are the
//! *second-best round's* value (second-highest `qps`, second-lowest of the
//! others). Interference on a shared box only ever makes a round worse,
//! and comes in episodes of seconds to minutes; measured over ten runs per
//! workload, the second-best round repeats within 2–7 % where the median
//! over rounds of the per-round p99 moves by up to 22 %. Rounds are short
//! so that there are many, and none is ever dropped: every round's value,
//! the median and the quartiles are in the report.

use crate::json::Json;
use crate::procfs;
use crate::rig::Rig;
use crate::stats::{iqr_ratio, median, percentile, quartiles, second_best};
use crate::workloads::{Spec, Workload};
use rcc_net::{NetClient, NetQueryResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// Fewest measured rounds, however small `--seconds` is.
pub const MIN_ROUNDS: usize = 6;

/// How a run is sized. [`Plan::full`] is what `BENCHMARK.json` measures;
/// the self-test shrinks everything.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    /// Times the rig is built (and torn down) to take `setup_s` as a median.
    pub setups: usize,
    /// Flip the oracle's expected answers: every read must then fail.
    pub corrupt_oracle: bool,
}

impl Plan {
    /// Measured rounds: `seconds` of work at the workload's nominal rate.
    pub fn rounds(&self) -> usize {
        let ops = self.seconds * self.spec.nominal_qps;
        ((ops / self.spec.ops_per_round as f64).round() as usize).max(MIN_ROUNDS)
    }

    pub fn full(spec: Spec, seed: u64, seconds: f64) -> Plan {
        Plan {
            spec,
            seed,
            seconds,
            scale: crate::rig::SCALE,
            setups: 5,
            corrupt_oracle: false,
        }
    }
}

/// One measured round.
#[derive(Debug, Clone)]
pub struct Round {
    pub ops: usize,
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Process CPU time over the round ÷ ops.
    pub cpu_us_per_op: f64,
    /// Latency samples behind the percentiles (reads only).
    pub samples: usize,
}

/// Counts of ops sent and ops that failed their check.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first op that failed, for the operator.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one checked op.
    pub fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(describe);
        }
    }
}

/// What a run produced.
pub struct Outcome {
    pub tally: Tally,
    /// Things that are wrong but are not a failed op (SLO violation,
    /// diverged view, pump error).
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Everything else worth keeping, for the report file.
    pub report: Json,
    /// Lines for the operator: tables the traced run prints.
    pub notes: Vec<String>,
    /// The traced run's spans (empty for an untraced run).
    pub spans: Vec<crate::spans::Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.problems.is_empty()
    }
}

/// Send `ops` statements of the stream, checking every answer. Latencies
/// (call to decoded rows, reads only) are appended to `latencies_ns`.
pub fn drive(
    client: &mut NetClient,
    workload: &mut Workload,
    ops: usize,
    tally: &mut Tally,
    latencies_ns: &mut Vec<u64>,
) {
    let mut sql = String::new();
    for _ in 0..ops {
        let check = workload.next(&mut sql);
        let sent = Instant::now();
        let result = client.query(&sql);
        let latency = sent.elapsed();
        tally.record(workload.verify(check, &result), || {
            describe_failure(&sql, &result)
        });
        if check.is_read() {
            latencies_ns.push(latency.as_nanos() as u64);
        }
    }
}

/// One line saying which op failed and what came back instead.
pub fn describe_failure(sql: &str, result: &Result<NetQueryResult, rcc_common::Error>) -> String {
    match result {
        Ok(r) => format!(
            "{sql} -> {} row(s), {} wire bytes, used_remote={}",
            r.rows.len(),
            r.wire_bytes,
            r.used_remote
        ),
        Err(e) => format!("{sql} -> error: {e}"),
    }
}

fn measure_round(
    client: &mut NetClient,
    workload: &mut Workload,
    ops: usize,
    tally: &mut Tally,
) -> Round {
    let mut lat = Vec::with_capacity(ops);
    let cpu_before = procfs::cpu_time();
    let started = Instant::now();
    drive(client, workload, ops, tally, &mut lat);
    let elapsed = started.elapsed();
    let cpu = procfs::cpu_time().saturating_sub(cpu_before);
    lat.sort_unstable();
    Round {
        ops,
        qps: ops as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&lat, 0.50) as f64 / 1e3,
        p99_us: percentile(&lat, 0.99) as f64 / 1e3,
        cpu_us_per_op: cpu.as_secs_f64() * 1e6 / ops as f64,
        samples: lat.len(),
    }
}

/// Execute every distinct text once so timing starts with the plan cache,
/// the back-end pool and the allocator in their steady state.
pub fn warm_texts(client: &mut NetClient, workload: &Workload) -> Result<(), String> {
    for sql in workload.base_texts() {
        client
            .query(&sql)
            .map_err(|e| format!("warm-up {sql}: {e}"))?;
    }
    Ok(())
}

fn stat_json(values: &[f64]) -> Json {
    let [q1, q2, q3] = if values.len() >= 2 {
        quartiles(values)
    } else {
        [values[0]; 3]
    };
    Json::obj([
        ("median", Json::Num(median(values))),
        ("q1", Json::Num(q1)),
        ("q2", Json::Num(q2)),
        ("q3", Json::Num(q3)),
        (
            "per_round",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

/// Run one workload end to end, untraced.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let load_before = procfs::loadavg();
    let mut rig = Rig::boot(plan.scale)?;
    let mut setups = vec![rig.setup.as_secs_f64()];
    let mut workload = Workload::prepare(plan.spec.kind, plan.seed, &rig)?;
    if plan.corrupt_oracle {
        workload.corrupt_oracle();
    }
    warm_texts(&mut rig.client, &workload)?;

    let mut tally = Tally::default();
    drive(
        &mut rig.client,
        &mut workload,
        plan.spec.warmup_ops,
        &mut tally,
        &mut Vec::new(),
    );

    let started = Instant::now();
    let rounds: Vec<Round> = (0..plan.rounds())
        .map(|_| {
            measure_round(
                &mut rig.client,
                &mut workload,
                plan.spec.ops_per_round,
                &mut tally,
            )
        })
        .collect();
    let measured = started.elapsed();
    let measured_ops: usize = rounds.iter().map(|r| r.ops).sum();
    // after a fixed number of ops, so a faster build is not charged for
    // having served more
    let rss_peak_kib = procfs::rss_peak_kib();

    let (problems, pump) = workload.finish(&rig.cache);
    let plan_cache_entries = rig.cache.plan_cache().len();
    rig.shutdown();
    for _ in 1..plan.setups {
        let again = Rig::boot(plan.scale)?;
        setups.push(again.setup.as_secs_f64());
        again.shutdown();
    }

    let qps: Vec<f64> = rounds.iter().map(|r| r.qps).collect();
    let p50: Vec<f64> = rounds.iter().map(|r| r.p50_us).collect();
    let p99: Vec<f64> = rounds.iter().map(|r| r.p99_us).collect();
    let cpu: Vec<f64> = rounds.iter().map(|r| r.cpu_us_per_op).collect();
    let round_qps_iqr_ratio = iqr_ratio(&qps);
    let metrics = BTreeMap::from([
        ("qps", second_best(&qps, true)),
        ("lat_p50_us", second_best(&p50, false)),
        ("lat_p99_us", second_best(&p99, false)),
        ("cpu_us_per_op", second_best(&cpu, false)),
        ("rss_peak_mb", rss_peak_kib as f64 / 1024.0),
        ("setup_s", median(&setups)),
    ]);

    let report = Json::obj([
        ("workload", Json::str(plan.spec.name)),
        ("seed", Json::Num(plan.seed as f64)),
        ("data_seed", Json::Num(crate::rig::DATA_SEED as f64)),
        ("scale", Json::Num(plan.scale)),
        ("seconds", Json::Num(plan.seconds)),
        (
            "load_model",
            Json::str("closed loop, 1 client connection, fixed ops per round"),
        ),
        ("ops_per_round", Json::Num(plan.spec.ops_per_round as f64)),
        ("warmup_ops", Json::Num(plan.spec.warmup_ops as f64)),
        ("rounds", Json::Num(rounds.len() as f64)),
        ("measured_s", Json::Num(measured.as_secs_f64())),
        ("measured_ops", Json::Num(measured_ops as f64)),
        (
            "latency_samples_per_round",
            Json::Num(rounds[0].samples as f64),
        ),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
        ("qps", stat_json(&qps)),
        ("lat_p50_us", stat_json(&p50)),
        ("lat_p99_us", stat_json(&p99)),
        ("cpu_us_per_op", stat_json(&cpu)),
        ("setup_s", stat_json(&setups)),
        ("round_qps_iqr_ratio", Json::Num(round_qps_iqr_ratio)),
        ("noisy", Json::Bool(round_qps_iqr_ratio > 0.10)),
        ("plan_cache_entries", Json::Num(plan_cache_entries as f64)),
        ("pump_ticks", Json::Num(pump.ticks as f64)),
        ("pump_simulated_s", Json::Num(pump.simulated_s)),
        ("loadavg_before", Json::str(load_before)),
        ("loadavg_after", Json::str(procfs::loadavg())),
    ]);
    Ok(Outcome {
        tally,
        problems,
        metrics,
        report,
        notes: Vec::new(),
        spans: Vec::new(),
    })
}
