//! The traced run: every per-layer metric comes from here, none of the
//! end-to-end ones.
//!
//! A fixed window of the workload's stream (`Spec::trace_ops` statements)
//! is replayed three ways — over TCP under a root span per request,
//! through the staged pipeline ([`crate::staged`]), and in process through
//! `Session::execute` — so the same statements are timed at three depths
//! and the differences can be attributed. Untraced rounds come first (the
//! yardstick for what tracing costs); fixed-size probes of single calls
//! come last, so every metric is measured on every workload. Counts are
//! exact and repeat for a given seed.

use crate::json::Json;
use crate::rig::Rig;
use crate::run::{describe_failure, drive, warm_texts, Outcome, Plan, Tally};
use crate::spans::{durations, self_time_by_name, Recorder, Span};
use crate::staged::{Compiled, Sample, Staged};
use crate::stats::{iqr_ratio, median, median_ns};
use crate::workloads::{Check, Workload, PROBE_KEY};
use rcc_backend::TableChange;
use rcc_common::{Error, Row, Schema, Value};
use rcc_executor::{execute_plan_batched, wire, ExecContext, PhaseTimings, RemoteService};
use rcc_mtcache::MTCache;
use rcc_net::{read_frame, write_frame, NetQueryResult, Request, Response};
use rcc_storage::{KeyRange, RowChange, Table};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untraced rounds before the traced pass, each of `trace_ops` ops.
const UNTRACED_ROUNDS: usize = 4;
/// Plans sampled for the guarded-vs-stripped comparison (Table 4.4/4.5).
const GUARD_TABLE_PLANS: usize = 32;

/// `NetClient::query`, call for call, with a span around each.
fn traced_query(
    stream: &mut TcpStream,
    rec: &Recorder,
    sql: &str,
) -> Result<NetQueryResult, Error> {
    let unavailable = |e: std::io::Error| Error::Unavailable(format!("transport failure: {e}"));
    let (frame, _) = rec.time("client.req_encode", || {
        Request::Query {
            sql: sql.to_string(),
        }
        .encode()
    });
    let (payload, _) = rec.time("client.roundtrip", || {
        write_frame(stream, &frame)?;
        read_frame(stream)
    });
    let payload = payload
        .map_err(unavailable)?
        .ok_or_else(|| Error::Unavailable("server closed the connection".into()))?;
    match rec
        .time("client.resp_decode", || Response::decode(payload))
        .0?
    {
        Response::ResultSet {
            used_remote,
            warnings,
            payload,
        } => {
            let wire_bytes = payload.len() as u64;
            let (schema, rows) = rec
                .time("client.wire_decode", || wire::decode_result(payload))
                .0?;
            Ok(NetQueryResult {
                schema,
                rows,
                used_remote,
                warnings,
                wire_bytes,
            })
        }
        Response::Error(e) => Err(e),
        other => Err(Error::Remote(format!("unexpected response: {other:?}"))),
    }
}

/// An in-process answer in the shape the checker takes.
fn as_net_result(schema: Schema, rows: Vec<Row>, used_remote: bool) -> NetQueryResult {
    NetQueryResult {
        wire_bytes: wire::encode_result(&schema, &rows).len() as u64,
        schema,
        rows,
        used_remote,
        warnings: Vec::new(),
    }
}

fn check(
    workload: &mut Workload,
    tally: &mut Tally,
    what: Check,
    sql: &str,
    result: &Result<NetQueryResult, Error>,
) {
    tally.record(workload.verify(what, result), || {
        describe_failure(sql, result)
    });
}

// ------------------------------------------------------- guard overhead

/// Summed phase timings of one plan variant.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseSums {
    runs: u64,
    setup: Duration,
    run: Duration,
    shutdown: Duration,
}

impl PhaseSums {
    fn add(&mut self, t: PhaseTimings) {
        self.runs += 1;
        self.setup += t.setup;
        self.run += t.run;
        self.shutdown += t.shutdown;
    }

    fn total(&self) -> Duration {
        self.setup + self.run + self.shutdown
    }

    fn mean_us(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e6 / self.runs.max(1) as f64
    }
}

/// The paper's guard-overhead experiment on the workload's own plans:
/// each sampled plan is run guarded and with its guards stripped down to
/// the branch they take right now, alternating which goes first.
fn guard_overhead(
    cache: &MTCache,
    remote: &Arc<dyn RemoteService>,
    plans: &[&Compiled],
) -> Result<(PhaseSums, PhaseSums), String> {
    let ctx = || {
        ExecContext::new(
            Arc::clone(cache.cache_storage()),
            Some(Arc::clone(remote)),
            Arc::new(cache.clock().clone()),
        )
    };
    let (mut guarded, mut stripped) = (PhaseSums::default(), PhaseSums::default());
    for compiled in plans {
        let probe_ctx = ctx();
        let probe = execute_plan_batched(&compiled.plan, &probe_ctx)
            .map_err(|e| format!("guard table: {e}"))?;
        let local = probe_ctx.counters.remote_branches.load(Ordering::Relaxed) == 0;
        let plain = compiled.plan.strip_guards(local);
        let once = probe.timings.total().as_nanos().max(1);
        let iters = (2_000_000 / once).clamp(4, 400) as usize;
        let c = ctx();
        for i in 0..iters {
            let run = |plan| execute_plan_batched(plan, &c).map(|r| r.timings);
            let (g, p) = if i % 2 == 0 {
                let g = run(&compiled.plan);
                (g, run(&plain))
            } else {
                let p = run(&plain);
                (run(&compiled.plan), p)
            };
            guarded.add(g.map_err(|e| format!("guard table: {e}"))?);
            stripped.add(p.map_err(|e| format!("guard table: {e}"))?);
        }
    }
    Ok((guarded, stripped))
}

// --------------------------------------------------------------- probes

/// Fixed-size measurements of single calls, made after the replays so
/// they cannot disturb them. Values in nanoseconds unless named `_us`.
#[derive(Debug, Default)]
struct Probes {
    ping_rtt_us: f64,
    snapshot_ns: f64,
    point_get_ns: f64,
    scan_ns_per_row: f64,
    publish_ns: f64,
    backend_query_wire_ns: f64,
    remote_call_us: f64,
    update_rtt_us: f64,
    txn_commit_ns: f64,
    cycle_us: f64,
    ns_per_applied_row: f64,
}

fn probes(rig: &mut Rig, rec: &Recorder) -> Result<Probes, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("probe {what}: {e}");
    let cache = Arc::clone(&rig.cache);
    let mut p = Probes::default();

    let mut pings = Vec::new();
    for _ in 0..1_000 {
        let (r, ns) = rec.time("probe.ping", || rig.client.ping());
        r.map_err(|e| err("ping", &e))?;
        pings.push(ns);
    }
    p.ping_rtt_us = median_ns(&pings) / 1e3;

    // storage: the view the point reads hit
    let view = cache
        .cache_storage()
        .table("cust_prj")
        .map_err(|e| err("cust_prj", &e))?;
    const BATCH: usize = 64;
    let (mut snaps, mut gets) = (Vec::new(), Vec::new());
    let key = [Value::Int(PROBE_KEY + 1)];
    for _ in 0..200 {
        let (_, ns) = rec.time("probe.storage_snapshot_x64", || {
            for _ in 0..BATCH {
                std::hint::black_box(view.snapshot());
            }
        });
        snaps.push(ns as f64 / BATCH as f64);
        let snap = view.snapshot();
        let (_, ns) = rec.time("probe.storage_get_x64", || {
            for _ in 0..BATCH {
                std::hint::black_box(snap.get(std::hint::black_box(&key)));
            }
        });
        gets.push(ns as f64 / BATCH as f64);
    }
    p.snapshot_ns = median(&snaps);
    p.point_get_ns = median(&gets);
    let snap = view.snapshot();
    let mut scans = Vec::new();
    for _ in 0..20 {
        let mut seen = 0u64;
        let (_, ns) = rec.time("probe.storage_scan", || {
            snap.scan_range(
                &KeyRange::all(),
                |_| true,
                |row| {
                    seen += std::hint::black_box(row).len() as u64;
                },
            )
        });
        scans.push(ns as f64 / snap.row_count().max(1) as f64);
    }
    p.scan_ns_per_row = median(&scans);

    // a copy-on-write publish of a 100-row batch into a table the size of
    // the view, on a scratch copy so no answer changes
    let mut scratch = Table::new(
        "perf_scratch",
        snap.schema().clone(),
        snap.key_ordinals().to_vec(),
    );
    for row in snap.iter() {
        scratch
            .insert(row.clone())
            .map_err(|e| err("scratch", &e))?;
    }
    let batch: Vec<Row> = snap.iter().take(100).cloned().collect();
    let cell = cache
        .cache_storage()
        .create_table(scratch)
        .map_err(|e| err("scratch", &e))?;
    let mut publishes = Vec::new();
    for _ in 0..20 {
        let (r, ns) = rec.time("probe.storage_publish", || {
            cell.update(|t| batch.iter().try_for_each(|row| t.upsert(row.clone())))
        });
        r.map_err(|e| err("publish", &e))?;
        publishes.push(ns);
    }
    p.publish_ns = median_ns(&publishes);
    drop(cell);
    cache.cache_storage().drop_table("perf_scratch");

    // the remote hop, from the inside out: back-end alone, then through
    // the pooled TCP transport
    let point = format!(
        "SELECT c_acctbal FROM customer WHERE c_custkey = {}",
        PROBE_KEY + 1
    );
    let (mut wires, mut calls) = (Vec::new(), Vec::new());
    for _ in 0..300 {
        let (r, ns) = rec.time("probe.backend_query_wire", || {
            cache.backend().query_wire(&point)
        });
        r.map_err(|e| err("query_wire", &e))?;
        wires.push(ns);
        let (r, ns) = rec.time("probe.remote_call", || {
            rig.remote.execute_with_bytes(&point)
        });
        r.map_err(|e| err("remote call", &e))?;
        calls.push(ns);
    }
    p.backend_query_wire_ns = median_ns(&wires);
    p.remote_call_us = median_ns(&calls) / 1e3;

    // writes, on a customer no stream reads
    let mut updates = Vec::new();
    for i in 0..20 {
        let sql = format!(
            "UPDATE customer SET c_acctbal = {}.5 WHERE c_custkey = {PROBE_KEY}",
            200_000 + i
        );
        let (r, ns) = rec.time("probe.update_rtt", || rig.client.query(&sql));
        r.map_err(|e| err("update", &e))?;
        updates.push(ns);
    }
    p.update_rtt_us = median_ns(&updates) / 1e3;

    // commit a batch at the master, then step the clock until CR1's next
    // propagation cycle publishes it into the view
    cache.set_region_stalled("CR1", false);
    let master = cache.master();
    let base = master
        .table("customer")
        .map_err(|e| err("customer", &e))?
        .snapshot()
        .get(&[Value::Int(PROBE_KEY)])
        .cloned()
        .ok_or("probe customer is missing")?;
    const ROWS_PER_CYCLE: usize = 8;
    let (mut commits, mut cycles) = (Vec::new(), Vec::new());
    for cycle in 0..5 {
        for j in 0..ROWS_PER_CYCLE {
            let mut values = base.values().to_vec();
            values[3] = Value::Float(300_000.0 + (cycle * ROWS_PER_CYCLE + j) as f64);
            let change = TableChange::new(
                "customer",
                RowChange::Update {
                    key: vec![Value::Int(PROBE_KEY)],
                    row: Row::new(values),
                },
            );
            let (r, ns) = rec.time("probe.txn_commit", || master.execute_txn(vec![change]));
            r.map_err(|e| err("commit", &e))?;
            commits.push(ns);
        }
        let published = view.publish_count();
        for _ in 0..120 {
            let (r, ns) = rec.time("probe.advance_1s", || {
                cache.advance(rcc_common::Duration::from_secs(1))
            });
            r.map_err(|e| err("advance", &e))?;
            if view.publish_count() > published {
                cycles.push(ns);
                break;
            }
        }
    }
    if cycles.is_empty() {
        return Err("probe: no propagation cycle published within 120 simulated seconds".into());
    }
    p.txn_commit_ns = median_ns(&commits);
    p.cycle_us = median_ns(&cycles) / 1e3;
    p.ns_per_applied_row = median_ns(&cycles) / ROWS_PER_CYCLE as f64;
    Ok(p)
}

// ------------------------------------------------------------------ run

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn med(spans: &[Span], name: &str) -> f64 {
    let d = durations(spans, name);
    if d.is_empty() {
        0.0
    } else {
        median_ns(&d)
    }
}

/// Largest p99 of delivered staleness over the regions (simulated seconds).
fn delivered_staleness_p99(cache: &MTCache) -> f64 {
    let snap = cache.metrics().snapshot();
    snap.values
        .keys()
        .filter(|k| k.starts_with("rcc_delivered_staleness_seconds{"))
        .filter_map(|k| snap.histogram(k)?.quantile(0.99))
        .fold(0.0, f64::max)
}

/// Run one workload's traced replay and probes.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let mut rig = Rig::boot(plan.scale)?;
    let cache = Arc::clone(&rig.cache);
    let mut workload = Workload::prepare(plan.spec.kind, plan.seed, &rig)?;
    warm_texts(&mut rig.client, &workload)?;
    let n = plan.spec.trace_ops;
    let mut tally = Tally::default();
    // a propagation cycle that applies anything publishes its region's
    // local heartbeat table exactly once, last
    let cycles = || -> u64 {
        let regions = cache.catalog().regions();
        let tables = regions.iter().map(|r| r.heartbeat_table_name());
        tables
            .filter_map(|t| cache.cache_storage().table(&t).ok())
            .map(|t| t.publish_count())
            .sum()
    };
    let cycles_before = cycles();
    let applied = || {
        let snap = cache.metrics().snapshot();
        snap.counter("rcc_replication_txns_applied_total{region=\"CR1\"}")
            + snap.counter("rcc_replication_txns_applied_total{region=\"CR2\"}")
    };
    let applied_before = applied();

    // 1. untraced rounds: what an op costs with no recorder in the loop
    let (mut untraced_ns_per_op, mut untraced_qps) = (Vec::new(), Vec::new());
    for _ in 0..UNTRACED_ROUNDS {
        let started = Instant::now();
        drive(
            &mut rig.client,
            &mut workload,
            n,
            &mut tally,
            &mut Vec::new(),
        );
        let elapsed = started.elapsed().as_secs_f64();
        untraced_ns_per_op.push(elapsed * 1e9 / n as f64);
        untraced_qps.push(n as f64 / elapsed);
    }

    // the replay window: the next `n` statements of the stream
    let mut sql = String::new();
    let window: Vec<(String, Check)> = (0..n)
        .map(|_| {
            let c = workload.next(&mut sql);
            (sql.clone(), c)
        })
        .collect();
    let reads = window.iter().filter(|(_, c)| c.is_read()).count().max(1);

    // 2. the window over TCP, one root span per request
    let rec = Arc::new(Recorder::new());
    let mut stream = TcpStream::connect(rig.addr()).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let (hits_before, misses_before) = cache.plan_cache().stats();
    let mut tcp_ns = vec![0u64; n];
    let mut update_ns = Vec::new();
    let mut wire_bytes = 0u64;
    let traced_started = Instant::now();
    for (i, (sql, what)) in window.iter().enumerate() {
        rec.next_request();
        let (result, ns) = rec.time("client.request", || traced_query(&mut stream, &rec, sql));
        tcp_ns[i] = ns;
        if what.is_read() {
            wire_bytes += result.as_ref().map_or(0, |r| r.wire_bytes);
        } else {
            update_ns.push(ns);
        }
        check(&mut workload, &mut tally, *what, sql, &result);
    }
    let traced_ns_per_op = traced_started.elapsed().as_secs_f64() * 1e9 / n as f64;
    drop(stream);
    let (hits_after, misses_after) = cache.plan_cache().stats();
    let plan_cache_entries = cache.plan_cache().len();
    let (hits, misses) = (hits_after - hits_before, misses_after - misses_before);

    // 3. the window's reads through the staged pipeline, its plan cache
    //    warmed with the same distinct texts the server's was
    let remote: Arc<dyn RemoteService> = Arc::clone(&rig.remote) as Arc<dyn RemoteService>;
    let mut staged = Staged::new(&cache, Arc::clone(&rec), Arc::clone(&remote));
    for text in workload.base_texts() {
        staged
            .serve(&text)
            .map_err(|e| format!("staged {text}: {e}"))?;
    }
    let mut samples: Vec<Option<Sample>> = vec![None; n];
    for (i, (sql, what)) in window.iter().enumerate() {
        if !what.is_read() {
            continue;
        }
        let result = staged.serve(sql).map(|s| {
            samples[i] = Some(s.sample);
            as_net_result(s.schema, s.rows, s.used_remote)
        });
        check(&mut workload, &mut tally, *what, sql, &result);
    }

    // 4. the same reads in process, as the front-end calls them; the plan
    //    cache is invalidated first so a cold window is cold again, and
    //    every distinct text then runs twice: one miss, one hit
    cache.plan_cache().invalidate();
    let mut session = cache.session();
    let (mut warm_ns, mut cold_ns) = (Vec::new(), Vec::new());
    let mut inproc_ns = vec![0u64; n];
    let mut in_process = |sql: &str| {
        let (result, ns) = rec.time("mtcache.execute", || session.execute(sql));
        if let Ok(r) = &result {
            if r.stats.plan_cache_hit {
                warm_ns.push(ns);
            } else {
                cold_ns.push(ns);
            }
        }
        (result, ns)
    };
    for text in workload.base_texts() {
        for _ in 0..2 {
            in_process(&text).0.map_err(|e| format!("{text}: {e}"))?;
        }
    }
    for (i, (sql, what)) in window.iter().enumerate() {
        if !what.is_read() {
            continue;
        }
        let (result, ns) = in_process(sql);
        inproc_ns[i] = ns;
        let result = result.map(|r| as_net_result(r.schema, r.rows, r.used_remote));
        check(&mut workload, &mut tally, *what, sql, &result);
    }

    // end of the workload proper: counts, then what only shows afterwards
    let slo_violations = workload.slo_violations(&cache);
    let staleness_p99 = delivered_staleness_p99(&cache);
    let recent = cache.tracer().recent(64);
    let spans_per_query = ratio(
        recent.iter().map(|t| t.spans.len()).sum::<usize>() as f64,
        recent.len() as f64,
    );
    let (problems, pump) = workload.finish(&cache);
    let replication_cycles = cycles() - cycles_before;
    let rows_applied = applied() - applied_before;

    // 5. Table 4.4 / 4.5 on this workload's own plans
    let mut sampled: Vec<(&String, &Arc<Compiled>)> = staged.plans().collect();
    sampled.sort_by_key(|(text, _)| *text);
    let sampled: Vec<&Compiled> = sampled
        .iter()
        .take(GUARD_TABLE_PLANS)
        .map(|(_, c)| c.as_ref())
        .collect();
    let (guarded, stripped) = guard_overhead(&cache, &remote, &sampled)?;
    let compiled: Vec<&Arc<Compiled>> = staged.plans().map(|(_, c)| c).collect();
    let plans_compiled = compiled.len() as f64;
    let plan_nodes: usize = compiled.iter().map(|c| c.nodes).sum();
    let guards: usize = compiled.iter().map(|c| c.guards).sum();
    let elidable: usize = compiled.iter().map(|c| c.elidable).sum();

    // 6. probes
    let probe = probes(&mut rig, &rec)?;
    let snap = cache.metrics().snapshot();
    let retries = snap.counter("rcc_net_remote_retries_total");
    let failed_calls = retries + snap.counter("rcc_net_remote_unavailable_total");
    let remote_calls = snap
        .histogram("rcc_net_remote_call_seconds")
        .map_or(0, |h| h.count);
    let (idle, in_use) = rig.remote.pool().occupancy();
    let dials = (idle + in_use) as u64 + failed_calls;
    let dropped_spans = cache.tracer().dropped_spans();
    rig.shutdown();

    // ----------------------------------------------------------- metrics
    let spans = rec.spans();
    let staged_samples: Vec<&Sample> = samples.iter().flatten().collect();
    let sum = |f: &dyn Fn(&Sample) -> u64| staged_samples.iter().map(|s| f(s)).sum::<u64>() as f64;
    let med_of = |f: &dyn Fn(&Sample) -> u64| {
        median_ns(&staged_samples.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let rows_out = sum(&|s| s.rows);
    let wire_kib = sum(&|s| s.wire_bytes) / 1024.0;
    let parse_ns = med(&spans, "sql.parse");
    let exec_ns = med_of(&|s| s.exec_ns);
    let warm = median_ns(&warm_ns);
    let cold = median_ns(&cold_ns);
    // per statement: what the TCP round trip cost beyond executing in
    // process and the codec work on both ends
    let residuals: Vec<f64> = (0..n)
        .filter_map(|i| {
            let s = samples[i].as_ref()?;
            Some(tcp_ns[i] as f64 - inproc_ns[i] as f64 - s.codec_ns as f64)
        })
        .collect();
    let transport_residual_us = median(&residuals) / 1e3;
    let read_tcp_ns: Vec<u64> = (0..n)
        .filter(|i| samples[*i].is_some())
        .map(|i| tcp_ns[i])
        .collect();
    let tcp_p50_us = median_ns(&read_tcp_ns) / 1e3;
    let compile_ns = med(&spans, "lint.select")
        + med(&spans, "optimizer.bind")
        + med(&spans, "optimizer.optimize")
        + med(&spans, "flow.analyze")
        + med(&spans, "flow.elide");
    let exec_encode_share = median(
        &(0..n)
            .filter_map(|i| {
                let s = samples[i].as_ref()?;
                let busy = s.exec_ns + s.wire_encode_ns + s.resp_encode_ns;
                Some(busy as f64 / tcp_ns[i] as f64)
            })
            .collect::<Vec<_>>(),
    );
    // as the workload made them where it made any, else as the probe did
    let remote_call_us = match med(&spans, "net.remote_call") {
        in_situ if in_situ > 0.0 => in_situ / 1e3,
        _ => probe.remote_call_us,
    };
    let update_rtt_us = if update_ns.is_empty() {
        probe.update_rtt_us
    } else {
        median_ns(&update_ns) / 1e3
    };

    let metrics = BTreeMap::from([
        ("net.ping_rtt_us", probe.ping_rtt_us),
        ("net.req_encode_ns", med(&spans, "net.req_encode")),
        ("net.req_decode_ns", med(&spans, "net.req_decode")),
        (
            "net.resp_encode_ns_per_kib",
            ratio(sum(&|s| s.resp_encode_ns), wire_kib),
        ),
        (
            "net.resp_decode_ns_per_kib",
            ratio(sum(&|s| s.resp_decode_ns), wire_kib),
        ),
        ("net.wire_bytes_per_op", wire_bytes as f64 / reads as f64),
        ("net.remote_call_us", remote_call_us),
        (
            "net.pool_reuse_ratio",
            1.0 - ratio(dials as f64, remote_calls as f64),
        ),
        ("net.remote_retries", retries as f64),
        ("net.transport_residual_us", transport_residual_us),
        ("sql.parse_ns", parse_ns),
        ("lint.select_ns", med(&spans, "lint.select")),
        ("optimizer.bind_ns", med(&spans, "optimizer.bind")),
        ("optimizer.optimize_ns", med(&spans, "optimizer.optimize")),
        (
            "optimizer.plan_nodes_per_plan",
            ratio(plan_nodes as f64, plans_compiled),
        ),
        ("flow.analyze_ns", med(&spans, "flow.analyze")),
        ("flow.elide_ns", med(&spans, "flow.elide")),
        (
            "flow.elidable_guard_ratio",
            ratio(elidable as f64, guards as f64),
        ),
        ("verify.plan_ns", med(&spans, "verify.plan")),
        ("mtcache.execute_warm_ns", warm),
        (
            "mtcache.dispatch_residual_ns",
            warm - 2.0 * parse_ns - exec_ns,
        ),
        ("mtcache.execute_cold_ns", cold),
        (
            "mtcache.plan_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("mtcache.plan_cache_entries", plan_cache_entries as f64),
        ("mtcache.backend_query_wire_ns", probe.backend_query_wire_ns),
        ("mtcache.update_rtt_us", update_rtt_us),
        ("backend.txn_commit_ns", probe.txn_commit_ns),
        ("mtcache.delivered_staleness_p99_s", staleness_p99),
        ("mtcache.slo_violations", slo_violations as f64),
        (
            "executor.setup_ns",
            med_of(&|s| s.timings.setup.as_nanos() as u64),
        ),
        (
            "executor.run_ns",
            med_of(&|s| s.timings.run.as_nanos() as u64),
        ),
        (
            "executor.shutdown_ns",
            med_of(&|s| s.timings.shutdown.as_nanos() as u64),
        ),
        (
            "executor.ns_per_row_out",
            ratio(sum(&|s| s.timings.run.as_nanos() as u64), rows_out),
        ),
        ("executor.rows_out_per_op", rows_out / reads as f64),
        (
            "executor.batches_per_op",
            sum(&|s| s.batches) / reads as f64,
        ),
        (
            "executor.guard_eval_ns",
            ratio(sum(&|s| s.guard_ns), sum(&|s| s.guard_evals)),
        ),
        (
            "executor.guards_evaluated_per_op",
            sum(&|s| s.guard_evals) / reads as f64,
        ),
        (
            "executor.guard_overhead_ratio",
            ratio(
                guarded.total().as_secs_f64(),
                stripped.total().as_secs_f64(),
            ),
        ),
        (
            "executor.remote_branch_ratio",
            sum(&|s| s.took_remote_branch as u64) / reads as f64,
        ),
        (
            "executor.wire_encode_ns_per_row",
            ratio(sum(&|s| s.wire_encode_ns), rows_out),
        ),
        (
            "executor.wire_decode_ns_per_row",
            ratio(sum(&|s| s.wire_decode_ns), rows_out),
        ),
        ("storage.snapshot_ns", probe.snapshot_ns),
        ("storage.point_get_ns", probe.point_get_ns),
        ("storage.scan_ns_per_row", probe.scan_ns_per_row),
        ("storage.publish_ns", probe.publish_ns),
        ("replication.cycle_us", probe.cycle_us),
        ("replication.ns_per_applied_row", probe.ns_per_applied_row),
        ("replication.cycles", replication_cycles as f64),
        ("replication.rows_applied", rows_applied as f64),
        ("obs.spans_per_query", spans_per_query),
        ("obs.dropped_spans", dropped_spans as f64),
        (
            "bench.trace_overhead_ratio",
            ratio(traced_ns_per_op, median(&untraced_ns_per_op)),
        ),
        ("bench.round_qps_iqr_ratio", iqr_ratio(&untraced_qps)),
    ]);

    // the shares each workload was chosen for ("How they interact")
    let shares = [
        (
            "transport_residual / tcp_p50",
            ratio(transport_residual_us, tcp_p50_us),
        ),
        (
            "lint+bind+optimize+flow / execute_cold",
            ratio(compile_ns, cold),
        ),
        (
            "executor (all phases) + encode / tcp, per op",
            exec_encode_share,
        ),
        ("remote_call / tcp_p50", ratio(remote_call_us, tcp_p50_us)),
    ];

    // --------------------------------------------------- the printed view
    let name = plan.spec.name;
    let mut notes = Vec::new();
    let root_total: u64 = durations(&spans, "staged.request").iter().sum();
    let client_total: u64 = durations(&spans, "client.request").iter().sum();
    notes.push(format!(
        "{name}: self time by span: {n} requests over TCP (client.*), {} through the staged pipeline",
        durations(&spans, "staged.request").len()
    ));
    for (span, (count, self_ns)) in self_time_by_name(&spans) {
        let of = match span {
            s if s.starts_with("client.") => client_total,
            s if s.starts_with("probe.") || s == "mtcache.execute" => continue,
            _ => root_total,
        };
        notes.push(format!(
            "  {span:<24} n={count:<6} self={:>12} ns  {:>5.1} %",
            self_ns,
            100.0 * ratio(self_ns as f64, of as f64)
        ));
    }
    for (what, share) in &shares {
        notes.push(format!("{name}: share {what} = {share:.3}"));
    }
    notes.push(format!(
        "{name}: Table 4.4 row  guarded {:.2} us  stripped {:.2} us  overhead {:+.2} us ({:+.1} %)  ideal {:.3} us/guard  [{} plans, {} runs]",
        guarded.mean_us(guarded.total()),
        stripped.mean_us(stripped.total()),
        guarded.mean_us(guarded.total()) - stripped.mean_us(stripped.total()),
        100.0 * (ratio(guarded.total().as_secs_f64(), stripped.total().as_secs_f64()) - 1.0),
        metrics["executor.guard_eval_ns"] / 1e3,
        sampled.len(),
        guarded.runs,
    ));
    notes.push(format!(
        "{name}: Table 4.5 row  setup {:+.3} us  run {:+.3} us  shutdown {:+.3} us  (guarded - stripped, per execution)",
        guarded.mean_us(guarded.setup) - stripped.mean_us(stripped.setup),
        guarded.mean_us(guarded.run) - stripped.mean_us(stripped.run),
        guarded.mean_us(guarded.shutdown) - stripped.mean_us(stripped.shutdown),
    ));

    let report = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(plan.seed as f64)),
        ("data_seed", Json::Num(crate::rig::DATA_SEED as f64)),
        ("scale", Json::Num(plan.scale)),
        ("window_ops", Json::Num(n as f64)),
        ("window_reads", Json::Num(reads as f64)),
        ("untraced_rounds", Json::Num(UNTRACED_ROUNDS as f64)),
        ("tcp_p50_us", Json::Num(tcp_p50_us)),
        ("plan_cache_hits", Json::Num(hits as f64)),
        ("plan_cache_misses", Json::Num(misses as f64)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
        ("pump_ticks", Json::Num(pump.ticks as f64)),
        (
            "shares",
            Json::obj(shares.iter().map(|(k, v)| (*k, Json::Num(*v)))),
        ),
        (
            "noisy",
            Json::Bool(metrics["bench.round_qps_iqr_ratio"] > 0.10),
        ),
        ("spans", Json::Num(spans.len() as f64)),
    ]);
    Ok(Outcome {
        tally,
        problems,
        metrics,
        report,
        notes,
        spans,
    })
}
