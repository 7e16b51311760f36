//! `net_load` — a concurrent load generator for the TCP front-end.
//!
//! Boots the full network rig in one process (cache + TCP front-end,
//! back-end behind its own listener, remote branch over the pooled TCP
//! transport), then drives it with a mixed point-query workload over real
//! loopback sockets. Two driving disciplines:
//!
//! * **closed** (default): N clients issue queries back-to-back — each
//!   client waits for its response before sending the next query.
//!   Measures service latency under a fixed concurrency level. Writes
//!   `BENCH_net.json`.
//! * **open**: queries arrive on a fixed schedule (`--rate` arrivals/sec
//!   for `--duration-secs`), regardless of how fast responses come back.
//!   Latency is measured from the *scheduled arrival*, so queueing delay
//!   when the server falls behind is charged to the request — the honest
//!   way to measure a latency SLO (no coordinated omission). Writes
//!   `BENCH_load.json` with p50/p99/p999 latency and the
//!   delivered-staleness percentiles the cache recorded while serving.
//!
//! ```sh
//! cargo run -p rcc-bench --bin net_load --release -- \
//!     [--mode open|closed] [--clients N] [--queries N] [--rate R] \
//!     [--duration-secs D] [--scale F] [--out PATH]
//! ```

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_net::{
    BackendNetServer, ClientConfig, NetClient, NetServer, NetServerConfig, PoolConfig, RetryPolicy,
    TcpRemoteService,
};
use rcc_obs::HistogramSnapshot;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Closed,
    Open,
}

struct Options {
    mode: Mode,
    clients: usize,
    queries: usize,
    rate: f64,
    duration_secs: f64,
    scale: f64,
    out: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            mode: Mode::Closed,
            clients: 8,
            queries: 200,
            rate: 200.0,
            duration_secs: 5.0,
            scale: 0.01,
            out: None,
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--mode" => {
                opts.mode = match value().as_str() {
                    "closed" => Mode::Closed,
                    "open" => Mode::Open,
                    other => panic!("--mode expects open or closed, got {other}"),
                }
            }
            "--clients" => opts.clients = value().parse().expect("--clients"),
            "--queries" => opts.queries = value().parse().expect("--queries"),
            "--rate" => opts.rate = value().parse().expect("--rate"),
            "--duration-secs" => opts.duration_secs = value().parse().expect("--duration-secs"),
            "--scale" => opts.scale = value().parse().expect("--scale"),
            "--out" => opts.out = Some(value()),
            other => panic!("unknown flag {other}"),
        }
    }
    opts
}

fn quantile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

/// Sum per-region histograms (identical bucket bounds) into one, so
/// fleet-wide quantiles can be estimated across regions.
fn merge_histograms(parts: Vec<&HistogramSnapshot>) -> Option<HistogramSnapshot> {
    let first = parts.first()?;
    let mut merged = HistogramSnapshot {
        bounds: first.bounds.clone(),
        counts: vec![0; first.counts.len()],
        sum: 0.0,
        count: 0,
    };
    for h in parts {
        if h.bounds != merged.bounds {
            return None;
        }
        for (m, c) in merged.counts.iter_mut().zip(&h.counts) {
            *m += c;
        }
        merged.sum += h.sum;
        merged.count += h.count;
    }
    Some(merged)
}

fn main() {
    let opts = parse_args();
    let cache = paper_setup(opts.scale, 42).expect("rig");
    warm_up(&cache).expect("warm up");
    let cache = Arc::new(cache);
    let max_custkey = ((150_000.0 * opts.scale) as i64).max(2);

    let backend_srv =
        BackendNetServer::spawn(Arc::clone(cache.backend()), "127.0.0.1:0").expect("backend");
    let remote = TcpRemoteService::new(
        backend_srv.addr(),
        PoolConfig::default(),
        RetryPolicy::default(),
    )
    .expect("remote service");
    remote.set_metrics(Arc::clone(cache.metrics()));
    cache.set_remote_service(Some(Arc::new(remote)));
    let front = NetServer::spawn(
        Arc::clone(&cache),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("front-end");
    let addr = front.addr();

    // stall CR1 so part of the workload must ship over the back-end TCP
    // link (the interesting path); CR2 queries stay local
    cache.set_region_stalled("CR1", true);
    cache
        .advance(rcc_common::Duration::from_secs(90))
        .expect("advance");

    // Statically verify the plans the workload is about to hammer: every
    // optimized plan must prove its currency clause (expected failures: 0).
    let verification_failures: u64 = [
        "SELECT c_acctbal FROM customer WHERE c_custkey = 1 \
         CURRENCY BOUND 15 SEC ON (customer)",
        "SELECT o_totalprice FROM orders WHERE o_custkey = 1 \
         CURRENCY BOUND 15 SEC ON (orders)",
    ]
    .iter()
    .map(|sql| {
        let report = cache
            .verify(sql, &std::collections::HashMap::new())
            .expect("verify");
        if report.ok() {
            0
        } else {
            eprintln!(
                "net_load: PLAN CONFORMANCE FAILURE for {sql}\n{}",
                report.render()
            );
            1
        }
    })
    .sum();

    // Lint the workload's clause shapes through the LINT statement, plus
    // one deliberately subsumed clause as a canary that the lint pass is
    // alive end-to-end: the workload shapes must be clean and the canary
    // must contribute exactly one L001 diagnostic.
    let lint_diagnostics: u64 = [
        (
            "SELECT c_acctbal FROM customer WHERE c_custkey = 1 \
             CURRENCY BOUND 15 SEC ON (customer)",
            0u64,
        ),
        (
            "SELECT o_totalprice FROM orders WHERE o_custkey = 1 \
             CURRENCY BOUND 15 SEC ON (orders)",
            0,
        ),
        (
            "SELECT c_acctbal FROM customer WHERE c_custkey = 1 \
             CURRENCY BOUND 15 SEC ON (customer), 20 SEC ON (customer)",
            1,
        ),
    ]
    .iter()
    .map(|(sql, expected)| {
        let r = cache.execute(&format!("LINT {sql}")).expect("lint");
        let n = r.rows.len() as u64;
        if n != *expected {
            eprintln!("net_load: LINT expected {expected} diagnostic(s), got {n} for {sql}");
        }
        n
    })
    .sum();
    assert_eq!(
        verification_failures, 0,
        "workload plans must conform to their currency clauses"
    );
    assert_eq!(
        lint_diagnostics, 1,
        "workload clauses lint clean and the canary yields exactly one diagnostic"
    );

    // Declare the TPC-C-flavored template corpus through the compile-time
    // robustness hook as a canary that the analyzer is alive end-to-end:
    // every template's verdict must match the corpus expectation, so the
    // robust subset in particular must come back ROBUST (violations: 0).
    let robustness_violations: u64 = {
        let corpus = rcc_tpcd::robust_template_corpus();
        for case in &corpus {
            cache.execute(case.sql).expect("declare template");
        }
        corpus
            .iter()
            .map(|case| {
                let robust = cache.template_verdict(case.name) == Some(rcc_robust::Verdict::Robust);
                if robust == case.robust {
                    0
                } else {
                    eprintln!(
                        "net_load: ROBUSTNESS VERDICT MISMATCH for template {} \
                         (expected robust={}, got robust={robust})",
                        case.name, case.robust
                    );
                    1
                }
            })
            .sum()
    };
    assert_eq!(
        robustness_violations, 0,
        "template corpus verdicts must match their expectations"
    );

    match opts.mode {
        Mode::Closed => run_closed(
            &opts,
            &cache,
            addr,
            max_custkey,
            lint_diagnostics,
            robustness_violations,
        ),
        Mode::Open => run_open(&opts, &cache, addr, max_custkey),
    }
}

fn workload_sql(rng: &mut StdRng, max_custkey: i64) -> String {
    let key = rng.gen_range(1..=max_custkey);
    // 50/50: a currency-bound customer probe (CR1 is stale → goes remote
    // over TCP) vs. an orders probe answered from the healthy CR2 view.
    // 15 s sits inside both regions' contingent windows, so the guards are
    // statically live and really decide at run time.
    if rng.gen_bool(0.5) {
        format!(
            "SELECT c_acctbal FROM customer WHERE c_custkey = {key} \
             CURRENCY BOUND 15 SEC ON (customer)"
        )
    } else {
        format!(
            "SELECT o_totalprice FROM orders WHERE o_custkey = {key} \
             CURRENCY BOUND 15 SEC ON (orders)"
        )
    }
}

/// The epilogue's variant of [`workload_sql`]: 30 s beats both regions'
/// healthy-replication envelopes (CR1 = 22 s, CR2 = 17 s), so the dataflow
/// analysis proves every guard always-pass and elides it.
fn elision_workload_sql(rng: &mut StdRng, max_custkey: i64) -> String {
    let key = rng.gen_range(1..=max_custkey);
    if rng.gen_bool(0.5) {
        format!(
            "SELECT c_acctbal FROM customer WHERE c_custkey = {key} \
             CURRENCY BOUND 30 SEC ON (customer)"
        )
    } else {
        format!(
            "SELECT o_totalprice FROM orders WHERE o_custkey = {key} \
             CURRENCY BOUND 30 SEC ON (orders)"
        )
    }
}

fn run_closed(
    opts: &Options,
    cache: &Arc<rcc_mtcache::MTCache>,
    addr: std::net::SocketAddr,
    max_custkey: i64,
    lint_diagnostics: u64,
    robustness_violations: u64,
) {
    eprintln!(
        "net_load: closed loop, {} clients × {} queries, scale {}",
        opts.clients, opts.queries, opts.scale
    );
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let workers: Vec<_> = (0..opts.clients)
        .map(|c| {
            let latencies = Arc::clone(&latencies);
            let queries = opts.queries;
            std::thread::spawn(move || {
                let mut client =
                    NetClient::connect(addr, &ClientConfig::default()).expect("connect");
                let mut rng = StdRng::seed_from_u64(0xbeef ^ c as u64);
                let mut local = Vec::with_capacity(queries);
                let mut remote_hits = 0u64;
                let mut rows = 0u64;
                let mut bytes = 0u64;
                for _ in 0..queries {
                    let sql = workload_sql(&mut rng, max_custkey);
                    let t = Instant::now();
                    let r = client.query(&sql).expect("query");
                    local.push(t.elapsed().as_micros() as u64);
                    remote_hits += r.used_remote as u64;
                    rows += r.rows.len() as u64;
                    bytes += r.wire_bytes;
                }
                latencies.lock().extend_from_slice(&local);
                (remote_hits, rows, bytes)
            })
        })
        .collect();
    let mut remote_hits = 0u64;
    let mut total_rows = 0u64;
    let mut total_bytes = 0u64;
    for w in workers {
        let (r, rows, bytes) = w.join().expect("worker");
        remote_hits += r;
        total_rows += rows;
        total_bytes += bytes;
    }
    let elapsed = started.elapsed();

    let mut lat = latencies.lock().clone();
    lat.sort_unstable();
    let total_queries = (opts.clients * opts.queries) as u64;
    let qps = total_queries as f64 / elapsed.as_secs_f64();
    let snap = cache.metrics().snapshot();
    let retries = snap.counter("rcc_net_remote_retries_total");
    let unavailable = snap.counter("rcc_net_remote_unavailable_total");
    let served = snap.counter("rcc_net_requests_total{type=\"query\"}");

    let (p50, p95, p99) = (
        quantile(&lat, 0.50),
        quantile(&lat, 0.95),
        quantile(&lat, 0.99),
    );
    println!("\nnet_load results");
    println!("  queries           {total_queries} ({qps:.0}/s over {elapsed:.2?})");
    println!("  remote over TCP   {remote_hits}");
    println!("  rows / wire bytes {total_rows} / {total_bytes}");
    println!("  latency p50/p95/p99  {p50} / {p95} / {p99} µs");
    println!("  transport retries/unavailable  {retries} / {unavailable}");

    assert_eq!(served, total_queries, "front-end counted every query");

    // Certified-guard-elision epilogue: elision's soundness premise is
    // healthy replication, so restore CR1 first, then replay the workload
    // with elision on. The dataflow analysis proves both workload bounds
    // (30 s) beat their regions' envelopes, so guards must actually be
    // elided — and the runtime premise cross-check must stay silent.
    let (guards_elided, interval_violations) =
        elision_epilogue(cache, addr, opts.queries, max_custkey);
    println!("  guards elided / interval violations  {guards_elided} / {interval_violations}");
    assert!(
        guards_elided > 0,
        "the 30 s workload bounds beat both envelopes; elision must fire"
    );
    assert_eq!(
        interval_violations, 0,
        "healthy replication: no elided certificate may be overrun"
    );

    let out = opts.out.as_deref().unwrap_or("BENCH_net.json");
    let json = format!(
        "{{\n  \"bench\": \"net_load\",\n  \"clients\": {},\n  \"queries_per_client\": {},\n  \
         \"scale\": {},\n  \"elapsed_secs\": {:.6},\n  \"throughput_qps\": {:.1},\n  \
         \"remote_queries\": {},\n  \"total_rows\": {},\n  \"wire_bytes\": {},\n  \
         \"latency_us\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {} }},\n  \
         \"transport\": {{ \"retries\": {}, \"unavailable\": {} }},\n  \
         \"verification_failures\": 0,\n  \"lint_diagnostics\": {},\n  \
         \"robustness_violations\": {},\n  \
         \"flow\": {{ \"guards_elided\": {}, \"interval_violations\": {} }}\n}}\n",
        opts.clients,
        opts.queries,
        opts.scale,
        elapsed.as_secs_f64(),
        qps,
        remote_hits,
        total_rows,
        total_bytes,
        p50,
        p95,
        p99,
        retries,
        unavailable,
        lint_diagnostics,
        robustness_violations,
        guards_elided,
        interval_violations,
    );
    let mut f = std::fs::File::create(out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out}");
}

/// Re-run the closed workload over the wire with certified guard elision
/// enabled, under elision's premise (both regions healthy). Returns the
/// number of guards its executions skipped and the runtime premise
/// cross-check count (which must be zero).
fn elision_epilogue(
    cache: &Arc<rcc_mtcache::MTCache>,
    addr: std::net::SocketAddr,
    queries: usize,
    max_custkey: i64,
) -> (u64, u64) {
    cache.set_region_stalled("CR1", false);
    cache
        .advance(rcc_common::Duration::from_secs(30))
        .expect("advance");
    cache.set_elide_guards(true);
    let before = cache
        .metrics()
        .snapshot()
        .counter("rcc_flow_guards_elided_total");
    let mut client = NetClient::connect(addr, &ClientConfig::default()).expect("connect");
    let mut rng = StdRng::seed_from_u64(0x51de);
    for _ in 0..queries {
        let sql = elision_workload_sql(&mut rng, max_custkey);
        client.query(&sql).expect("query");
    }
    cache.set_elide_guards(false);
    let snap = cache.metrics().snapshot();
    let elided = snap.counter("rcc_flow_guards_elided_total") - before;
    let violations = snap.counter("rcc_flow_interval_violations_total");
    (elided, violations)
}

fn run_open(
    opts: &Options,
    cache: &Arc<rcc_mtcache::MTCache>,
    addr: std::net::SocketAddr,
    max_custkey: i64,
) {
    let arrivals = (opts.rate * opts.duration_secs).ceil() as usize;
    eprintln!(
        "net_load: open loop, {:.0}/s for {:.1}s = {} arrivals over {} clients, scale {}",
        opts.rate, opts.duration_secs, arrivals, opts.clients, opts.scale
    );
    let interarrival = Duration::from_secs_f64(1.0 / opts.rate);
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    // all workers share one epoch so the global arrival schedule is fixed
    // before the first query goes out
    let epoch = Instant::now() + Duration::from_millis(50);
    let workers: Vec<_> = (0..opts.clients)
        .map(|c| {
            let latencies = Arc::clone(&latencies);
            let clients = opts.clients;
            std::thread::spawn(move || {
                let mut client =
                    NetClient::connect(addr, &ClientConfig::default()).expect("connect");
                let mut rng = StdRng::seed_from_u64(0xfeed ^ c as u64);
                let mut local = Vec::new();
                let mut remote_hits = 0u64;
                let mut late = 0u64;
                // worker c serves every clients-th arrival of the global
                // schedule: arrival k is due at epoch + k/rate
                let mut k = c;
                while k < arrivals {
                    let due = epoch + interarrival * k as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    } else {
                        late += 1;
                    }
                    let sql = workload_sql(&mut rng, max_custkey);
                    let r = client.query(&sql).expect("query");
                    // open-loop latency: completion minus *scheduled*
                    // arrival, so a backed-up server is charged its queue
                    local.push(due.elapsed().as_micros() as u64);
                    remote_hits += r.used_remote as u64;
                    k += clients;
                }
                latencies.lock().extend_from_slice(&local);
                (remote_hits, late)
            })
        })
        .collect();
    let mut remote_hits = 0u64;
    let mut late_dispatches = 0u64;
    for w in workers {
        let (r, late) = w.join().expect("worker");
        remote_hits += r;
        late_dispatches += late;
    }
    let elapsed = epoch.elapsed();

    let mut lat = latencies.lock().clone();
    lat.sort_unstable();
    let (p50, p99, p999) = (
        quantile(&lat, 0.50),
        quantile(&lat, 0.99),
        quantile(&lat, 0.999),
    );
    let achieved_qps = lat.len() as f64 / elapsed.as_secs_f64();

    // fleet-wide delivered-staleness and slack percentiles: merge the
    // per-region histograms the cache recorded at guard-evaluation time
    let snap = cache.metrics().snapshot();
    let merged = |name: &str| {
        let parts: Vec<&HistogramSnapshot> = snap
            .values
            .keys()
            .filter(|k| k.starts_with(&format!("{name}{{")))
            .filter_map(|k| snap.histogram(k))
            .collect();
        merge_histograms(parts)
    };
    let delivered = merged("rcc_delivered_staleness_seconds");
    let slack = merged("rcc_currency_slack_seconds");
    let pct = |h: &Option<HistogramSnapshot>, q: f64| {
        h.as_ref().and_then(|h| h.quantile(q)).unwrap_or(0.0)
    };
    let slo_total = snap.counter("rcc_slo_queries_total");
    let slo_violations = snap.counter("rcc_slo_violations_total{sanctioned=\"no\"}")
        + snap.counter("rcc_slo_violations_total{sanctioned=\"yes\"}");

    println!("\nnet_load open-loop results");
    println!(
        "  arrivals          {} at {:.0}/s target ({achieved_qps:.0}/s achieved over {elapsed:.2?})",
        lat.len(),
        opts.rate
    );
    println!("  remote over TCP   {remote_hits}");
    println!("  late dispatches   {late_dispatches}");
    println!("  latency p50/p99/p999           {p50} / {p99} / {p999} µs");
    println!(
        "  delivered staleness p50/p99    {:.3} / {:.3} s (n={})",
        pct(&delivered, 0.50),
        pct(&delivered, 0.99),
        delivered.as_ref().map(|h| h.count).unwrap_or(0)
    );
    println!(
        "  currency slack p50/p99         {:.3} / {:.3} s",
        pct(&slack, 0.50),
        pct(&slack, 0.99)
    );
    println!("  slo violations                 {slo_violations} of {slo_total} guard sets");

    assert_eq!(lat.len(), arrivals, "every scheduled arrival was issued");
    assert!(
        delivered.as_ref().map(|h| h.count).unwrap_or(0) > 0,
        "the cache recorded delivered staleness for the guarded workload"
    );

    let out = opts.out.as_deref().unwrap_or("BENCH_load.json");
    let json = format!(
        "{{\n  \"bench\": \"net_load_open\",\n  \"clients\": {},\n  \"rate_qps\": {},\n  \
         \"duration_secs\": {},\n  \"scale\": {},\n  \"arrivals\": {},\n  \
         \"achieved_qps\": {:.1},\n  \"remote_queries\": {},\n  \"late_dispatches\": {},\n  \
         \"latency_us\": {{ \"p50\": {}, \"p99\": {}, \"p999\": {} }},\n  \
         \"delivered_staleness_secs\": {{ \"p50\": {:.6}, \"p99\": {:.6}, \"count\": {} }},\n  \
         \"currency_slack_secs\": {{ \"p50\": {:.6}, \"p99\": {:.6} }},\n  \
         \"slo\": {{ \"guard_sets\": {}, \"violations\": {} }}\n}}\n",
        opts.clients,
        opts.rate,
        opts.duration_secs,
        opts.scale,
        lat.len(),
        achieved_qps,
        remote_hits,
        late_dispatches,
        p50,
        p99,
        p999,
        pct(&delivered, 0.50),
        pct(&delivered, 0.99),
        delivered.as_ref().map(|h| h.count).unwrap_or(0),
        pct(&slack, 0.50),
        pct(&slack, 0.99),
        slo_total,
        slo_violations,
    );
    let mut f = std::fs::File::create(out).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out}");
}
