//! Loopback integration: N concurrent clients against one [`NetServer`],
//! checking result correctness, per-session isolation of currency options,
//! and that the front-end request counters add up exactly; then the second
//! hop — the back-end behind its own listener, serving shipped statements
//! from its plan cache.

use rcc_common::Duration as SimDuration;
use rcc_common::Error;
use rcc_executor::RemoteService;
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_mtcache::{MTCache, ViolationPolicy};
use rcc_net::{
    BackendNetServer, ClientConfig, NetClient, NetServer, NetServerConfig, PoolConfig, RetryPolicy,
    TcpRemoteService,
};
use rcc_obs::{EventKind, Tracer};
use std::sync::{Arc, Barrier};

const N_CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 25;

const Q: &str = "SELECT c_acctbal FROM customer WHERE c_custkey = 5 \
                 CURRENCY BOUND 30 SEC ON (customer)";

fn rig() -> (Arc<MTCache>, NetServer) {
    let cache = paper_setup(0.001, 7).unwrap();
    warm_up(&cache).unwrap();
    let cache = Arc::new(cache);
    let server = NetServer::spawn(
        Arc::clone(&cache),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap();
    (cache, server)
}

#[test]
fn concurrent_clients_get_correct_rows_and_counters_add_up() {
    let (cache, mut server) = rig();
    let addr = server.addr();

    let workers: Vec<_> = (0..N_CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr, &ClientConfig::default()).unwrap();
                client.ping().unwrap();
                for _ in 0..QUERIES_PER_CLIENT {
                    let r = client.query(Q).unwrap();
                    assert_eq!(r.rows.len(), 1, "custkey 5 exists exactly once");
                    assert_eq!(r.schema.columns().len(), 1);
                    assert!(!r.used_remote, "fresh cache answers locally");
                    assert!(r.wire_bytes > 0);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // every request the clients sent is accounted for, exactly once
    let snap = cache.metrics().snapshot();
    assert_eq!(
        snap.counter("rcc_net_requests_total{type=\"query\"}"),
        (N_CLIENTS * QUERIES_PER_CLIENT) as u64,
        "query counter must equal clients × queries"
    );
    assert_eq!(
        snap.counter("rcc_net_requests_total{type=\"ping\"}"),
        N_CLIENTS as u64
    );
    assert_eq!(snap.counter("rcc_net_connections_total"), N_CLIENTS as u64);
    assert_eq!(snap.counter("rcc_net_request_errors_total"), 0);

    server.shutdown();
    // graceful shutdown drains the open-connections gauge
    let snap = cache.metrics().snapshot();
    assert_eq!(snap.gauge("rcc_net_connections_open"), Some(0.0));
}

/// Four connections send hits of one two-table shape, each with its own
/// keys and residual values: every hit binds its values into the one
/// executable the plan-cache entry holds. The second half runs with CR1
/// stalled, so guarded branches go remote and render their shipped text at
/// open while the other threads bind the same executable.
#[test]
fn one_executable_serves_concurrent_sessions_their_own_values() {
    const HITS: usize = 500;
    let (cache, server) = rig();
    let addr = server.addr();
    let body = |k: usize, u: usize| {
        format!(
            "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
             WHERE c.c_custkey = o.o_custkey AND c.c_custkey = {k} \
             AND o.o_totalprice > -{u}"
        )
    };
    let clause = "CURRENCY BOUND 1 MIN ON (c), 1 MIN ON (o)";
    cache
        .execute(&format!("{} {clause}", body(1, 1000)))
        .unwrap();
    let entries = cache.plan_cache().len();
    let (_, misses) = cache.plan_cache().stats();
    let customers = cache.catalog().stats("customer").row_count as usize;
    let barrier = Barrier::new(N_CLIENTS + 1);
    std::thread::scope(|scope| {
        for client in 0..N_CLIENTS {
            let (cache, barrier) = (&cache, &barrier);
            scope.spawn(move || {
                let mut conn = NetClient::connect(addr, &ClientConfig::default()).unwrap();
                for i in 0..HITS {
                    if i == HITS / 2 {
                        barrier.wait(); // CR1 is stalled between these two
                        barrier.wait();
                    }
                    let (k, u) = (
                        1 + (client * 37 + i * 11) % customers,
                        1001 + i * 4 + client,
                    );
                    let r = conn.query(&format!("{} {clause}", body(k, u))).unwrap();
                    assert_eq!(r.used_remote, i >= HITS / 2, "hit {i} of client {client}");
                    let (_, mut expected) = cache.backend().query(&body(k, u)).unwrap();
                    let mut rows = r.rows;
                    rows.sort();
                    expected.sort();
                    assert_eq!(rows, expected, "c_custkey = {k}, residual -{u}");
                }
            });
        }
        barrier.wait();
        cache.set_region_stalled("CR1", true);
        cache.advance(SimDuration::from_secs(90)).unwrap();
        barrier.wait();
    });
    // every one of them was a hit of the entry compiled above
    assert_eq!(cache.plan_cache().len(), entries);
    assert_eq!(cache.plan_cache().stats().1, misses);
}

#[test]
fn currency_options_are_isolated_per_connection() {
    let (cache, server) = rig();
    let addr = server.addr();

    // two sessions on the same server: A opts into stale serving, B keeps
    // the default Reject policy
    let cfg = ClientConfig::default();
    let mut a = NetClient::connect(addr, &cfg).unwrap();
    let mut b = NetClient::connect(addr, &cfg).unwrap();
    a.set_policy(ViolationPolicy::ServeStale).unwrap();

    // make CR1 stale beyond the bound with the back-end unreachable, so
    // the policy is the only thing deciding each session's outcome
    cache.set_region_stalled("CR1", true);
    cache.advance(SimDuration::from_secs(90)).unwrap();
    cache.set_backend_available(false);

    let ra = a.query(Q).expect("ServeStale session still gets rows");
    assert_eq!(ra.rows.len(), 1);
    assert!(
        !ra.warnings.is_empty(),
        "stale rows must carry a warning over the wire"
    );

    let eb = b.query(Q).expect_err("Reject session must get an error");
    assert!(
        matches!(eb, Error::CurrencyViolation(_)),
        "wire preserves the error class: {eb:?}"
    );

    // ...and B flipping its own policy works without touching A
    b.set_policy(ViolationPolicy::ServeStale).unwrap();
    assert_eq!(b.query(Q).unwrap().rows.len(), 1);
}

#[test]
fn bad_sql_and_bad_options_return_errors_not_disconnects() {
    let (_cache, server) = rig();
    let mut client = NetClient::connect(server.addr(), &ClientConfig::default()).unwrap();

    assert!(client.query("SELEC nonsense").is_err());
    assert!(client.set_option("no_such_option", "x").is_err());
    // the connection survives both errors
    let r = client
        .query("SELECT c_name FROM customer WHERE c_custkey = 1")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

/// Result headers used to call every projected column `INT` and every
/// aggregate `FLOAT`, whatever the rows held — locally, on the remote
/// branch, and in the back-end's own answers alike.
#[test]
fn result_columns_arrive_with_their_types() {
    use rcc_common::DataType::{Float, Int, Str};
    let cache = Arc::new({
        let c = paper_setup(0.001, 7).unwrap();
        warm_up(&c).unwrap();
        c
    });
    let backend_srv = BackendNetServer::spawn(Arc::clone(cache.backend()), "127.0.0.1:0").unwrap();
    let remote = TcpRemoteService::new(
        backend_srv.addr(),
        PoolConfig::default(),
        RetryPolicy::default(),
    )
    .unwrap();
    cache.set_remote_service(Some(Arc::new(remote)));
    let server = NetServer::spawn(
        Arc::clone(&cache),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.addr(), &ClientConfig::default()).unwrap();

    let types = |r: &rcc_net::NetQueryResult| -> Vec<_> {
        r.schema.columns().iter().map(|c| c.data_type).collect()
    };
    let point = "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey <= 3 \
                 CURRENCY BOUND 30 SEC ON (customer)";
    let grouped = "SELECT c_name, COUNT(*), SUM(c_acctbal), MIN(c_custkey), AVG(c_custkey) \
                   FROM customer WHERE c_custkey <= 3 GROUP BY c_name \
                   CURRENCY BOUND 30 SEC ON (customer)";
    // no currency clause: the whole query ships to the back-end, and its
    // placeholder schema takes the types the back-end reports
    let shipped = "SELECT c_name, c_acctbal FROM customer WHERE c_custkey <= 3";

    let local = client.query(point).unwrap();
    assert!(!local.used_remote);
    assert_eq!(types(&local), [Int, Str, Float]);
    assert_eq!(
        types(&client.query(grouped).unwrap()),
        [Str, Int, Float, Int, Float]
    );
    let whole = client.query(shipped).unwrap();
    assert!(whole.used_remote);
    assert_eq!(types(&whole), [Str, Float]);

    // the same statements with CR1 too stale for the bound: the guard
    // sends them down the remote branch, the header does not change
    cache.set_region_stalled("CR1", true);
    cache.advance(SimDuration::from_secs(90)).unwrap();
    let remote = client.query(point).unwrap();
    assert!(remote.used_remote);
    assert_eq!(types(&remote), [Int, Str, Float]);
    assert_eq!(remote.rows, local.rows);
    assert_eq!(
        types(&client.query(grouped).unwrap()),
        [Str, Int, Float, Int, Float]
    );
}

#[test]
fn explain_analyze_runs_over_the_wire() {
    // it used to fail in every session — the session parsed the text
    // before the server's prefix-stripping ever saw it
    let (_cache, server) = rig();
    let mut client = NetClient::connect(server.addr(), &ClientConfig::default()).unwrap();
    let plain = client.query(Q).unwrap();
    let analyzed = client.query(&format!("EXPLAIN ANALYZE {Q}")).unwrap();
    assert_eq!(analyzed.rows, plain.rows, "the rows come back as well");
    // and the plain text still hits its own cached plan afterwards
    assert_eq!(client.query(Q).unwrap().rows, plain.rows);
}

#[test]
fn two_requests_in_one_segment_are_both_answered_in_order() {
    use rcc_net::frame::{write_frame, Request, Response};
    use rcc_net::FramedStream;
    use std::io::Write;

    let (cache, server) = rig();
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut segment = Vec::new();
    write_frame(&mut segment, &Request::Query { sql: Q.into() }.encode()).unwrap();
    write_frame(&mut segment, &Request::Ping.encode()).unwrap();
    (&stream).write_all(&segment).unwrap();

    let mut conn = FramedStream::new(stream);
    let first = Response::decode(conn.read_frame().unwrap().unwrap()).unwrap();
    assert!(matches!(first, Response::ResultSet { .. }), "{first:?}");
    let second = Response::decode(conn.read_frame().unwrap().unwrap()).unwrap();
    assert_eq!(second, Response::Pong);

    // the latency histogram is observed once the response is written, so
    // after the second answer the first request is certainly on record
    let snap = cache.metrics().snapshot();
    let seconds = snap.histogram("rcc_net_request_seconds").unwrap();
    assert!(seconds.count >= 1 && seconds.sum > 0.0, "{seconds:?}");
}

#[test]
fn accept_pool_is_bounded() {
    let cache = Arc::new({
        let c = paper_setup(0.001, 7).unwrap();
        warm_up(&c).unwrap();
        c
    });
    let server = NetServer::spawn(
        Arc::clone(&cache),
        "127.0.0.1:0",
        NetServerConfig {
            max_connections: 2,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let cfg = ClientConfig::default();
    let mut a = NetClient::connect(server.addr(), &cfg).unwrap();
    let mut b = NetClient::connect(server.addr(), &cfg).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();

    // the third connection is refused with a busy frame, not queued (the
    // refusal may race the ping and surface as a reset — either way the
    // client sees Unavailable, never a hang or a served request)
    let mut c = NetClient::connect(server.addr(), &cfg).unwrap();
    let err = c.ping().expect_err("third connection must be refused");
    assert!(matches!(err, Error::Unavailable(_)), "{err:?}");
    assert!(
        cache
            .metrics()
            .snapshot()
            .counter("rcc_net_connections_rejected_total")
            >= 1
    );

    // a slot frees up once an admitted client leaves
    drop(a);
    let mut d = loop {
        let mut cand = NetClient::connect(server.addr(), &cfg).unwrap();
        if cand.ping().is_ok() {
            break cand;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    d.ping().unwrap();
}

#[test]
fn remote_query_merges_backend_spans_into_one_trace() {
    // full rig: cache front-end + back-end behind its own TCP listener,
    // remote branch over the pooled transport (the trace-context path)
    let (cache, _backend_srv, remote) = backend_rig();
    remote.set_metrics(Arc::clone(cache.metrics()));
    cache.set_remote_service(Some(Arc::new(remote)));
    let server = NetServer::spawn(
        Arc::clone(&cache),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .unwrap();

    // make CR1 too stale for the bound so the guard routes the query to
    // the back-end over TCP
    cache.set_region_stalled("CR1", true);
    cache.advance(SimDuration::from_secs(90)).unwrap();

    let mut client = NetClient::connect(server.addr(), &ClientConfig::default()).unwrap();
    let r = client.query(Q).unwrap();
    assert!(r.used_remote, "stale CR1 must route to the back-end");
    assert_eq!(r.rows.len(), 1);

    // the query produced exactly one trace on the cache's tracer, and it
    // contains both the local transport span and the back-end's own span
    // tree, merged below it
    let trace = cache
        .tracer()
        .recent(8)
        .into_iter()
        .rev()
        .find(|t| t.label.contains("c_custkey = 5"))
        .expect("the query's trace is in the ring");
    let call = trace
        .spans
        .iter()
        .find(|s| s.name == "remote_call")
        .expect("transport span present");
    let backend_spans: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("backend:"))
        .collect();
    assert!(
        !backend_spans.is_empty(),
        "back-end spans merged into the front-end trace: {:#?}",
        trace.spans
    );
    for s in &backend_spans {
        assert!(
            s.depth > call.depth,
            "remote span {} nests under remote_call",
            s.name
        );
        assert!(
            s.start >= call.start,
            "remote span {} starts after the call went out",
            s.name
        );
    }
    // the back-end recorded its execution phases
    let names: Vec<&str> = backend_spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"backend:execute"), "{names:?}");
}

#[test]
fn outage_lands_degradation_event_with_policy_arm() {
    let (cache, server) = rig();
    let addr = server.addr();

    let cfg = ClientConfig::default();
    let mut stale_ok = NetClient::connect(addr, &cfg).unwrap();
    let mut strict = NetClient::connect(addr, &cfg).unwrap();
    stale_ok.set_policy(ViolationPolicy::ServeStale).unwrap();

    cache.set_region_stalled("CR1", true);
    cache.advance(SimDuration::from_secs(90)).unwrap();
    cache.set_backend_available(false);

    stale_ok
        .query(Q)
        .expect("ServeStale degrades, still serves");
    strict.query(Q).expect_err("Reject surfaces the violation");

    let events = cache.journal().recent(usize::MAX);
    let failover = events
        .iter()
        .find(|e| e.kind == EventKind::Failover)
        .expect("marking the back-end down is journalled");
    assert!(failover.cause.contains("unavailable"), "{}", failover.cause);

    let degradation = events
        .iter()
        .find(|e| e.kind == EventKind::Degradation)
        .expect("ServeStale degradation is journalled");
    assert_eq!(degradation.policy, "serve_stale");
    assert!(degradation.cause.contains("back-end unreachable"));
    assert!(
        degradation.session.starts_with("session-"),
        "{}",
        degradation.session
    );
    assert!(
        degradation.trace_id > 0,
        "event carries the query's trace id"
    );

    let violation = events
        .iter()
        .find(|e| e.kind == EventKind::Violation)
        .expect("Reject violation is journalled");
    assert_eq!(violation.policy, "reject");
    assert_ne!(
        violation.session, degradation.session,
        "each connection has its own session label"
    );

    // the journal feeds the events counter
    let snap = cache.metrics().snapshot();
    assert!(snap.counter("rcc_events_total{kind=\"degradation\"}") >= 1);
    assert!(snap.counter("rcc_events_total{kind=\"violation\"}") >= 1);
    assert!(snap.counter("rcc_events_total{kind=\"failover\"}") >= 1);

    // ...and SHOW EVENTS surfaces the journal over the wire
    let r = stale_ok.query("SHOW EVENTS").unwrap();
    assert!(!r.rows.is_empty(), "SHOW EVENTS returns the journal rows");
}

/// The back-end of a loaded cache behind its own listener, and the pooled
/// transport to it.
fn backend_rig() -> (Arc<MTCache>, BackendNetServer, TcpRemoteService) {
    let cache = paper_setup(0.001, 7).unwrap();
    warm_up(&cache).unwrap();
    let cache = Arc::new(cache);
    let server = BackendNetServer::spawn(Arc::clone(cache.backend()), "127.0.0.1:0").unwrap();
    let remote =
        TcpRemoteService::new(server.addr(), PoolConfig::default(), RetryPolicy::default())
            .unwrap();
    (cache, server, remote)
}

#[test]
fn a_shipped_text_is_parsed_and_planned_on_its_first_call_only() {
    let (_cache, _server, remote) = backend_rig();
    let tracer = Tracer::new(4);
    let backend_spans = |sql: &str| -> Vec<String> {
        let mut handle = tracer.trace(sql);
        let shared = handle.share().unwrap();
        let (_, rows, _) = remote.execute_traced(sql, Some(&shared)).unwrap();
        assert_eq!(rows.len(), 1);
        let mut spans = handle.finish().unwrap().spans;
        spans.sort_by_key(|s| s.start);
        spans
            .into_iter()
            .filter(|s| s.name.starts_with("backend:"))
            .map(|s| s.name)
            .collect()
    };
    let text = "SELECT c_acctbal FROM customer WHERE c_custkey = 5";
    assert_eq!(
        backend_spans(text),
        [
            "backend:parse",
            "backend:plan",
            "backend:execute",
            "backend:encode"
        ]
    );
    for _ in 0..3 {
        assert_eq!(
            backend_spans(text),
            ["backend:execute", "backend:encode"],
            "a plan-cache hit: neither happened, neither is reported"
        );
    }
}

#[test]
fn concurrent_shippers_never_get_a_plan_from_before_a_catalog_change() {
    const TEXTS: usize = 32;
    const ROUNDS: usize = 6;
    let (cache, _server, remote) = backend_rig();
    // one shape each: a LIMIT is part of the plan-cache key, a compared
    // literal is not
    let texts: Vec<String> = (1..=TEXTS)
        .map(|k| format!("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = {k} LIMIT {k}"))
        .collect();
    // ANALYZE moves the catalog version and nothing else: every answer
    // stays what the back-end said before anything ran concurrently
    let oracle: Vec<_> = texts
        .iter()
        .map(|t| cache.backend().query(t).unwrap().1)
        .collect();
    let plans = cache.backend().plan_cache();
    // two shippers + the analyzer, released together and collected together
    let barrier = Barrier::new(3);
    let ship_all = || {
        for (text, expected) in texts.iter().zip(&oracle) {
            let (_, rows, _) = remote.execute_with_bytes(text).unwrap();
            assert_eq!(&rows, expected, "{text}");
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    // racing the analyzer: plans compiled across version
                    // changes, answers always right
                    barrier.wait();
                    ship_all();
                    barrier.wait();
                    // the analyzer moves the version once more, alone ...
                    barrier.wait();
                    // ... and every text's next lookup has to miss
                    ship_all();
                    barrier.wait();
                }
            });
        }
        for _ in 0..ROUNDS {
            barrier.wait();
            for _ in 0..8 {
                cache.analyze("customer").unwrap();
            }
            barrier.wait();
            let (_, misses_before) = plans.stats();
            let version = cache.catalog().version();
            cache.analyze("customer").unwrap();
            assert!(cache.catalog().version() > version);
            barrier.wait();
            barrier.wait();
            let (_, misses) = plans.stats();
            assert!(
                misses - misses_before >= TEXTS as u64,
                "{} of {TEXTS} texts were planned again after the version moved",
                misses - misses_before
            );
            assert_eq!(
                cache.catalog().version(),
                version + 1,
                "nothing else moved it"
            );
        }
    });
}
