//! The cache front-end: an [`MTCache`] behind a TCP socket.
//!
//! Thread-per-connection with a bounded accept pool: at most
//! [`NetServerConfig::max_connections`] sessions are live at once; excess
//! connections receive an [`Error::Unavailable`] frame and are closed
//! immediately (clients see "server busy" instead of an unbounded queue).
//! Each connection owns one [`rcc_mtcache::Session`], so currency options
//! (violation policy, TIMEORDERED brackets) are isolated per client.
//! Shutdown is graceful: in-flight statements finish, idle connections
//! notice the stop flag within one poll interval, and every thread is
//! joined before [`NetServer::shutdown`] returns.

use crate::frame::{put_result_head, write_frame, FramedStream, Request, Response};
use parking_lot::Mutex;
use rcc_common::Error;
use rcc_executor::wire;
use rcc_mtcache::{MTCache, QueryResult, ViolationPolicy};
use rcc_obs::{Counter, Histogram, MetricsRegistry, DEFAULT_LATENCY_BUCKETS};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Tuning for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bounded accept pool: connections beyond this are refused with a
    /// busy error frame.
    pub max_connections: usize,
    /// Once a frame's first byte arrives, the peer has this long to
    /// deliver the rest (half-open connections cannot pin a thread).
    pub frame_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 64,
            frame_timeout: Duration::from_secs(10),
        }
    }
}

/// The TCP front-end server for one [`MTCache`].
#[derive(Debug)]
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and serve `cache` from a
    /// background accept thread. Front-end metrics are published to the
    /// cache's own [`MetricsRegistry`].
    pub fn spawn(cache: Arc<MTCache>, bind: &str, cfg: NetServerConfig) -> io::Result<NetServer> {
        let registry = Arc::clone(cache.metrics());
        describe_metrics(&registry);
        let request_metrics = Arc::new(RequestMetrics::new(Arc::clone(&registry)));
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("rcc-net-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(mut stream) = stream else { continue };
                        registry.counter("rcc_net_connections_total", &[]).inc();
                        if active.load(Ordering::SeqCst) >= cfg.max_connections {
                            // bounded accept pool: refuse, don't queue
                            registry
                                .counter("rcc_net_connections_rejected_total", &[])
                                .inc();
                            let busy = Response::Error(Error::Unavailable(format!(
                                "server busy: {} connections already open",
                                cfg.max_connections
                            )));
                            let _ = write_frame(&mut stream, &busy.encode());
                            continue;
                        }
                        let slot = ActiveSlot::take(&active, &registry);
                        let cache = Arc::clone(&cache);
                        let shutdown = Arc::clone(&shutdown);
                        let metrics = Arc::clone(&request_metrics);
                        let frame_timeout = cfg.frame_timeout;
                        if let Ok(handle) = std::thread::Builder::new()
                            .name("rcc-net-conn".into())
                            .spawn(move || {
                                handle_conn(&cache, stream, &shutdown, &metrics, frame_timeout);
                                drop(slot);
                            })
                        {
                            conns.lock().push(handle);
                        }
                    }
                })?
        };
        Ok(NetServer {
            addr,
            shutdown,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let in-flight statements finish,
    /// join every thread.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.conns.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// RAII guard for one slot of the bounded accept pool, mirrored into the
/// `rcc_net_connections_open` gauge.
struct ActiveSlot {
    active: Arc<AtomicUsize>,
    registry: Arc<MetricsRegistry>,
}

impl ActiveSlot {
    fn take(active: &Arc<AtomicUsize>, registry: &Arc<MetricsRegistry>) -> ActiveSlot {
        active.fetch_add(1, Ordering::SeqCst);
        registry.gauge("rcc_net_connections_open", &[]).inc();
        ActiveSlot {
            active: Arc::clone(active),
            registry: Arc::clone(registry),
        }
    }
}

impl Drop for ActiveSlot {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
        self.registry.gauge("rcc_net_connections_open", &[]).dec();
    }
}

fn describe_metrics(registry: &MetricsRegistry) {
    registry.describe(
        "rcc_net_connections_total",
        "TCP connections accepted by the cache front-end.",
    );
    registry.describe(
        "rcc_net_connections_open",
        "TCP connections currently open at the cache front-end.",
    );
    registry.describe(
        "rcc_net_connections_rejected_total",
        "Connections refused because the accept pool was full.",
    );
    registry.describe(
        "rcc_net_requests_total",
        "Protocol requests served, labelled by frame type.",
    );
    registry.describe(
        "rcc_net_request_errors_total",
        "Protocol requests answered with an error frame.",
    );
    registry.describe(
        "rcc_net_request_seconds",
        "Front-end request latency (read frame to response written).",
    );
}

/// The per-request metric handles, resolved from the registry by name on
/// first use and held from then on: the by-name lookup (key allocation,
/// mutex, map walk) is paid once per server, not twice per request. Lazy
/// rather than eager so a request type nobody sent stays out of the
/// exposition, as it always has.
struct RequestMetrics {
    registry: Arc<MetricsRegistry>,
    query: OnceLock<Counter>,
    query_traced: OnceLock<Counter>,
    set_option: OnceLock<Counter>,
    ping: OnceLock<Counter>,
    seconds: OnceLock<Histogram>,
}

impl RequestMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> RequestMetrics {
        RequestMetrics {
            registry,
            query: OnceLock::new(),
            query_traced: OnceLock::new(),
            set_option: OnceLock::new(),
            ping: OnceLock::new(),
            seconds: OnceLock::new(),
        }
    }

    fn count(&self, handle: &OnceLock<Counter>, request_type: &str) {
        handle
            .get_or_init(|| {
                self.registry
                    .counter("rcc_net_requests_total", &[("type", request_type)])
            })
            .inc();
    }

    fn observe_seconds(&self, started: Instant) {
        self.seconds
            .get_or_init(|| {
                self.registry
                    .histogram("rcc_net_request_seconds", &[], DEFAULT_LATENCY_BUCKETS)
            })
            .observe(started.elapsed().as_secs_f64());
    }
}

fn handle_conn(
    cache: &MTCache,
    stream: TcpStream,
    shutdown: &AtomicBool,
    metrics: &RequestMetrics,
    frame_timeout: Duration,
) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    serve(
        cache,
        FramedStream::new(stream),
        shutdown,
        metrics,
        frame_timeout,
    );
}

/// Serve one connection until the peer leaves, the transport fails or the
/// server shuts down: every response is assembled in the connection's
/// frame buffer and leaves with one write.
fn serve<S: Read + Write>(
    cache: &MTCache,
    mut conn: FramedStream<S>,
    shutdown: &AtomicBool,
    metrics: &RequestMetrics,
    frame_timeout: Duration,
) {
    // per-connection session: currency options and timeline floors are
    // isolated from every other client
    let mut session = cache.session();
    let stop = || shutdown.load(Ordering::SeqCst);
    while let Ok(Some(payload)) = conn.read_frame_interruptible(&stop, frame_timeout) {
        let started = Instant::now();
        let out = conn.begin_frame();
        let outcome = match Request::decode(payload) {
            Ok(Request::Query { sql }) => {
                metrics.count(&metrics.query, "query");
                put_result(out, session.execute_batched(&sql), false)
            }
            Ok(Request::QueryTraced { sql, .. }) => {
                // accepted for protocol symmetry: the cache front-end
                // executes the query normally but does not stream its
                // internal spans to clients — the merged trace (including
                // back-end spans) is retained by the cache's tracer and is
                // visible via `SHOW TRACE` and the admin `/traces` route
                metrics.count(&metrics.query_traced, "query_traced");
                put_result(out, session.execute_batched(&sql), true)
            }
            Ok(Request::SetOption { name, value }) => {
                metrics.count(&metrics.set_option, "set_option");
                apply_option(&mut session, &name, &value).map(|()| Response::Ok.encode_into(out))
            }
            Ok(Request::Ping) => {
                metrics.count(&metrics.ping, "ping");
                Response::Pong.encode_into(out);
                Ok(())
            }
            Err(e) => Err(e),
        };
        if let Err(e) = outcome {
            metrics
                .registry
                .counter("rcc_net_request_errors_total", &[])
                .inc();
            Response::Error(e).encode_into(out);
        }
        let sent = conn.send_frame();
        metrics.observe_seconds(started);
        if sent.is_err() {
            break;
        }
    }
}

/// Append a query's answer to the frame under assembly: its cells go from
/// the result's column batches straight into the connection's buffer, and
/// no row is built. An error leaves the buffer as it was, for the caller to
/// answer with an error frame.
fn put_result(
    out: &mut Vec<u8>,
    result: Result<QueryResult, Error>,
    traced: bool,
) -> Result<(), Error> {
    let r = result?;
    put_result_head(out, r.used_remote, &r.warnings, traced.then_some(&[]));
    wire::encode_batches_into(out, &r.schema, r.batches());
    Ok(())
}

/// Apply a session option. Currently:
///
/// * `violation_policy` = `reject` | `serve_stale`
fn apply_option(
    session: &mut rcc_mtcache::Session<'_>,
    name: &str,
    value: &str,
) -> Result<(), Error> {
    if name.eq_ignore_ascii_case("violation_policy") {
        let policy = match value.to_ascii_lowercase().replace('-', "_").as_str() {
            "reject" => ViolationPolicy::Reject,
            "serve_stale" => ViolationPolicy::ServeStale,
            other => {
                return Err(Error::Config(format!(
                    "unknown violation_policy '{other}' (expected reject | serve_stale)"
                )))
            }
        };
        session.set_policy(policy);
        Ok(())
    } else {
        Err(Error::Config(format!("unknown session option '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that has sent its requests and closed, and whose side of the
    /// connection is slow to take the answers.
    struct SlowPeer {
        requests: io::Cursor<Vec<u8>>,
        write_delay: Duration,
        responses: Vec<u8>,
    }

    impl Read for SlowPeer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.requests.read(buf)
        }
    }

    impl Write for SlowPeer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            std::thread::sleep(self.write_delay);
            self.responses.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn request_seconds_covers_the_response_write() {
        let cache = MTCache::new();
        let metrics = RequestMetrics::new(Arc::clone(cache.metrics()));
        let write_delay = Duration::from_millis(20);
        let mut requests = Vec::new();
        write_frame(&mut requests, &Request::Ping.encode()).unwrap();
        write_frame(&mut requests, b"\xFFnot a request").unwrap();
        let mut peer = SlowPeer {
            requests: io::Cursor::new(requests),
            write_delay,
            responses: Vec::new(),
        };
        serve(
            &cache,
            FramedStream::new(&mut peer),
            &AtomicBool::new(false),
            &metrics,
            Duration::from_secs(1),
        );
        let mut responses = io::Cursor::new(peer.responses);
        let mut next = || crate::frame::read_frame(&mut responses).unwrap();
        let pong = Response::decode(next().unwrap()).unwrap();
        assert_eq!(pong, Response::Pong);
        let refused = Response::decode(next().unwrap()).unwrap();
        assert!(matches!(refused, Response::Error(_)), "{refused:?}");
        assert!(next().is_none(), "one response per request");

        // "read frame to response written": both writes are inside
        let snap = cache.metrics().snapshot();
        let seconds = snap.histogram("rcc_net_request_seconds").unwrap();
        assert_eq!(seconds.count, 2);
        assert!(
            seconds.sum >= 2.0 * write_delay.as_secs_f64(),
            "the histogram stopped its clock before the write: {}",
            seconds.sum
        );
        assert_eq!(snap.counter("rcc_net_requests_total{type=\"ping\"}"), 1);
        assert_eq!(snap.counter("rcc_net_request_errors_total"), 1);
    }
}
