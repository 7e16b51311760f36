//! The cache front-end: an [`MTCache`] behind a TCP socket.
//!
//! Like the back-end and admin listeners it runs on the crate's one
//! connection skeleton (`accept.rs`): a thread per connection, reaped at
//! the next accept once finished. It is the only bounded one: at most
//! [`NetServerConfig::max_connections`] sessions are live at once; excess
//! connections receive an [`Error::Unavailable`] frame and are closed
//! immediately (clients see "server busy" instead of an unbounded queue).
//! Bounding the other two against hostile peers is ROADMAP item 4.
//! Each connection owns one [`rcc_mtcache::Session`], so currency options
//! (violation policy, TIMEORDERED brackets) are isolated per client.
//! Shutdown is graceful: in-flight statements finish, idle connections
//! notice the stop flag within one poll interval, and every thread is
//! joined before [`NetServer::shutdown`] returns.

use crate::accept::{serve_frames, Acceptor, Service};
use crate::frame::{put_result_head, write_frame, FramedStream, Request, Response};
use rcc_common::Error;
use rcc_executor::wire;
use rcc_mtcache::{MTCache, QueryResult, ViolationPolicy};
use rcc_obs::{Counter, Gauge, Histogram, MetricsRegistry, DEFAULT_LATENCY_BUCKETS};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

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
    acceptor: Acceptor,
}

impl NetServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and serve `cache` from a
    /// background accept thread. Front-end metrics are published to the
    /// cache's own [`MetricsRegistry`].
    pub fn spawn(cache: Arc<MTCache>, bind: &str, cfg: NetServerConfig) -> io::Result<NetServer> {
        describe_metrics(cache.metrics());
        let limit = Some(cfg.max_connections);
        let front = Arc::new(FrontEnd {
            metrics: RequestMetrics::new(Arc::clone(cache.metrics())),
            cache,
            cfg,
        });
        Ok(NetServer {
            acceptor: Acceptor::spawn(bind, "rcc-net", limit, front)?,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Graceful shutdown: stop accepting, let in-flight statements finish,
    /// join every thread.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

/// What the front-end serves a connection with.
struct FrontEnd {
    cache: Arc<MTCache>,
    metrics: RequestMetrics,
    cfg: NetServerConfig,
}

impl Service for FrontEnd {
    fn serve(&self, stream: TcpStream, stop: &AtomicBool) {
        let registry = &self.metrics.registry;
        registry.counter("rcc_net_connections_total", &[]).inc();
        let open = registry.gauge("rcc_net_connections_open", &[]);
        open.inc();
        let _open = OpenConnection(open);
        serve(self, FramedStream::new(stream), stop);
    }

    fn refuse(&self, mut stream: TcpStream) {
        let registry = &self.metrics.registry;
        registry.counter("rcc_net_connections_total", &[]).inc();
        registry
            .counter("rcc_net_connections_rejected_total", &[])
            .inc();
        let busy = Response::Error(Error::Unavailable(format!(
            "server busy: {} connections already open",
            self.cfg.max_connections
        )));
        let _ = write_frame(&mut stream, &busy.encode());
    }
}

/// Lowers the `rcc_net_connections_open` gauge when serving a connection
/// ends, by a panic too.
struct OpenConnection(Gauge);

impl Drop for OpenConnection {
    fn drop(&mut self) {
        self.0.dec();
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

/// Serve one connection until the peer leaves, the transport fails or the
/// server shuts down: every response is assembled in the connection's
/// frame buffer and leaves with one write.
fn serve<S: Read + Write>(front: &FrontEnd, conn: FramedStream<S>, shutdown: &AtomicBool) {
    let (cache, metrics) = (&front.cache, &front.metrics);
    // per-connection session: currency options and timeline floors are
    // isolated from every other client
    let mut session = cache.session();
    let answer = |payload, out: &mut Vec<u8>| {
        let started = Instant::now();
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
        started
    };
    // "read frame to response written": the clock stops after the write
    let sent = |started| metrics.observe_seconds(started);
    serve_frames(conn, shutdown, front.cfg.frame_timeout, answer, sent);
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
        let cache = Arc::new(MTCache::new());
        let front = FrontEnd {
            metrics: RequestMetrics::new(Arc::clone(cache.metrics())),
            cache: Arc::clone(&cache),
            cfg: NetServerConfig {
                frame_timeout: Duration::from_secs(1),
                ..NetServerConfig::default()
            },
        };
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
            &front,
            FramedStream::new(&mut peer),
            &AtomicBool::new(false),
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
