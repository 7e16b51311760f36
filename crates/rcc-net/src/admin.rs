//! The admin HTTP endpoint: operational telemetry over plain HTTP/1.0.
//!
//! A deliberately tiny, dependency-free HTTP listener for scrapers and
//! humans with `curl` — not a general web server. It answers `GET` (plus
//! one `POST` route), ignores request headers, and closes the connection
//! after each response (HTTP/1.0 semantics), which is exactly what
//! Prometheus-style scraping and shell debugging need:
//!
//! | route      | content                                               |
//! |------------|-------------------------------------------------------|
//! | `/metrics` | the cache registry in Prometheus text format          |
//! | `/traces`  | recently finished query traces (merged span trees)    |
//! | `/events`  | the structured event journal as JSON                  |
//! | `/healthz` | liveness + per-region replication lag + pool occupancy + the back-end's plan cache (entries, hits, misses, evictions) + durability (WAL size, records and fsyncs, checkpoint age) |
//! | `POST /shutdown` | request a graceful stop: the hosting process polls [`AdminServer::stop_requested`] and (in durable mode) writes a final checkpoint before exiting |
//!
//! Every request bumps `rcc_admin_requests_total{path=...}`; unknown
//! paths are labelled `other` so the counter's cardinality stays fixed.
//!
//! Each request is one connection, served on the crate's one connection
//! skeleton (`accept.rs`) like the other two listeners: a thread per
//! connection, reaped at the next accept once finished. Unlike the
//! front-end it is unbounded; bounding it against hostile peers is
//! ROADMAP item 4.

use crate::accept::{Acceptor, Service};
use crate::remote::TcpRemoteService;
use rcc_mtcache::MTCache;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on an admin request head (request line + headers). Anything
/// longer is rejected — admin requests are tiny by construction.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long a client may take to deliver its request head.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// How many finished traces `/traces` renders.
const TRACES_SHOWN: usize = 16;

/// The admin HTTP server for one [`MTCache`].
#[derive(Debug)]
pub struct AdminServer {
    acceptor: Acceptor,
    stop_requested: Arc<AtomicBool>,
}

impl AdminServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"`) and serve the cache's telemetry
    /// from a background accept thread, one thread per request (each
    /// request is its own connection). Pass the cache's remote transport
    /// (when it has one) so `/healthz` can report back-end pool occupancy.
    pub fn spawn(
        cache: Arc<MTCache>,
        remote: Option<Arc<TcpRemoteService>>,
        bind: &str,
    ) -> io::Result<AdminServer> {
        let stop_requested = Arc::new(AtomicBool::new(false));
        let admin = Arc::new(Admin {
            cache,
            remote,
            stop_requested: Arc::clone(&stop_requested),
        });
        Ok(AdminServer {
            acceptor: Acceptor::spawn(bind, "rcc-admin", None, admin)?,
            stop_requested,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Whether a client has asked the hosting process to stop
    /// (`POST /shutdown`). The admin server only records the request; the
    /// host polls this and owns the actual teardown (final checkpoint,
    /// process exit).
    pub fn stop_requested(&self) -> bool {
        self.stop_requested.load(Ordering::SeqCst)
    }

    /// Stop accepting and join every in-flight request thread.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

/// What the admin endpoint serves a connection with.
struct Admin {
    cache: Arc<MTCache>,
    remote: Option<Arc<TcpRemoteService>>,
    stop_requested: Arc<AtomicBool>,
}

impl Service for Admin {
    fn serve(&self, mut stream: TcpStream, stop: &AtomicBool) {
        let (cache, remote) = (&*self.cache, self.remote.as_deref());
        let Some((method, path)) = read_request_path(&mut stream, stop) else {
            let _ = write_response(&mut stream, 400, "text/plain", "bad request\n");
            return;
        };
        let label = match path.as_str() {
            "/metrics" | "/traces" | "/events" | "/healthz" | "/shutdown" => path.as_str(),
            _ => "other",
        };
        cache
            .metrics()
            .counter("rcc_admin_requests_total", &[("path", label)])
            .inc();
        let _ = match (method.as_str(), path.as_str()) {
            ("GET", "/metrics") => write_response(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                &cache.metrics().render_prometheus(),
            ),
            ("GET", "/traces") => {
                write_response(&mut stream, 200, "text/plain", &render_traces(cache))
            }
            ("GET", "/events") => {
                write_response(&mut stream, 200, "application/json", &render_events(cache))
            }
            ("GET", "/healthz") => write_response(
                &mut stream,
                200,
                "application/json",
                &render_health(cache, remote),
            ),
            ("POST", "/shutdown") => {
                self.stop_requested.store(true, Ordering::SeqCst);
                write_response(
                    &mut stream,
                    200,
                    "application/json",
                    "{\"shutting_down\":true}\n",
                )
            }
            _ => write_response(&mut stream, 404, "text/plain", "not found\n"),
        };
    }
}

/// Read the request head (bounded, with a deadline) and return the method
/// and path from the request line, or `None` if the request is malformed
/// or the server stops (`stop`) before it is complete. Only `GET` and
/// `POST` are admitted; routing decides which combinations exist.
fn read_request_path(stream: &mut TcpStream, stop: &AtomicBool) -> Option<(String, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let started = std::time::Instant::now();
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && !buf.windows(2).any(|w| w == b"\n\n") {
        if buf.len() > MAX_REQUEST_BYTES
            || started.elapsed() > REQUEST_TIMEOUT
            || stop.load(Ordering::SeqCst)
        {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_ascii_uppercase();
    let target = parts.next()?;
    if method != "GET" && method != "POST" {
        return None;
    }
    // strip any query string: routes take no parameters
    let path = target.split('?').next().unwrap_or(target).to_string();
    Some((method, path))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn render_traces(cache: &MTCache) -> String {
    let traces = cache.tracer().recent(TRACES_SHOWN);
    if traces.is_empty() {
        return "no traces recorded yet\n".to_string();
    }
    let mut out = String::new();
    for trace in traces {
        out.push_str(&trace.render());
        out.push('\n');
    }
    out
}

fn render_events(cache: &MTCache) -> String {
    let journal = cache.journal();
    let events = journal.recent(usize::MAX);
    let mut out = String::from("{\"total_recorded\":");
    let _ = write!(out, "{},\"events\":[", journal.total());
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_ms\":{},\"kind\":\"{}\",\"cause\":{},\"policy\":{},\"session\":{},\"trace_id\":{}}}",
            e.seq,
            e.at_ms,
            e.kind.name(),
            json_str(&e.cause),
            json_str(&e.policy),
            json_str(&e.session),
            e.trace_id
        );
    }
    out.push_str("]}\n");
    out
}

fn render_health(cache: &MTCache, remote: Option<&TcpRemoteService>) -> String {
    let mut out = String::from("{\"status\":\"ok\",\"regions\":{");
    let mut regions = cache.catalog().regions();
    regions.sort_by(|a, b| a.name.cmp(&b.name));
    for (i, region) in regions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match cache.region_staleness(&region.name) {
            Some(lag) => {
                let _ = write!(out, "{}:{:.3}", json_str(&region.name), lag.as_secs_f64());
            }
            None => {
                let _ = write!(out, "{}:null", json_str(&region.name));
            }
        }
    }
    out.push('}');
    if let Some(remote) = remote {
        let (idle, in_use) = remote.pool().occupancy();
        let _ = write!(
            out,
            ",\"backend_pool\":{{\"idle\":{idle},\"in_use\":{in_use}}}"
        );
    }
    let plans = cache.plan_cache();
    let (hits, misses) = plans.stats();
    let _ = write!(
        out,
        ",\"plan_cache\":{{\"entries\":{},\"hits\":{hits},\"misses\":{misses},\
         \"evictions\":{},\"sibling_compiles\":{}}}",
        plans.len(),
        plans.evictions(),
        plans.sibling_compiles(),
    );
    let plans = cache.backend().plan_cache();
    let (hits, misses) = plans.stats();
    let _ = write!(
        out,
        ",\"backend_plan_cache\":{{\"entries\":{},\"hits\":{hits},\"misses\":{misses},\
         \"evictions\":{}}}",
        plans.len(),
        plans.evictions(),
    );
    if let Some(d) = cache.durability_status() {
        let _ = write!(
            out,
            ",\"durability\":{{\"policy\":{},\"wal_bytes\":{},\"wal_records\":{},\
             \"wal_fsyncs\":{},\"last_checkpoint_age_seconds\":",
            json_str(d.policy),
            d.wal_bytes,
            d.wal_records,
            d.wal_fsyncs,
        );
        match d.last_checkpoint_age_seconds {
            Some(age) => {
                let _ = write!(out, "{age:.3}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("}\n");
    out
}

/// Render a string as a JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut body = String::new();
        let mut line = String::new();
        // skip headers
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
        }
        reader.read_to_string(&mut body).unwrap();
        (status, body)
    }

    #[test]
    fn a_silent_connection_does_not_hold_shutdown() {
        let mut admin = AdminServer::spawn(Arc::new(MTCache::new()), None, "127.0.0.1:0").unwrap();
        let _silent = TcpStream::connect(admin.addr()).unwrap();
        // let the connection's thread start reading
        std::thread::sleep(Duration::from_millis(200));
        let started = std::time::Instant::now();
        admin.shutdown();
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(2),
            "shutdown waited {took:?} for a client that sends nothing (request timeout {REQUEST_TIMEOUT:?})"
        );
    }

    #[test]
    fn routes_serve_metrics_events_traces_health() {
        let cache = Arc::new(MTCache::new());
        cache
            .execute("CREATE REGION cr1 INTERVAL 1 SEC DELAY 0 MS")
            .unwrap();
        // run one traced statement so /traces has something to show
        let _ = cache.execute("SELECT 1");
        let mut admin = AdminServer::spawn(Arc::clone(&cache), None, "127.0.0.1:0").unwrap();
        let addr = admin.addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("rcc_admin_requests_total"), "{body}");

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"cr1\""), "{body}");

        let (status, body) = get(addr, "/events");
        assert_eq!(status, 200);
        assert!(body.contains("\"events\":["), "{body}");

        let (status, _) = get(addr, "/traces");
        assert_eq!(status, 200);

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        // the counter saw every labelled route plus the unknown one
        let snap = cache.metrics().snapshot();
        assert_eq!(
            snap.counter("rcc_admin_requests_total{path=\"/metrics\"}"),
            1
        );
        assert_eq!(snap.counter("rcc_admin_requests_total{path=\"other\"}"), 1);
        admin.shutdown();
    }

    #[test]
    fn healthz_reports_the_backend_plan_cache() {
        let cache = Arc::new(rcc_mtcache::paper::paper_setup(0.001, 42).unwrap());
        // no currency clause: plans remote, ships one text twice
        for _ in 0..2 {
            cache
                .execute("SELECT c_acctbal FROM customer WHERE c_custkey = 5")
                .unwrap();
        }
        let mut admin = AdminServer::spawn(Arc::clone(&cache), None, "127.0.0.1:0").unwrap();
        let (status, body) = get(admin.addr(), "/healthz");
        assert_eq!(status, 200);
        assert!(
            body.contains(
                "\"backend_plan_cache\":{\"entries\":1,\"hits\":1,\"misses\":1,\"evictions\":0}"
            ),
            "{body}"
        );
        // the front-end's own cache beside it, with why it compiled
        assert!(
            body.contains(
                "\"plan_cache\":{\"entries\":1,\"hits\":1,\"misses\":1,\"evictions\":0,\
                 \"sibling_compiles\":0}"
            ),
            "{body}"
        );
        admin.shutdown();
    }

    #[test]
    fn post_shutdown_sets_stop_flag() {
        let cache = Arc::new(MTCache::new());
        let mut admin = AdminServer::spawn(Arc::clone(&cache), None, "127.0.0.1:0").unwrap();
        let addr = admin.addr();
        assert!(!admin.stop_requested());

        // GET on /shutdown must not trigger it
        let (status, _) = get(addr, "/shutdown");
        assert_eq!(status, 404);
        assert!(!admin.stop_requested());

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /shutdown HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        BufReader::new(stream).read_to_string(&mut body).unwrap();
        assert!(body.contains("\"shutting_down\":true"), "{body}");
        assert!(admin.stop_requested());
        admin.shutdown();
    }

    #[test]
    fn healthz_reports_durability() {
        let cache = Arc::new(MTCache::new());
        assert!(
            !render_health(&cache, None).contains("durability"),
            "in-memory rig has no durability section"
        );

        let dir = std::env::temp_dir().join(format!("rcc-admin-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(MTCache::new_durable(&dir, rcc_storage::SyncPolicy::Always).unwrap());
        cache
            .execute("CREATE TABLE t (k INT, PRIMARY KEY (k))")
            .unwrap();
        cache.execute("INSERT INTO t VALUES (1)").unwrap();
        let body = render_health(&cache, None);
        assert!(
            body.contains("\"durability\":{\"policy\":\"always\""),
            "{body}"
        );
        for key in ["wal_bytes", "wal_records", "wal_fsyncs"] {
            assert!(body.contains(&format!("\"{key}\":")), "{key}: {body}");
        }
        assert!(
            body.contains("\"last_checkpoint_age_seconds\":null"),
            "{body}"
        );
        cache.checkpoint().unwrap();
        let body = render_health(&cache, None);
        assert!(
            body.contains("\"last_checkpoint_age_seconds\":0.000"),
            "{body}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
