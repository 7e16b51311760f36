//! The TCP remote service: the cache's remote branch over a real socket.
//!
//! Implements [`rcc_executor::RemoteService`] by shipping SQL text to a
//! [`crate::BackendNetServer`] through a [`BackendPool`], with per-call
//! deadlines (the pool's `io_timeout` bounds every read/write) and bounded
//! retry-with-backoff on transport failures. Application-level errors from
//! the back-end (bad SQL, rejected currency clause) are returned as-is and
//! never retried; transport failures that exhaust the retry budget become
//! [`rcc_common::Error::Unavailable`], which the cache degrades per the
//! session's `ViolationPolicy` — the same semantics `tests/
//! failure_injection.rs` establishes for the in-process link, now over a
//! real socket.

use crate::frame::{FramedStream, Request, Response, TraceContext, WireSpan};
use crate::pool::{BackendPool, PoolConfig};
use rcc_common::{Error, Result, Row, Schema};
use rcc_executor::{wire, RemoteService};
use rcc_obs::{Histogram, MetricsRegistry, SpanRecord, TraceRef, DEFAULT_LATENCY_BUCKETS};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Bounded retry-with-backoff for transport failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retry).
    pub attempts: u32,
    /// Sleep before the first retry; doubles after each failure.
    pub initial_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            initial_backoff: Duration::from_millis(10),
        }
    }
}

/// A [`RemoteService`] that ships SQL over pooled TCP connections.
#[derive(Debug)]
pub struct TcpRemoteService {
    pool: BackendPool,
    retry: RetryPolicy,
    metrics: OnceLock<RemoteMetrics>,
}

/// The registry the transport reports to. The one metric every call
/// touches is a held handle, resolved on the first call (so that is still
/// when it enters the exposition); the failure counters are looked up by
/// name where they happen.
#[derive(Debug)]
struct RemoteMetrics {
    registry: Arc<MetricsRegistry>,
    call_seconds: OnceLock<Histogram>,
}

/// One call attempt's failure mode: transport errors are retryable,
/// application errors are final.
enum CallError {
    Transport(io::Error),
    App(Error),
}

impl TcpRemoteService {
    /// A service dialing `addr` lazily (the first remote branch opens the
    /// first connection).
    pub fn new(
        addr: impl ToSocketAddrs,
        pool: PoolConfig,
        retry: RetryPolicy,
    ) -> io::Result<TcpRemoteService> {
        Ok(TcpRemoteService {
            pool: BackendPool::new(addr, pool)?,
            retry,
            metrics: OnceLock::new(),
        })
    }

    /// The underlying pool (occupancy inspection, draining).
    pub fn pool(&self) -> &BackendPool {
        &self.pool
    }

    /// Publish transport metrics: call latency histogram, retry/timeout/
    /// unavailable counters, and the pool occupancy gauges (to the first
    /// registry given; a transport reports to one).
    pub fn set_metrics(&self, registry: Arc<MetricsRegistry>) {
        registry.describe(
            "rcc_net_remote_call_seconds",
            "Wall time of remote calls over the TCP transport (including retries).",
        );
        registry.describe(
            "rcc_net_remote_retries_total",
            "Remote-call attempts retried after a transport failure.",
        );
        registry.describe(
            "rcc_net_remote_timeouts_total",
            "Remote-call attempts that hit the per-call deadline.",
        );
        registry.describe(
            "rcc_net_remote_unavailable_total",
            "Remote calls that exhausted every retry and degraded per policy.",
        );
        self.pool.set_metrics(&registry);
        let _ = self.metrics.set(RemoteMetrics {
            registry,
            call_seconds: OnceLock::new(),
        });
    }

    /// One framed request/response round trip on a pooled connection.
    fn call_once(
        &self,
        sql: &str,
        trace: Option<&TraceRef>,
    ) -> std::result::Result<(Schema, Vec<Row>, u64), CallError> {
        let mut conn = self.pool.checkout().map_err(CallError::Transport)?;
        match self.roundtrip(&mut conn, sql, trace) {
            Ok(out) => {
                self.pool.checkin(conn);
                Ok(out)
            }
            Err(CallError::App(e)) => {
                // the connection is still in protocol sync: reuse it
                self.pool.checkin(conn);
                Err(CallError::App(e))
            }
            Err(CallError::Transport(e)) => {
                self.pool.discard();
                Err(CallError::Transport(e))
            }
        }
    }

    fn roundtrip(
        &self,
        conn: &mut FramedStream<TcpStream>,
        sql: &str,
        trace: Option<&TraceRef>,
    ) -> std::result::Result<(Schema, Vec<Row>, u64), CallError> {
        let context = trace.map(|t| TraceContext {
            trace_id: t.id(),
            parent_depth: t.current_depth() as u32,
        });
        // remote span offsets are relative to this moment on our timeline
        let sent_at = trace.map(|t| t.elapsed());
        Request::encode_query_into(conn.begin_frame(), sql, context);
        conn.send_frame().map_err(CallError::Transport)?;
        let payload = conn
            .read_frame()
            .map_err(CallError::Transport)?
            .ok_or_else(|| {
                CallError::Transport(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "back-end closed the connection",
                ))
            })?;
        match Response::decode(payload).map_err(CallError::App)? {
            Response::ResultSet { payload, .. } => {
                let bytes = payload.len() as u64;
                let (schema, rows) = wire::decode_result(payload).map_err(CallError::App)?;
                Ok((schema, rows, bytes))
            }
            Response::ResultSetTraced { spans, payload, .. } => {
                if let (Some(t), Some(offset)) = (trace, sent_at) {
                    t.merge_spans(t.current_depth(), offset, wire_spans_to_records(spans));
                }
                let bytes = payload.len() as u64;
                let (schema, rows) = wire::decode_result(payload).map_err(CallError::App)?;
                Ok((schema, rows, bytes))
            }
            Response::Error(e) => Err(CallError::App(e)),
            other => Err(CallError::App(Error::Remote(format!(
                "unexpected back-end response frame {other:?}"
            )))),
        }
    }

    fn counter(&self, name: &str) {
        if let Some(m) = self.metrics.get() {
            m.registry.counter(name, &[]).inc();
        }
    }

    /// The shared retry loop behind both `execute_with_bytes` and
    /// `execute_traced`.
    fn execute_inner(
        &self,
        sql: &str,
        trace: Option<&TraceRef>,
    ) -> Result<(Schema, Vec<Row>, u64)> {
        let started = Instant::now();
        let mut backoff = self.retry.initial_backoff;
        let attempts = self.retry.attempts.max(1);
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.counter("rcc_net_remote_retries_total");
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match self.call_once(sql, trace) {
                Ok(out) => {
                    if let Some(m) = self.metrics.get() {
                        m.call_seconds
                            .get_or_init(|| {
                                m.registry.histogram(
                                    "rcc_net_remote_call_seconds",
                                    &[],
                                    DEFAULT_LATENCY_BUCKETS,
                                )
                            })
                            .observe(started.elapsed().as_secs_f64());
                    }
                    return Ok(out);
                }
                Err(CallError::App(e)) => return Err(e),
                Err(CallError::Transport(e)) => {
                    if matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ) {
                        self.counter("rcc_net_remote_timeouts_total");
                    }
                    last_err = Some(e);
                }
            }
        }
        self.counter("rcc_net_remote_unavailable_total");
        let detail = last_err
            .map(|e| e.to_string())
            .unwrap_or_else(|| "unknown transport failure".into());
        Err(Error::Unavailable(format!(
            "back-end at {} unreachable after {attempts} attempt(s): {detail}",
            self.pool.addr()
        )))
    }
}

/// Convert remote wire spans onto the local span-record shape (offsets
/// still relative to the remote request; the caller re-bases them).
fn wire_spans_to_records(spans: Vec<WireSpan>) -> Vec<SpanRecord> {
    spans
        .into_iter()
        .map(|s| SpanRecord {
            name: s.name,
            depth: s.depth as usize,
            start: Duration::from_micros(s.start_us),
            elapsed: Duration::from_micros(s.elapsed_us),
        })
        .collect()
}

impl RemoteService for TcpRemoteService {
    fn execute(&self, sql: &str) -> Result<(Schema, Vec<Row>)> {
        self.execute_with_bytes(sql)
            .map(|(schema, rows, _)| (schema, rows))
    }

    fn execute_with_bytes(&self, sql: &str) -> Result<(Schema, Vec<Row>, u64)> {
        self.execute_inner(sql, None)
    }

    fn execute_traced(
        &self,
        sql: &str,
        trace: Option<&TraceRef>,
    ) -> Result<(Schema, Vec<Row>, u64)> {
        match trace {
            Some(t) => {
                // everything below — retries included — nests under one span
                let _call = t.span("remote_call");
                self.execute_inner(sql, trace)
            }
            None => self.execute_inner(sql, None),
        }
    }
}
