//! A blocking client for the cache front-end — what `rccsh` and the load
//! generator speak.

use crate::frame::{FramedStream, Request, Response};
use rcc_common::{Error, Result, Row, Schema};
use rcc_executor::wire;
use rcc_mtcache::ViolationPolicy;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side socket tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Dial timeout.
    pub connect_timeout: Duration,
    /// Per-request read/write deadline.
    pub io_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// One query's answer, decoded from the wire.
#[derive(Debug, Clone)]
pub struct NetQueryResult {
    /// Output schema (wire-level: no binding qualifiers).
    pub schema: Schema,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Did the cache contact the back-end for this query?
    pub used_remote: bool,
    /// Warnings attached by the server (e.g. stale data served).
    pub warnings: Vec<String>,
    /// Size of the wire-encoded result payload.
    pub wire_bytes: u64,
}

/// A blocking connection to a [`crate::NetServer`].
#[derive(Debug)]
pub struct NetClient {
    conn: FramedStream<TcpStream>,
}

impl NetClient {
    /// Connect to `addr` under the config's dial timeout.
    pub fn connect(addr: impl ToSocketAddrs, cfg: &ClientConfig) -> Result<NetClient> {
        let addr = resolve(addr)?;
        let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)
            .map_err(|e| Error::Unavailable(format!("connect to {addr}: {e}")))?;
        Self::from_stream(stream, cfg)
    }

    /// Connect, retrying for up to `total` (for freshly started servers:
    /// the CI smoke test races `rccd`'s bind).
    pub fn connect_retry(
        addr: impl ToSocketAddrs,
        cfg: &ClientConfig,
        total: Duration,
    ) -> Result<NetClient> {
        let addr = resolve(addr)?;
        let deadline = Instant::now() + total;
        loop {
            match TcpStream::connect_timeout(&addr, cfg.connect_timeout) {
                Ok(stream) => return Self::from_stream(stream, cfg),
                Err(e) if Instant::now() >= deadline => {
                    return Err(Error::Unavailable(format!(
                        "connect to {addr} (retried {total:?}): {e}"
                    )))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    }

    fn from_stream(stream: TcpStream, cfg: &ClientConfig) -> Result<NetClient> {
        stream
            .set_read_timeout(Some(cfg.io_timeout))
            .and_then(|_| stream.set_write_timeout(Some(cfg.io_timeout)))
            .and_then(|_| stream.set_nodelay(true))
            .map_err(|e| Error::Unavailable(format!("socket setup: {e}")))?;
        Ok(NetClient {
            conn: FramedStream::new(stream),
        })
    }

    /// The peer address.
    pub fn peer_addr(&self) -> Option<SocketAddr> {
        self.conn.get_ref().peer_addr().ok()
    }

    /// Execute one SQL statement.
    pub fn query(&mut self, sql: &str) -> Result<NetQueryResult> {
        let resp = self.roundtrip(&Request::Query {
            sql: sql.to_string(),
        })?;
        match resp {
            Response::ResultSet {
                used_remote,
                warnings,
                payload,
            } => {
                let wire_bytes = payload.len() as u64;
                let (schema, rows) = wire::decode_result(payload)?;
                Ok(NetQueryResult {
                    schema,
                    rows,
                    used_remote,
                    warnings,
                    wire_bytes,
                })
            }
            Response::Error(e) => Err(e),
            other => Err(Error::Remote(format!(
                "unexpected response to a query: {other:?}"
            ))),
        }
    }

    /// Set a session option on the server side.
    pub fn set_option(&mut self, name: &str, value: &str) -> Result<()> {
        match self.roundtrip(&Request::SetOption {
            name: name.to_string(),
            value: value.to_string(),
        })? {
            Response::Ok => Ok(()),
            Response::Error(e) => Err(e),
            other => Err(Error::Remote(format!(
                "unexpected response to SetOption: {other:?}"
            ))),
        }
    }

    /// Set this session's violation policy.
    pub fn set_policy(&mut self, policy: ViolationPolicy) -> Result<()> {
        let value = match policy {
            ViolationPolicy::Reject => "reject",
            ViolationPolicy::ServeStale => "serve_stale",
        };
        self.set_option("violation_policy", value)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error(e) => Err(e),
            other => Err(Error::Remote(format!(
                "unexpected response to Ping: {other:?}"
            ))),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        req.encode_into(self.conn.begin_frame());
        self.conn.send_frame().map_err(io_unavailable)?;
        let payload = self
            .conn
            .read_frame()
            .map_err(io_unavailable)?
            .ok_or_else(|| Error::Unavailable("server closed the connection".into()))?;
        Response::decode(payload)
    }
}

fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr> {
    addr.to_socket_addrs()
        .map_err(|e| Error::Unavailable(format!("bad address: {e}")))?
        .next()
        .ok_or_else(|| Error::Unavailable("address resolved to nothing".into()))
}

fn io_unavailable(e: io::Error) -> Error {
    Error::Unavailable(format!("transport failure: {e}"))
}
