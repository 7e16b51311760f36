//! The back-end transport server: a [`BackendServer`] behind a socket.
//!
//! Accepts framed [`Request::Query`] messages carrying SQL shipped from
//! the cache and answers with the wire-encoded result set — the payload
//! [`rcc_mtcache::BackendServer::query_wire`] produces, shipped verbatim.
//! Taking ownership of the back-end's traffic pins its network model to
//! [`NetworkModel::Real`], so the simulated-latency knobs can never stack
//! on top of real socket time (they are ignored from then on).
//!
//! It shares the crate's one connection skeleton (`accept.rs`) and framed
//! serve loop with the front-end: a thread per connection, reaped at the
//! next accept once finished. Unlike the front-end it is unbounded;
//! bounding it against hostile peers is ROADMAP item 4.

use crate::accept::{serve_frames, Acceptor, Service};
use crate::frame::{FramedStream, Request, Response, WireSpan};
use bytes::Bytes;
use rcc_common::{Error, NetworkModel};
use rcc_mtcache::BackendServer;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Mid-frame delivery deadline for back-end connections.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// A TCP server exposing one [`BackendServer`] to remote caches.
#[derive(Debug)]
pub struct BackendNetServer {
    acceptor: Acceptor,
}

impl BackendNetServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `backend` from a background accept thread, one thread per
    /// connection.
    pub fn spawn(backend: Arc<BackendServer>, bind: &str) -> io::Result<BackendNetServer> {
        // a real transport now owns this back-end's traffic: disable the
        // simulated network so latency is never double-counted
        backend.set_network_model(NetworkModel::Real);
        Ok(BackendNetServer {
            acceptor: Acceptor::spawn(bind, "rcc-backend", None, backend)?,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stop accepting, unblock the accept thread, and join every
    /// connection thread. In-flight requests finish; idle connections
    /// observe the flag within one poll interval.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

impl Service for BackendServer {
    fn serve(&self, stream: TcpStream, stop: &AtomicBool) {
        let answer = |request, out: &mut Vec<u8>| respond(self, request).encode_into(out);
        serve_frames(FramedStream::new(stream), stop, FRAME_TIMEOUT, answer, drop);
    }
}

fn respond(backend: &BackendServer, request: Bytes) -> Response {
    match Request::decode(request) {
        Ok(Request::Query { sql }) => match backend.query_wire(&sql) {
            Ok(result_payload) => Response::ResultSet {
                used_remote: false,
                warnings: Vec::new(),
                payload: result_payload,
            },
            Err(e) => Response::Error(e),
        },
        // the trace context is the caller's to keep: the spans go back
        // relative to this request's own start and are re-based there
        Ok(Request::QueryTraced { sql, trace: _ }) => match backend.query_wire_traced(&sql) {
            Ok((result_payload, phases)) => Response::ResultSetTraced {
                used_remote: false,
                warnings: Vec::new(),
                spans: phases
                    .into_iter()
                    .map(|p| WireSpan {
                        name: p.name.to_string(),
                        depth: 0,
                        start_us: p.start.as_micros() as u64,
                        elapsed_us: p.elapsed.as_micros() as u64,
                    })
                    .collect(),
                payload: result_payload,
            },
            Err(e) => Response::Error(e),
        },
        Ok(Request::Ping) => Response::Pong,
        Ok(Request::SetOption { name, .. }) => Response::Error(Error::Config(format!(
            "the back-end transport has no session options (got {name})"
        ))),
        Err(e) => Response::Error(e),
    }
}
