//! The back-end transport server: a [`BackendServer`] behind a socket.
//!
//! Accepts framed [`Request::Query`] messages carrying SQL shipped from
//! the cache and answers with the wire-encoded result set — the payload
//! [`rcc_mtcache::BackendServer::query_wire`] produces, shipped verbatim.
//! Taking ownership of the back-end's traffic pins its network model to
//! [`NetworkModel::Real`], so the simulated-latency knobs can never stack
//! on top of real socket time (they are ignored from then on).

use crate::frame::{FramedStream, Request, Response, WireSpan};
use crate::server::POLL_INTERVAL;
use parking_lot::Mutex;
use rcc_common::{Error, NetworkModel};
use rcc_mtcache::BackendServer;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Mid-frame delivery deadline for back-end connections.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// A TCP server exposing one [`BackendServer`] to remote caches.
#[derive(Debug)]
pub struct BackendNetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl BackendNetServer {
    /// Bind `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `backend` from a background accept thread, one thread per
    /// connection.
    pub fn spawn(backend: Arc<BackendServer>, bind: &str) -> io::Result<BackendNetServer> {
        // a real transport now owns this back-end's traffic: disable the
        // simulated network so latency is never double-counted
        backend.set_network_model(NetworkModel::Real);
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("rcc-backend-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let backend = Arc::clone(&backend);
                        let shutdown = Arc::clone(&shutdown);
                        if let Ok(handle) = std::thread::Builder::new()
                            .name("rcc-backend-conn".into())
                            .spawn(move || handle_conn(backend, stream, shutdown))
                        {
                            conns.lock().push(handle);
                        }
                    }
                })?
        };
        Ok(BackendNetServer {
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

    /// Stop accepting, unblock the accept thread, and join every
    /// connection thread. In-flight requests finish; idle connections
    /// observe the flag within one poll interval.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.conns.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for BackendNetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_conn(backend: Arc<BackendServer>, stream: TcpStream, shutdown: Arc<AtomicBool>) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut conn = FramedStream::new(stream);
    let stop = || shutdown.load(Ordering::SeqCst);
    while let Ok(Some(payload)) = conn.read_frame_interruptible(&stop, FRAME_TIMEOUT) {
        let response = match Request::decode(payload) {
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
        };
        response.encode_into(conn.begin_frame());
        if conn.send_frame().is_err() {
            break;
        }
    }
}
