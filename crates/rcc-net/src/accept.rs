//! The connection skeleton all three listeners run on: the listener, the
//! accept thread and a thread per connection, with the handles of finished
//! connection threads dropped at the next accept, so their number never
//! exceeds the peak of open connections plus one. A [`Service`] says how a
//! connection is served; [`serve_frames`] is the loop of the two framed
//! servers (front-end and back-end).

use crate::frame::FramedStream;
use bytes::Bytes;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked reads wake up to check the shutdown flag, and how
/// long the accept thread waits after a failed `accept`.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// What a listener does with the connections it accepts.
pub(crate) trait Service: Send + Sync + 'static {
    /// Serve one connection, on its own thread, until it ends or `stop`
    /// is set. The socket has a [`POLL_INTERVAL`] read timeout and
    /// `TCP_NODELAY`.
    fn serve(&self, stream: TcpStream, stop: &AtomicBool);

    /// Turn away, on the accept thread, a connection beyond the limit.
    fn refuse(&self, _stream: TcpStream) {}
}

/// A listening socket served by one accept thread and a thread per
/// connection. Dropping it shuts it down.
#[derive(Debug)]
pub(crate) struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Bind `bind` and serve each connection with `service` on a thread
    /// `{name}-conn`, accepted by a thread `{name}-accept`; with `limit`
    /// open, a new connection goes to [`Service::refuse`] instead.
    pub(crate) fn spawn<S: Service>(
        bind: &str,
        name: &str,
        limit: Option<usize>,
        service: Arc<S>,
    ) -> io::Result<Acceptor> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let conn_name = format!("{name}-conn");
        let accept = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&listener, &accept_stop, limit, &service, &conn_name))?;
        Ok(Acceptor {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, let the open connections finish (idle ones notice
    /// the flag within one poll interval) and join every thread.
    pub(crate) fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // unblock the accept loop with a throwaway connection
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        let _ = accept.join();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<S: Service>(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    limit: Option<usize>,
    service: &Arc<S>,
    conn_name: &str,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // out of descriptors, say: retrying at once would spin a core
            std::thread::sleep(POLL_INTERVAL);
            continue;
        };
        // a finished thread's handle goes here, not at shutdown: an
        // exited thread nobody joins keeps its stack mapped
        conns.retain(|conn| !conn.is_finished());
        if limit.is_some_and(|max| conns.len() >= max) {
            service.refuse(stream);
            continue;
        }
        let service = Arc::clone(service);
        let stop = Arc::clone(stop);
        if let Ok(conn) = std::thread::Builder::new()
            .name(conn_name.to_string())
            .spawn(move || {
                if stream.set_read_timeout(Some(POLL_INTERVAL)).is_ok()
                    && stream.set_nodelay(true).is_ok()
                {
                    service.serve(stream, &stop);
                }
            })
        {
            conns.push(conn);
        }
    }
    for conn in conns {
        let _ = conn.join();
    }
}

/// Serve one framed connection until the peer leaves, the transport fails
/// or `stop` is set: `answer` appends each request's response to the frame
/// under assembly, and `sent` gets what it returned once that frame has
/// left in one write (or failed to).
pub(crate) fn serve_frames<S: Read + Write, T>(
    mut conn: FramedStream<S>,
    stop: &AtomicBool,
    frame_timeout: Duration,
    mut answer: impl FnMut(Bytes, &mut Vec<u8>) -> T,
    mut sent: impl FnMut(T),
) {
    let stop = || stop.load(Ordering::SeqCst);
    while let Ok(Some(request)) = conn.read_frame_interruptible(&stop, frame_timeout) {
        let token = answer(request, conn.begin_frame());
        let written = conn.send_frame();
        sent(token);
        if written.is_err() {
            break;
        }
    }
}
