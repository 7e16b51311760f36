//! A connection pool for the back-end transport.
//!
//! Plain blocking TCP: a checkout pops an idle connection (or dials a new
//! one under a connect timeout), a checkin returns it for reuse up to the
//! pool cap, and any I/O error discards it instead of poisoning the pool.
//! A pooled connection is a [`FramedStream`]: its frame buffers travel with
//! the socket, and one that comes back with unread bytes is out of
//! protocol sync and is dropped, not reused. Occupancy is published as
//! `rcc_net_pool_idle` / `rcc_net_pool_in_use` gauges.

use crate::frame::FramedStream;
use parking_lot::Mutex;
use rcc_obs::{Gauge, MetricsRegistry};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for [`BackendPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum idle sockets kept for reuse. Checkouts beyond the cap dial
    /// fresh connections (closed-loop callers self-limit concurrency).
    pub max_idle: usize,
    /// Dial timeout for new connections.
    pub connect_timeout: Duration,
    /// Per-call read/write deadline applied to every pooled socket.
    pub io_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_idle: 8,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// A pool of TCP connections to one back-end address.
#[derive(Debug)]
pub struct BackendPool {
    addr: SocketAddr,
    cfg: PoolConfig,
    idle: Mutex<Vec<FramedStream<TcpStream>>>,
    in_use: AtomicUsize,
    gauges: Mutex<Option<(Gauge, Gauge)>>,
}

impl BackendPool {
    /// A pool dialing `addr`. The address is resolved once, eagerly, so a
    /// bad address fails at construction rather than on first query.
    pub fn new(addr: impl ToSocketAddrs, cfg: PoolConfig) -> io::Result<BackendPool> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Ok(BackendPool {
            addr,
            cfg,
            idle: Mutex::new(Vec::new()),
            in_use: AtomicUsize::new(0),
            gauges: Mutex::new(None),
        })
    }

    /// The resolved back-end address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Publish `rcc_net_pool_idle` / `rcc_net_pool_in_use` gauges.
    pub fn set_metrics(&self, registry: &Arc<MetricsRegistry>) {
        registry.describe(
            "rcc_net_pool_idle",
            "Idle pooled TCP connections to the back-end.",
        );
        registry.describe(
            "rcc_net_pool_in_use",
            "Pooled TCP connections currently executing a remote call.",
        );
        let idle = registry.gauge("rcc_net_pool_idle", &[]);
        let in_use = registry.gauge("rcc_net_pool_in_use", &[]);
        *self.gauges.lock() = Some((idle, in_use));
    }

    fn publish(&self) {
        if let Some((idle, in_use)) = &*self.gauges.lock() {
            idle.set(self.idle.lock().len() as f64);
            in_use.set(self.in_use.load(Ordering::Relaxed) as f64);
        }
    }

    /// Get a connection: an idle one if available, otherwise a fresh dial
    /// under the connect timeout. Read/write deadlines are (re)applied.
    pub fn checkout(&self) -> io::Result<FramedStream<TcpStream>> {
        let reused = self.idle.lock().pop();
        let conn = match reused {
            Some(c) => c,
            None => {
                let s = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
                s.set_nodelay(true)?;
                FramedStream::new(s)
            }
        };
        conn.get_ref().set_read_timeout(Some(self.cfg.io_timeout))?;
        conn.get_ref()
            .set_write_timeout(Some(self.cfg.io_timeout))?;
        self.in_use.fetch_add(1, Ordering::Relaxed);
        self.publish();
        Ok(conn)
    }

    /// Return a healthy connection for reuse. It is dropped instead if the
    /// idle list is at its cap, or if its read buffer still holds bytes: a
    /// response was fully read, so anything further is the peer out of
    /// protocol sync.
    pub fn checkin(&self, conn: FramedStream<TcpStream>) {
        if !conn.has_unread() {
            let mut idle = self.idle.lock();
            if idle.len() < self.cfg.max_idle {
                idle.push(conn);
            }
        }
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        self.publish();
    }

    /// Drop a connection that saw an I/O error (never reused).
    pub fn discard(&self) {
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        self.publish();
    }

    /// Close all idle connections (new checkouts will dial again).
    pub fn drain(&self) {
        self.idle.lock().clear();
        self.publish();
    }

    /// (idle, in-use) connection counts.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.idle.lock().len(), self.in_use.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, Request, Response};
    use std::io::Write;
    use std::net::TcpListener;

    /// A back-end that answers every request with `Pong`, and — when told
    /// to misbehave — pushes three more bytes behind it in the same write.
    fn peer(chatty: bool) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            while let Ok(Some(_request)) = read_frame(&mut stream) {
                let mut wire = Vec::new();
                write_frame(&mut wire, &Response::Pong.encode()).unwrap();
                if chatty {
                    wire.extend_from_slice(b"???");
                }
                stream.write_all(&wire).unwrap();
            }
        });
        (addr, handle)
    }

    fn ping(conn: &mut FramedStream<TcpStream>) {
        Request::Ping.encode_into(conn.begin_frame());
        conn.send_frame().unwrap();
        let payload = conn.read_frame().unwrap().unwrap();
        assert_eq!(Response::decode(payload).unwrap(), Response::Pong);
    }

    #[test]
    fn a_connection_with_leftover_bytes_is_discarded_not_reused() {
        // in sync: the connection, its buffers with it, goes back and is
        // the one handed out next
        let (addr, server) = peer(false);
        let pool = BackendPool::new(addr, PoolConfig::default()).unwrap();
        let mut conn = pool.checkout().unwrap();
        ping(&mut conn);
        let local = conn.get_ref().local_addr().unwrap();
        pool.checkin(conn);
        assert_eq!(pool.occupancy(), (1, 0));
        let mut conn = pool.checkout().unwrap();
        assert_eq!(conn.get_ref().local_addr().unwrap(), local, "reused");
        ping(&mut conn);
        drop(conn);
        pool.discard();
        server.join().unwrap();

        // out of sync: the response was read whole and bytes are left over
        let (addr, server) = peer(true);
        let pool = BackendPool::new(addr, PoolConfig::default()).unwrap();
        let mut conn = pool.checkout().unwrap();
        ping(&mut conn);
        assert!(conn.has_unread(), "the stray bytes came in the same read");
        pool.checkin(conn);
        assert_eq!(pool.occupancy(), (0, 0), "dropped, and not counted in use");
        server.join().unwrap();
    }
}
