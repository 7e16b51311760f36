//! A connection pool for the back-end transport.
//!
//! Plain blocking TCP: a checkout pops an idle connection (or dials a new
//! one under a connect timeout), a checkin returns it for reuse up to the
//! pool cap, and any I/O error discards it instead of poisoning the pool.
//! The read/write deadlines are set once, when a connection is dialed:
//! nothing else ever changes them on a pooled socket, so every later use
//! is bounded by `io_timeout` without a `setsockopt` per call.
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
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Tuning for [`BackendPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum idle sockets kept for reuse. Checkouts beyond the cap dial
    /// fresh connections (closed-loop callers self-limit concurrency).
    pub max_idle: usize,
    /// Dial timeout for new connections.
    pub connect_timeout: Duration,
    /// Read/write deadline of every pooled socket: bounds each read and
    /// each write of every call made on it.
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
    /// `rcc_net_pool_idle`, `rcc_net_pool_in_use`.
    gauges: OnceLock<(Gauge, Gauge)>,
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
            gauges: OnceLock::new(),
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

    /// Publish `rcc_net_pool_idle` / `rcc_net_pool_in_use` gauges (to the
    /// first registry given).
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
        let _ = self.gauges.set((idle, in_use));
    }

    /// `idle` is the idle list's length as the caller, who just held its
    /// lock, left it.
    fn publish(&self, idle: usize) {
        if let Some((idle_gauge, in_use)) = self.gauges.get() {
            idle_gauge.set(idle as f64);
            in_use.set(self.in_use.load(Ordering::Relaxed) as f64);
        }
    }

    /// Get a connection: an idle one if available, otherwise a fresh dial
    /// under the connect timeout, with the read/write deadlines set.
    pub fn checkout(&self) -> io::Result<FramedStream<TcpStream>> {
        let (reused, idle) = {
            let mut idle = self.idle.lock();
            (idle.pop(), idle.len())
        };
        let conn = match reused {
            Some(c) => c,
            None => {
                let s = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(self.cfg.io_timeout))?;
                s.set_write_timeout(Some(self.cfg.io_timeout))?;
                FramedStream::new(s)
            }
        };
        self.in_use.fetch_add(1, Ordering::Relaxed);
        self.publish(idle);
        Ok(conn)
    }

    /// Return a healthy connection for reuse. It is dropped instead if the
    /// idle list is at its cap, or if its read buffer still holds bytes: a
    /// response was fully read, so anything further is the peer out of
    /// protocol sync.
    pub fn checkin(&self, conn: FramedStream<TcpStream>) {
        let idle = {
            let mut idle = self.idle.lock();
            if !conn.has_unread() && idle.len() < self.cfg.max_idle {
                idle.push(conn);
            }
            idle.len()
        };
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        self.publish(idle);
    }

    /// Drop a connection that saw an I/O error (never reused).
    pub fn discard(&self) {
        self.in_use.fetch_sub(1, Ordering::Relaxed);
        self.publish(self.idle.lock().len());
    }

    /// Close all idle connections (new checkouts will dial again).
    pub fn drain(&self) {
        self.idle.lock().clear();
        self.publish(0);
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
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::time::Instant;

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

    #[test]
    fn deadlines_set_at_dial_still_bound_a_reused_connection() {
        // The peer answers the first request whole; of the second response
        // it sends all but the last byte, then stalls until told to go on. It takes each request with one `read` and
        // insists the whole frame is there: the caller sent it with one
        // `write`.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (release, released) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let mut framed = Vec::new();
            write_frame(&mut framed, &Request::Ping.encode()).unwrap();
            let mut pong = Vec::new();
            write_frame(&mut pong, &Response::Pong.encode()).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            for stall in [false, true] {
                let n = stream.read(&mut buf).unwrap();
                assert_eq!(&buf[..n], &framed[..], "one request, one write");
                if stall {
                    stream.write_all(&pong[..pong.len() - 1]).unwrap();
                    released.recv().unwrap();
                } else {
                    stream.write_all(&pong).unwrap();
                }
            }
            // the retry arrives on a connection of its own
            let (mut stream, _) = listener.accept().unwrap();
            let n = stream.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], &framed[..]);
            stream.write_all(&pong).unwrap();
        });

        let io_timeout = Duration::from_millis(200);
        // (the kernel keeps a deadline in whole timer ticks)
        let set_at_dial = |got: Option<Duration>| {
            let got = got.expect("a deadline is set");
            assert!(
                got >= io_timeout && got < io_timeout + Duration::from_millis(10),
                "{got:?}"
            );
        };
        let pool = BackendPool::new(
            addr,
            PoolConfig {
                io_timeout,
                ..PoolConfig::default()
            },
        )
        .unwrap();
        let mut conn = pool.checkout().unwrap();
        ping(&mut conn);
        let local = conn.get_ref().local_addr().unwrap();
        pool.checkin(conn);

        // second use of the pooled socket: no `setsockopt` since the dial,
        // and the deadlines are the ones set then
        let mut conn = pool.checkout().unwrap();
        assert_eq!(conn.get_ref().local_addr().unwrap(), local, "reused");
        set_at_dial(conn.get_ref().read_timeout().unwrap());
        set_at_dial(conn.get_ref().write_timeout().unwrap());
        Request::Ping.encode_into(conn.begin_frame());
        conn.send_frame().unwrap();
        let started = Instant::now();
        let err = conn.read_frame().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "{err}"
        );
        assert!(started.elapsed() >= io_timeout);
        assert!(started.elapsed() < io_timeout * 20, "bounded by io_timeout");
        drop(conn);
        pool.discard();
        assert_eq!(pool.occupancy(), (0, 0));
        release.send(()).unwrap();

        // the retry dials again, with the same deadlines
        let mut conn = pool.checkout().unwrap();
        assert_ne!(conn.get_ref().local_addr().unwrap(), local, "a new socket");
        set_at_dial(conn.get_ref().read_timeout().unwrap());
        ping(&mut conn);
        pool.checkin(conn);
        assert_eq!(pool.occupancy(), (1, 0));
        server.join().unwrap();
    }
}
