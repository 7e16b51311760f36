//! A long-lived server must not keep what its finished connections used.
//!
//! Each of the three listeners serves 200 connections one after another.
//! A connection thread that exited but was never joined keeps its stack
//! mapped (about two lines of `/proc/self/maps` each), so a server that
//! holds the handle of every connection it ever served grows by some
//! 1 200 lines here; one that reaps finished threads stays flat. This is
//! its own test binary so that no other test's threads move the count.
#![cfg(target_os = "linux")]

use rcc_mtcache::MTCache;
use rcc_net::{
    read_frame, write_frame, AdminServer, BackendNetServer, ClientConfig, NetClient, NetServer,
    NetServerConfig, Request, Response,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

const CONNECTIONS: usize = 200;

/// Fewer than this many new mappings after all connections: room for the
/// few threads still open and glibc's cache of freed stacks, far below
/// the two per connection that unjoined threads keep.
const MAX_GROWTH: usize = 150;

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

fn front_ping(addr: SocketAddr) {
    let mut client = NetClient::connect(addr, &ClientConfig::default()).expect("connect");
    client.ping().expect("front-end ping");
}

fn backend_ping(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, &Request::Ping.encode()).expect("write ping");
    let payload = read_frame(&mut stream)
        .expect("read pong")
        .expect("a frame before EOF");
    assert_eq!(Response::decode(payload).expect("decode"), Response::Pong);
}

fn admin_healthz(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .expect("write request");
    let mut answer = String::new();
    stream.read_to_string(&mut answer).expect("read answer");
    assert!(answer.starts_with("HTTP/1.0 200"), "{answer}");
    assert!(answer.contains("\"status\":\"ok\""), "{answer}");
}

#[test]
fn finished_connection_threads_are_reaped() {
    let cache = Arc::new(MTCache::new());
    let mut front = NetServer::spawn(
        Arc::clone(&cache),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("front-end");
    let mut backend =
        BackendNetServer::spawn(Arc::clone(cache.backend()), "127.0.0.1:0").expect("back-end");
    let mut admin = AdminServer::spawn(Arc::clone(&cache), None, "127.0.0.1:0").expect("admin");

    // one of each first, so lazily built state (metric handles, allocator
    // arenas) is already there when the count starts
    front_ping(front.addr());
    backend_ping(backend.addr());
    admin_healthz(admin.addr());

    let before = mappings();
    for _ in 0..CONNECTIONS {
        front_ping(front.addr());
        backend_ping(backend.addr());
        admin_healthz(admin.addr());
    }
    let growth = mappings().saturating_sub(before);
    println!("{} connections: {growth} new mappings", 3 * CONNECTIONS);
    assert!(
        growth < MAX_GROWTH,
        "{} connections left {growth} new mappings behind (limit {MAX_GROWTH})",
        3 * CONNECTIONS
    );

    // reaping took nothing that is still in use
    front_ping(front.addr());
    backend_ping(backend.addr());
    admin_healthz(admin.addr());
    front.shutdown();
    backend.shutdown();
    admin.shutdown();
}
