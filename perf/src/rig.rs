//! The system under test: the same in-process rig `rccd` wires, served
//! over real loopback TCP.

use rcc_executor::RemoteService;
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_mtcache::MTCache;
use rcc_net::{
    BackendNetServer, ClientConfig, NetClient, NetServer, NetServerConfig, PoolConfig, RetryPolicy,
    TcpRemoteService,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TPC-D scale factor of every measured run (30 000 customers, ≈300 000
/// orders). Fixed: it is part of what the numbers mean.
pub const SCALE: f64 = 0.2;
/// Seed of the TPC-D data generator. Fixed, and distinct from `--seed`,
/// which drives the statement streams only.
pub const DATA_SEED: u64 = 42;

/// Cache + back-end behind its own listener + TCP front-end + one client.
pub struct Rig {
    pub cache: Arc<MTCache>,
    pub remote: Arc<TcpRemoteService>,
    pub client: NetClient,
    /// Wall time [`Rig::boot`] took: build, load, `ANALYZE`, views,
    /// `warm_up`, both listeners, and the client's connect.
    pub setup: Duration,
    front: NetServer,
    backend_srv: BackendNetServer,
}

impl Rig {
    /// Build the paper rig at `scale` and put it on the wire, as
    /// `rccd::run` does.
    pub fn boot(scale: f64) -> Result<Rig, String> {
        let started = Instant::now();
        let cache = paper_setup(scale, DATA_SEED).map_err(|e| format!("paper_setup: {e}"))?;
        warm_up(&cache).map_err(|e| format!("warm_up: {e}"))?;
        let cache = Arc::new(cache);
        let backend_srv = BackendNetServer::spawn(Arc::clone(cache.backend()), "127.0.0.1:0")
            .map_err(|e| format!("back-end listener: {e}"))?;
        let remote = Arc::new(
            TcpRemoteService::new(
                backend_srv.addr(),
                PoolConfig::default(),
                RetryPolicy::default(),
            )
            .map_err(|e| format!("remote service: {e}"))?,
        );
        remote.set_metrics(Arc::clone(cache.metrics()));
        cache.set_remote_service(Some(Arc::clone(&remote) as Arc<dyn RemoteService>));
        let front = NetServer::spawn(
            Arc::clone(&cache),
            "127.0.0.1:0",
            NetServerConfig::default(),
        )
        .map_err(|e| format!("front-end listener: {e}"))?;
        let client = NetClient::connect(front.addr(), &ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Rig {
            cache,
            remote,
            client,
            setup: started.elapsed(),
            front,
            backend_srv,
        })
    }

    /// The front-end's address, for a second connection.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.front.addr()
    }

    /// Largest `c_custkey` loaded.
    pub fn max_custkey(&self) -> i64 {
        self.cache.catalog().stats("customer").row_count as i64
    }

    /// Close the client, stop both servers and join their threads.
    pub fn shutdown(self) {
        let Rig {
            cache,
            remote,
            client,
            mut front,
            mut backend_srv,
            ..
        } = self;
        drop(client);
        front.shutdown();
        cache.set_remote_service(None);
        remote.pool().drain();
        backend_srv.shutdown();
    }
}
