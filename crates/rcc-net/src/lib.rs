#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! The network layer for the RC&C mid-tier cache.
//!
//! The paper's MTCache is a server real clients connect to over a network;
//! this crate makes the reproduction run in that shape. Three pieces, all
//! speaking the same length-prefixed framed protocol ([`frame`]):
//!
//! * [`NetServer`] — the cache front-end: a multi-threaded TCP server
//!   exposing one [`rcc_mtcache::MTCache`] to many concurrent client
//!   sessions, with a bounded accept pool and graceful shutdown. Each
//!   connection owns a server-side session, so currency options are
//!   per-client.
//! * [`BackendNetServer`] + [`TcpRemoteService`] — the back-end
//!   transport: the cache's remote branch ships SQL over pooled TCP
//!   connections to a [`rcc_mtcache::BackendServer`] running in another
//!   thread or process, with per-call deadlines and bounded
//!   retry-with-backoff. When the back-end is unreachable the call
//!   degrades per the session's `ViolationPolicy` instead of hanging.
//! * [`NetClient`] — a blocking client; the `rccsh` shell and the
//!   `net_load` generator are thin wrappers around it.
//!
//! Everything reports into `rcc-obs`: connection gauges, request/latency
//! histograms, retry/timeout counters, and pool occupancy.

mod accept;
pub mod admin;
pub mod backend_net;
pub mod client;
pub mod frame;
pub mod pool;
pub mod remote;
pub mod server;
pub mod tags;

pub use admin::AdminServer;
pub use backend_net::BackendNetServer;
pub use client::{ClientConfig, NetClient, NetQueryResult};
pub use frame::{read_frame, write_frame, FramedStream, Request, Response, MAX_FRAME_LEN};
pub use pool::{BackendPool, PoolConfig};
pub use remote::{RetryPolicy, TcpRemoteService};
pub use server::{NetServer, NetServerConfig};
