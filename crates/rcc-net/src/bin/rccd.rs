//! `rccd` — the cache server daemon.
//!
//! Boots the paper's rig (cache DBMS + back-end server), puts the back-end
//! behind its own TCP listener, rewires the cache's remote branch through
//! the pooled TCP transport, and serves client sessions on the front-end
//! port. A wall-clock pump advances the simulated replication clock so
//! currency-region heartbeats stay live while the process runs. Each
//! connection's statements run on its own thread, every scan on that
//! thread.
//!
//! ```text
//! rccd [--listen ADDR] [--backend-listen ADDR] [--admin-addr ADDR]
//!      [--scale F] [--seed N] [--max-connections N]
//!      [--data-dir PATH] [--wal-sync always|group|never]
//!      [--checkpoint-secs N]
//! ```
//!
//! With `--data-dir` the back-end runs durably: commits are written ahead
//! to `PATH/wal.log` before publishing, a checkpoint is written to
//! `PATH/pages.db` every `--checkpoint-secs` of simulated time (0
//! disables), and a restart from the same directory recovers committed
//! tables plus per-region replication watermarks, so currency accounting
//! resumes where it left off. Without the flag everything stays in memory.
//!
//! With `--admin-addr`, `POST /shutdown` on the admin endpoint stops the
//! daemon gracefully: a final checkpoint is written (durable mode) before
//! the process exits cleanly.

use rcc_mtcache::paper::{paper_setup, paper_setup_durable, warm_up, DurabilityOptions};
use rcc_net::{
    AdminServer, BackendNetServer, NetServer, NetServerConfig, PoolConfig, RetryPolicy,
    TcpRemoteService,
};
use rcc_storage::SyncPolicy;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Options {
    listen: String,
    backend_listen: String,
    admin: Option<String>,
    scale: f64,
    seed: u64,
    max_connections: usize,
    data_dir: Option<std::path::PathBuf>,
    wal_sync: SyncPolicy,
    checkpoint_secs: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            listen: "127.0.0.1:7878".into(),
            backend_listen: "127.0.0.1:0".into(),
            admin: None,
            scale: 0.01,
            seed: 42,
            max_connections: NetServerConfig::default().max_connections,
            data_dir: None,
            wal_sync: SyncPolicy::Always,
            checkpoint_secs: 60,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--backend-listen" => opts.backend_listen = value("--backend-listen")?,
            "--admin-addr" => opts.admin = Some(value("--admin-addr")?),
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--max-connections" => {
                opts.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--data-dir" => opts.data_dir = Some(value("--data-dir")?.into()),
            "--wal-sync" => {
                opts.wal_sync = match value("--wal-sync")?.as_str() {
                    "always" => SyncPolicy::Always,
                    "group" => SyncPolicy::Group,
                    "never" => SyncPolicy::Never,
                    other => {
                        return Err(format!(
                            "--wal-sync: expected always|group|never, got {other}"
                        ))
                    }
                }
            }
            "--checkpoint-secs" => {
                opts.checkpoint_secs = value("--checkpoint-secs")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-secs: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "usage: rccd [--listen ADDR] [--backend-listen ADDR] \
                     [--admin-addr ADDR] [--scale F] [--seed N] \
                     [--max-connections N] \
                     [--data-dir PATH] [--wal-sync always|group|never] \
                     [--checkpoint-secs N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rccd: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rccd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: Options) -> Result<(), String> {
    eprintln!(
        "rccd: building the paper rig (scale {}, seed {})...",
        opts.scale, opts.seed
    );
    let cache = match &opts.data_dir {
        Some(dir) => {
            eprintln!(
                "rccd: durable back-end at {} (wal-sync {:?}, checkpoint every {}s)",
                dir.display(),
                opts.wal_sync,
                opts.checkpoint_secs
            );
            paper_setup_durable(
                opts.scale,
                opts.seed,
                DurabilityOptions {
                    data_dir: dir.clone(),
                    sync: opts.wal_sync,
                },
            )
            .map_err(|e| e.to_string())?
        }
        None => paper_setup(opts.scale, opts.seed).map_err(|e| e.to_string())?,
    };
    warm_up(&cache).map_err(|e| e.to_string())?;
    let cache = Arc::new(cache);

    // back-end behind its own listener; this pins NetworkModel::Real
    let backend_srv = BackendNetServer::spawn(Arc::clone(cache.backend()), &opts.backend_listen)
        .map_err(|e| format!("backend listener: {e}"))?;

    // remote branch now ships SQL over pooled TCP
    let remote = Arc::new(
        TcpRemoteService::new(
            backend_srv.addr(),
            PoolConfig::default(),
            RetryPolicy::default(),
        )
        .map_err(|e| format!("remote service: {e}"))?,
    );
    remote.set_metrics(Arc::clone(cache.metrics()));
    cache.set_remote_service(Some(
        Arc::clone(&remote) as Arc<dyn rcc_executor::RemoteService>
    ));

    // the admin endpoint holds its own handles on the cache and transport
    let admin = match &opts.admin {
        Some(bind) => Some(
            AdminServer::spawn(Arc::clone(&cache), Some(Arc::clone(&remote)), bind)
                .map_err(|e| format!("admin listener: {e}"))?,
        ),
        None => None,
    };

    let front = NetServer::spawn(
        Arc::clone(&cache),
        &opts.listen,
        NetServerConfig {
            max_connections: opts.max_connections,
            ..NetServerConfig::default()
        },
    )
    .map_err(|e| format!("front-end listener: {e}"))?;

    // keep replication heartbeats live: map wall time onto the sim clock;
    // in durable mode, also checkpoint every `--checkpoint-secs` of sim time
    let pump = Arc::clone(&cache);
    let checkpoint_every = if opts.data_dir.is_some() && opts.checkpoint_secs > 0 {
        Some(opts.checkpoint_secs * 10) // ticks of 100 ms
    } else {
        None
    };
    let stop_pump = Arc::new(AtomicBool::new(false));
    let pump_stopped = Arc::clone(&stop_pump);
    let pump_thread = std::thread::Builder::new()
        .name("rcc-clock-pump".into())
        .spawn(move || {
            let mut ticks: u64 = 0;
            loop {
                std::thread::sleep(Duration::from_millis(100));
                if pump_stopped.load(Ordering::Relaxed)
                    || pump
                        .advance(rcc_common::Duration::from_millis(100))
                        .is_err()
                {
                    break;
                }
                ticks += 1;
                if let Some(every) = checkpoint_every {
                    if ticks.is_multiple_of(every) {
                        if let Err(e) = pump.checkpoint() {
                            eprintln!("rccd: checkpoint failed: {e}");
                        }
                    }
                }
            }
        })
        .map_err(|e| format!("clock pump: {e}"))?;

    match &admin {
        Some(a) => println!(
            "rccd listening on {} (back-end at {}, admin at http://{})",
            front.addr(),
            backend_srv.addr(),
            a.addr()
        ),
        None => println!(
            "rccd listening on {} (back-end at {})",
            front.addr(),
            backend_srv.addr()
        ),
    }
    // serve until killed, or — with an admin endpoint — until a client
    // POSTs /shutdown, which gets a final checkpoint before a clean exit
    match &admin {
        Some(a) => {
            while !a.stop_requested() {
                std::thread::sleep(Duration::from_secs(1));
            }
            // no heartbeat may commit after the final checkpoint, so the
            // next start replays nothing
            stop_pump.store(true, Ordering::Relaxed);
            if pump_thread.join().is_err() {
                eprintln!("rccd: clock pump panicked");
            }
            match cache.checkpoint() {
                Ok(true) => eprintln!("rccd: shutdown checkpoint written"),
                Ok(false) => {}
                Err(e) => eprintln!("rccd: shutdown checkpoint failed: {e}"),
            }
            eprintln!("rccd: shutting down");
            Ok(())
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}
