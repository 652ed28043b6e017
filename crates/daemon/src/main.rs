//! The `autoq-daemon` binary: serve verification jobs over TCP.
//!
//! ```text
//! autoq-daemon [--addr HOST:PORT] [--workers N] [--queue N] [--cache-file PATH]
//!              [--deadline-ceiling-ms N] [--max-states-ceiling N] [--snapshot-every N]
//! ```
//!
//! Defaults: `127.0.0.1:7411`, 2 workers, queue of 16, no persistence, no
//! resource ceilings, a snapshot every 256 verdicts.  With `--cache-file`
//! the verdict cache is recovered at startup (snapshot plus journal
//! replay), journaled after every computed verdict and snapshotted
//! periodically and at shutdown, so a restarted — or crashed — daemon
//! re-serves known verdicts without re-running the engine.  The ceilings
//! clamp every job's deadline/peak-state budget, including jobs that
//! request none, and a job that trips one answers `Exhausted`.  Every
//! job's trees are freed when the job is done, so the daemon's memory stays
//! flat however many violations it serves.

use std::process::ExitCode;
use std::sync::Arc;

use autoq_daemon::engine::RealEngine;
use autoq_daemon::server::{serve, DaemonConfig};
use autoq_daemon::store::{FileStore, VerdictStore};

fn usage() -> ExitCode {
    eprintln!(
        "usage: autoq-daemon [--addr HOST:PORT] [--workers N] [--queue N] [--cache-file PATH]\n\
         \x20                 [--deadline-ceiling-ms N] [--max-states-ceiling N] [--snapshot-every N]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut config = DaemonConfig::default();
    let mut store: Option<Arc<dyn VerdictStore>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            eprintln!("autoq-daemon: {flag} needs a value");
            return usage();
        };
        match flag.as_str() {
            "--addr" => addr = value,
            "--workers" => match value.parse::<usize>() {
                Ok(n) if n > 0 => config.workers = n,
                _ => {
                    eprintln!("autoq-daemon: --workers needs a positive integer");
                    return usage();
                }
            },
            "--queue" => match value.parse::<usize>() {
                Ok(n) if n > 0 => config.queue_capacity = n,
                _ => {
                    eprintln!("autoq-daemon: --queue needs a positive integer");
                    return usage();
                }
            },
            "--cache-file" => store = Some(Arc::new(FileStore::new(value))),
            "--deadline-ceiling-ms" => match value.parse::<u64>() {
                Ok(n) if n > 0 => {
                    config.deadline_ceiling = Some(std::time::Duration::from_millis(n))
                }
                _ => {
                    eprintln!("autoq-daemon: --deadline-ceiling-ms needs a positive integer");
                    return usage();
                }
            },
            "--max-states-ceiling" => match value.parse::<u64>() {
                Ok(n) if n > 0 => config.max_states_ceiling = Some(n),
                _ => {
                    eprintln!("autoq-daemon: --max-states-ceiling needs a positive integer");
                    return usage();
                }
            },
            "--snapshot-every" => match value.parse::<u64>() {
                Ok(n) if n > 0 => config.snapshot_every = n,
                _ => {
                    eprintln!("autoq-daemon: --snapshot-every needs a positive integer");
                    return usage();
                }
            },
            other => {
                eprintln!("autoq-daemon: unknown flag {other}");
                return usage();
            }
        }
    }

    let daemon = match serve(&addr, config, Arc::new(RealEngine::default()), store) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("autoq-daemon: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "autoq-daemon listening on {} ({} workers, queue {})",
        daemon.addr(),
        config.workers,
        config.queue_capacity
    );
    // The daemon runs until a client sends Shutdown.
    daemon.join();
    println!("autoq-daemon: shut down");
    ExitCode::SUCCESS
}
