//! A long-running verification daemon for the AutoQ engine.
//!
//! The daemon accepts verification jobs — an OpenQASM circuit plus
//! pre/post specifications — over a versioned, length-prefixed TCP
//! protocol, schedules them on a bounded worker pool, streams progress
//! back, and memoises verdicts in a **content-addressed cache** keyed on
//! *(circuit digest, spec digest)*.  The cache persists across restarts
//! through a pluggable [`VerdictStore`], with
//! witnesses stored in the compact binary DAG codec of
//! [`autoq_treeaut::format`].
//!
//! *Pipeline position*: bigint → amplitude → {treeaut, circuit} →
//! simulator → core → **daemon** — the serving layer over the
//! [`autoq_core`] engine.
//!
//! Module map:
//!
//! * [`wire`] — framing, varints, bounds-checked encode/decode;
//! * [`proto`] — the request/response message set and its encoding;
//! * [`engine`] — the [`VerifyEngine`] trait with
//!   the production [`RealEngine`] and the scripted
//!   [`MockEngine`];
//! * [`cache`] — the content-addressed verdict cache and its snapshot
//!   format;
//! * [`store`] — snapshot persistence ([`FileStore`],
//!   [`MemStore`]) and the fault-injecting
//!   [`FailStore`];
//! * [`fault`] — byte-offset fault plans and the fault-injecting writer;
//! * [`server`] — the daemon itself ([`serve`]);
//! * [`client`] — the blocking client.
//!
//! See `docs/DAEMON.md` for the wire format and the operational model.
//!
//! # Robustness model
//!
//! The daemon is built to degrade, not die:
//!
//! * every job runs under an [`autoq_core::Interrupt`] combining the
//!   client's requested limits (deadline, peak-state budget) with the
//!   server's configured ceilings; the engine checks it at every gate
//!   boundary, so an exhausted job returns a typed
//!   [`Response::Exhausted`] within one gate boundary, whichever limit
//!   tripped;
//! * a panicking engine run is contained by `catch_unwind`: the job
//!   answers `JobError`, the worker survives, and
//!   [`DaemonStats::jobs_panicked`] counts it;
//! * verdicts persist through an append-only, checksummed journal between
//!   periodic snapshots, so a crash loses at most the entry being written
//!   and per-verdict persistence cost is O(entry), not O(cache).
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use autoq_daemon::engine::RealEngine;
//! use autoq_daemon::proto::{JobRequest, Spec, SpecMode};
//! use autoq_daemon::server::{serve, DaemonConfig};
//! use autoq_daemon::client::{Client, JobOutcome};
//!
//! let daemon = serve(
//!     "127.0.0.1:0",
//!     DaemonConfig::default(),
//!     Arc::new(RealEngine::default()),
//!     None,
//! )
//! .unwrap();
//!
//! let mut client = Client::connect(daemon.addr()).unwrap();
//! let outcome = client
//!     .verify(JobRequest {
//!         qasm: "OPENQASM 2.0;\nqreg q[1];\nx q[0];\n".into(),
//!         pre: Spec::Basis { num_qubits: 1, basis: 0 },
//!         post: Spec::Basis { num_qubits: 1, basis: 1 },
//!         mode: SpecMode::Equality,
//!         want_witness: true,
//!         limits: Default::default(),
//!         want_certificate: false,
//!     })
//!     .unwrap();
//! match outcome {
//!     JobOutcome::Verdict { verdict, .. } => assert!(verdict.holds),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! client.shutdown().unwrap();
//! daemon.join();
//! ```

// The daemon must keep serving through poisoned locks, bad disks and
// panicking jobs; a stray `.unwrap()` on any of those paths is a daemon
// crash, so unwraps are banned outside tests (use `crate::lock` and
// explicit error paths instead).
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cache;
pub mod client;
pub mod engine;
pub mod fault;
pub mod proto;
pub mod server;
pub mod store;
pub mod wire;

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning instead of propagating the
/// panic: the protected state is plain data (maps, counters, queues) that
/// stays internally consistent even if a holder panicked mid-update, and a
/// serving daemon must not die because one worker did.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

pub use cache::{CachedVerdict, VerdictCache, VerdictKey};
pub use client::{Client, JobOutcome, RetryPolicy};
pub use engine::{MockBehavior, MockEngine, RealEngine, VerifyEngine};
pub use proto::{
    DaemonStats, ErrorCode, JobLimits, JobRequest, Request, Response, Spec, SpecMode, Verdict,
    MAGIC, PROTOCOL_VERSION,
};
pub use server::{serve, DaemonConfig, DaemonHandle};
pub use store::{FailMode, FailStore, FileStore, MemStore, VerdictStore};
pub use wire::{WireError, MAX_FRAME_LEN};
