//! The verification daemon: TCP accept loop, bounded job queue, worker
//! pool, verdict cache.
//!
//! # Threading model
//!
//! One *accept* thread takes connections and spawns a *connection* thread
//! per client.  Connection threads run the protocol: handshake first, then
//! a request loop.  Cache hits are answered inline on the connection
//! thread — the hot path is parse + digest + hash-map lookup, no automata
//! work — while misses are pushed onto a bounded queue drained by a fixed
//! pool of *worker* threads that run the engine.  When the queue is full a
//! submission is rejected with a retry hint instead of blocking the
//! connection (explicit backpressure).
//!
//! Workers stream [`Response::Progress`] frames back over the submitting
//! connection (time-throttled) and publish verdicts both to the client and
//! to the cache.
//!
//! # Resource governance and failure containment
//!
//! Every job runs under an [`Interrupt`] combining the client's requested
//! limits (see [`JobLimits`]) with the server's configured ceilings
//! ([`DaemonConfig::deadline_ceiling`],
//! [`DaemonConfig::max_states_ceiling`]): the effective limit is the
//! minimum of the two, and a ceiling applies even when the job requests
//! nothing.  The engine checks the deadline and the budgets at the same
//! checkpoints as the cancel flag ([`VerifyEngine`]'s contract), so a job
//! stops within one gate boundary of tripping either.  Every budget stop,
//! the job's own or a ceiling's, answers [`Response::Exhausted`] and
//! counts in [`DaemonStats::jobs_exhausted`].  An explicit cancel request,
//! a client disconnect, or a failed progress write raises the job's cancel
//! flag, and the engine abandons the job at the next gate boundary.
//!
//! Engine runs execute inside `catch_unwind`: a panicking job answers
//! `JobError`, the worker thread survives, and
//! [`DaemonStats::jobs_panicked`] counts it.
//!
//! # Persistence
//!
//! Fresh verdicts are appended to a checksummed journal (O(entry) per
//! verdict) through the configured [`VerdictStore`]; every
//! [`DaemonConfig::snapshot_every`] journaled verdicts the whole cache is
//! snapshotted and the journal cleared.  Startup indexes the snapshot,
//! replays the journal's intact prefix (a torn tail from a crash is
//! dropped silently) and writes a fresh compacting snapshot.  Snapshots
//! stream entry by entry into the store, so one never holds a second copy
//! of the cache, and once one is saved the cache reads the bodies it holds
//! back from it instead of keeping them in memory (see
//! [`VerdictCache`]).
//!
//! A job's trees (its specs and its witness) are freed when the job is
//! done: the cache holds witnesses as bytes, so no tree outlives the job
//! that built it.
//!
//! Shutdown — via [`DaemonHandle::shutdown`] or a client
//! [`Request::Shutdown`] — drains nothing: queued jobs are dropped, running
//! jobs are cancelled, the verdict cache is snapshotted, and all sockets
//! are shut down.  Internal locks use poison recovery throughout: a panic
//! on one thread never wedges the rest of the daemon.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use autoq_circuit::digest::circuit_digest;
use autoq_circuit::qasm::parse_qasm;
use autoq_core::{CancelFlag, Interrupt, StopReason};
use autoq_treeaut::format::tree_to_binary;

use crate::cache::{journal_record, spec_digest, CachedVerdict, VerdictCache, VerdictKey};
use crate::engine::{materialize, EngineError, JobInputs, VerifyEngine};
use crate::lock;
use crate::proto::{
    DaemonStats, ErrorCode, JobLimits, Request, Response, Verdict, MAGIC, PROTOCOL_VERSION,
};
use crate::store::VerdictStore;
use crate::wire::{read_frame, WireError, MAX_FRAME_LEN};

/// Daemon tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Worker threads running the engine.
    pub workers: usize,
    /// Maximum queued (accepted but not yet running) jobs before
    /// submissions are rejected.
    pub queue_capacity: usize,
    /// Base retry hint attached to backpressure rejections; the framed
    /// hint scales with queue depth (see `Shared::adaptive_retry_ms`),
    /// from this base up to 10× of it.
    pub retry_after_ms: u32,
    /// Minimum interval between progress frames for one job.
    pub progress_interval: Duration,
    /// Ceiling on any job's wall-clock deadline.  Applies even to jobs
    /// that request no deadline; `None` lets unlimited jobs run forever.
    pub deadline_ceiling: Option<Duration>,
    /// Ceiling on any job's peak-state budget (same clamping rule).
    pub max_states_ceiling: Option<u64>,
    /// Journaled verdicts between full cache snapshots.
    pub snapshot_every: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 2,
            queue_capacity: 16,
            retry_after_ms: 100,
            progress_interval: Duration::from_millis(25),
            deadline_ceiling: None,
            max_states_ceiling: None,
            snapshot_every: 256,
        }
    }
}

/// Clamps a job's requested limits against the server ceilings: the
/// effective limit is the minimum of the two, and a ceiling applies even
/// when the job requests nothing.
fn effective_limits(config: &DaemonConfig, limits: &JobLimits) -> (Option<Duration>, Option<u64>) {
    let requested = limits
        .deadline_ms
        .map(|ms| Duration::from_millis(u64::from(ms)));
    let deadline = match (requested, config.deadline_ceiling) {
        (Some(job), Some(ceiling)) => Some(job.min(ceiling)),
        (Some(job), None) => Some(job),
        (None, ceiling) => ceiling,
    };
    let max_states = match (limits.max_states, config.max_states_ceiling) {
        (Some(job), Some(ceiling)) => Some(job.min(ceiling)),
        (Some(job), None) => Some(job),
        (None, ceiling) => ceiling,
    };
    (deadline, max_states)
}

/// One frame-writer per connection, shared between the connection thread
/// and any workers running its jobs.  Frames are written atomically
/// (single `write_all` of prefix + payload) under the lock.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, response: &Response) -> Result<(), WireError> {
        let payload = response.encode();
        assert!(payload.len() <= MAX_FRAME_LEN, "outgoing frame too large");
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut stream = lock(&self.stream);
        stream.write_all(&frame)?;
        Ok(())
    }
}

/// A job accepted onto the queue.
struct QueuedJob {
    key: VerdictKey,
    inputs: JobInputs,
    client_job: u64,
    cancel: CancelFlag,
    /// Effective (ceiling-clamped) wall-clock budget; the clock starts
    /// when a worker picks the job up, not while it queues.
    deadline: Option<Duration>,
    /// Effective (ceiling-clamped) peak-state budget.
    max_states: Option<u64>,
    writer: Arc<ConnWriter>,
    jobs: Arc<Mutex<HashMap<u64, CancelFlag>>>,
}

/// Journal bookkeeping, under one lock so concurrent workers cannot
/// interleave a snapshot with a journal append.
struct PersistState {
    journaled_since_snapshot: u64,
}

struct Shared {
    config: DaemonConfig,
    addr: SocketAddr,
    engine: Arc<dyn VerifyEngine>,
    store: Option<Arc<dyn VerdictStore>>,
    cache: VerdictCache,
    persist_state: Mutex<PersistState>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_signal: Condvar,
    shutting_down: AtomicBool,
    jobs_completed: AtomicU64,
    jobs_exhausted: AtomicU64,
    jobs_panicked: AtomicU64,
    rejected: AtomicU64,
    verdicts_certified: AtomicU64,
    certificates_rejected: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    fn stats(&self) -> DaemonStats {
        DaemonStats {
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_depth: lock(&self.queue).len() as u32,
            workers: self.config.workers as u32,
            cache_entries: self.cache.len() as u64,
            jobs_exhausted: self.jobs_exhausted.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            verdicts_certified: self.verdicts_certified.load(Ordering::Relaxed),
            certificates_rejected: self.certificates_rejected.load(Ordering::Relaxed),
        }
    }

    /// Backpressure retry hint, scaled by how loaded the queue is: an empty
    /// or lightly loaded queue keeps the configured base, a deep queue
    /// stretches it proportionally to the drain time (depth / workers),
    /// capped at 10× so a hint never tells a client to go away for long.
    fn adaptive_retry_ms(&self) -> u32 {
        let base = self.config.retry_after_ms.max(1);
        let depth = lock(&self.queue).len() as u32;
        let workers = self.config.workers as u32;
        let scale = (depth / workers).max(1);
        base.saturating_mul(scale).min(base.saturating_mul(10))
    }

    /// Snapshots the whole cache and clears the journal.  Caller holds the
    /// persist lock.
    fn snapshot_locked(&self, store: &Arc<dyn VerdictStore>, state: &mut PersistState) {
        match self.cache.save_to(store.as_ref()) {
            Ok(()) => {
                // A failed clear only means the next recovery replays
                // records the snapshot already contains — replay is
                // idempotent, so stale journal bytes are harmless.
                let _ = store.clear_journal();
                state.journaled_since_snapshot = 0;
            }
            Err(e) => eprintln!("autoq-daemon: failed to persist verdict cache: {e}"),
        }
    }

    /// Publishes a fresh verdict: into the cache, then (cheaply) into the
    /// journal, with a periodic full snapshot every
    /// [`DaemonConfig::snapshot_every`] verdicts.  A journal-append failure
    /// falls back to an immediate snapshot so the verdict still persists.
    fn record_verdict(&self, key: VerdictKey, verdict: &CachedVerdict) {
        self.cache.insert(key, verdict.clone());
        let Some(store) = &self.store else {
            return;
        };
        let mut state = lock(&self.persist_state);
        match store.append_journal(&journal_record(&key, verdict)) {
            Ok(()) => {
                state.journaled_since_snapshot += 1;
                if state.journaled_since_snapshot >= self.config.snapshot_every.max(1) {
                    self.snapshot_locked(store, &mut state);
                }
            }
            Err(e) => {
                eprintln!("autoq-daemon: journal append failed ({e}), snapshotting instead");
                self.snapshot_locked(store, &mut state);
            }
        }
    }

    /// Final persistence on shutdown: one full snapshot.
    fn persist_final(&self) {
        if let Some(store) = &self.store {
            let mut state = lock(&self.persist_state);
            self.snapshot_locked(store, &mut state);
        }
    }

    /// Raises the shutdown flag, wakes every worker, cancels every
    /// in-flight job and unblocks every connection read.
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.persist_final();
        {
            let mut queue = lock(&self.queue);
            for job in queue.drain(..) {
                job.cancel.cancel();
            }
        }
        self.queue_signal.notify_all();
        for (_, stream) in lock(&self.conns).iter() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon: address, shutdown trigger, join.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl DaemonHandle {
    /// The bound address (use with port 0 to let the OS pick).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers shutdown: persists the cache, cancels jobs, closes
    /// sockets.  Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for every daemon thread to exit (call after
    /// [`shutdown`](Self::shutdown)).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let handles: Vec<_> = lock(&self.conn_threads).drain(..).collect();
        for conn in handles {
            let _ = conn.join();
        }
    }
}

/// Starts the daemon on `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
///
/// `store`, when given, seeds the verdict cache from its last snapshot
/// (indexed, not decoded: the bodies stay in the snapshot) plus the intact
/// prefix of the write-ahead journal — a corrupt or unreadable snapshot is
/// discarded wholesale, a torn journal tail is dropped record-by-record —
/// and a recovered journal is immediately compacted into a fresh snapshot.
/// Fresh verdicts are journaled as they arrive and snapshotted
/// periodically and on shutdown.
pub fn serve(
    addr: &str,
    config: DaemonConfig,
    engine: Arc<dyn VerifyEngine>,
    store: Option<Arc<dyn VerdictStore>>,
) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    // At least one worker runs; the stored config (and so the stats and
    // the retry hint) counts the threads actually spawned.
    let config = DaemonConfig {
        workers: config.workers.max(1),
        ..config
    };

    let cache = match store.as_ref().map(|s| (s.load(), s)) {
        Some((Ok(Some(bytes)), store)) => {
            match VerdictCache::recover_snapshot(&bytes, store.as_ref()) {
                Ok(cache) => cache,
                Err(e) => {
                    eprintln!("autoq-daemon: discarding corrupt verdict cache snapshot: {e}");
                    VerdictCache::new()
                }
            }
        }
        Some((Err(e), _)) => {
            eprintln!("autoq-daemon: verdict store unreadable, starting empty: {e}");
            VerdictCache::new()
        }
        _ => VerdictCache::new(),
    };

    // Crash recovery: replay the journal's intact prefix on top of the
    // snapshot, then compact so replay cost never accumulates across
    // restarts.
    if let Some(store) = store.as_ref() {
        match store.load_journal() {
            Ok(journal) if !journal.is_empty() => {
                cache.replay_journal(&journal);
                if cache.save_to(store.as_ref()).is_ok() {
                    let _ = store.clear_journal();
                }
            }
            Ok(_) => {}
            Err(e) => {
                eprintln!("autoq-daemon: journal unreadable, continuing from snapshot alone: {e}");
            }
        }
    }

    let shared = Arc::new(Shared {
        config,
        addr,
        engine,
        store,
        cache,
        persist_state: Mutex::new(PersistState {
            journaled_since_snapshot: 0,
        }),
        queue: Mutex::new(VecDeque::new()),
        queue_signal: Condvar::new(),
        shutting_down: AtomicBool::new(false),
        jobs_completed: AtomicU64::new(0),
        jobs_exhausted: AtomicU64::new(0),
        jobs_panicked: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        verdicts_certified: AtomicU64::new(0),
        certificates_rejected: AtomicU64::new(0),
        conns: Mutex::new(HashMap::new()),
        next_conn: AtomicU64::new(0),
    });

    let mut workers = Vec::with_capacity(config.workers);
    for index in 0..config.workers {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("autoq-worker-{index}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker"),
        );
    }

    let conn_threads = Arc::new(Mutex::new(Vec::new()));
    let accept = {
        let shared = Arc::clone(&shared);
        let conn_threads = Arc::clone(&conn_threads);
        std::thread::Builder::new()
            .name("autoq-accept".into())
            .spawn(move || accept_loop(listener, shared, conn_threads))
            .expect("spawn accept loop")
    };

    Ok(DaemonHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
        conn_threads,
    })
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => break,
        };
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.conns).insert(conn_id, clone);
        }
        // Register *before* checking the flag: either this thread sees the
        // flag here, or `begin_shutdown` sees the registered socket — a
        // connection can't slip through un-closeable in either order.
        if shared.shutting_down.load(Ordering::SeqCst) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            lock(&shared.conns).remove(&conn_id);
            break;
        }
        let shared_conn = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("autoq-conn-{conn_id}"))
            .spawn(move || {
                connection_loop(stream, conn_id, &shared_conn);
                lock(&shared_conn.conns).remove(&conn_id);
            })
            .expect("spawn connection thread");
        lock(&conn_threads).push(handle);
    }
}

/// Runs the protocol on one connection until it closes or errors.
fn connection_loop(stream: TcpStream, _conn_id: u64, shared: &Shared) {
    let reader_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(reader_stream);
    let writer = Arc::new(ConnWriter {
        stream: Mutex::new(stream),
    });
    // Cancel flags of this connection's queued/running jobs; a disconnect
    // raises them all.
    let jobs: Arc<Mutex<HashMap<u64, CancelFlag>>> = Arc::new(Mutex::new(HashMap::new()));

    let fatal = |code: ErrorCode, message: String| {
        let _ = writer.send(&Response::Error { code, message });
    };

    // Handshake: the first frame must be a valid Hello.
    match read_frame(&mut reader).and_then(|payload| Request::decode(&payload)) {
        Ok(Request::Hello { magic, version }) => {
            if magic != MAGIC {
                fatal(ErrorCode::BadMagic, format!("bad magic {magic:#010x}"));
                return;
            }
            if version != PROTOCOL_VERSION {
                fatal(
                    ErrorCode::VersionMismatch,
                    format!("daemon speaks protocol {PROTOCOL_VERSION}, client sent {version}"),
                );
                return;
            }
            if writer
                .send(&Response::HelloAck {
                    version: PROTOCOL_VERSION,
                })
                .is_err()
            {
                return;
            }
        }
        Ok(_) => {
            fatal(
                ErrorCode::MalformedFrame,
                "first frame must be Hello".into(),
            );
            return;
        }
        Err(WireError::Closed) | Err(WireError::Truncated) | Err(WireError::Io(_)) => return,
        Err(e) => {
            fatal(ErrorCode::MalformedFrame, e.to_string());
            return;
        }
    }

    loop {
        let payload = match read_frame(&mut reader) {
            Ok(payload) => payload,
            Err(WireError::Closed) | Err(WireError::Truncated) | Err(WireError::Io(_)) => break,
            Err(e) => {
                // Oversized or structurally bad framing: report and close —
                // the byte stream can no longer be trusted.
                fatal(ErrorCode::MalformedFrame, e.to_string());
                break;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame boundary is intact, so the error is scoped to
                // this one message; still, an unknown opcode may mean a
                // newer client, so close rather than guess.
                let code = if matches!(&e, WireError::Malformed { message, .. }
                    if message.starts_with("unknown request opcode"))
                {
                    ErrorCode::UnknownOpcode
                } else {
                    ErrorCode::MalformedFrame
                };
                fatal(code, e.to_string());
                break;
            }
        };
        match request {
            Request::Hello { .. } => {
                fatal(ErrorCode::MalformedFrame, "duplicate Hello".into());
                break;
            }
            Request::Submit { client_job, job } => {
                if !handle_submit(shared, &writer, &jobs, client_job, job) {
                    break;
                }
            }
            Request::Cancel { client_job } => {
                if let Some(cancel) = lock(&jobs).get(&client_job) {
                    cancel.cancel();
                }
            }
            Request::Stats => {
                if writer.send(&Response::StatsReport(shared.stats())).is_err() {
                    break;
                }
            }
            Request::Ping => {
                if writer.send(&Response::Pong).is_err() {
                    break;
                }
            }
            Request::Shutdown => {
                let _ = writer.send(&Response::ShuttingDown);
                shared.begin_shutdown();
                break;
            }
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
    }

    // Disconnect (or shutdown): abandon everything this client was waiting
    // for.
    for (_, cancel) in lock(&jobs).iter() {
        cancel.cancel();
    }
}

/// Handles one submission; returns `false` if the connection died.
fn handle_submit(
    shared: &Shared,
    writer: &Arc<ConnWriter>,
    jobs: &Arc<Mutex<HashMap<u64, CancelFlag>>>,
    client_job: u64,
    job: crate::proto::JobRequest,
) -> bool {
    let job_error = |message: String| {
        writer
            .send(&Response::JobError {
                client_job,
                message,
            })
            .is_ok()
    };

    // Hot path: parse + digest + cache lookup, no automata construction.
    let circuit = match parse_qasm(&job.qasm) {
        Ok(circuit) => circuit,
        Err(e) => return job_error(e.to_string()),
    };
    let key = VerdictKey {
        circuit: circuit_digest(&circuit),
        spec: spec_digest(&job),
    };
    if let Some(cached) = shared.cache.lookup(&key, job.want_certificate) {
        // The stored bundle is only framed when this job asked for it.
        let certificate = if job.want_certificate {
            cached.certificate
        } else {
            None
        };
        if cached.holds && certificate.is_some() {
            shared.verdicts_certified.fetch_add(1, Ordering::Relaxed);
        }
        return writer
            .send(&Response::Verdict {
                client_job,
                cached: true,
                verdict: Verdict {
                    holds: cached.holds,
                    reachable_but_forbidden: cached.reachable_but_forbidden,
                    witness: cached.witness,
                    certificate,
                },
            })
            .is_ok();
    }

    // Miss: materialise the state sets and queue for a worker.
    let inputs = match materialize(circuit, &job) {
        Ok(inputs) => inputs,
        Err(message) => return job_error(message),
    };
    let (deadline, max_states) = effective_limits(&shared.config, &job.limits);
    if shared.shutting_down.load(Ordering::SeqCst) {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        return writer
            .send(&Response::Rejected {
                client_job,
                retry_after_ms: shared.adaptive_retry_ms(),
            })
            .is_ok();
    }
    let cancel = CancelFlag::new();
    {
        let mut queue = lock(&shared.queue);
        if queue.len() >= shared.config.queue_capacity {
            drop(queue);
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            return writer
                .send(&Response::Rejected {
                    client_job,
                    retry_after_ms: shared.adaptive_retry_ms(),
                })
                .is_ok();
        }
        lock(jobs).insert(client_job, cancel.clone());
        // Ack *before* the job becomes visible to workers (the push below),
        // so the client always sees Accepted before any Progress/Verdict.
        if writer.send(&Response::Accepted { client_job }).is_err() {
            lock(jobs).remove(&client_job);
            return false;
        }
        queue.push_back(QueuedJob {
            key,
            inputs,
            client_job,
            cancel,
            deadline,
            max_states,
            writer: Arc::clone(writer),
            jobs: Arc::clone(jobs),
        });
    }
    shared.queue_signal.notify_one();
    true
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .queue_signal
                    .wait(queue)
                    .unwrap_or_else(|poison| poison.into_inner());
            }
        };
        run_job(shared, job);
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Renders a panic payload for the job error (the common `&str`/`String`
/// payloads verbatim, anything else opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).into()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".into()
    }
}

fn run_job(shared: &Shared, job: QueuedJob) {
    let QueuedJob {
        key,
        inputs,
        client_job,
        cancel,
        deadline,
        max_states,
        writer,
        jobs,
    } = job;

    let finish = |response: &Response| {
        lock(&jobs).remove(&client_job);
        let _ = writer.send(response);
    };

    if cancel.is_cancelled() {
        finish(&Response::JobError {
            client_job,
            message: "job cancelled".into(),
        });
        return;
    }

    // The budget clock starts here, not at submission: queue wait is the
    // daemon's fault, not the job's.
    let mut interrupt = Interrupt::from_flag(cancel.clone());
    if let Some(budget) = deadline {
        interrupt = interrupt.with_deadline(budget);
    }
    if let Some(budget) = max_states {
        interrupt = interrupt.with_max_states(budget);
    }

    // Throttled progress streaming; a failed write means the client is
    // gone, which cancels the job at the next gate boundary.
    let interval = shared.config.progress_interval;
    let mut last_sent: Option<Instant> = None;
    let mut progress = |applied: u32, total: u32| {
        let due = applied == total
            || match last_sent {
                None => true,
                Some(at) => at.elapsed() >= interval,
            };
        if !due {
            return;
        }
        last_sent = Some(Instant::now());
        if writer
            .send(&Response::Progress {
                client_job,
                applied,
                total,
            })
            .is_err()
        {
            cancel.cancel();
        }
    };

    // The engine runs inside `catch_unwind`: a panicking job must cost the
    // daemon one answer, not one worker.  `AssertUnwindSafe` is sound here
    // because everything the closure can leave half-updated is either
    // job-local (discarded below) or behind poison-recovering locks.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        shared.engine.verify(&inputs, &interrupt, &mut progress)
    }));
    let result = result.map(|outcome| {
        outcome.map(|verdict| CachedVerdict {
            holds: verdict.holds,
            reachable_but_forbidden: verdict.reachable_but_forbidden,
            witness: verdict
                .witness
                .filter(|_| inputs.want_witness)
                .map(|tree| tree_to_binary(&tree)),
            certificate: verdict.certificate,
        })
    });

    match result {
        Err(payload) => {
            shared.jobs_panicked.fetch_add(1, Ordering::Relaxed);
            let message = panic_message(payload.as_ref());
            eprintln!("autoq-daemon: job panicked (worker recovered): {message}");
            finish(&Response::JobError {
                client_job,
                message: format!("job panicked: {message}"),
            });
        }
        Ok(Err(EngineError::Soundness(message))) => {
            // The independent checker refused the certificate backing a
            // positive verdict.  This is evidence of a soundness bug in the
            // optimized engine: never serve (or cache) the verdict.
            shared.certificates_rejected.fetch_add(1, Ordering::Relaxed);
            eprintln!("autoq-daemon: certificate rejected by checker: {message}");
            finish(&Response::JobError {
                client_job,
                message: format!("soundness violation: {message}"),
            });
        }
        Ok(Err(EngineError::Interrupted(interrupted))) => match interrupted.reason {
            StopReason::Cancelled => finish(&Response::JobError {
                client_job,
                message: "job cancelled".into(),
            }),
            StopReason::Exhausted {
                resource,
                limit,
                observed,
            } => {
                shared.jobs_exhausted.fetch_add(1, Ordering::Relaxed);
                finish(&Response::Exhausted {
                    client_job,
                    resource,
                    limit,
                    observed,
                });
            }
        },
        Ok(Ok(cached)) => {
            if cached.holds && cached.certificate.is_some() {
                shared.verdicts_certified.fetch_add(1, Ordering::Relaxed);
            }
            shared.record_verdict(key, &cached);
            shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
            finish(&Response::Verdict {
                client_job,
                cached: false,
                verdict: Verdict {
                    holds: cached.holds,
                    reachable_but_forbidden: cached.reachable_but_forbidden,
                    witness: cached.witness,
                    certificate: cached.certificate,
                },
            });
        }
    }
}
