//! Chaos and soak suite: panicking engines, deadline storms, budget
//! floods, server ceilings, torn-journal recovery and kill-style
//! restarts.  The daemon's
//! contract under fire is *graceful degradation* — typed answers, live
//! workers, recoverable caches — and every test here earns its place by
//! killing something.
//!
//! The byte-offset torn-journal sweep is `#[ignore]`d (it starts one
//! daemon per offset); the CI bench-smoke job runs it in release via
//! `--include-ignored`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autoq_core::{Interrupt, Resource};
use autoq_daemon::client::{Client, JobOutcome, RetryPolicy};
use autoq_daemon::engine::{
    EngineError, EngineVerdict, JobInputs, MockBehavior, MockEngine, VerifyEngine,
};
use autoq_daemon::proto::{JobLimits, JobRequest, Spec, SpecMode};
use autoq_daemon::server::{serve, DaemonConfig};
use autoq_daemon::store::{MemStore, VerdictStore};
use autoq_daemon::RealEngine;

fn job(num_qubits: u32, body: &str) -> JobRequest {
    JobRequest {
        qasm: format!("OPENQASM 2.0;\nqreg q[{num_qubits}];\n{body}"),
        pre: Spec::Basis {
            num_qubits,
            basis: 0,
        },
        post: Spec::AllBasis { num_qubits },
        mode: SpecMode::Inclusion,
        want_witness: false,
        limits: JobLimits::default(),
        want_certificate: false,
    }
}

/// The i-th of a family of distinct trivial jobs (unique QASM bodies
/// digest to unique cache keys).
fn distinct_job(index: usize) -> JobRequest {
    job(2, &format!("{}x q[0];\n", "x q[1];\n".repeat(index)))
}

/// Delegates to a [`MockEngine`] except for 7-qubit circuits, which panic.
struct PanicOnSevenQubits {
    inner: MockEngine,
}

impl PanicOnSevenQubits {
    fn holding() -> Self {
        PanicOnSevenQubits {
            inner: MockEngine::holding(),
        }
    }
}

impl VerifyEngine for PanicOnSevenQubits {
    fn verify(
        &self,
        inputs: &JobInputs,
        interrupt: &Interrupt,
        progress: &mut dyn FnMut(u32, u32),
    ) -> Result<EngineVerdict, EngineError> {
        if inputs.circuit.num_qubits() == 7 {
            panic!("chaos: scripted engine panic");
        }
        self.inner.verify(inputs, interrupt, progress)
    }
}

#[test]
fn a_panicking_job_leaves_the_single_worker_serving() {
    // One worker: if the panic killed it, the follow-up job would hang
    // forever on the queue.
    let engine = Arc::new(PanicOnSevenQubits::holding());
    let config = DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    };
    let daemon = serve("127.0.0.1:0", config, engine, None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    match client.verify(job(7, "x q[0];\n")).unwrap() {
        JobOutcome::Failed { message } => {
            assert!(message.contains("panicked"), "{message}");
            assert!(
                message.contains("chaos: scripted engine panic"),
                "{message}"
            );
        }
        other => panic!("unexpected outcome {other:?}"),
    }

    // The same worker thread must pick up and finish the next job.
    match client.verify(job(2, "x q[0];\n")).unwrap() {
        JobOutcome::Verdict { verdict, cached } => {
            assert!(verdict.holds);
            assert!(!cached);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    assert!(client.ping().is_ok());
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_panicked, 1);
    assert_eq!(stats.jobs_completed, 1);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn repeated_panics_never_take_the_pool_down() {
    let engine = Arc::new(MockEngine::holding().with_behavior(MockBehavior::Panic));
    let config = DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    };
    let daemon = serve("127.0.0.1:0", config, Arc::clone(&engine) as _, None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // More panics than workers: survival can't be "the other worker did
    // it".
    for index in 0..5 {
        match client.verify(distinct_job(index)).unwrap() {
            JobOutcome::Failed { message } => assert!(message.contains("panicked"), "{message}"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(client.ping().is_ok());
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_panicked, 5);
    assert_eq!(engine.calls(), 5);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn a_deadline_storm_returns_typed_exhaustion_for_every_job() {
    // Each job would take ~1s of engine time; a 1 ms deadline must stop it
    // at the first interrupt checkpoint.
    let engine = Arc::new(MockEngine::holding().with_behavior(MockBehavior::Slow {
        steps: 200,
        step: Duration::from_millis(5),
    }));
    let daemon = serve("127.0.0.1:0", DaemonConfig::default(), engine, None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let started = Instant::now();
    const STORM: usize = 6;
    for index in 0..STORM {
        let mut storm_job = distinct_job(index);
        storm_job.limits.deadline_ms = Some(1);
        match client.verify(storm_job).unwrap() {
            JobOutcome::Exhausted {
                resource,
                limit,
                observed,
            } => {
                assert_eq!(resource, Resource::WallClock);
                assert_eq!(limit, 1);
                assert!(observed >= 1);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "deadline storm took {:?} — deadlines are not biting",
        started.elapsed()
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_exhausted, STORM as u64);
    assert_eq!(stats.jobs_completed, 0);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn a_blowing_up_job_hits_its_state_budget_with_a_typed_outcome() {
    // Real engine, real blow-up: Hadamards superpose 6 qubits into 64
    // basis states, far past a 2-state budget.
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(RealEngine::default()),
        None,
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    let mut blowup = job(6, "h q[0];\nh q[1];\nh q[2];\nh q[3];\nh q[4];\nh q[5];\n");
    blowup.limits.max_states = Some(2);
    match client.verify(blowup).unwrap() {
        JobOutcome::Exhausted {
            resource,
            limit,
            observed,
        } => {
            assert_eq!(resource, Resource::States);
            assert_eq!(limit, 2);
            assert!(observed > 2, "observed {observed} must exceed the cap");
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_exhausted, 1);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn server_ceilings_answer_exhausted_to_jobs_that_set_no_limits() {
    // Neither job sets a limit, and one asks for a certificate: the
    // server's ceiling alone stops both, and both get the typed answer.
    let config = DaemonConfig {
        max_states_ceiling: Some(2),
        ..DaemonConfig::default()
    };
    let daemon = serve("127.0.0.1:0", config, Arc::new(RealEngine::default()), None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    let plain = job(5, "h q[0];\nh q[1];\nh q[2];\nh q[3];\nh q[4];\n");
    let certified = JobRequest {
        want_certificate: true,
        ..plain.clone()
    };
    for blowup in [plain, certified] {
        assert_eq!(blowup.limits, JobLimits::default());
        match client.verify(blowup).unwrap() {
            JobOutcome::Exhausted {
                resource: Resource::States,
                limit: 2,
                observed,
            } => assert!(observed > 2, "observed {observed} must exceed the cap"),
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_exhausted, 2);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn limits_do_not_split_the_verdict_cache() {
    // The spec digest excludes limits: a limited job and its unlimited
    // twin share one cache entry.
    let engine = Arc::new(MockEngine::holding());
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::clone(&engine) as _,
        None,
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let mut limited = distinct_job(1);
    limited.limits.deadline_ms = Some(60_000);
    assert!(matches!(
        client.verify(limited).unwrap(),
        JobOutcome::Verdict { cached: false, .. }
    ));
    assert!(matches!(
        client.verify(distinct_job(1)).unwrap(),
        JobOutcome::Verdict { cached: true, .. }
    ));
    assert_eq!(engine.calls(), 1);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn rejected_submissions_retry_to_a_verdict() {
    // One slow worker and a queue of one: a burst of distinct jobs draws
    // Rejected answers, and verify_with_retry must ride them out.
    let engine = Arc::new(MockEngine::holding().with_behavior(MockBehavior::Slow {
        steps: 2,
        step: Duration::from_millis(20),
    }));
    let config = DaemonConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 20,
        ..DaemonConfig::default()
    };
    let daemon = serve("127.0.0.1:0", config, engine, None).unwrap();

    let mut blocker = Client::connect(daemon.addr()).unwrap();
    let mut filler = Client::connect(daemon.addr()).unwrap();
    // Occupy the worker and the queue.
    let blocker_id = blocker.submit(distinct_job(10)).unwrap();
    let filler_id = filler.submit(distinct_job(11)).unwrap();

    // This submission races the drain: early attempts get Rejected, the
    // retry loop must land a verdict anyway.
    let mut retrier = Client::connect(daemon.addr()).unwrap();
    retrier
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let policy = RetryPolicy {
        max_attempts: 10,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(200),
    };
    match retrier
        .verify_with_retry(distinct_job(12), &policy)
        .unwrap()
    {
        JobOutcome::Verdict { verdict, .. } => assert!(verdict.holds),
        other => panic!("unexpected outcome {other:?}"),
    }

    // Drain the other two so shutdown doesn't race their verdicts.
    let _ = blocker_id;
    let _ = filler_id;
    daemon.shutdown();
    daemon.join();
}

#[test]
fn retry_survives_a_mid_flight_disconnect() {
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(MockEngine::holding()),
        None,
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    // Poison the stream: raw garbage makes the daemon close the
    // connection, so the next verify hits an I/O error and must reconnect.
    client.send_raw(&[0xFF; 64]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(50),
    };
    match client.verify_with_retry(distinct_job(3), &policy).unwrap() {
        JobOutcome::Verdict { verdict, .. } => assert!(verdict.holds),
        other => panic!("unexpected outcome {other:?}"),
    }
    daemon.shutdown();
    daemon.join();
}

/// Runs a daemon over `store`, verifies `jobs` through it, and returns the
/// engine-call count.  The daemon is shut down via the socket (not
/// [`DaemonHandle::shutdown`]) when `clean_shutdown`, else abandoned
/// mid-flight like a crash (its threads die with the cancelled jobs).
fn run_generation(
    store: &Arc<MemStore>,
    jobs: &[JobRequest],
    clean_shutdown: bool,
) -> (usize, Vec<bool>) {
    let engine = Arc::new(MockEngine::holding());
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::clone(&engine) as _,
        Some(Arc::clone(store) as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut cached_flags = Vec::with_capacity(jobs.len());
    for job in jobs {
        match client.verify(job.clone()).unwrap() {
            JobOutcome::Verdict { verdict, cached } => {
                assert!(verdict.holds);
                cached_flags.push(cached);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    if clean_shutdown {
        client.shutdown().unwrap();
    } else {
        daemon.shutdown();
    }
    daemon.join();
    (engine.calls(), cached_flags)
}

#[test]
fn a_kill_style_restart_recovers_every_journaled_verdict() {
    let jobs: Vec<JobRequest> = (0..3).map(distinct_job).collect();

    // Generation 1 journals three verdicts; we steal the store's bytes
    // *mid-flight* — before any shutdown snapshot — which is exactly what
    // a kill would leave on disk: no snapshot, journal only.
    let store1 = Arc::new(MemStore::new());
    let engine1 = Arc::new(MockEngine::holding());
    let daemon1 = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::clone(&engine1) as _,
        Some(Arc::clone(&store1) as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client1 = Client::connect(daemon1.addr()).unwrap();
    for job in &jobs {
        assert!(matches!(
            client1.verify(job.clone()).unwrap(),
            JobOutcome::Verdict { cached: false, .. }
        ));
    }
    assert_eq!(store1.snapshot(), None, "no snapshot before shutdown");
    let crashed_journal = store1.journal_bytes();
    assert!(!crashed_journal.is_empty());
    daemon1.shutdown();
    daemon1.join();

    // Generation 2 starts on the crash artifact alone.
    let store2 = Arc::new(MemStore::new());
    store2.set_journal(crashed_journal);
    let (engine_calls, cached_flags) = run_generation(&store2, &jobs, false);
    assert_eq!(
        engine_calls, 0,
        "journaled verdicts must never reach the engine again"
    );
    assert_eq!(cached_flags, vec![true; jobs.len()]);
    // Recovery compacted the journal into a snapshot at startup.
    assert!(store2.snapshot().is_some());
    assert!(store2.journal_bytes().is_empty());
}

#[test]
#[ignore = "starts one daemon per journal byte offset; run with --include-ignored"]
fn torn_journals_recover_their_intact_prefix_at_every_byte_offset() {
    let jobs: Vec<JobRequest> = (0..2).map(distinct_job).collect();

    // Record the journal's growth per verdict so the record boundaries are
    // known without parsing the format here.
    let store = Arc::new(MemStore::new());
    let engine = Arc::new(MockEngine::holding());
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::clone(&engine) as _,
        Some(Arc::clone(&store) as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let mut boundaries = Vec::new();
    for job in &jobs {
        client.verify(job.clone()).unwrap();
        boundaries.push(store.journal_bytes().len());
    }
    let journal = store.journal_bytes();
    daemon.shutdown();
    daemon.join();

    for cut in 0..=journal.len() {
        let expect_recovered = boundaries.iter().filter(|&&b| b <= cut).count();
        let store = Arc::new(MemStore::new());
        store.set_journal(journal[..cut].to_vec());
        let (engine_calls, cached_flags) = run_generation(&store, &jobs, false);
        assert_eq!(
            engine_calls,
            jobs.len() - expect_recovered,
            "cut {cut}: wrong number of engine re-runs"
        );
        let expected_flags: Vec<bool> = (0..jobs.len()).map(|i| i < expect_recovered).collect();
        assert_eq!(cached_flags, expected_flags, "cut {cut}");
    }
}

#[test]
fn journal_growth_is_linear_in_fresh_verdicts() {
    // The regression this suite exists to prevent: persistence used to
    // rewrite the whole snapshot after every verdict (O(cache) per
    // verdict, O(N^2) for a flood of N).  The journal must grow by a
    // bounded number of bytes per verdict, with no snapshot writes at all
    // until the snapshot_every threshold.
    const N: usize = 40;
    const MAX_RECORD_BYTES: usize = 512;
    let store = Arc::new(MemStore::new());
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(MockEngine::holding()),
        Some(Arc::clone(&store) as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut last_len = 0usize;
    for index in 0..N {
        assert!(matches!(
            client.verify(distinct_job(index)).unwrap(),
            JobOutcome::Verdict { cached: false, .. }
        ));
        let len = store.journal_bytes().len();
        assert!(
            len > last_len && len - last_len <= MAX_RECORD_BYTES,
            "verdict {index} grew the journal by {} bytes",
            len - last_len
        );
        last_len = len;
    }
    assert_eq!(
        store.snapshot(),
        None,
        "per-verdict persistence must journal, not snapshot"
    );
    assert!(last_len <= N * MAX_RECORD_BYTES);

    // Shutdown folds the journal into one snapshot.
    daemon.shutdown();
    daemon.join();
    assert!(store.snapshot().is_some());
    assert!(store.journal_bytes().is_empty());
}

#[test]
fn periodic_snapshots_compact_the_journal() {
    let store = Arc::new(MemStore::new());
    let config = DaemonConfig {
        snapshot_every: 5,
        ..DaemonConfig::default()
    };
    let daemon = serve(
        "127.0.0.1:0",
        config,
        Arc::new(MockEngine::holding()),
        Some(Arc::clone(&store) as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    for index in 0..5 {
        client.verify(distinct_job(index)).unwrap();
    }
    // The fifth verdict crossed the threshold: snapshot written, journal
    // cleared.
    assert!(store.snapshot().is_some());
    assert!(store.journal_bytes().is_empty());

    // And the snapshot actually holds all five verdicts.
    client.verify(distinct_job(2)).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_entries, 5);

    daemon.shutdown();
    daemon.join();
}
