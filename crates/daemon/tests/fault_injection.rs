//! Fault-injection suite: every way a client or a disk can misbehave must
//! surface as a clean error — never a daemon panic, never a hang.
//!
//! Wire-level faults are produced by replaying valid byte streams through
//! [`FaultyWriter`] truncation/corruption plans at *every* byte offset;
//! disk-level faults go through [`FailStore`].  After each fault the
//! daemon must still serve a fresh, well-behaved connection.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use autoq_daemon::client::{Client, JobOutcome};
use autoq_daemon::engine::{MockBehavior, MockEngine, RealEngine};
use autoq_daemon::fault::{FaultPlan, FaultyWriter};
use autoq_daemon::proto::{
    ErrorCode, JobRequest, Request, Response, Spec, SpecMode, Verdict, MAGIC, PROTOCOL_VERSION,
};
use autoq_daemon::server::{serve, DaemonConfig, DaemonHandle};
use autoq_daemon::store::{FailMode, FailStore, MemStore, VerdictStore};
use autoq_daemon::wire::write_frame;

fn tiny_job() -> JobRequest {
    JobRequest {
        qasm: "OPENQASM 2.0;\nqreg q[1];\nx q[0];\n".into(),
        pre: Spec::Basis {
            num_qubits: 1,
            basis: 0,
        },
        post: Spec::Basis {
            num_qubits: 1,
            basis: 1,
        },
        mode: SpecMode::Equality,
        want_witness: false,
        limits: Default::default(),
        want_certificate: false,
    }
}

fn mock_daemon() -> (DaemonHandle, Arc<MockEngine>) {
    let engine = Arc::new(MockEngine::holding());
    let daemon = serve("127.0.0.1:0", DaemonConfig::default(), engine.clone(), None).unwrap();
    (daemon, engine)
}

/// The daemon must still answer a well-behaved client.
fn assert_alive(daemon: &DaemonHandle) {
    let mut client = Client::connect(daemon.addr()).unwrap();
    client.ping().unwrap();
}

#[test]
fn version_mismatch_is_refused_with_a_clean_error() {
    let (daemon, _) = mock_daemon();
    let err = Client::connect_with_hello(daemon.addr(), MAGIC, PROTOCOL_VERSION + 1)
        .err()
        .expect("handshake must be refused");
    assert!(err.to_string().contains("VersionMismatch"), "{err}");
    assert_alive(&daemon);
    daemon.shutdown();
    daemon.join();
}

#[test]
fn bad_magic_is_refused_with_a_clean_error() {
    let (daemon, _) = mock_daemon();
    let err = Client::connect_with_hello(daemon.addr(), 0xDEAD_BEEF, PROTOCOL_VERSION)
        .err()
        .expect("handshake must be refused");
    assert!(err.to_string().contains("BadMagic"), "{err}");
    assert_alive(&daemon);
    daemon.shutdown();
    daemon.join();
}

#[test]
fn non_hello_first_frame_is_fatal_but_scoped_to_the_connection() {
    let (daemon, _) = mock_daemon();
    let mut client = Client::connect_raw(daemon.addr()).unwrap();
    client.send(&Request::Ping).unwrap();
    match client.recv().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("unexpected response {other:?}"),
    }
    assert_alive(&daemon);
    daemon.shutdown();
    daemon.join();
}

#[test]
fn unknown_opcodes_and_garbage_frames_get_protocol_errors() {
    let (daemon, _) = mock_daemon();

    // Unknown opcode in a well-formed frame.
    let mut client = Client::connect(daemon.addr()).unwrap();
    let mut stream_bytes = Vec::new();
    write_frame(&mut stream_bytes, &[0x7f, 1, 2, 3]).unwrap();
    client.send_raw(&stream_bytes).unwrap();
    match client.recv().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownOpcode),
        other => panic!("unexpected response {other:?}"),
    }

    // Structurally garbage payload under a known opcode.
    let mut client = Client::connect(daemon.addr()).unwrap();
    let mut stream_bytes = Vec::new();
    write_frame(&mut stream_bytes, &[0x02, 0xff, 0xff, 0xff]).unwrap();
    client.send_raw(&stream_bytes).unwrap();
    match client.recv().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("unexpected response {other:?}"),
    }

    assert_alive(&daemon);
    daemon.shutdown();
    daemon.join();
}

#[test]
fn oversized_frames_are_rejected_before_allocation() {
    let (daemon, _) = mock_daemon();
    let mut client = Client::connect(daemon.addr()).unwrap();
    // A length prefix of u32::MAX with a few bytes behind it.
    client.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    client.send_raw(&[0u8; 32]).unwrap();
    match client.recv().unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::MalformedFrame),
        other => panic!("unexpected response {other:?}"),
    }
    assert_alive(&daemon);
    daemon.shutdown();
    daemon.join();
}

/// Replays a valid post-handshake request stream truncated at *every* byte
/// offset.  Each truncation just looks like a disconnect; the daemon must
/// survive all of them and keep serving.
#[test]
fn truncation_at_every_offset_never_wedges_the_daemon() {
    let (daemon, _) = mock_daemon();

    let mut stream_bytes = Vec::new();
    write_frame(
        &mut stream_bytes,
        &Request::Submit {
            client_job: 1,
            job: tiny_job(),
        }
        .encode(),
    )
    .unwrap();

    for cut in 0..stream_bytes.len() {
        let mut client = Client::connect(daemon.addr()).unwrap();
        let truncated = {
            let mut sink = Vec::new();
            let mut writer = FaultyWriter::new(&mut sink, FaultPlan::truncate_at(cut));
            let _ = writer.write_all(&stream_bytes);
            sink
        };
        assert_eq!(truncated.len(), cut);
        client.send_raw(&truncated).unwrap();
        // Drop the connection mid-frame.
        drop(client);
    }
    assert_alive(&daemon);
    daemon.shutdown();
    daemon.join();
}

/// Single-byte corruption at every offset of a valid Submit frame: the
/// daemon answers each with *some* frame (job error, protocol error,
/// verdict if the flip was benign) or a disconnect — and never panics.
#[test]
fn corruption_at_every_offset_gets_an_answer_or_a_clean_close() {
    let (daemon, _) = mock_daemon();

    let mut stream_bytes = Vec::new();
    write_frame(
        &mut stream_bytes,
        &Request::Submit {
            client_job: 1,
            job: tiny_job(),
        }
        .encode(),
    )
    .unwrap();

    // Skip the length prefix (a corrupt length is the oversized/truncated
    // case, covered above) and flip every payload byte.
    for offset in 4..stream_bytes.len() {
        let corrupted = FaultPlan::corrupt_at(offset, 0x80).apply(&stream_bytes);
        let mut client = Client::connect(daemon.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.send_raw(&corrupted).unwrap();
        // Whatever happens must be a decodable frame or a closed socket.
        let _ = client.recv();
    }
    assert_alive(&daemon);
    daemon.shutdown();
    daemon.join();
}

#[test]
fn disconnect_mid_job_cancels_the_running_engine_call() {
    let engine = Arc::new(MockEngine::holding().with_behavior(MockBehavior::BlockUntilCancelled));
    let daemon = serve("127.0.0.1:0", DaemonConfig::default(), engine.clone(), None).unwrap();

    let mut client = Client::connect(daemon.addr()).unwrap();
    let job_id = client.submit(tiny_job()).unwrap();
    match client.recv().unwrap() {
        Response::Accepted { client_job } => assert_eq!(client_job, job_id),
        other => panic!("unexpected response {other:?}"),
    }
    // Wait until the worker is actually inside the engine, then vanish.
    let start = Instant::now();
    while engine.calls() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "job never started"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(client);

    let start = Instant::now();
    while !engine.observed_cancel() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "disconnect did not cancel the running job"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.shutdown();
    daemon.join();
}

#[test]
fn explicit_cancel_aborts_a_running_job_with_a_job_error() {
    let engine = Arc::new(MockEngine::holding().with_behavior(MockBehavior::BlockUntilCancelled));
    let daemon = serve("127.0.0.1:0", DaemonConfig::default(), engine.clone(), None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let job_id = client.submit(tiny_job()).unwrap();
    match client.recv().unwrap() {
        Response::Accepted { client_job } => assert_eq!(client_job, job_id),
        other => panic!("unexpected response {other:?}"),
    }
    let start = Instant::now();
    while engine.calls() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "job never started"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    client.cancel(job_id).unwrap();
    match client.recv().unwrap() {
        Response::JobError {
            client_job,
            message,
        } => {
            assert_eq!(client_job, job_id);
            assert!(message.contains("cancelled"), "{message}");
        }
        other => panic!("unexpected response {other:?}"),
    }
    daemon.shutdown();
    daemon.join();
}

#[test]
fn queue_overload_rejects_with_retry_hints_and_stays_responsive() {
    let engine = Arc::new(MockEngine::holding().with_behavior(MockBehavior::Slow {
        steps: 1,
        step: Duration::from_millis(150),
    }));
    let config = DaemonConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 77,
        ..DaemonConfig::default()
    };
    let daemon = serve("127.0.0.1:0", config, engine, None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // Flood faster than one worker with a queue of one can drain: at least
    // one submission must be rejected with the configured retry hint.
    let mut job_ids = Vec::new();
    for _ in 0..6 {
        job_ids.push(client.submit(tiny_job()).unwrap());
    }
    let mut rejected = 0;
    let mut finished = 0;
    while finished + rejected < job_ids.len() {
        match client.recv().unwrap() {
            Response::Accepted { .. } | Response::Progress { .. } => {}
            Response::Rejected { retry_after_ms, .. } => {
                assert_eq!(retry_after_ms, 77);
                rejected += 1;
            }
            Response::Verdict { .. } | Response::JobError { .. } => finished += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(rejected > 0, "overload produced no rejection");
    assert!(finished > 0, "overload starved every job");

    // A parallel connection is still served during/after the overload.
    assert_alive(&daemon);
    let mut probe = Client::connect(daemon.addr()).unwrap();
    assert!(probe.stats().unwrap().rejected >= rejected as u64);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn corrupt_cache_snapshots_are_discarded_not_half_loaded() {
    // First life: verdict computed and persisted — but the store corrupts
    // the snapshot on the way to "disk".
    let store = Arc::new(FailStore::new(
        MemStore::new(),
        FailMode::CorruptOnSave(FaultPlan::truncate_at(9)),
    ));
    let engine = Arc::new(MockEngine::holding());
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        engine.clone(),
        Some(store.clone() as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    assert!(matches!(
        client.verify(tiny_job()).unwrap(),
        JobOutcome::Verdict { cached: false, .. }
    ));
    client.shutdown().unwrap();
    daemon.join();
    assert_eq!(engine.calls(), 1);
    assert!(
        store.inner().snapshot().unwrap().len() == 9,
        "snapshot not truncated"
    );

    // Second life: the truncated snapshot must be rejected wholesale — the
    // daemon starts empty and the job misses (reaching the new engine).
    let engine2 = Arc::new(MockEngine::holding());
    let daemon2 = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        engine2.clone(),
        Some(store as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon2.addr()).unwrap();
    assert!(matches!(
        client.verify(tiny_job()).unwrap(),
        JobOutcome::Verdict { cached: false, .. }
    ));
    assert_eq!(engine2.calls(), 1, "corrupt snapshot must not serve hits");
    daemon2.shutdown();
    daemon2.join();
}

#[test]
fn unavailable_stores_degrade_to_a_memory_only_cache() {
    let store = Arc::new(FailStore::new(MemStore::new(), FailMode::Unavailable));
    let engine = Arc::new(MockEngine::holding());
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        engine.clone(),
        Some(store as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    // Verdicts still flow; the second submission still hits in memory.
    assert!(matches!(
        client.verify(tiny_job()).unwrap(),
        JobOutcome::Verdict { cached: false, .. }
    ));
    assert!(matches!(
        client.verify(tiny_job()).unwrap(),
        JobOutcome::Verdict { cached: true, .. }
    ));
    assert_eq!(engine.calls(), 1);
    daemon.shutdown();
    daemon.join();
}

/// Jobs whose verdicts carry every body part: a certified holding verdict
/// and a violation with its witness, each also asked without a
/// certificate.
fn persisted_jobs() -> Vec<JobRequest> {
    let permutes = "OPENQASM 2.0;\nqreg q[3];\nx q[0];\ncx q[0], q[2];\n";
    let superposes = "OPENQASM 2.0;\nqreg q[3];\nx q[0];\nh q[2];\n";
    let mut jobs = Vec::new();
    for qasm in [permutes, superposes] {
        let job = JobRequest {
            qasm: qasm.into(),
            pre: Spec::Basis {
                num_qubits: 3,
                basis: 0,
            },
            post: Spec::AllBasis { num_qubits: 3 },
            mode: SpecMode::Inclusion,
            want_witness: true,
            limits: Default::default(),
            want_certificate: true,
        };
        jobs.push(job.clone());
        jobs.push(JobRequest {
            want_certificate: false,
            ..job
        });
    }
    jobs
}

/// Runs `jobs` on a real-engine daemon over `store`, returning each
/// verdict with whether it was served from the cache, and the daemon's
/// cache-miss count.
fn serve_jobs(store: Arc<dyn VerdictStore>, jobs: &[JobRequest]) -> (Vec<(Verdict, bool)>, u64) {
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(RealEngine::default()),
        Some(store),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let verdicts = jobs
        .iter()
        .map(|job| match client.verify(job.clone()).unwrap() {
            JobOutcome::Verdict { verdict, cached } => (verdict, cached),
            other => panic!("expected a verdict, got {other:?}"),
        })
        .collect();
    let misses = client.stats().unwrap().cache_misses;
    client.shutdown().unwrap();
    daemon.join();
    (verdicts, misses)
}

#[test]
fn stored_bodies_that_read_back_wrong_are_recomputed_not_served() {
    // First life: compute and persist every verdict.
    let jobs = persisted_jobs();
    let first = Arc::new(MemStore::new());
    let (fresh, _) = serve_jobs(first.clone(), &jobs);
    assert!(fresh[0].0.holds && fresh[0].0.certificate.is_some());
    assert!(!fresh[2].0.holds && fresh[2].0.witness.is_some());
    let snapshot = first.snapshot().expect("shutdown persists the cache");

    // Later lives recover that snapshot, but every stored body reads back
    // through a fault: a flipped byte or a cut file.  Each job must get
    // its first verdict, witness and certificate byte for byte, from the
    // cache or recomputed.
    let mut recomputed = 0;
    for at in (0..snapshot.len()).step_by(snapshot.len() / 24 + 1) {
        for plan in [FaultPlan::corrupt_at(at, 0x20), FaultPlan::truncate_at(at)] {
            let inner = MemStore::new();
            inner.save(&snapshot).unwrap();
            let store = Arc::new(FailStore::new(inner, FailMode::CorruptReads(plan)));
            let (verdicts, misses) = serve_jobs(store, &jobs);
            for ((verdict, _), (expected, _)) in verdicts.iter().zip(&fresh) {
                assert_eq!(verdict, expected, "{plan:?}");
            }
            let cold = verdicts.iter().filter(|(_, cached)| !cached).count() as u64;
            assert_eq!(cold, misses, "{plan:?}");
            recomputed += cold;
        }
    }
    assert!(recomputed > 0, "some faults must land in a stored body");
}
