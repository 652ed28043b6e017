//! Protocol round-trip suite: every request/response variant survives
//! `decode(encode(x)) == x`, a full client/server exchange against the
//! [`MockEngine`] drives every protocol state, and property tests feed the
//! decoders random frame payloads to prove they never panic.

use std::sync::Arc;
use std::time::Duration;

use autoq_core::Resource;
use autoq_daemon::client::{Client, JobOutcome};
use autoq_daemon::engine::{MockBehavior, MockEngine};
use autoq_daemon::proto::{
    DaemonStats, ErrorCode, JobLimits, JobRequest, Request, Response, Spec, SpecMode, Verdict,
    MAGIC, PROTOCOL_VERSION,
};
use autoq_daemon::server::{serve, DaemonConfig};
use autoq_daemon::WireError;
use proptest::prelude::*;

fn sample_job() -> JobRequest {
    JobRequest {
        qasm: "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n".into(),
        pre: Spec::Basis {
            num_qubits: 2,
            basis: 0,
        },
        post: Spec::Pattern {
            num_qubits: 2,
            fixed: 0,
            free: vec![0, 1],
        },
        mode: SpecMode::Inclusion,
        want_witness: true,
        limits: Default::default(),
        want_certificate: false,
    }
}

#[test]
fn every_request_variant_round_trips() {
    let requests = vec![
        Request::Hello {
            magic: MAGIC,
            version: PROTOCOL_VERSION,
        },
        Request::Submit {
            client_job: u64::MAX,
            job: sample_job(),
        },
        Request::Submit {
            client_job: 0,
            job: JobRequest {
                qasm: String::new(),
                pre: Spec::AllBasis { num_qubits: 70 },
                post: Spec::Automaton {
                    num_qubits: 70,
                    bytes: vec![0xAB; 300],
                },
                mode: SpecMode::Equality,
                want_witness: false,
                limits: Default::default(),
                want_certificate: false,
            },
        },
        Request::Submit {
            client_job: 11,
            job: JobRequest {
                limits: JobLimits {
                    deadline_ms: Some(5_000),
                    max_states: None,
                },
                ..sample_job()
            },
        },
        Request::Submit {
            client_job: 12,
            job: JobRequest {
                limits: JobLimits {
                    deadline_ms: Some(1),
                    max_states: Some(u64::MAX),
                },
                ..sample_job()
            },
        },
        Request::Submit {
            client_job: 13,
            job: JobRequest {
                limits: JobLimits {
                    deadline_ms: None,
                    max_states: Some(1),
                },
                ..sample_job()
            },
        },
        Request::Cancel { client_job: 42 },
        Request::Stats,
        Request::Ping,
        Request::Shutdown,
    ];
    for request in requests {
        let decoded = Request::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
    }
}

#[test]
fn every_response_variant_round_trips() {
    let responses = vec![
        Response::HelloAck {
            version: PROTOCOL_VERSION,
        },
        Response::Accepted { client_job: 7 },
        Response::Rejected {
            client_job: 7,
            retry_after_ms: 250,
        },
        Response::Progress {
            client_job: 7,
            applied: 12,
            total: 90,
        },
        Response::Verdict {
            client_job: 7,
            cached: true,
            verdict: Verdict {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certificate: None,
            },
        },
        Response::Verdict {
            client_job: 8,
            cached: false,
            verdict: Verdict {
                holds: false,
                reachable_but_forbidden: true,
                witness: Some(vec![1, 2, 3, 4]),
                certificate: None,
            },
        },
        Response::Verdict {
            client_job: 9,
            cached: false,
            verdict: Verdict {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certificate: Some(vec![0x41, 0x51, 0x49, 0x43]),
            },
        },
        Response::JobError {
            client_job: 9,
            message: "QASM parse error: line 3".into(),
        },
        Response::Exhausted {
            client_job: 11,
            resource: Resource::WallClock,
            limit: 5_000,
            observed: 5_103,
        },
        Response::Exhausted {
            client_job: 12,
            resource: Resource::States,
            limit: 1 << 20,
            observed: (1 << 20) + 17,
        },
        Response::Exhausted {
            client_job: 13,
            resource: Resource::Transitions,
            limit: 3,
            observed: u64::MAX,
        },
        Response::StatsReport(DaemonStats {
            jobs_completed: 10,
            cache_hits: 20,
            cache_misses: 30,
            rejected: 1,
            queue_depth: 2,
            workers: 4,
            cache_entries: 9,
            jobs_exhausted: 5,
            jobs_panicked: 2,
            verdicts_certified: 7,
            certificates_rejected: 1,
        }),
        Response::Pong,
        Response::ShuttingDown,
        Response::Error {
            code: ErrorCode::VersionMismatch,
            message: "daemon speaks protocol 1".into(),
        },
    ];
    for response in responses {
        let decoded = Response::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
    }
}

#[test]
fn every_submit_encodes_under_the_one_submit_opcode() {
    let limits = JobLimits {
        deadline_ms: Some(10),
        max_states: Some(300),
    };
    let jobs = [
        sample_job(),
        JobRequest {
            limits,
            ..sample_job()
        },
        JobRequest {
            want_certificate: true,
            ..sample_job()
        },
        JobRequest {
            limits,
            want_certificate: true,
            ..sample_job()
        },
    ];
    for (client_job, job) in (0..).zip(jobs) {
        let submit = Request::Submit { client_job, job };
        let frame = submit.encode();
        assert_eq!(frame[0], 0x02, "{submit:?}");
        assert_eq!(Request::decode(&frame).unwrap(), submit);
    }
}

fn assert_malformed(decoded: Result<impl std::fmt::Debug, WireError>, what: &str) {
    assert!(
        matches!(decoded, Err(WireError::Malformed { .. })),
        "{what}: {decoded:?}"
    );
}

#[test]
fn retired_opcodes_and_short_frames_are_malformed() {
    // A plain Submit ends with the limits flags byte (0) and the
    // certificate byte (0); a deadline adds a u32 after the flags byte.
    let plain = Request::Submit {
        client_job: 5,
        job: sample_job(),
    }
    .encode();
    assert_eq!(plain[plain.len() - 2..], [0, 0]);
    let limited = Request::Submit {
        client_job: 5,
        job: JobRequest {
            limits: JobLimits {
                deadline_ms: Some(10),
                max_states: None,
            },
            ..sample_job()
        },
    }
    .encode();

    let mut retired = plain.clone();
    retired[0] = 0x07;
    assert_malformed(Request::decode(&retired), "opcode 0x07");
    assert_malformed(
        Request::decode(&plain[..plain.len() - 2]),
        "Submit without its limits block",
    );
    assert_malformed(
        Request::decode(&limited[..limited.len() - 3]),
        "Submit cut inside its deadline",
    );
    assert_malformed(
        Request::decode(&plain[..plain.len() - 1]),
        "Submit without its certificate byte",
    );
    let mut bad_certificate = plain;
    *bad_certificate.last_mut().unwrap() = 2;
    assert_malformed(
        Request::decode(&bad_certificate),
        "unknown certificate flags",
    );

    // Each counter of this report encodes as one varint byte.
    let stats = Response::StatsReport(DaemonStats {
        jobs_completed: 4,
        workers: 2,
        ..DaemonStats::default()
    })
    .encode();
    for missing in [1, 2, 4] {
        assert_malformed(
            Response::decode(&stats[..stats.len() - missing]),
            &format!("StatsReport missing {missing} counters"),
        );
    }
}

#[test]
fn a_version_1_hello_is_refused_with_version_mismatch() {
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(MockEngine::holding()),
        None,
    )
    .unwrap();
    match Client::connect_with_hello(daemon.addr(), MAGIC, 1) {
        Err(WireError::Malformed { message, .. }) => {
            assert!(message.contains("VersionMismatch"), "{message}")
        }
        other => panic!("expected a refused handshake, got {:?}", other.err()),
    }
    daemon.shutdown();
    daemon.join();
}

#[test]
fn truncated_payloads_error_at_every_cut() {
    let payloads = [
        Request::Submit {
            client_job: 3,
            job: sample_job(),
        }
        .encode(),
        Response::Verdict {
            client_job: 3,
            cached: false,
            verdict: Verdict {
                holds: false,
                reachable_but_forbidden: true,
                witness: Some(vec![9; 17]),
                certificate: Some(vec![7; 9]),
            },
        }
        .encode(),
    ];
    for payload in payloads {
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "request cut {cut}"
            );
            assert!(
                Response::decode(&payload[..cut]).is_err(),
                "response cut {cut}"
            );
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut payload = Request::Ping.encode();
    payload.push(0);
    assert!(Request::decode(&payload).is_err());
    let mut payload = Response::Pong.encode();
    payload.push(0);
    assert!(Response::decode(&payload).is_err());
}

/// One connection exercising the full happy-path state machine against a
/// mock engine: handshake, ping, stats, miss (accepted → progress →
/// verdict), hit (cached verdict), cancel, shutdown.
#[test]
fn full_protocol_exchange_against_the_mock_engine() {
    let engine = Arc::new(MockEngine::holding().with_behavior(MockBehavior::Slow {
        steps: 3,
        step: Duration::from_millis(1),
    }));
    let daemon = serve("127.0.0.1:0", DaemonConfig::default(), engine.clone(), None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_completed, 0);
    assert_eq!(stats.workers, DaemonConfig::default().workers as u32);

    // Cold miss: runs on the engine.
    let outcome = client.verify(sample_job()).unwrap();
    match outcome {
        JobOutcome::Verdict { verdict, cached } => {
            assert!(verdict.holds);
            assert!(!cached);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(engine.calls(), 1);

    // Warm hit: answered from the cache, engine untouched.
    let outcome = client.verify(sample_job()).unwrap();
    match outcome {
        JobOutcome::Verdict { cached, .. } => assert!(cached),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(engine.calls(), 1, "cache hit must not reach the engine");

    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_entries, 1);

    client.shutdown().unwrap();
    daemon.join();
}

/// `workers: 0` still spawns one worker, and the stats say so.
#[test]
fn stats_count_the_worker_threads_actually_spawned() {
    let config = DaemonConfig {
        workers: 0,
        ..DaemonConfig::default()
    };
    let daemon = serve("127.0.0.1:0", config, Arc::new(MockEngine::holding()), None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    assert!(matches!(
        client.verify(sample_job()).unwrap(),
        JobOutcome::Verdict { cached: false, .. }
    ));
    assert_eq!(client.stats().unwrap().workers, 1);
    daemon.shutdown();
    daemon.join();
}

/// A submission whose verdict streams progress frames: the mock engine
/// emits one per step and the daemon forwards at least the final one.
#[test]
fn progress_frames_reach_the_client() {
    let engine = Arc::new(MockEngine::holding().with_behavior(MockBehavior::Slow {
        steps: 4,
        step: Duration::from_millis(2),
    }));
    let config = DaemonConfig {
        progress_interval: Duration::from_millis(0),
        ..DaemonConfig::default()
    };
    let daemon = serve("127.0.0.1:0", config, engine, None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let job_id = client.submit(sample_job()).unwrap();

    let mut saw_progress = false;
    loop {
        match client.recv().unwrap() {
            Response::Accepted { client_job } => assert_eq!(client_job, job_id),
            Response::Progress {
                client_job,
                applied,
                total,
            } => {
                assert_eq!(client_job, job_id);
                assert!(applied <= total);
                saw_progress = true;
            }
            Response::Verdict { client_job, .. } => {
                assert_eq!(client_job, job_id);
                break;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(saw_progress, "no progress frame observed");
    daemon.shutdown();
    daemon.join();
}

/// Two jobs pipelined on one connection: responses interleave but every
/// frame carries the right id.
#[test]
fn pipelined_jobs_are_correlated_by_client_job_id() {
    let engine = Arc::new(MockEngine::holding());
    let daemon = serve("127.0.0.1:0", DaemonConfig::default(), engine, None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let first = client.submit(sample_job()).unwrap();
    let mut second_job = sample_job();
    second_job.want_witness = false; // different spec digest → second miss
    let second = client.submit(second_job).unwrap();
    assert_ne!(first, second);

    let mut verdicts = 0;
    while verdicts < 2 {
        match client.recv().unwrap() {
            Response::Accepted { client_job } | Response::Progress { client_job, .. } => {
                assert!(client_job == first || client_job == second);
            }
            Response::Verdict { client_job, .. } => {
                assert!(client_job == first || client_job == second);
                verdicts += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    daemon.shutdown();
    daemon.join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random frame payloads never panic either decoder.
    #[test]
    fn decoding_random_payloads_never_panics(len in 0usize..64, seed in any::<u64>()) {
        let mut bytes = Vec::with_capacity(len);
        let mut state = seed | 1;
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            bytes.push((state >> 56) as u8);
        }
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Structured fuzz: random but plausible Submit payloads round-trip.
    #[test]
    fn random_submits_round_trip(
        client_job in any::<u64>(),
        num_qubits in 1u32..128,
        basis_seed in any::<u64>(),
        mode in 0u8..2,
        want_witness in 0u8..2,
        want_certificate in 0u8..2,
    ) {
        let basis = (basis_seed as u128).wrapping_mul(0x1234_5678_9abc_def1)
            & ((1u128 << num_qubits.min(127)) - 1);
        let request = Request::Submit {
            client_job,
            job: JobRequest {
                qasm: format!("OPENQASM 2.0;\nqreg q[{num_qubits}];\n"),
                pre: Spec::Basis { num_qubits, basis },
                post: Spec::Pattern {
                    num_qubits,
                    fixed: 0,
                    free: (0..num_qubits.min(8)).collect(),
                },
                mode: if mode == 0 { SpecMode::Equality } else { SpecMode::Inclusion },
                want_witness: want_witness == 1,
                limits: Default::default(),
                want_certificate: want_certificate == 1,
            },
        };
        let decoded = Request::decode(&request.encode()).unwrap();
        prop_assert_eq!(decoded, request);
    }
}
