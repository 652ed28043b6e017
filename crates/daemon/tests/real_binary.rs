//! End-to-end drive of the **real `autoq-daemon` binary** (every other
//! suite serves in-process): spawn the executable, compute a cold-miss
//! verdict with the real engine, prove a 1 ms deadline on a wide job
//! returns a typed `Exhausted` (no hang), `SIGKILL` the process, restart
//! it on the same cache path, and assert journal recovery re-serves the
//! verdict as a cache hit.

use std::net::TcpStream;
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use autoq_circuit::generators::bernstein_vazirani;
use autoq_circuit::qasm::write_qasm;
use autoq_daemon::client::{Client, JobOutcome};
use autoq_daemon::proto::{JobLimits, JobRequest, Spec, SpecMode};

const ADDR: &str = "127.0.0.1:7413";

fn spawn_daemon(cache: &std::path::Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_autoq-daemon"));
    cmd.args(["--addr", ADDR, "--cache-file"])
        .arg(cache)
        .args(extra);
    let mut child = cmd.spawn().expect("spawn daemon binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if TcpStream::connect(ADDR).is_ok() {
            return child;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("daemon did not start listening");
}

fn bv_job(limits: JobLimits) -> JobRequest {
    let hidden = [true, false, true, true, false, true];
    let circuit = bernstein_vazirani(&hidden);
    let expected = autoq_circuit::generators::bernstein_vazirani_expected_output(&hidden);
    JobRequest {
        qasm: write_qasm(&circuit),
        pre: Spec::Basis {
            num_qubits: 7,
            basis: 0,
        },
        post: Spec::Basis {
            num_qubits: 7,
            basis: expected,
        },
        mode: SpecMode::Equality,
        want_witness: false,
        limits,
        want_certificate: false,
    }
}

#[test]
fn real_binary_survives_kill_dash_nine() {
    let dir = std::env::temp_dir().join(format!("aqv-drive-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("v.aqvc");

    // Life 1: cold miss computed by the real engine, journaled, then SIGKILL.
    let mut daemon = spawn_daemon(&cache, &["--snapshot-every", "100000"]);
    let mut client = Client::connect(ADDR).unwrap();
    match client.verify(bv_job(JobLimits::default())).unwrap() {
        JobOutcome::Verdict { verdict, cached } => {
            assert!(!cached, "life 1 must be a cold miss");
            assert!(verdict.holds, "BV identity spec must hold");
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    // A distinct, much wider job under a 1 ms deadline must come back as a
    // typed exhausted outcome — no hang, no OOM.
    let hidden: Vec<bool> = (0..40).map(|i| i % 3 != 0).collect();
    let wide = bernstein_vazirani(&hidden);
    let expected = autoq_circuit::generators::bernstein_vazirani_expected_output(&hidden);
    let outcome = client
        .verify(JobRequest {
            qasm: write_qasm(&wide),
            pre: Spec::Basis {
                num_qubits: 41,
                basis: 0,
            },
            post: Spec::Basis {
                num_qubits: 41,
                basis: expected,
            },
            mode: SpecMode::Equality,
            want_witness: false,
            limits: JobLimits {
                deadline_ms: Some(1),
                max_states: None,
            },
            want_certificate: false,
        })
        .unwrap();
    assert!(
        matches!(outcome, JobOutcome::Exhausted { .. }),
        "40-bit BV under a 1 ms deadline must exhaust, got {outcome:?}"
    );
    drop(client);
    daemon.kill().unwrap();
    daemon.wait().unwrap();

    // Life 2: recovery = snapshot + journal replay; the verdict must be cached.
    let mut daemon = spawn_daemon(&cache, &[]);
    let mut client = Client::connect(ADDR).unwrap();
    match client.verify(bv_job(JobLimits::default())).unwrap() {
        JobOutcome::Verdict { verdict, cached } => {
            assert!(cached, "life 2 must re-serve the journaled verdict");
            assert!(verdict.holds);
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    drop(client);
    daemon.kill().unwrap();
    daemon.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
