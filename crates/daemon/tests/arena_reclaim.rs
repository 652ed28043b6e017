//! Violated jobs that ship a witness leave the number of live tree nodes
//! where it was after the first one: each job's trees are freed once its
//! witness is serialised.
//!
//! This file is its own integration-test binary on purpose: the live count
//! is process-wide, so no unrelated test may build trees in this process
//! while the daemon runs.  Do not add tests here.

use std::sync::Arc;

use autoq_circuit::generators::{bernstein_vazirani, bernstein_vazirani_expected_output};
use autoq_circuit::qasm::write_qasm;
use autoq_daemon::client::{Client, JobOutcome};
use autoq_daemon::engine::RealEngine;
use autoq_daemon::proto::{JobRequest, Spec, SpecMode};
use autoq_daemon::server::{serve, DaemonConfig};
use autoq_treeaut::arena;

#[test]
fn violated_jobs_leave_the_arena_flat() {
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(RealEngine::default()),
        None,
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let mut after_first = None;
    for job in 0..12u32 {
        // A different hidden string per job, so every job is a cache miss,
        // checked against a wrong post-condition, so every job violates.
        let hidden: Vec<bool> = (0..10).map(|bit| (job >> (bit % 4)) & 1 == 1).collect();
        let circuit = bernstein_vazirani(&hidden);
        let num_qubits = circuit.num_qubits();
        let outcome = client
            .verify(JobRequest {
                qasm: write_qasm(&circuit),
                pre: Spec::Basis {
                    num_qubits,
                    basis: 0,
                },
                post: Spec::Basis {
                    num_qubits,
                    basis: bernstein_vazirani_expected_output(&hidden) ^ 0b10,
                },
                mode: SpecMode::Equality,
                want_witness: true,
                limits: Default::default(),
                want_certificate: false,
            })
            .unwrap();
        let JobOutcome::Verdict { verdict, cached } = outcome else {
            panic!("job {job}: expected a verdict, got {outcome:?}");
        };
        assert!(!cached && !verdict.holds, "job {job}");
        assert!(verdict.witness.is_some(), "job {job} lost its witness");
        // The worker frees the job's trees before it answers, so the count
        // is settled.
        let live = arena::live_node_count();
        match after_first {
            None => after_first = Some(live),
            Some(first) => assert_eq!(live, first, "job {job} leaked tree nodes"),
        }
    }

    daemon.shutdown();
    daemon.join();
}
