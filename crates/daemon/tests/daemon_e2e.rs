//! End-to-end daemon tests against the **real** engine:
//!
//! * a cold cache miss returns the same verdict as calling
//!   [`autoq_core::verify`] directly, on every Table 2 preset family
//!   (Bernstein–Vazirani, MCToffoli, Grover) and across every wire spec
//!   kind (`Basis`, `AllBasis`, `Pattern`, `Automaton`),
//! * violation verdicts carry a witness that decodes (binary DAG codec)
//!   to exactly the tree the direct engine produces,
//! * a daemon restarted on a persisted store re-serves verdicts from the
//!   snapshot without re-running the engine.

use std::sync::Arc;

use autoq_circuit::generators::{bernstein_vazirani, grover_single, mc_toffoli};
use autoq_circuit::qasm::write_qasm;
use autoq_circuit::Circuit;
use autoq_core::presets::{bv_spec, mc_toffoli_spec};
use autoq_core::{verify, Engine, StateSet, VerificationOutcome};
use autoq_daemon::client::{Client, JobOutcome};
use autoq_daemon::engine::{MockEngine, RealEngine};
use autoq_daemon::proto::{JobRequest, Spec, SpecMode, Verdict};
use autoq_daemon::server::{serve, DaemonConfig, DaemonHandle};
use autoq_daemon::store::{MemStore, VerdictStore};
use autoq_treeaut::format::{to_binary, tree_from_binary};
use autoq_treeaut::Tree;

fn real_daemon() -> DaemonHandle {
    serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(RealEngine::default()),
        None,
    )
    .unwrap()
}

/// Wraps a [`StateSet`] as an explicit wire automaton spec.
fn automaton_spec(set: &StateSet) -> Spec {
    Spec::Automaton {
        num_qubits: set.num_qubits(),
        bytes: to_binary(set.automaton()),
    }
}

/// Submits `{pre} circuit {post}` to the daemon and checks the verdict
/// against a direct engine call.
fn check_against_direct(
    client: &mut Client,
    circuit: &Circuit,
    pre_set: &StateSet,
    post_set: &StateSet,
    pre: Spec,
    post: Spec,
    mode: SpecMode,
) -> Verdict {
    let outcome = client
        .verify(JobRequest {
            qasm: write_qasm(circuit),
            pre,
            post,
            mode,
            want_witness: true,
            limits: Default::default(),
            want_certificate: false,
        })
        .unwrap();
    let JobOutcome::Verdict { verdict, cached } = outcome else {
        panic!("unexpected outcome {outcome:?}");
    };
    assert!(!cached, "first submission must be a cold miss");

    let core_mode = match mode {
        SpecMode::Equality => autoq_core::SpecMode::Equality,
        SpecMode::Inclusion => autoq_core::SpecMode::Inclusion,
    };
    let direct = verify(&Engine::hybrid(), pre_set, circuit, post_set, core_mode);
    match &direct {
        VerificationOutcome::Holds => {
            assert!(verdict.holds, "daemon disagrees with direct verification");
            assert!(verdict.witness.is_none());
        }
        VerificationOutcome::Violated {
            witness,
            reachable_but_forbidden,
        } => {
            assert!(!verdict.holds, "daemon disagrees with direct verification");
            assert_eq!(verdict.reachable_but_forbidden, *reachable_but_forbidden);
            let decoded: Tree =
                tree_from_binary(verdict.witness.as_ref().expect("witness requested")).unwrap();
            // The decoded witness must be *a* violation witness.  Witness
            // choice can differ between runs, so check semantically: it is
            // exactly the direct witness, or at least on the violating side
            // of the right set.
            if decoded != *witness {
                if *reachable_but_forbidden {
                    assert!(!post_set.automaton().accepts(&decoded));
                } else {
                    assert!(post_set.automaton().accepts(&decoded));
                }
            }
        }
    }
    verdict
}

#[test]
fn bernstein_vazirani_preset_matches_direct_verification() {
    let daemon = real_daemon();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let hidden = [true, false, true, true];
    let circuit = bernstein_vazirani(&hidden);
    let spec = bv_spec(&hidden);
    let n = circuit.num_qubits();
    let expected = autoq_circuit::generators::bernstein_vazirani_expected_output(&hidden);

    // Holds, with Basis wire specs.
    let verdict = check_against_direct(
        &mut client,
        &circuit,
        &spec.pre,
        &spec.post,
        Spec::Basis {
            num_qubits: n,
            basis: 0,
        },
        Spec::Basis {
            num_qubits: n,
            basis: expected,
        },
        SpecMode::Equality,
    );
    assert!(verdict.holds);

    // Violated (wrong expected output), still with Basis wire specs.
    let wrong = expected ^ 0b10;
    let wrong_post = StateSet::basis_state(n, wrong);
    let verdict = check_against_direct(
        &mut client,
        &circuit,
        &spec.pre,
        &wrong_post,
        Spec::Basis {
            num_qubits: n,
            basis: 0,
        },
        Spec::Basis {
            num_qubits: n,
            basis: wrong,
        },
        SpecMode::Equality,
    );
    assert!(!verdict.holds);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn mc_toffoli_preset_matches_direct_verification() {
    let daemon = real_daemon();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let circuit = mc_toffoli(3);
    let spec = mc_toffoli_spec(&circuit);
    let n = circuit.num_qubits();
    let m = n / 2;
    let free: Vec<u32> = (0..m).chain(std::iter::once(n - 1)).collect();

    // Pattern wire spec on both sides (the paper's clean-work-qubits set).
    let verdict = check_against_direct(
        &mut client,
        &circuit,
        &spec.pre,
        &spec.post,
        Spec::Pattern {
            num_qubits: n,
            fixed: 0,
            free: free.clone(),
        },
        Spec::Pattern {
            num_qubits: n,
            fixed: 0,
            free,
        },
        SpecMode::Equality,
    );
    assert!(verdict.holds);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn grover_preset_matches_direct_verification_with_automaton_specs() {
    let daemon = real_daemon();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let (circuit, _layout) = grover_single(2, 0b01, Some(1));
    let n = circuit.num_qubits();
    let pre = StateSet::basis_state(n, 0);
    // Reference output set from a direct engine run, shipped to the daemon
    // as an explicit binary automaton: the triple holds by construction.
    let post = Engine::hybrid().apply_circuit(&pre, &circuit);
    let verdict = check_against_direct(
        &mut client,
        &circuit,
        &pre,
        &post,
        Spec::Basis {
            num_qubits: n,
            basis: 0,
        },
        automaton_spec(&post),
        SpecMode::Equality,
    );
    assert!(verdict.holds);

    // Inclusion against the full basis-state set must fail (the Grover
    // output is a superposition, not a basis state) — witness required.
    let all = StateSet::all_basis_states(n);
    let verdict = check_against_direct(
        &mut client,
        &circuit,
        &pre,
        &all,
        Spec::Basis {
            num_qubits: n,
            basis: 0,
        },
        Spec::AllBasis { num_qubits: n },
        SpecMode::Inclusion,
    );
    assert!(!verdict.holds);
    assert!(verdict.witness.is_some());

    daemon.shutdown();
    daemon.join();
}

#[test]
fn second_submission_hits_the_cache_with_the_same_verdict() {
    let daemon = real_daemon();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let job = JobRequest {
        qasm: "OPENQASM 2.0;\nqreg q[1];\nx q[0];\n".into(),
        pre: Spec::Basis {
            num_qubits: 1,
            basis: 0,
        },
        post: Spec::Basis {
            num_qubits: 1,
            basis: 0,
        },
        mode: SpecMode::Equality,
        want_witness: true,
        limits: Default::default(),
        want_certificate: false,
    };
    let JobOutcome::Verdict {
        verdict: cold,
        cached: false,
    } = client.verify(job.clone()).unwrap()
    else {
        panic!("expected a cold verdict");
    };
    assert!(!cold.holds);

    // Same job, differently formatted source: digest-identical → hit.
    let mut reformatted = job.clone();
    reformatted.qasm =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg r[1];\n  x   r[0] ; // same\n".into();
    let JobOutcome::Verdict {
        verdict: warm,
        cached: true,
    } = client.verify(reformatted).unwrap()
    else {
        panic!("expected a cached verdict");
    };
    assert_eq!(warm, cold, "cache must return the identical verdict");

    daemon.shutdown();
    daemon.join();
}

#[test]
fn restart_re_serves_persisted_verdicts_without_the_engine() {
    let store = Arc::new(MemStore::new());
    let witness = Tree::basis_state(6, 0b101010);
    let job = JobRequest {
        qasm: "OPENQASM 2.0;\nqreg q[6];\nh q[0];\ncx q[0], q[1];\n".into(),
        pre: Spec::AllBasis { num_qubits: 6 },
        post: Spec::AllBasis { num_qubits: 6 },
        mode: SpecMode::Inclusion,
        want_witness: true,
        limits: Default::default(),
        want_certificate: false,
    };

    // First life: a violating mock engine computes one verdict, which the
    // shutdown persists through the store.
    let engine = Arc::new(MockEngine::violating(witness.clone()));
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        engine.clone(),
        Some(store.clone() as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let JobOutcome::Verdict {
        verdict: first,
        cached: false,
    } = client.verify(job.clone()).unwrap()
    else {
        panic!("expected a cold verdict");
    };
    assert!(!first.holds);
    client.shutdown().unwrap();
    daemon.join();
    assert_eq!(engine.calls(), 1);
    assert!(
        store.snapshot().is_some(),
        "shutdown must persist the cache"
    );

    // Second life: fresh daemon, fresh engine, same store.  The verdict —
    // witness included — must come from the snapshot, engine untouched.
    let engine2 = Arc::new(MockEngine::holding());
    let daemon2 = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        engine2.clone(),
        Some(store as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon2.addr()).unwrap();
    let JobOutcome::Verdict {
        verdict: revived,
        cached: true,
    } = client.verify(job).unwrap()
    else {
        panic!("expected a cached verdict after restart");
    };
    assert_eq!(revived, first);
    assert_eq!(engine2.calls(), 0, "restart hit must never run the engine");

    // The persisted witness decodes to the original tree, sharing and all.
    let decoded = tree_from_binary(revived.witness.as_ref().unwrap()).unwrap();
    assert_eq!(decoded, witness);
    assert_eq!(decoded.node_count(), witness.node_count());

    daemon2.shutdown();
    daemon2.join();
}

#[test]
fn restart_answers_certified_hits_from_the_recovered_snapshot() {
    let store = Arc::new(MemStore::new());
    let post_set = StateSet::from_state_fn(2, |basis| match basis {
        0b00 | 0b11 => autoq_amplitude::Algebraic::one_over_sqrt2(),
        _ => autoq_amplitude::Algebraic::zero(),
    });
    let job = JobRequest {
        qasm: "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n".into(),
        pre: Spec::Basis {
            num_qubits: 2,
            basis: 0,
        },
        post: automaton_spec(&post_set),
        mode: SpecMode::Equality,
        want_witness: false,
        limits: Default::default(),
        want_certificate: true,
    };
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        Arc::new(RealEngine::default()),
        Some(store.clone() as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let JobOutcome::Verdict {
        verdict: certified,
        cached: false,
    } = client.verify(job.clone()).unwrap()
    else {
        panic!("expected a cold verdict");
    };
    assert!(certified.certificate.is_some());
    client.shutdown().unwrap();
    daemon.join();

    // The second life indexes the snapshot; the certificate request is
    // answered from it, bundle byte for byte, with no engine run.
    let engine = Arc::new(MockEngine::holding());
    let daemon = serve(
        "127.0.0.1:0",
        DaemonConfig::default(),
        engine.clone(),
        Some(store as Arc<dyn VerdictStore>),
    )
    .unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    for _ in 0..2 {
        let JobOutcome::Verdict {
            verdict,
            cached: true,
        } = client.verify(job.clone()).unwrap()
        else {
            panic!("expected a certified hit after restart");
        };
        assert_eq!(verdict, certified);
    }
    assert_eq!(engine.calls(), 0);
    assert_eq!(client.stats().unwrap().verdicts_certified, 2);
    daemon.shutdown();
    daemon.join();
}

#[test]
fn job_errors_are_scoped_and_descriptive() {
    let daemon = real_daemon();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // Parse error with its line number.
    let mut job = JobRequest {
        qasm: "OPENQASM 2.0;\nqreg q[1];\nrz(pi/4) q[0];\n".into(),
        pre: Spec::Basis {
            num_qubits: 1,
            basis: 0,
        },
        post: Spec::Basis {
            num_qubits: 1,
            basis: 0,
        },
        mode: SpecMode::Equality,
        want_witness: false,
        limits: Default::default(),
        want_certificate: false,
    };
    let JobOutcome::Failed { message } = client.verify(job.clone()).unwrap() else {
        panic!("expected a job error");
    };
    assert!(message.contains("line 3"), "{message}");

    // Width mismatch between spec and circuit.
    job.qasm = "OPENQASM 2.0;\nqreg q[2];\nx q[0];\n".into();
    let JobOutcome::Failed { message } = client.verify(job.clone()).unwrap() else {
        panic!("expected a job error");
    };
    assert!(message.contains("qubits"), "{message}");

    // Malformed automaton spec bytes.
    job.pre = Spec::Automaton {
        num_qubits: 2,
        bytes: vec![0xde, 0xad],
    };
    let JobOutcome::Failed { message } = client.verify(job.clone()).unwrap() else {
        panic!("expected a job error");
    };
    assert!(message.contains("automaton"), "{message}");

    // A well-formed encoding of a cyclic automaton is malformed too: it
    // denotes no finite trees and would push reduction onto its slow
    // reference path.
    let mut cyclic = autoq_treeaut::TreeAutomaton::new(2);
    let leaf = cyclic.leaf_state(&autoq_amplitude::Algebraic::one());
    let q = cyclic.add_state();
    cyclic.add_internal(q, autoq_treeaut::InternalSymbol::new(1), leaf, leaf);
    cyclic.add_internal(q, autoq_treeaut::InternalSymbol::new(0), q, q);
    cyclic.add_root(q);
    job.pre = Spec::Automaton {
        num_qubits: 2,
        bytes: to_binary(&cyclic),
    };
    let JobOutcome::Failed { message } = client.verify(job).unwrap() else {
        panic!("expected a job error");
    };
    assert!(message.contains("cycle"), "{message}");

    // The connection survived all four failures.
    client.ping().unwrap();
    daemon.shutdown();
    daemon.join();
}

#[test]
fn certificate_requests_ship_checker_verified_bundles() {
    let daemon = real_daemon();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // EPR preparation: {|00>} epr {(|00> + |11>)/sqrt(2)} holds.
    let epr = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";
    let post_set = StateSet::from_state_fn(2, |basis| match basis {
        0b00 | 0b11 => autoq_amplitude::Algebraic::one_over_sqrt2(),
        _ => autoq_amplitude::Algebraic::zero(),
    });
    let job = JobRequest {
        qasm: epr.into(),
        pre: Spec::Basis {
            num_qubits: 2,
            basis: 0,
        },
        post: automaton_spec(&post_set),
        mode: SpecMode::Equality,
        want_witness: false,
        limits: Default::default(),
        want_certificate: true,
    };

    // A plain submission first, so the cache holds a certificate-free
    // entry when the certificate request arrives.
    let mut plain = job.clone();
    plain.want_certificate = false;
    let JobOutcome::Verdict {
        verdict: bare,
        cached: false,
    } = client.verify(plain.clone()).unwrap()
    else {
        panic!("expected a cold verdict");
    };
    assert!(bare.holds);
    assert!(bare.certificate.is_none());

    // The certificate request must NOT be served from the plain entry: it
    // recomputes and ships a bundle that the independent checker accepts.
    let JobOutcome::Verdict {
        verdict: certified,
        cached: false,
    } = client.verify(job.clone()).unwrap()
    else {
        panic!("certificate request must miss the plain cache entry");
    };
    assert!(certified.holds);
    let bundle = certified
        .certificate
        .as_ref()
        .expect("certificate requested");
    let certs = autoq_treeaut::format::certificates_from_binary(bundle).unwrap();
    assert_eq!(certs.len(), 2, "equality verdicts carry both directions");
    // Re-run the circuit application locally to reconstruct the output
    // automaton the daemon certified against (the hybrid engine is
    // deterministic), then re-check both directions with the independent
    // checker — the client-side half of the certification pipeline.
    let circuit = autoq_circuit::qasm::parse_qasm(epr).unwrap();
    let output = Engine::hybrid().apply_circuit(&StateSet::basis_state(2, 0), &circuit);
    autoq_certify::check_inclusion(output.automaton(), post_set.automaton(), &certs[0]).unwrap();
    autoq_certify::check_inclusion(post_set.automaton(), output.automaton(), &certs[1]).unwrap();

    // Third submission: the enriched entry now answers from the cache,
    // bundle included.
    let JobOutcome::Verdict {
        verdict: warm,
        cached: true,
    } = client.verify(job).unwrap()
    else {
        panic!("expected a cached certified verdict");
    };
    assert_eq!(warm.certificate.as_deref(), Some(bundle.as_slice()));

    // And a plain job hits the same entry but gets no bundle framed.
    let JobOutcome::Verdict {
        verdict: stripped,
        cached: true,
    } = client.verify(plain).unwrap()
    else {
        panic!("expected a cached verdict");
    };
    assert!(stripped.certificate.is_none());

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.verdicts_certified, 2,
        "fresh + cached certified serves"
    );
    assert_eq!(stats.certificates_rejected, 0);

    daemon.shutdown();
    daemon.join();
}

#[test]
fn checker_rejection_is_a_hard_error_and_counted() {
    let engine = Arc::new(
        MockEngine::holding().with_soundness_failure("leaf transition 0 of A has no justified set"),
    );
    let daemon = serve("127.0.0.1:0", DaemonConfig::default(), engine, None).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();
    let job = JobRequest {
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
        want_certificate: true,
    };

    let JobOutcome::Failed { message } = client.verify(job.clone()).unwrap() else {
        panic!("a rejected certificate must fail the job");
    };
    assert!(message.contains("soundness violation"), "{message}");

    // The unsound verdict must not have been cached: resubmitting without
    // a certificate runs the engine again and succeeds.
    let mut plain = job;
    plain.want_certificate = false;
    let JobOutcome::Verdict { cached, .. } = client.verify(plain).unwrap() else {
        panic!("expected a verdict");
    };
    assert!(!cached, "rejected runs must not populate the cache");

    let stats = client.stats().unwrap();
    assert_eq!(stats.certificates_rejected, 1);
    assert_eq!(stats.verdicts_certified, 0);

    daemon.shutdown();
    daemon.join();
}
