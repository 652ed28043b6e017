//! End-to-end behaviour of the unified interrupt/budget layer: deadlines
//! and size budgets stop verification, hunts and portfolio runs with typed
//! outcomes instead of hangs or unbounded growth.

use std::time::{Duration, Instant};

use autoq_amplitude::Algebraic;
use autoq_circuit::generators::{
    bernstein_vazirani, mc_toffoli, random_circuit, RandomCircuitConfig,
};
use autoq_circuit::mutation::insert_gate;
use autoq_circuit::Circuit;
use autoq_circuit::Gate;
use autoq_core::composition::apply_formula_in_place_interruptible;
use autoq_core::formula::update_formula;
use autoq_core::{
    verify_with, BugHunter, CertifyPolicy, Engine, HuntJob, HuntPool, Interrupt, Resource,
    RunOptions, SpecMode, StateSet, StopReason, VerifyError,
};
use rand::SeedableRng;

/// Run options governed by `interrupt`, with no observer.
fn governed(interrupt: &Interrupt) -> RunOptions<'_> {
    RunOptions {
        interrupt: Some(interrupt),
        observer: None,
    }
}

fn superposing_circuit(qubits: u32, gates: usize, seed: u64) -> autoq_circuit::Circuit {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    random_circuit(
        &RandomCircuitConfig {
            num_qubits: qubits,
            num_gates: gates,
            include_superposing_gates: true,
        },
        &mut rng,
    )
}

#[test]
fn unlimited_interrupt_matches_the_plain_run() {
    let circuit = bernstein_vazirani(&[true, false, true]);
    let n = circuit.num_qubits();
    let input = StateSet::basis_state(n, 0);
    let engine = Engine::hybrid();
    let (plain, plain_stats) = engine.apply_circuit_with_stats(&input, &circuit);
    let (governed, governed_stats) = engine
        .run(&input, &circuit, governed(&Interrupt::new()))
        .expect("an unlimited interrupt must not stop the run");
    assert!(autoq_treeaut::equivalence(plain.automaton(), governed.automaton()).holds());
    assert_eq!(plain_stats, governed_stats);
}

#[test]
fn expired_deadline_stops_before_the_first_gate() {
    let circuit = superposing_circuit(12, 40, 3);
    let input = StateSet::basis_state(circuit.num_qubits(), 0);
    let interrupt = Interrupt::new().with_deadline(Duration::ZERO);
    let started = Instant::now();
    let err = Engine::hybrid()
        .run(&input, &circuit, governed(&interrupt))
        .expect_err("a zero deadline must stop the run");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "an expired deadline must stop promptly"
    );
    match err.reason {
        StopReason::Exhausted {
            resource: Resource::WallClock,
            ..
        } => {}
        other => panic!("expected a wall-clock stop, got {other:?}"),
    }
    assert_eq!(
        err.partial_stats.gates_applied, 0,
        "the pre-gate checkpoint fires before any gate is applied"
    );
}

#[test]
fn state_budget_stops_a_superposing_run_within_one_gate() {
    let circuit = superposing_circuit(10, 60, 7);
    let input = StateSet::basis_state(circuit.num_qubits(), 0);
    let engine = Engine::hybrid();
    // Establish the run's true peak, then rerun with a budget below it.
    let (_, stats) = engine.apply_circuit_with_stats(&input, &circuit);
    assert!(stats.peak_states > 4, "need a circuit that actually grows");
    let cap = (stats.peak_states / 2).max(2) as u64;
    let interrupt = Interrupt::new().with_max_states(cap);
    let err = engine
        .run(&input, &circuit, governed(&interrupt))
        .expect_err("a budget below the peak must stop the run");
    match err.reason {
        StopReason::Exhausted {
            resource: Resource::States,
            limit,
            observed,
        } => {
            assert_eq!(limit, cap);
            assert!(observed > cap, "observed {observed} must exceed cap {cap}");
        }
        other => panic!("expected a states stop, got {other:?}"),
    }
    assert!(
        err.partial_stats.gates_applied < stats.gates_applied,
        "the run must stop before finishing the circuit"
    );
    // Within one gate boundary of the limit: the recorded watermark is the
    // one that tripped the check, so it is the partial run's peak.
    assert_eq!(
        err.partial_stats.peak_states,
        match err.reason {
            StopReason::Exhausted { observed, .. } => observed as usize,
            _ => unreachable!(),
        }
    );
}

/// The state budget sees the swap ladder's allocated states, orphaned ids
/// included, which `peak_states` does not report: a cap equal to the
/// reported peak still stops this run.  The gap is documented on
/// `Interrupt::with_max_states` and `FormulaPeak::states`.
#[test]
fn state_budget_counts_ladder_states_that_peak_states_does_not_report() {
    let circuit = Circuit::from_gates(
        3,
        vec![
            Gate::Cnot {
                control: 0,
                target: 1,
            },
            Gate::X(2),
            Gate::H(2),
            Gate::H(0),
            Gate::Cnot {
                control: 2,
                target: 1,
            },
            Gate::H(1),
        ],
    )
    .expect("valid gates");
    let input = StateSet::basis_pattern(3, 0, &[0]);
    let engine = Engine::hybrid();
    let (_, stats) = engine.apply_circuit_with_stats(&input, &circuit);
    assert_eq!(stats.peak_states, 23);
    let err = engine
        .run(
            &input,
            &circuit,
            governed(&Interrupt::new().with_max_states(23)),
        )
        .expect_err("the ladder's orphaned ids exceed the reported peak");
    assert_eq!(
        err.reason,
        StopReason::Exhausted {
            resource: Resource::States,
            limit: 23,
            observed: 27,
        }
    );
}

#[test]
fn transition_budget_stops_the_run_with_a_typed_reason() {
    let circuit = superposing_circuit(10, 60, 11);
    let input = StateSet::basis_state(circuit.num_qubits(), 0);
    let engine = Engine::hybrid();
    let (_, stats) = engine.apply_circuit_with_stats(&input, &circuit);
    let cap = (stats.peak_transitions / 2).max(2) as u64;
    let err = engine
        .run(
            &input,
            &circuit,
            governed(&Interrupt::new().with_max_transitions(cap)),
        )
        .expect_err("a transition budget below the peak must stop the run");
    assert!(matches!(
        err.reason,
        StopReason::Exhausted {
            resource: Resource::Transitions,
            ..
        }
    ));
}

#[test]
fn composition_engine_checks_inside_single_gates() {
    // The composition encoding grows automata inside a single gate's swap
    // ladder; the in-ladder checkpoints must trip even when the budget is
    // exhausted mid-gate.
    let circuit = superposing_circuit(8, 30, 5);
    let input = StateSet::basis_state(circuit.num_qubits(), 0);
    let engine = Engine::composition();
    let err = engine
        .run(
            &input,
            &circuit,
            governed(&Interrupt::new().with_max_states(1)),
        )
        .expect_err("a one-state budget must stop a composition run");
    assert!(matches!(err.reason, StopReason::Exhausted { .. }));
}

/// A single composition gate whose input and output fit a transition
/// budget, but whose swap ladder outgrows it, stops between two ladder
/// passes.  Checked only between gates, the same run would stop after the
/// gate, reporting at least the gate's whole in-gate peak.
#[test]
fn composition_ladder_stops_between_passes() {
    let n = 8;
    let input = StateSet::basis_state(n, 0);
    let gate = Gate::H(0);
    let engine = Engine::composition();
    let mut unbounded = input.automaton().clone();
    let peak = apply_formula_in_place_interruptible(
        &mut unbounded,
        &update_formula(&gate).expect("H has an update formula"),
        &engine.composition_options(),
        None,
    )
    .expect("no interrupt, so the gate cannot stop early");
    let output = engine.apply_gate(&input, &gate);
    let cap = input.transition_count().max(output.transition_count()) as u64;
    assert!(
        peak.transitions as u64 > cap,
        "the gate must outgrow its input and output"
    );
    let circuit = Circuit::from_gates(n, [gate]).expect("well-formed circuit");
    let err = engine
        .run(
            &input,
            &circuit,
            governed(&Interrupt::new().with_max_transitions(cap)),
        )
        .expect_err("the ladder outgrows the budget");
    match err.reason {
        StopReason::Exhausted {
            resource: Resource::Transitions,
            limit,
            observed,
        } => {
            assert_eq!(limit, cap);
            assert!(
                observed < peak.transitions as u64,
                "observed {observed} must be below the in-gate peak {}: the run \
                 stops between ladder passes, not after the gate",
                peak.transitions
            );
        }
        other => panic!("expected a transitions stop, got {other:?}"),
    }
    assert_eq!(err.partial_stats.gates_applied, 0);
}

#[test]
fn verify_with_reports_partial_stats() {
    let circuit = superposing_circuit(10, 50, 13);
    let n = circuit.num_qubits();
    let pre = StateSet::basis_state(n, 0);
    let post = StateSet::all_basis_states(n);
    let engine = Engine::hybrid();
    let err = match verify_with(
        &engine,
        &pre,
        &circuit,
        &post,
        SpecMode::Inclusion,
        CertifyPolicy::Off,
        governed(&Interrupt::new().with_max_states(2)),
    ) {
        Err(VerifyError::Interrupted(err)) => err,
        other => panic!("a two-state budget must stop the verification, got {other:?}"),
    };
    assert!(matches!(err.reason, StopReason::Exhausted { .. }));
    assert!(err.partial_stats.peak_states >= 2);
}

/// The `(applied, total)` sequence the daemon streams as progress frames:
/// one call per applied gate, `(1, n)` through `(n, n)`, on both the plain
/// run and the governed, certified verification.
#[test]
fn observer_sees_every_gate_once_in_order() {
    let epr = Circuit::from_gates(
        2,
        [
            Gate::H(0),
            Gate::Cnot {
                control: 0,
                target: 1,
            },
            Gate::T(1),
            Gate::Tdg(1),
        ],
    )
    .unwrap();
    let n = epr.gates().len();
    let expected: Vec<(usize, usize)> = (1..=n).map(|applied| (applied, n)).collect();
    let pre = StateSet::basis_state(2, 0);
    let engine = Engine::hybrid();

    let mut calls = Vec::new();
    let mut observer = |applied, total| calls.push((applied, total));
    let options = RunOptions {
        interrupt: None,
        observer: Some(&mut observer),
    };
    let (_, stats) = engine.run(&pre, &epr, options).unwrap();
    assert_eq!(calls, expected);
    assert_eq!(calls.len(), stats.gates_applied);

    let post = StateSet::from_state_fn(2, |basis| match basis {
        0b00 | 0b11 => Algebraic::one_over_sqrt2(),
        _ => Algebraic::zero(),
    });
    let interrupt = Interrupt::new();
    let mut calls = Vec::new();
    let mut observer = |applied, total| calls.push((applied, total));
    let options = RunOptions {
        interrupt: Some(&interrupt),
        observer: Some(&mut observer),
    };
    let certified = verify_with(
        &engine,
        &pre,
        &epr,
        &post,
        SpecMode::Equality,
        CertifyPolicy::OnHolds,
        options,
    )
    .expect("the Bell triple holds and certifies");
    assert!(certified.outcome.holds());
    assert_eq!(calls, expected);
    assert_eq!(calls.len(), certified.stats.gates_applied);
    let bundle = certified.certificate.expect("OnHolds ships the bundle");
    let record = certified
        .stats
        .certified
        .expect("the record lands in stats");
    assert_eq!(record.digest, autoq_circuit::digest::sha256(&bundle));
}

#[test]
fn cancellation_still_wins_over_budgets() {
    let circuit = superposing_circuit(10, 50, 17);
    let input = StateSet::basis_state(circuit.num_qubits(), 0);
    let interrupt = Interrupt::new().with_max_states(1);
    interrupt.cancel();
    let err = Engine::hybrid()
        .run(&input, &circuit, governed(&interrupt))
        .expect_err("a cancelled interrupt must stop the run");
    assert_eq!(err.reason, StopReason::Cancelled);
}

#[test]
fn interrupted_hunt_merges_stats_across_iterations() {
    let circuit = mc_toffoli(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    // Identical circuits: the hunt would run all iterations; a sub-peak
    // budget interrupts it somewhere past the first.
    let full = BugHunter::default().hunt(&circuit, &circuit, &mut rng);
    let cap = (full.stats.peak_states.saturating_sub(1)).max(1) as u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    match BugHunter::default().hunt_interruptible(
        &circuit,
        &circuit,
        &mut rng,
        &Interrupt::new().with_max_states(cap),
    ) {
        Err(interrupted) => {
            assert!(matches!(interrupted.reason, StopReason::Exhausted { .. }));
            assert!(interrupted.partial_stats.gates_applied > 0);
        }
        // The budget can land exactly on the peak of the last iteration; a
        // completed hunt is then also sound.
        Ok(report) => assert!(!report.bug_found),
    }
}

#[test]
fn portfolio_with_expired_deadline_degrades_gracefully() {
    let original = mc_toffoli(3);
    let jobs: Vec<HuntJob> = (0..3)
        .map(|i| HuntJob {
            label: format!("mutant-{i}"),
            original: original.clone(),
            candidate: insert_gate(&original, Gate::X(4), 1 + i),
            seed: 0xDEAD + i as u64,
        })
        .collect();
    let exterior = Interrupt::new().with_deadline(Duration::ZERO);
    let started = Instant::now();
    let outcome = HuntPool::new(Engine::hybrid())
        .with_threads(2)
        .run_with_interrupt(&jobs, &exterior);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "an expired deadline must stop the portfolio promptly"
    );
    assert!(matches!(
        outcome.stopped,
        Some(StopReason::Exhausted {
            resource: Resource::WallClock,
            ..
        })
    ));
    assert_eq!(outcome.hunts_completed, 0);
    assert_eq!(outcome.hunts_cancelled, jobs.len());
}

#[test]
fn portfolio_without_limits_reports_no_stop() {
    let original = mc_toffoli(3);
    let jobs: Vec<HuntJob> = (0..2)
        .map(|i| HuntJob {
            label: format!("mutant-{i}"),
            original: original.clone(),
            candidate: insert_gate(&original, Gate::X(4), 2 + i),
            seed: 0xBEEF + i as u64,
        })
        .collect();
    let outcome = HuntPool::new(Engine::hybrid()).with_threads(2).run(&jobs);
    assert!(outcome.win.is_some());
    assert!(
        outcome.stopped.is_none(),
        "a winner-cancelled portfolio is not an exhausted one"
    );
}
