//! Paper-scale witness extraction: Table 3 of the AutoQ paper hunts bugs at
//! 35 and 70 qubits, which requires the witness trees produced by the
//! inclusion check to be DAG-shared.  With the old boxed representation a
//! 35-qubit witness needed `2^36` explicit nodes (hundreds of GiB); with
//! hash-consing it needs `2n + 1` shared nodes and is extracted in
//! milliseconds.  These tests drive the full pipeline — hunt, witness
//! extraction, automaton re-insertion, simulator confirmation — at ≥ 35
//! qubits.

use autoq_circuit::generators::{random_circuit, ripple_carry_adder, RandomCircuitConfig};
use autoq_circuit::mutation::inject_random_gate;
use autoq_circuit::{Circuit, Gate};
use autoq_core::{BugHunter, Engine, StateSet};
use autoq_simulator::SparseState;
use autoq_treeaut::{equivalence, Tree, TreeAutomaton};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 35-qubit hunt on a lightweight reversible circuit, end to end: the
/// witness is produced, is linear in size, and is confirmed by the exact
/// sparse simulator via the inverse-circuit preimage.
#[test]
fn hunt_at_35_qubits_produces_and_confirms_a_witness() {
    let n = 35u32;
    let mut circuit = Circuit::new(n);
    for q in 0..n - 1 {
        circuit
            .push(Gate::Cnot {
                control: q,
                target: q + 1,
            })
            .unwrap();
    }
    // The "optimiser bug": one stray X deep in the cascade.
    let mut buggy = circuit.clone();
    buggy.push(Gate::X(n / 2)).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let report = BugHunter::new(Engine::hybrid()).hunt(&circuit, &buggy, &mut rng);
    assert!(report.bug_found, "the injected X must be found");
    let witness = report.witness.as_ref().expect("witness tree");
    assert_eq!(witness.num_qubits(), n);
    // DAG-shared: linear in the qubit count, not 2^(n+1).
    assert!(
        witness.node_count() <= 2 * n as usize + 1,
        "witness must stay linear, got {} nodes",
        witness.node_count()
    );
    assert_eq!(
        witness.support_size(),
        1,
        "reversible circuits map basis states to basis states"
    );

    // Confirm with the exact simulator, as the paper does with SliQSim.
    let basis = report
        .confirm_with_simulator(&circuit, &buggy)
        .expect("witness must have a basis-state preimage");
    assert_ne!(
        SparseState::run(&circuit, basis),
        SparseState::run(&buggy, basis)
    );
}

/// Direct witness extraction at 40 qubits through the core `StateSet` API:
/// two singleton sets with different members are not equivalent, and the
/// counterexample tree is re-run through the automata (membership is
/// memoised on the DAG, so this is polynomial, not `2^40`).
#[test]
fn equivalence_counterexamples_at_40_qubits() {
    let n = 40u32;
    let a = StateSet::basis_state(n, 1 << 39 | 0b101);
    let b = StateSet::basis_state(n, 0b101);
    let result = equivalence(a.automaton(), b.automaton());
    assert!(!result.holds());
    let witness = result.witness().expect("witness tree");
    assert_eq!(witness.num_qubits(), n);
    assert!(witness.node_count() <= 2 * n as usize + 1);
    // The witness belongs to exactly one of the two languages.
    assert!(a.automaton().accepts(witness) != b.automaton().accepts(witness));
    // Re-inserting the DAG witness into a fresh automaton is linear too.
    let singleton = TreeAutomaton::from_tree(witness);
    assert!(singleton.accepts(witness));
    assert!(singleton.state_count() <= 2 * n as usize + 1);
}

/// The adder workload of Table 3 at paper scale (36 qubits): the hybrid
/// engine hunts down an injected phase flip and the witness confirms.
///
/// Runs in ~1 s optimised but minutes unoptimised, so it is ignored by the
/// default (debug) test run; CI executes it in release via
/// `cargo test --release -p autoq-tests --test witness_scale -- --include-ignored`.
#[test]
#[ignore = "exact-arithmetic heavy: run in release (--include-ignored)"]
fn adder_hunt_at_36_qubits_end_to_end() {
    let circuit = ripple_carry_adder(17);
    assert_eq!(circuit.num_qubits(), 36);
    let buggy = autoq_circuit::mutation::insert_gate(&circuit, Gate::Z(18), 89);
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let report = BugHunter::new(Engine::hybrid()).hunt(&circuit, &buggy, &mut rng);
    assert!(report.bug_found);
    let witness = report.witness.as_ref().expect("witness tree");
    assert_eq!(witness.num_qubits(), 36);
    assert!(witness.node_count() <= 73);
    assert!(report.confirm_with_simulator(&circuit, &buggy).is_some());
}

/// The paper's 70-qubit `Random` width, end to end: a 70-qubit reversible
/// cascade with one injected bug is hunted, the witness extracted (linear,
/// straddling bit 64), and confirmed by the sparse simulator — the workload
/// class the `u64` → `u128` basis-index widening unlocked.
///
/// Seconds in release but minutes unoptimised, so it is ignored in the debug
/// test run; CI executes it in release in the bench-smoke job via
/// `cargo test --release -p autoq-tests --test witness_scale -- --include-ignored`.
#[test]
#[ignore = "exact-arithmetic heavy: run in release (--include-ignored)"]
fn hunt_at_70_qubits_produces_and_confirms_a_witness() {
    let n = 70u32;
    let mut circuit = Circuit::new(n);
    for q in 0..n - 1 {
        circuit
            .push(Gate::Cnot {
                control: q,
                target: q + 1,
            })
            .unwrap();
    }
    for q in (0..n).step_by(7) {
        circuit.push(Gate::X(q)).unwrap();
    }
    let buggy = autoq_circuit::mutation::insert_gate(&circuit, Gate::X(65), 40);

    let mut rng = rand::rngs::StdRng::seed_from_u64(70);
    let report = BugHunter::new(Engine::hybrid()).hunt(&circuit, &buggy, &mut rng);
    assert!(report.bug_found, "the injected X must be found");
    let witness = report.witness.as_ref().expect("witness tree");
    assert_eq!(witness.num_qubits(), n);
    assert!(
        witness.node_count() <= 2 * n as usize + 1,
        "witness must stay linear, got {} nodes",
        witness.node_count()
    );
    assert_eq!(witness.support_size(), 1);

    let basis = report
        .confirm_with_simulator(&circuit, &buggy)
        .expect("witness must have a basis-state preimage");
    assert_ne!(
        SparseState::run(&circuit, basis),
        SparseState::run(&buggy, basis)
    );
}

/// `Tree::basis_state` and witness sizes stay linear right up to the
/// 128-qubit `u128` index width — the old 64-qubit `u64` boundary (where
/// `1u64 << 64` used to overflow) is now just another width.
#[test]
fn witness_representation_scales_to_128_qubits() {
    for n in [64u32, 65, 70, 128] {
        let basis = autoq_treeaut::basis::index_mask(n) - 12345;
        let tree = Tree::basis_state(n, basis);
        assert_eq!(tree.num_qubits(), n);
        assert_eq!(tree.node_count(), 2 * n as usize + 1);
        assert_eq!(tree.amplitude(basis), autoq_amplitude::Algebraic::one());
    }
}

/// Direct witness extraction at the paper's 70-qubit `Random` width: the
/// automata stack produces and re-checks counterexample trees past the old
/// 64-qubit basis-index cap.
#[test]
fn equivalence_counterexamples_at_70_qubits() {
    let n = 70u32;
    let a = StateSet::basis_state(n, (1u128 << 69) | 0b1011);
    let b = StateSet::basis_state(n, 0b1011);
    let result = equivalence(a.automaton(), b.automaton());
    assert!(!result.holds());
    let witness = result.witness().expect("witness tree");
    assert_eq!(witness.num_qubits(), n);
    assert!(witness.node_count() <= 2 * n as usize + 1);
    assert!(a.automaton().accepts(witness) != b.automaton().accepts(witness));
    // The witness converts losslessly into the sparse simulator.
    let state = SparseState::from_tree(witness);
    assert_eq!(state.support_size(), 1);
    assert_eq!(state.num_qubits(), n);
}

/// The superposing `random35` row of `table3 --paper` (circuit: the first
/// 35-qubit paper-ratio `random_circuit` drawn from seed 3500; row seed
/// 4245 injects the bug, hunt seed `4245 ^ 0xabcd`, 11 iterations), pinned
/// end to end.  Its witness has 262,144 non-zero entries, and the circuit
/// holds `Rx(π/2)`/`Ry(π/2)` gates, whose daggers are seven gates each.
/// Confirmation must return the same basis input as before the pull-back
/// walked the forward schedule backwards, and that pull-back must equal the
/// dagger circuit's, amplitude for amplitude.
#[test]
#[ignore = "exact-arithmetic heavy: run in release (--include-ignored)"]
fn random35_paper_row_confirms_on_its_pinned_input() {
    const MAX_SUPPORT: usize = 1 << 20;
    let circuit = random_circuit(
        &RandomCircuitConfig::with_paper_ratio(35),
        &mut StdRng::seed_from_u64(3500),
    );
    let seed = 4245;
    let (buggy, _) = inject_random_gate(&circuit, true, &mut StdRng::seed_from_u64(seed));
    let report = BugHunter::new(Engine::hybrid())
        .with_max_iterations(11)
        .hunt(&circuit, &buggy, &mut StdRng::seed_from_u64(seed ^ 0xabcd));
    assert!(report.bug_found);
    assert_eq!(
        report.confirm_with_simulator(&circuit, &buggy),
        Some(33_522_204_741)
    );

    // The hunt's witness pulls back to one basis state through either
    // circuit, within confirmation's support cap on both paths.
    let witness = report.witness.as_ref().expect("witness tree");
    for source in [&circuit, &buggy] {
        let mut inverse = SparseState::from_tree(witness);
        assert!(inverse.try_apply_inverse(source, MAX_SUPPORT));
        let mut dagger = SparseState::from_tree(witness);
        assert!(dagger.try_apply_circuit(&source.dagger(), MAX_SUPPORT));
        assert_eq!(inverse, dagger);
        assert_eq!(inverse.support_size(), 1);
    }
}
