//! Differential tests of the sparse simulator against the dense one.
//!
//! `DenseState` is the oracle: every gate kind, random circuits and their
//! inverses (which contain `S†`, `T†` and the `Rx`/`Ry` powers that
//! `random_circuit` never draws) are run on superposed inputs whose
//! amplitudes cancel exactly, and the sparse result must equal the dense one
//! amplitude for amplitude, zeros dropped.
//!
//! The exact inverse kernels (`apply_gate_inverse`, `try_apply_inverse`)
//! are checked against their oracle, the dagger circuit applied gate by
//! gate, and against `DenseState`.

use autoq_amplitude::Algebraic;
use autoq_circuit::generators::{random_circuit, RandomCircuitConfig};
use autoq_circuit::{Circuit, Gate};
use autoq_simulator::{DenseState, SparseState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{distinct_qubits, every_kind, random_any_circuit, random_any_gate, random_basis};

/// Amplitudes whose sums and differences cancel exactly: `a` and `−a`,
/// `a` and `±i·a`, and values on different `1/√2` exponents.
fn amplitude_pool() -> Vec<Algebraic> {
    let half = Algebraic::one().div_sqrt2().div_sqrt2();
    vec![
        Algebraic::one(),
        -&Algebraic::one(),
        Algebraic::i(),
        -&Algebraic::i(),
        Algebraic::omega(),
        Algebraic::omega_pow(3),
        Algebraic::one_over_sqrt2(),
        -&Algebraic::one_over_sqrt2(),
        half.clone(),
        -&half,
    ]
}

/// A random superposed input over `n` qubits (not normalised: both
/// simulators are linear), as sparse entries in random order.
fn superposed_input(n: u32, rng: &mut StdRng) -> Vec<(u128, Algebraic)> {
    let pool = amplitude_pool();
    let mut entries = Vec::new();
    for b in 0..1u128 << n {
        if rng.gen_bool(0.6) {
            entries.push((b, pool[rng.gen_range(0..pool.len())].clone()));
        }
    }
    if entries.is_empty() {
        entries.push((random_basis(n, rng), Algebraic::one()));
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..=i));
    }
    entries
}

fn dense_of(n: u32, entries: &[(u128, Algebraic)]) -> DenseState {
    let mut vector = vec![Algebraic::zero(); 1 << n];
    for (b, amp) in entries {
        vector[*b as usize] = amp.clone();
    }
    DenseState::from_amplitudes(n, vector)
}

fn assert_same(sparse: &SparseState, dense: &DenseState, context: &str) {
    assert_eq!(
        sparse.to_amplitude_map(),
        dense.to_amplitude_map(),
        "{context}"
    );
    assert_eq!(sparse.support_size(), dense.to_amplitude_map().len());
}

/// Runs `circuit` on `entries` in both simulators and compares.
fn check_circuit(n: u32, circuit: &Circuit, entries: &[(u128, Algebraic)], context: &str) {
    let mut sparse = SparseState::from_amplitudes(n, entries.iter().cloned());
    let mut dense = dense_of(n, entries);
    sparse.apply_circuit(circuit);
    dense.apply_circuit(circuit);
    assert_same(&sparse, &dense, context);
}

/// Undoes `gate` on `entries` three ways — `apply_gate_inverse`, the
/// sparse dagger gate by gate, the dense dagger — and compares; then checks
/// that the gate followed by its inverse is the identity.
fn check_gate_inverse(n: u32, gate: &Gate, entries: &[(u128, Algebraic)]) {
    let input = SparseState::from_amplitudes(n, entries.iter().cloned());
    let mut inverse = input.clone();
    inverse.apply_gate_inverse(gate);
    let mut dagger = input.clone();
    let mut dense = dense_of(n, entries);
    for g in gate.dagger() {
        dagger.apply_gate(&g);
        dense.apply_gate(&g);
    }
    assert_eq!(
        inverse, dagger,
        "{gate:?}⁻¹ against its dagger on {n} qubits"
    );
    assert_same(&inverse, &dense, &format!("{gate:?}⁻¹ on {n} qubits"));

    let mut round_trip = input.clone();
    round_trip.apply_gate(gate);
    round_trip.apply_gate_inverse(gate);
    assert_eq!(round_trip, input, "{gate:?} then its inverse on {n} qubits");
}

/// Pulls `entries` back through `circuit` with `try_apply_inverse` and
/// through `circuit.dagger()` with `try_apply_circuit`, and compares.
fn check_circuit_inverse(n: u32, circuit: &Circuit, entries: &[(u128, Algebraic)], context: &str) {
    let mut inverse = SparseState::from_amplitudes(n, entries.iter().cloned());
    let mut dagger = inverse.clone();
    assert!(inverse.try_apply_inverse(circuit, usize::MAX));
    assert!(dagger.try_apply_circuit(&circuit.dagger(), usize::MAX));
    assert_eq!(inverse, dagger, "{context}");
}

#[test]
fn every_gate_kind_matches_dense_on_superposed_states() {
    let mut rng = StdRng::seed_from_u64(151);
    for n in 1..=4u32 {
        for _ in 0..6 {
            let qubits = distinct_qubits(n, n.min(3) as usize, &mut rng);
            let entries = superposed_input(n, &mut rng);
            for gate in every_kind(&qubits) {
                let mut sparse = SparseState::from_amplitudes(n, entries.iter().cloned());
                let mut dense = dense_of(n, &entries);
                sparse.apply_gate(&gate);
                dense.apply_gate(&gate);
                assert_same(&sparse, &dense, &format!("{gate:?} on {n} qubits"));
            }
        }
    }
}

#[test]
fn inverse_circuits_match_dense_and_undo_the_circuit() {
    let mut rng = StdRng::seed_from_u64(152);
    for n in 3..=6u32 {
        let config = RandomCircuitConfig::with_paper_ratio(n);
        for round in 0..4 {
            let circuit = if round % 2 == 0 {
                random_circuit(&config, &mut rng)
            } else {
                random_any_circuit(n, &mut rng)
            };
            let inverse = circuit.dagger();
            let entries = superposed_input(n, &mut rng);
            check_circuit(n, &circuit, &entries, "circuit");
            check_circuit(n, &inverse, &entries, "inverse circuit");

            let input = SparseState::from_amplitudes(n, entries.iter().cloned());
            let mut there_and_back = input.clone();
            there_and_back.apply_circuit(&circuit);
            there_and_back.apply_circuit(&inverse);
            assert_eq!(there_and_back, input, "C;C† is not the identity");
        }
    }
}

#[test]
fn gate_inverses_match_the_dagger_and_dense_on_superposed_states() {
    let mut rng = StdRng::seed_from_u64(155);
    for n in 1..=4u32 {
        for _ in 0..4 {
            let qubits = distinct_qubits(n, n.min(3) as usize, &mut rng);
            let entries = superposed_input(n, &mut rng);
            for gate in every_kind(&qubits) {
                check_gate_inverse(n, &gate, &entries);
            }
        }
    }
}

#[test]
fn circuit_inverses_match_the_dagger_circuit() {
    let mut rng = StdRng::seed_from_u64(156);
    for n in 3..=6u32 {
        let config = RandomCircuitConfig::with_paper_ratio(n);
        for round in 0..4 {
            let circuit = if round % 2 == 0 {
                random_circuit(&config, &mut rng)
            } else {
                random_any_circuit(n, &mut rng)
            };
            let entries = superposed_input(n, &mut rng);
            check_circuit_inverse(n, &circuit, &entries, &format!("{n} qubits, round {round}"));
            // A forward run pulled back along its own schedule returns the
            // input exactly.
            let b = random_basis(n, &mut rng);
            let mut state = SparseState::run(&circuit, b);
            assert!(state.try_apply_inverse(&circuit, usize::MAX));
            assert_eq!(state, SparseState::basis_state(n, b));
        }
    }
}

#[test]
fn try_apply_inverse_gives_up_past_the_support_cap() {
    // Pulling |000⟩ back through H⊗H⊗H spreads it over all 8 entries.
    let circuit = Circuit::from_gates(3, [Gate::H(0), Gate::H(1), Gate::H(2)]).unwrap();
    let mut state = SparseState::basis_state(3, 0);
    assert!(!state.try_apply_inverse(&circuit, 4));
    let mut state = SparseState::basis_state(3, 0);
    assert!(state.try_apply_inverse(&circuit, 8));
    assert_eq!(state.support_size(), 8);
}

#[test]
fn exact_cancellation_removes_entries() {
    let a = Algebraic::omega();
    let minus_i_a = &a * &(-&Algebraic::i());
    // H(a|0⟩ ± a|1⟩) = √2·a|0⟩ or √2·a|1⟩, Ry(a|0⟩ + a|1⟩) = √2·a|1⟩ and
    // Rx(a|0⟩ − i·a|1⟩) = −√2·i·a|1⟩.
    let cases = [
        (Gate::H(0), vec![(0, a.clone()), (1, a.clone())]),
        (Gate::H(0), vec![(0, a.clone()), (1, -&a)]),
        (Gate::RyPi2(0), vec![(0, a.clone()), (1, a.clone())]),
        (Gate::RxPi2(0), vec![(0, a.clone()), (1, minus_i_a)]),
    ];
    for (gate, entries) in cases {
        let mut sparse = SparseState::from_amplitudes(1, entries.iter().cloned());
        let mut dense = dense_of(1, &entries);
        sparse.apply_gate(&gate);
        dense.apply_gate(&gate);
        assert_same(&sparse, &dense, &format!("{gate:?}"));
        assert_eq!(sparse.support_size(), 1, "{gate:?} must cancel one branch");
    }
    // A whole superposition folding back onto one basis state.
    let mut state = SparseState::basis_state(3, 0b101);
    let spread = Circuit::from_gates(3, [Gate::H(0), Gate::T(1), Gate::H(1), Gate::H(2)]).unwrap();
    state.apply_circuit(&spread);
    assert_eq!(state.support_size(), 8);
    state.apply_circuit(&spread.dagger());
    assert_eq!(state, SparseState::basis_state(3, 0b101));
}

#[test]
fn equality_ignores_the_order_tables_were_filled_in() {
    let mut rng = StdRng::seed_from_u64(153);
    for n in 1..=5u32 {
        let entries = superposed_input(n, &mut rng);
        let forward = SparseState::from_amplitudes(n, entries.iter().cloned());
        let backward = SparseState::from_amplitudes(n, entries.iter().rev().cloned());
        assert_eq!(forward, backward);

        // The same state reached by a circuit and given directly.
        let circuit = random_any_circuit(n, &mut rng);
        let mut simulated = forward.clone();
        simulated.apply_circuit(&circuit);
        let mut listed: Vec<_> = simulated.to_amplitude_map().into_iter().collect();
        listed.reverse();
        assert_eq!(simulated, SparseState::from_amplitudes(n, listed.clone()));

        // One amplitude changed (or one entry dropped) breaks equality.
        let (b, amp) = listed[0].clone();
        listed[0] = (b, &amp + &Algebraic::one());
        assert_ne!(simulated, SparseState::from_amplitudes(n, listed.clone()));
        assert_ne!(
            simulated,
            SparseState::from_amplitudes(n, listed.into_iter().skip(1))
        );
    }
}

/// Every gate kind, and its inverse, on 3 qubits of a 128-qubit register,
/// drawn from {0, 1, 63, 64, 126, 127} in every order (so controls sit both
/// above and below the target, and qubit 0 is bit 127, the top bit).  The
/// other 125 qubits hold one of three random patterns, each under its own
/// random superposition of the 3 touched qubits, so a gate meets several
/// blocks of entries; each pattern's output must be what `DenseState`
/// computes on the 3 touched qubits alone.
#[test]
fn every_gate_kind_matches_dense_on_the_edges_of_a_128_qubit_register() {
    const N: u32 = 128;
    const EDGES: [u32; 6] = [0, 1, 63, 64, 126, 127];
    let mut rng = StdRng::seed_from_u64(157);
    let local_kinds = every_kind(&[0, 1, 2]);
    for &a in &EDGES {
        for &b in &EDGES {
            for &c in &EDGES {
                if a == b || b == c || a == c {
                    continue;
                }
                let touched = [a, b, c];
                // Local basis index `l` (qubit k of the local state is bit
                // 2 − k) placed at the touched qubits of the register.
                let place = |l: u128| {
                    (0..3)
                        .filter(|k| l >> (2 - k) & 1 == 1)
                        .fold(0u128, |b, k| b | 1 << (N - 1 - touched[k]))
                };
                let touched_bits = place(0b111);
                let mut patterns = Vec::new();
                while patterns.len() < 3 {
                    let pattern = rng.gen::<u128>() & !touched_bits;
                    if !patterns.contains(&pattern) {
                        patterns.push(pattern);
                    }
                }
                let locals: Vec<_> = patterns
                    .iter()
                    .map(|_| superposed_input(3, &mut rng))
                    .collect();
                let wide: Vec<(u128, Algebraic)> = patterns
                    .iter()
                    .zip(&locals)
                    .flat_map(|(&pattern, local)| {
                        local
                            .iter()
                            .map(move |(l, amp)| (pattern | place(*l), amp.clone()))
                    })
                    .collect();
                for (gate, local_gate) in every_kind(&touched).into_iter().zip(&local_kinds) {
                    for inverse in [false, true] {
                        let mut sparse = SparseState::from_amplitudes(N, wide.iter().cloned());
                        let mut expected = Vec::new();
                        for (&pattern, local) in patterns.iter().zip(&locals) {
                            let mut dense = dense_of(3, local);
                            if inverse {
                                for g in local_gate.dagger() {
                                    dense.apply_gate(&g);
                                }
                            } else {
                                dense.apply_gate(local_gate);
                            }
                            for (l, amp) in dense.to_amplitude_map() {
                                expected.push((pattern | place(l), amp));
                            }
                        }
                        if inverse {
                            sparse.apply_gate_inverse(&gate);
                        } else {
                            sparse.apply_gate(&gate);
                        }
                        // State equality compares the entries in order, so
                        // it also catches a kernel that leaves them unsorted.
                        assert_eq!(
                            sparse,
                            SparseState::from_amplitudes(N, expected),
                            "{gate:?} (inverse: {inverse}) on 128 qubits"
                        );
                    }
                }
            }
        }
    }
}

#[test]
#[ignore = "~2000 random circuits: run in release (--include-ignored)"]
fn long_differential_run_over_every_gate_kind() {
    let mut rng = StdRng::seed_from_u64(154);
    for round in 0..2000 {
        let n = rng.gen_range(1..=10u32);
        let circuit = random_any_circuit(n, &mut rng);
        let entries = if rng.gen_bool(0.5) {
            superposed_input(n, &mut rng)
        } else {
            vec![(random_basis(n, &mut rng), Algebraic::one())]
        };
        check_circuit(n, &circuit, &entries, &format!("round {round}"));
        check_circuit(
            n,
            &circuit.dagger(),
            &entries,
            &format!("round {round} (inverse)"),
        );
        check_circuit_inverse(n, &circuit, &entries, &format!("round {round} (pull-back)"));
        let gate = random_any_gate(n, &mut rng);
        check_gate_inverse(n, &gate, &entries);
    }
}
