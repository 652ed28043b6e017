//! `Engine::run` against a step-by-step gate loop built from the public
//! layer functions, the way the benchmark's traced replay rebuilds it.
//!
//! The loop follows the engine's contract literally: the interference
//! schedule, each primitive through `permutation::apply_in_place` or
//! `composition::apply_formula_in_place_interruptible`, and `reduce()`
//! exactly when the reduction policy says so.  The engine may skip a
//! reduction whose result it already holds (after the one-state path),
//! but it must end with the same automaton and the same `ApplyStats`,
//! reduction count included, under every engine kind and reduction
//! policy, on one-state, phased-basis and multi-state inputs.

use std::collections::BTreeMap;

use autoq_amplitude::Algebraic;
use autoq_circuit::schedule::interference_schedule;
use autoq_circuit::{Circuit, Gate};
use autoq_core::composition::apply_formula_in_place_interruptible;
use autoq_core::formula::update_formula;
use autoq_core::{
    permutation, ApplyStats, Engine, EngineKind, ReductionPolicy, RunOptions, StateSet,
};
use autoq_treeaut::{basis, TreeAutomaton};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the gate loop saw: reductions the policy asked for after a gate
/// whose output came from the one-state path, and after any other gate.
#[derive(Default)]
struct Coverage {
    after_one_state: usize,
    after_other: usize,
}

fn observe(stats: &mut ApplyStats, automaton: &TreeAutomaton) {
    stats.peak_states = stats.peak_states.max(automaton.state_count());
    stats.peak_transitions = stats.peak_transitions.max(automaton.transition_count());
}

/// The engine's gate loop, rebuilt from public functions; it reduces
/// every time the policy says so.
fn gate_loop(
    engine: &Engine,
    set: &StateSet,
    circuit: &Circuit,
    coverage: &mut Coverage,
) -> (TreeAutomaton, ApplyStats) {
    let gates = circuit.gates();
    let mut automaton = set.automaton().clone();
    let mut baseline = automaton.transition_count();
    let mut stats = ApplyStats::default();
    observe(&mut stats, &automaton);
    for index in interference_schedule(circuit) {
        let mut used_composition = false;
        let mut one_state_output = false;
        for primitive in gates[index].decompose() {
            let use_permutation =
                engine.kind == EngineKind::Hybrid && permutation::supports(&primitive);
            if use_permutation {
                permutation::apply_in_place(&mut automaton, &primitive);
                one_state_output = false;
            } else {
                let formula = update_formula(&primitive).expect("primitive gates have a formula");
                let peak = apply_formula_in_place_interruptible(
                    &mut automaton,
                    &formula,
                    &engine.composition_options(),
                    None,
                )
                .expect("no interrupt, so the formula cannot stop early");
                stats.peak_states = stats.peak_states.max(peak.states);
                stats.peak_transitions = stats.peak_transitions.max(peak.transitions);
                used_composition = true;
                one_state_output = peak.reduced;
            }
            observe(&mut stats, &automaton);
        }
        stats.gates_applied += 1;
        let reduce = match engine.reduction {
            ReductionPolicy::AfterEachGate => true,
            ReductionPolicy::Never => false,
            ReductionPolicy::Adaptive { growth_factor } => {
                used_composition
                    || automaton.transition_count()
                        > (growth_factor as usize).max(1) * baseline.max(1)
            }
        };
        if reduce {
            if one_state_output {
                coverage.after_one_state += 1;
            } else {
                coverage.after_other += 1;
            }
            automaton = automaton.reduce();
            baseline = automaton.transition_count();
            stats.reductions += 1;
        }
    }
    (automaton, stats)
}

fn palette() -> Vec<Algebraic> {
    vec![
        Algebraic::one(),
        -&Algebraic::one(),
        Algebraic::i(),
        Algebraic::one_over_sqrt2(),
        Algebraic::one().mul_omega(),
    ]
}

/// A random state of `n` qubits with one to four non-zero amplitudes.
fn random_state(n: u32, rng: &mut StdRng) -> BTreeMap<u128, Algebraic> {
    let palette = palette();
    (0..rng.gen_range(1..5usize))
        .map(|_| {
            let basis = u128::from(rng.gen_range(0..1u64 << n));
            (basis, palette[rng.gen_range(0..palette.len())].clone())
        })
        .collect()
}

/// One of the three input shapes: a single state (the one-state path), a
/// hunt pattern of basis states (the basis path), or a set of superposed
/// states (the ladder).
fn random_input(shape: u32, n: u32, rng: &mut StdRng) -> StateSet {
    match shape {
        0 => StateSet::from_state_maps(n, &[random_state(n, rng)]),
        1 => {
            let free: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
            let fixed = u128::from(rng.gen_range(0..1u64 << n));
            let free_bits: u128 = free.iter().map(|&q| basis::qubit_bit(n, q)).sum();
            StateSet::basis_pattern(n, fixed & !free_bits, &free)
        }
        _ => {
            let states: Vec<_> = (0..rng.gen_range(2..4usize))
                .map(|_| random_state(n, rng))
                .collect();
            StateSet::from_state_maps(n, &states)
        }
    }
}

/// Two distinct random qubits.
fn two_qubits(n: u32, rng: &mut StdRng) -> (u32, u32) {
    let a = rng.gen_range(0..n);
    let b = (a + rng.gen_range(1..n)) % n;
    (a, b)
}

fn random_gate(n: u32, rng: &mut StdRng) -> Gate {
    let t = rng.gen_range(0..n);
    let (a, b) = two_qubits(n, rng);
    let c = (0..n).find(|&q| q != a && q != b).expect("three qubits");
    match rng.gen_range(0..14u32) {
        0 => Gate::X(t),
        1 => Gate::Y(t),
        2 => Gate::Z(t),
        3 => Gate::H(t),
        4 => Gate::S(t),
        5 => Gate::T(t),
        6 => Gate::RxPi2(t),
        7 => Gate::RyPi2(t),
        8 => Gate::Cnot {
            control: a,
            target: b,
        },
        9 => Gate::Cz {
            control: a,
            target: b,
        },
        10 => Gate::Swap(a, b),
        11 => Gate::Toffoli {
            controls: [a, b],
            target: c,
        },
        12 => Gate::Fredkin {
            control: c,
            targets: [a, b],
        },
        _ => Gate::Tdg(t),
    }
}

fn check_case(seed: u64, coverage: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..6u32);
    let shape = rng.gen_range(0..3u32);
    let input = random_input(shape, n, &mut rng);
    let gates: Vec<Gate> = (0..rng.gen_range(4..9usize))
        .map(|_| random_gate(n, &mut rng))
        .collect();
    let circuit = Circuit::from_gates(n, gates).expect("gates fit the register");
    let policies = [
        ReductionPolicy::AfterEachGate,
        ReductionPolicy::Never,
        ReductionPolicy::default(),
    ];
    for base in [Engine::hybrid(), Engine::composition()] {
        for policy in policies {
            let engine = base.with_reduction(policy);
            let (output, stats) = engine
                .run(&input, &circuit, RunOptions::default())
                .expect("no interrupt, so the run cannot stop early");
            let (expected, expected_stats) = gate_loop(&engine, &input, &circuit, coverage);
            let context = format!("seed {seed}, shape {shape}, {engine:?}, {circuit:?}");
            assert_eq!(output.automaton(), &expected, "automaton, {context}");
            assert_eq!(stats, expected_stats, "stats, {context}");
        }
    }
}

#[test]
fn engine_runs_match_the_public_gate_loop() {
    let mut coverage = Coverage::default();
    for seed in 0..60 {
        check_case(seed, &mut coverage);
    }
    // Both kinds of reduction were exercised: the one the engine skips
    // and the ones it runs.
    assert!(
        coverage.after_one_state > 0,
        "no reduction followed the one-state path"
    );
    assert!(
        coverage.after_other > 0,
        "every reduction followed the one-state path"
    );
}
