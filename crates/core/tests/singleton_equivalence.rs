//! Differential suite of the one-state path of the composition encoding.
//!
//! Under the Hybrid engine, a composition-encoded gate whose input holds one
//! quantum state runs on a hash-consed DAG instead of the tagged ladder
//! (`composition`'s *The one-state path*).  This suite checks that path
//! against the two oracles that share nothing with it:
//!
//! * the paper's ladder, [`evaluate_with`] on the tagged input, for every
//!   primitive gate formula, controls above and below the target;
//! * the dense simulator, for every gate kind (the decomposed SWAP and
//!   Fredkin included) after a random prefix, under all three reduction
//!   policies.
//!
//! Inputs are random one-state automata up to 10 qubits: basis states,
//! sparse and dense superpositions over a small amplitude palette, so
//! subtrees repeat and the DAG shares them.  Inputs the path must not take
//! (sets, two roots, missing transitions, states at two depths, the dead
//! state ids the swap ladder leaves) are checked to take the ladder, and
//! the interrupt governs the path like any other gate.

use std::collections::BTreeMap;

use autoq_amplitude::Algebraic;
use autoq_circuit::{Circuit, Gate};
use autoq_core::composition::{
    apply_formula_in_place_interruptible, evaluate_with, is_single_state_dag, project_with,
    tag_in_place, CompositionOptions,
};
use autoq_core::formula::update_formula;
use autoq_core::{Engine, Interrupt, ReductionPolicy, Resource, RunOptions, StateSet, StopReason};
use autoq_simulator::DenseState;
use autoq_treeaut::{equivalence, InternalSymbol, TransitionIndex, Tree, TreeAutomaton};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type AmplitudeMap = BTreeMap<u128, Algebraic>;

fn dag_options() -> CompositionOptions {
    CompositionOptions {
        hybrid_fast_paths: true,
    }
}

/// Amplitudes random states draw from: few distinct values, so subtrees
/// repeat.
fn palette() -> Vec<Algebraic> {
    let one = Algebraic::one();
    vec![
        Algebraic::zero(),
        one.clone(),
        -&one,
        Algebraic::i(),
        Algebraic::one_over_sqrt2(),
        one.mul_omega(),
        Algebraic::from_int(2),
    ]
}

/// A random state of `n` qubits: a basis state, a sparse superposition or
/// a dense one (not normalised: every gate is linear).
fn random_state(n: u32, rng: &mut StdRng) -> Vec<Algebraic> {
    let size = 1usize << n;
    let palette = palette();
    let mut amplitudes = vec![Algebraic::zero(); size];
    match rng.gen_range(0..3u32) {
        0 => amplitudes[rng.gen_range(0..size)] = Algebraic::one(),
        1 => {
            for _ in 0..rng.gen_range(1..5usize) {
                amplitudes[rng.gen_range(0..size)] =
                    palette[rng.gen_range(1..palette.len())].clone();
            }
        }
        _ => {
            // A few distinct values repeated with a random period, so whole
            // subtrees coincide.
            let period = 1usize << rng.gen_range(0..n + 1);
            let values: Vec<Algebraic> = (0..period)
                .map(|_| palette[rng.gen_range(0..palette.len())].clone())
                .collect();
            for (index, amplitude) in amplitudes.iter_mut().enumerate() {
                *amplitude = values[index % period].clone();
            }
        }
    }
    amplitudes
}

fn state_automaton(n: u32, amplitudes: &[Algebraic]) -> TreeAutomaton {
    TreeAutomaton::from_tree(&Tree::from_fn(n, |b| amplitudes[b as usize].clone()))
}

/// `n` distinct random qubits.
fn distinct_qubits<const K: usize>(n: u32, rng: &mut StdRng) -> [u32; K] {
    let mut qubits = [0; K];
    for i in 0..K {
        loop {
            let q = rng.gen_range(0..n);
            if !qubits[..i].contains(&q) {
                qubits[i] = q;
                break;
            }
        }
    }
    qubits
}

/// Every gate kind on random qubits: the single-qubit gates, CNOT and CZ
/// with the control above and below the target, and Toffolis with the
/// target below, between and above the controls (for `n >= 3`), plus SWAP
/// and Fredkin.
fn every_gate_kind(n: u32, rng: &mut StdRng) -> Vec<Gate> {
    let [t] = distinct_qubits(n, rng);
    let mut gates = vec![
        Gate::X(t),
        Gate::Y(t),
        Gate::Z(t),
        Gate::H(t),
        Gate::S(t),
        Gate::Sdg(t),
        Gate::T(t),
        Gate::Tdg(t),
        Gate::RxPi2(t),
        Gate::RyPi2(t),
    ];
    if n >= 2 {
        let [a, b] = distinct_qubits(n, rng);
        let (low, high) = (a.min(b), a.max(b));
        gates.extend([
            Gate::Cnot {
                control: low,
                target: high,
            },
            Gate::Cnot {
                control: high,
                target: low,
            },
            Gate::Cz {
                control: low,
                target: high,
            },
            Gate::Cz {
                control: high,
                target: low,
            },
            Gate::Swap(low, high),
        ]);
    }
    if n >= 3 {
        let mut qubits = distinct_qubits::<3>(n, rng);
        qubits.sort_unstable();
        let [low, mid, high] = qubits;
        gates.extend([
            Gate::Toffoli {
                controls: [mid, high],
                target: low,
            },
            Gate::Toffoli {
                controls: [low, high],
                target: mid,
            },
            Gate::Toffoli {
                controls: [high, low],
                target: mid,
            },
            Gate::Toffoli {
                controls: [low, mid],
                target: high,
            },
            Gate::Fredkin {
                control: high,
                targets: [low, mid],
            },
        ]);
    }
    gates
}

/// The one state `automaton` accepts.
fn only_state(automaton: &TreeAutomaton) -> AmplitudeMap {
    let trees = automaton.enumerate(4);
    assert_eq!(trees.len(), 1, "a one-state input must stay one state");
    trees[0].to_amplitude_map()
}

fn dense_map(n: u32, amplitudes: &[Algebraic], circuit: &Circuit) -> AmplitudeMap {
    let mut state = DenseState::from_amplitudes(n, amplitudes.to_vec());
    state.apply_circuit(circuit);
    state.to_amplitude_map()
}

/// A tagged copy of `automaton`.
fn tag(automaton: &TreeAutomaton) -> TreeAutomaton {
    let mut tagged = automaton.clone();
    tag_in_place(&mut tagged);
    tagged
}

/// Every primitive of `gate` through the one-state path and through the
/// ladder ([`evaluate_with`] on the tagged input), primitive by primitive:
/// both must accept the same single state, and the path's output must be
/// the reduced automaton of that state.
fn check_against_the_ladder(input: &TreeAutomaton, gate: &Gate, context: &str) -> TreeAutomaton {
    let mut current = input.clone();
    for primitive in gate.decompose() {
        let formula = update_formula(&primitive).expect("primitives have formulae");
        assert!(is_single_state_dag(&current), "{context}: {primitive:?}");
        let mut dag = current.clone();
        let peak = apply_formula_in_place_interruptible(&mut dag, &formula, &dag_options(), None)
            .expect("no interrupt");
        let ladder = evaluate_with(&formula, &tag(&current)).untagged().reduce();
        assert!(
            equivalence(&dag, &ladder).holds(),
            "{context}: the one-state path and the ladder disagree on {primitive:?}"
        );
        assert_eq!(only_state(&dag), only_state(&ladder), "{context}");
        assert_eq!(
            dag.reduce().state_count(),
            dag.state_count(),
            "{context}: the path's output must already be reduced"
        );
        assert!(peak.states >= dag.state_count() && peak.transitions == peak.states);
        current = dag;
    }
    current
}

const POLICIES: [ReductionPolicy; 3] = [
    ReductionPolicy::Adaptive { growth_factor: 2 },
    ReductionPolicy::AfterEachGate,
    ReductionPolicy::Never,
];

/// One random case: a one-state input, then every gate kind checked
/// against the ladder, and a random prefix followed by each gate checked
/// against the dense simulator under every reduction policy.
fn check_case(seed: u64, max_qubits: u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..max_qubits + 1);
    let amplitudes = random_state(n, &mut rng);
    let input = state_automaton(n, &amplitudes);
    let set = StateSet::from_automaton(n, input.clone());
    let gates = every_gate_kind(n, &mut rng);
    for gate in &gates {
        let context = format!("seed {seed}, {n} qubits, {gate:?}");
        let output = check_against_the_ladder(&input, gate, &context);
        let circuit = Circuit::from_gates(n, [*gate]).expect("gate fits");
        assert_eq!(only_state(&output), dense_map(n, &amplitudes, &circuit));
    }
    let prefix = gates[rng.gen_range(0..gates.len())];
    for gate in &gates {
        let circuit = Circuit::from_gates(n, [prefix, *gate]).expect("gates fit");
        let expected = dense_map(n, &amplitudes, &circuit);
        for policy in POLICIES {
            let output = Engine::hybrid()
                .with_reduction(policy)
                .apply_circuit(&set, &circuit);
            assert_eq!(
                output.states(4),
                vec![expected.clone()],
                "seed {seed}: {prefix:?}; {gate:?} under {policy:?}"
            );
        }
    }
}

#[test]
fn the_one_state_path_matches_the_ladder_and_the_simulator() {
    for seed in 0..60 {
        check_case(seed, 6);
    }
}

#[test]
fn the_one_state_path_matches_at_ten_qubits() {
    for seed in 1000..1004 {
        let mut rng = StdRng::seed_from_u64(seed);
        let amplitudes = random_state(10, &mut rng);
        let input = state_automaton(10, &amplitudes);
        for gate in every_gate_kind(10, &mut rng) {
            let output = check_against_the_ladder(&input, &gate, &format!("seed {seed}"));
            let circuit = Circuit::from_gates(10, [gate]).expect("gate fits");
            assert_eq!(only_state(&output), dense_map(10, &amplitudes, &circuit));
        }
    }
}

/// The DAG hash-conses a branch in a slot of its left child, and
/// `Combine`'s memo keeps a pair in a slot of its left operand; each sends
/// a second partner to a map.  In `[1, 2, 1, i]` the leaf 1 is the left
/// child of two branches with different right children, and H(1)'s first
/// `Combine` meets the node `(1, 1)` of `T_{x̄_1}` with the two different
/// nodes `(2, 0)` and `(i, 0)` of `B̄_{x_1}·T_{x_1}`, and the leaf 1 with
/// the leaves 2 and i.
#[test]
fn shared_left_children_and_repeated_combine_operands_match() {
    let one = Algebraic::one();
    let amplitudes = [one.clone(), Algebraic::from_int(2), one, Algebraic::i()];
    let input = state_automaton(2, &amplitudes);
    for gate in [Gate::H(1), Gate::H(0), Gate::RxPi2(1), Gate::RyPi2(1)] {
        let output = check_against_the_ladder(&input, &gate, &format!("{gate:?}"));
        let circuit = Circuit::from_gates(2, [gate]).expect("gate fits");
        assert_eq!(only_state(&output), dense_map(2, &amplitudes, &circuit));
    }
}

/// The 5,000-case run (release builds: `cargo test --release -p autoq-core
/// --test singleton_equivalence -- --include-ignored`).
#[test]
#[ignore]
fn the_one_state_path_matches_on_five_thousand_cases() {
    for seed in 10_000..15_000 {
        check_case(seed, 10);
    }
}

/// Applies `formula` with and without the one-state path; an input the
/// path rejects must produce exactly the ladder's automaton.
fn assert_takes_the_ladder(input: &TreeAutomaton, gate: Gate) {
    assert!(!is_single_state_dag(input), "{gate:?}");
    let formula = update_formula(&gate).expect("a primitive gate");
    let mut with_path = input.clone();
    let mut ladder = input.clone();
    let peak_with =
        apply_formula_in_place_interruptible(&mut with_path, &formula, &dag_options(), None)
            .expect("no interrupt");
    let peak = apply_formula_in_place_interruptible(
        &mut ladder,
        &formula,
        &CompositionOptions::default(),
        None,
    )
    .expect("no interrupt");
    assert_eq!(with_path, ladder, "{gate:?}");
    assert_eq!(peak_with, peak, "{gate:?}");
}

fn fallback_gates() -> [Gate; 4] {
    [
        Gate::H(0),
        Gate::RyPi2(1),
        Gate::Cnot {
            control: 1,
            target: 0,
        },
        Gate::Toffoli {
            controls: [2, 1],
            target: 0,
        },
    ]
}

#[test]
fn sets_and_two_roots_take_the_ladder() {
    let plus = Tree::from_fn(3, |b| Algebraic::from_int(b as i64 % 2));
    let set = TreeAutomaton::from_trees(3, &[Tree::basis_state(3, 5), plus.clone()]);
    // The same tree twice, under two roots.
    let mut two_roots = TreeAutomaton::from_tree(&plus);
    let offset = two_roots.import_disjoint(&TreeAutomaton::from_tree(&plus));
    let second_root = two_roots.roots.iter().next().unwrap().offset(offset);
    two_roots.add_root(second_root);
    for gate in fallback_gates() {
        assert_takes_the_ladder(&set, gate);
        assert_takes_the_ladder(&two_roots, gate);
    }
}

#[test]
fn missing_transitions_and_depth_clashes_take_the_ladder() {
    // A reachable state with no transition: the root's right child.
    let mut missing = TreeAutomaton::new(3);
    let one = missing.leaf_state(&Algebraic::one());
    let [low, mid, root, empty] = [(); 4].map(|_| missing.add_state());
    missing.add_internal(low, InternalSymbol::new(2), one, one);
    missing.add_internal(mid, InternalSymbol::new(1), low, low);
    missing.add_internal(root, InternalSymbol::new(0), mid, empty);
    missing.add_root(root);

    // A leaf state reached at depth 2 (the root's right child's child)
    // and at depth 3: layered, one transition per state, still rejected.
    let mut clash = TreeAutomaton::new(3);
    let one = clash.leaf_state(&Algebraic::one());
    let [low, mid, right, root] = [(); 4].map(|_| clash.add_state());
    clash.add_internal(low, InternalSymbol::new(2), one, one);
    clash.add_internal(mid, InternalSymbol::new(1), low, low);
    clash.add_internal(right, InternalSymbol::new(1), one, low);
    clash.add_internal(root, InternalSymbol::new(0), mid, right);
    clash.add_root(root);

    for gate in fallback_gates() {
        assert_takes_the_ladder(&missing, gate);
        assert_takes_the_ladder(&clash, gate);
    }
}

#[test]
fn the_swap_ladders_dead_state_ids_take_the_ladder() {
    let mut rng = StdRng::seed_from_u64(7);
    let amplitudes = random_state(4, &mut rng);
    let tagged = tag(&state_automaton(4, &amplitudes));
    let projected = project_with(&tagged, 0, true).untagged();
    let index = TransitionIndex::build(&projected);
    let dead = (0..projected.num_states)
        .map(autoq_treeaut::StateId::new)
        .filter(|&q| index.internal_of(q).is_empty() && index.leaves_of(q).is_empty())
        .count();
    assert!(dead > 0, "the ladder leaves dead state ids behind");
    for gate in fallback_gates() {
        assert_takes_the_ladder(&projected, gate);
    }
}

/// `H(0)` on `|0⟩` builds 7 nodes: the input's root and two leaves, the
/// projections `(1, 1)` and `(0, 0)`, the leaf `1/√2` and the result
/// `(1/√2, 1/√2)`; the restrictions and combinations hash-cons onto nodes
/// already built.
#[test]
fn the_one_state_path_reports_the_nodes_it_built() {
    let formula = update_formula(&Gate::H(0)).unwrap();
    let mut automaton = TreeAutomaton::from_tree(&Tree::basis_state(1, 0));
    let peak = apply_formula_in_place_interruptible(&mut automaton, &formula, &dag_options(), None)
        .unwrap();
    assert_eq!((peak.states, peak.transitions), (7, 7));
    assert_eq!(automaton.state_count(), 2);
}

#[test]
fn a_cancelled_interrupt_stops_the_one_state_path() {
    let formula = update_formula(&Gate::H(2)).unwrap();
    let mut automaton = TreeAutomaton::from_tree(&Tree::basis_state(4, 3));
    assert!(is_single_state_dag(&automaton));
    let interrupt = Interrupt::new();
    interrupt.cancel();
    assert_eq!(
        apply_formula_in_place_interruptible(
            &mut automaton,
            &formula,
            &dag_options(),
            Some(&interrupt)
        ),
        Err(StopReason::Cancelled)
    );
}

/// A wall of Hadamards and T gates: every composition gate of the Hybrid
/// run takes the one-state path.
fn hadamard_wall(n: u32) -> Circuit {
    let mut gates = Vec::new();
    for q in 0..n {
        gates.push(Gate::H(q));
        gates.push(Gate::T(q));
    }
    for q in 0..n {
        gates.push(Gate::H(q));
    }
    Circuit::from_gates(n, gates).expect("gates fit")
}

#[test]
fn a_state_budget_stops_the_one_state_path_within_one_gate() {
    let circuit = hadamard_wall(8);
    let input = StateSet::basis_state(8, 0);
    let engine = Engine::hybrid();
    let (_, stats) = engine.apply_circuit_with_stats(&input, &circuit);
    let cap = (stats.peak_states / 2) as u64;
    assert!(cap > 2, "the run must build a DAG worth budgeting");
    let interrupt = Interrupt::new().with_max_states(cap);
    let err = engine
        .run(
            &input,
            &circuit,
            RunOptions {
                interrupt: Some(&interrupt),
                observer: None,
            },
        )
        .expect_err("a budget below the peak must stop the run");
    let StopReason::Exhausted {
        resource: Resource::States,
        limit,
        observed,
    } = err.reason
    else {
        panic!("expected a states stop, got {:?}", err.reason);
    };
    assert_eq!(limit, cap);
    assert!(observed > cap);
    assert_eq!(err.partial_stats.peak_states, observed as usize);
    assert!(err.partial_stats.gates_applied < stats.gates_applied);
}
