//! Differential suite of the basis path of the composition encoding.
//!
//! Under the Hybrid engine, a composition-encoded gate that permutes basis
//! states (a CNOT or Toffoli whose control sits below its target) and whose
//! input is a set of phased basis states is rewritten by guess-and-verify
//! instead of the tagged ladder (`composition`'s *The basis path*).  This
//! suite checks that path against the two oracles that share nothing with
//! it:
//!
//! * the paper's ladder, [`apply_formula_in_place_interruptible`] under
//!   [`CompositionOptions::default`]: the outputs must be language-equal;
//! * the dense simulator, on every member of the set, primitive by
//!   primitive and through `Engine::hybrid()` under all three reduction
//!   policies after a random prefix of permutation gates.
//!
//! Inputs are random phased-basis sets up to 10 qubits: explicit members
//! with phases from a small palette, hunt input patterns (one state with
//! two transitions over a shared all-zero subtree per free qubit) reshaped
//! by unreduced permutation gates, and unions of two patterns under two
//! roots.  Gates are X, CNOT and Toffoli with every mix of controls above
//! and below the target.  Inputs or formulae the path must not take (a
//! superposed member, a root that is not Basis, a state accepting both a
//! zero tree and a basis tree, H, Y and the phase gates) are checked to
//! take the ladder, and the interrupt governs the path like any other gate.

use std::collections::BTreeMap;

use autoq_amplitude::Algebraic;
use autoq_circuit::{Circuit, Gate};
use autoq_core::composition::{
    apply_formula_in_place_interruptible, is_basis_set, is_single_state_dag, CompositionOptions,
};
use autoq_core::formula::update_formula;
use autoq_core::{permutation, Engine, Interrupt, ReductionPolicy, Resource, StateSet, StopReason};
use autoq_simulator::DenseState;
use autoq_treeaut::{basis, equivalence, InternalSymbol, Tree, TreeAutomaton};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type AmplitudeMap = BTreeMap<u128, Algebraic>;

fn fast_options() -> CompositionOptions {
    CompositionOptions {
        hybrid_fast_paths: true,
    }
}

/// The non-zero amplitudes members draw their phase from.
fn phases() -> Vec<Algebraic> {
    let one = Algebraic::one();
    vec![
        one.clone(),
        -&one,
        Algebraic::i(),
        Algebraic::one_over_sqrt2(),
        one.mul_omega(),
        Algebraic::from_int(2),
    ]
}

fn member_tree(n: u32, member: &AmplitudeMap) -> Tree {
    Tree::from_fn(n, |b| {
        member.get(&b).cloned().unwrap_or_else(Algebraic::zero)
    })
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

/// A random permutation gate the Hybrid engine applies by permutation:
/// X, or a CNOT or Toffoli whose controls sit above the target.
fn random_permutation_gate(n: u32, rng: &mut StdRng) -> Gate {
    match rng.gen_range(0..3u32) {
        1 if n >= 2 => {
            let [a, b] = distinct_qubits(n, rng);
            Gate::Cnot {
                control: a.min(b),
                target: a.max(b),
            }
        }
        2 if n >= 3 => {
            let mut qubits = distinct_qubits::<3>(n, rng);
            qubits.sort_unstable();
            Gate::Toffoli {
                controls: [qubits[0], qubits[1]],
                target: qubits[2],
            }
        }
        _ => Gate::X(rng.gen_range(0..n)),
    }
}

/// A hunt input pattern over `n` qubits with up to five free qubits.
fn random_pattern(n: u32, rng: &mut StdRng) -> TreeAutomaton {
    let free: Vec<u32> = (0..rng.gen_range(1..n.min(5) + 1))
        .map(|_| rng.gen_range(0..n))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let free_bits: u128 = free.iter().map(|&q| basis::qubit_bit(n, q)).sum();
    let fixed = u128::from(rng.gen_range(0..1u64 << n)) & !free_bits;
    StateSet::basis_pattern(n, fixed, &free).automaton().clone()
}

/// A random phased-basis set of `n` qubits, in one of three shapes.
fn random_basis_set(n: u32, rng: &mut StdRng) -> TreeAutomaton {
    let phases = phases();
    match rng.gen_range(0..3u32) {
        0 => {
            let members: Vec<Tree> = (0..rng.gen_range(2..7usize))
                .map(|_| {
                    let b = u128::from(rng.gen_range(0..1u64 << n));
                    let phase = phases[rng.gen_range(0..phases.len())].clone();
                    member_tree(n, &AmplitudeMap::from([(b, phase)]))
                })
                .collect();
            TreeAutomaton::from_trees(n, &members)
        }
        1 => {
            let mut automaton = random_pattern(n, rng);
            for _ in 0..rng.gen_range(0..4u32) {
                permutation::apply_in_place(&mut automaton, &random_permutation_gate(n, rng));
            }
            let phase = phases[rng.gen_range(0..phases.len())].clone();
            automaton.map_leaves_in_place(|value| value * &phase);
            automaton
        }
        _ => {
            let mut automaton = random_pattern(n, rng);
            let other = random_pattern(n, rng);
            let offset = automaton.import_disjoint(&other);
            for root in &other.roots {
                automaton.add_root(root.offset(offset));
            }
            automaton
        }
    }
}

/// Every gate the basis path rewrites: X, CNOT with the control above and
/// below the target, and Toffolis with the target below, between and
/// above the controls, in both control orders.
fn permutation_gates(n: u32, rng: &mut StdRng) -> Vec<Gate> {
    let mut gates = vec![Gate::X(rng.gen_range(0..n))];
    if n >= 2 {
        let [a, b] = distinct_qubits(n, rng);
        let (low, high) = (a.min(b), a.max(b));
        gates.push(Gate::Cnot {
            control: low,
            target: high,
        });
        gates.push(Gate::Cnot {
            control: high,
            target: low,
        });
    }
    if n >= 3 {
        let mut qubits = distinct_qubits::<3>(n, rng);
        qubits.sort_unstable();
        let [low, mid, high] = qubits;
        for (controls, target) in [
            ([mid, high], low),
            ([high, mid], low),
            ([low, high], mid),
            ([high, low], mid),
            ([low, mid], high),
            ([mid, low], high),
        ] {
            gates.push(Gate::Toffoli { controls, target });
        }
    }
    gates
}

/// The members of a set, each checked to be a phased basis state.
fn members(automaton: &TreeAutomaton) -> Vec<AmplitudeMap> {
    let members: Vec<AmplitudeMap> = automaton
        .enumerate(1 << 12)
        .iter()
        .map(Tree::to_amplitude_map)
        .collect();
    for member in &members {
        assert_eq!(member.len(), 1, "not a phased basis state: {member:?}");
    }
    members
}

/// `circuit` applied to every member by the dense simulator, duplicates
/// removed.
fn dense_images(n: u32, members: &[AmplitudeMap], circuit: &Circuit) -> Vec<AmplitudeMap> {
    let mut images: Vec<AmplitudeMap> = Vec::new();
    for member in members {
        let mut amplitudes = vec![Algebraic::zero(); basis::basis_count(n) as usize];
        for (&b, value) in member {
            amplitudes[b as usize] = value.clone();
        }
        let mut state = DenseState::from_amplitudes(n, amplitudes);
        state.apply_circuit(circuit);
        let image = state.to_amplitude_map();
        if !images.contains(&image) {
            images.push(image);
        }
    }
    images
}

fn assert_same_states(actual: &[AmplitudeMap], expected: &[AmplitudeMap], context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}");
    for state in expected {
        assert!(actual.contains(state), "{context}: {state:?} missing");
    }
}

/// The gate's formula through the basis path and through the ladder: the
/// outputs must be language-equal, the path's must be the dense simulator's
/// image of every member, and its peak must be its own size.
fn check_against_the_ladder(input: &TreeAutomaton, gate: &Gate, context: &str) {
    let formula = update_formula(gate).expect("a primitive gate");
    assert!(is_basis_set(input), "{context}");
    let mut basis_path = input.clone();
    let peak =
        apply_formula_in_place_interruptible(&mut basis_path, &formula, &fast_options(), None)
            .expect("no interrupt");
    let mut ladder = input.clone();
    apply_formula_in_place_interruptible(
        &mut ladder,
        &formula,
        &CompositionOptions::default(),
        None,
    )
    .expect("no interrupt");
    assert!(
        equivalence(&basis_path, &ladder).holds(),
        "{context}: the basis path and the ladder disagree on {gate:?}"
    );
    let n = input.num_vars;
    let circuit = Circuit::from_gates(n, [*gate]).expect("gate fits");
    let expected = dense_images(n, &members(input), &circuit);
    assert_same_states(&members(&basis_path), &expected, context);
    if !is_single_state_dag(input) {
        assert_eq!(
            (peak.states, peak.transitions),
            (basis_path.state_count(), basis_path.transition_count()),
            "{context}: the basis path reports its output's size"
        );
    }
}

const POLICIES: [ReductionPolicy; 3] = [
    ReductionPolicy::Adaptive { growth_factor: 2 },
    ReductionPolicy::AfterEachGate,
    ReductionPolicy::Never,
];

/// One random case: a phased-basis set, every permutation gate checked
/// against the ladder and the simulator, then a random prefix of
/// permutation gates followed by each gate through `Engine::hybrid()`
/// under every reduction policy.
fn check_case(seed: u64, max_qubits: u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..max_qubits + 1);
    let input = random_basis_set(n, &mut rng);
    let gates = permutation_gates(n, &mut rng);
    for gate in &gates {
        check_against_the_ladder(&input, gate, &format!("seed {seed}, {n} qubits, {gate:?}"));
    }
    let set = StateSet::from_automaton(n, input.clone());
    let members = members(&input);
    let prefix: Vec<Gate> = (0..rng.gen_range(0..3u32))
        .map(|_| random_permutation_gate(n, &mut rng))
        .collect();
    for gate in &gates {
        let circuit =
            Circuit::from_gates(n, prefix.iter().copied().chain([*gate])).expect("gates fit");
        let expected = dense_images(n, &members, &circuit);
        for policy in POLICIES {
            let output = Engine::hybrid()
                .with_reduction(policy)
                .apply_circuit(&set, &circuit);
            assert_same_states(
                &output.states(1 << 12),
                &expected,
                &format!("seed {seed}: {prefix:?}; {gate:?} under {policy:?}"),
            );
        }
    }
}

#[test]
fn the_basis_path_matches_the_ladder_and_the_simulator() {
    for seed in 0..40 {
        check_case(seed, 6);
    }
}

#[test]
fn the_basis_path_matches_at_ten_qubits() {
    for seed in 1000..1003 {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_basis_set(10, &mut rng);
        for gate in permutation_gates(10, &mut rng) {
            check_against_the_ladder(&input, &gate, &format!("seed {seed}, {gate:?}"));
        }
    }
}

/// The long run (release builds: `cargo test --release -p autoq-core
/// --test basis_set_equivalence -- --include-ignored`).
#[test]
#[ignore]
fn the_basis_path_matches_on_five_thousand_cases() {
    for seed in 10_000..15_000 {
        check_case(seed, 10);
    }
}

/// A hunt input pattern takes the basis path: the CNOT with its control
/// below the target rewrites the set without a product.
#[test]
fn a_hunt_pattern_takes_the_basis_path() {
    let set = StateSet::basis_pattern(
        6,
        basis::qubit_bit(6, 0) | basis::qubit_bit(6, 2),
        &[1, 3, 5],
    );
    assert!(is_basis_set(set.automaton()));
    assert!(!is_single_state_dag(set.automaton()));
    check_against_the_ladder(
        set.automaton(),
        &Gate::Cnot {
            control: 5,
            target: 0,
        },
        "pattern",
    );
}

/// Applies `gate` with and without the fast paths; an input or formula the
/// paths reject must produce exactly the ladder's automaton.
fn assert_takes_the_ladder(input: &TreeAutomaton, gate: Gate) {
    assert!(!is_single_state_dag(input), "{gate:?}");
    let formula = update_formula(&gate).expect("a primitive gate");
    let mut with_paths = input.clone();
    let mut ladder = input.clone();
    let peak_with =
        apply_formula_in_place_interruptible(&mut with_paths, &formula, &fast_options(), None)
            .expect("no interrupt");
    let peak = apply_formula_in_place_interruptible(
        &mut ladder,
        &formula,
        &CompositionOptions::default(),
        None,
    )
    .expect("no interrupt");
    assert_eq!(with_paths, ladder, "{gate:?}");
    assert_eq!(peak_with, peak, "{gate:?}");
}

fn controlled_gates() -> [Gate; 3] {
    [
        Gate::Cnot {
            control: 2,
            target: 0,
        },
        Gate::Toffoli {
            controls: [2, 1],
            target: 0,
        },
        Gate::Toffoli {
            controls: [0, 2],
            target: 1,
        },
    ]
}

#[test]
fn a_superposed_member_takes_the_ladder() {
    let plus = Tree::from_fn(3, |b| Algebraic::from_int(b as i64 % 2));
    let set = TreeAutomaton::from_trees(3, &[Tree::basis_state(3, 5), plus]);
    assert!(!is_basis_set(&set));
    for gate in controlled_gates() {
        assert_takes_the_ladder(&set, gate);
    }
}

#[test]
fn a_root_that_is_not_basis_takes_the_ladder() {
    // Two roots: a basis state, and the all-zero vector.
    let mut set = TreeAutomaton::from_tree(&Tree::basis_state(3, 6));
    let zero = TreeAutomaton::from_tree(&Tree::from_fn(3, |_| Algebraic::zero()));
    let offset = set.import_disjoint(&zero);
    let zero_root = zero.roots.iter().next().unwrap().offset(offset);
    set.add_root(zero_root);
    assert!(!is_basis_set(&set));
    for gate in controlled_gates() {
        assert_takes_the_ladder(&set, gate);
    }
}

#[test]
fn a_state_accepting_a_zero_and_a_basis_tree_takes_the_ladder() {
    // `mixed` accepts the zero tree and |1⟩ on qubit 2, so the set holds
    // the zero vector next to |001⟩ and |011⟩.
    let mut set = TreeAutomaton::new(3);
    let zero = set.leaf_state(&Algebraic::zero());
    let one = set.leaf_state(&Algebraic::one());
    let [zero2, zero1, mixed, middle, root] = [(); 5].map(|_| set.add_state());
    set.add_internal(zero2, InternalSymbol::new(2), zero, zero);
    set.add_internal(zero1, InternalSymbol::new(1), zero2, zero2);
    set.add_internal(mixed, InternalSymbol::new(2), zero, one);
    set.add_internal(mixed, InternalSymbol::new(2), zero, zero);
    set.add_internal(middle, InternalSymbol::new(1), mixed, zero2);
    set.add_internal(middle, InternalSymbol::new(1), zero2, mixed);
    set.add_internal(root, InternalSymbol::new(0), middle, zero1);
    set.add_root(root);
    assert!(!is_basis_set(&set));
    for gate in controlled_gates() {
        assert_takes_the_ladder(&set, gate);
    }
}

#[test]
fn formulae_that_do_not_permute_basis_states_take_the_ladder() {
    let set = StateSet::basis_pattern(3, basis::qubit_bit(3, 1), &[0, 2]);
    assert!(is_basis_set(set.automaton()));
    for gate in [
        Gate::H(1),
        Gate::Y(1),
        Gate::Z(0),
        Gate::S(2),
        Gate::T(1),
        Gate::RxPi2(0),
        Gate::RyPi2(2),
        Gate::Cz {
            control: 2,
            target: 0,
        },
    ] {
        assert_takes_the_ladder(set.automaton(), gate);
    }
}

#[test]
fn the_interrupt_governs_the_basis_path() {
    let set = StateSet::basis_pattern(5, 0, &[0, 1, 2, 3]);
    let formula = update_formula(&Gate::Cnot {
        control: 4,
        target: 1,
    })
    .unwrap();
    let cancelled = Interrupt::new();
    cancelled.cancel();
    let mut automaton = set.automaton().clone();
    assert_eq!(
        apply_formula_in_place_interruptible(
            &mut automaton,
            &formula,
            &fast_options(),
            Some(&cancelled)
        ),
        Err(StopReason::Cancelled)
    );
    let mut automaton = set.automaton().clone();
    let peak =
        apply_formula_in_place_interruptible(&mut automaton, &formula, &fast_options(), None)
            .unwrap();
    let budget = Interrupt::new().with_max_states(peak.states as u64 - 1);
    let mut automaton = set.automaton().clone();
    assert_eq!(
        apply_formula_in_place_interruptible(
            &mut automaton,
            &formula,
            &fast_options(),
            Some(&budget)
        ),
        Err(StopReason::Exhausted {
            resource: Resource::States,
            limit: peak.states as u64 - 1,
            observed: peak.states as u64,
        })
    );
}
