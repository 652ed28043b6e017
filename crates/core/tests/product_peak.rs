//! Pins the in-gate peak of hunts whose controlled gates have the control
//! below the target.  `permutation::supports` sends such gates to the
//! composition encoding.  Every input set of a Table 3 hunt is a set of
//! phased basis states, so under the Hybrid engine these gates take the
//! basis path (`composition`'s *The basis path*): a guess-and-verify
//! rewrite whose output is the peak, with no tags, ladder or product.  The
//! hunts below therefore pin the basis path's peak.
//!
//! The paper's ladder still runs for every such gate under the Composition
//! engine, and there the tagged product (Algorithm 9) used to build every
//! reachable tag-matching pair: on increment8 a 947,139-state product that
//! reduces to ~3.5k.  The trimmed product builds only the pairs that accept
//! a tree; the ladder-level pin replays increment8's hunt sets through the
//! ladder and keeps that trim guarded.
//!
//! The rows reproduce `autoq_bench::table3::run_row`'s hunt: injection seed
//! `s`, hunt seed `s ^ 0xabcd`, `min(n, 10) + 1` iterations.

use autoq_circuit::generators::increment_circuit;
use autoq_circuit::mutation::inject_random_gate;
use autoq_circuit::schedule::interference_schedule;
use autoq_circuit::Circuit;
use autoq_core::composition::{apply_formula_in_place_interruptible, CompositionOptions};
use autoq_core::formula::update_formula;
use autoq_core::{permutation, BugHunter, Engine, HuntReport, StateSet};
use autoq_treeaut::{basis, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hunt_row(circuit: &Circuit, seed: u64) -> (Circuit, HuntReport) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (buggy, _bug) = inject_random_gate(circuit, false, &mut rng);
    let hunter = BugHunter::new(Engine::hybrid()).with_max_iterations(iterations(circuit));
    let mut hunt_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let report = hunter.hunt(circuit, &buggy, &mut hunt_rng);
    (buggy, report)
}

fn iterations(circuit: &Circuit) -> u32 {
    circuit.num_qubits().min(10) + 1
}

/// increment5, seed 7: the untrimmed product peaked at 503 states and the
/// trimmed one at 181; with the basis path the hunt peaks at 132.
#[test]
fn increment5_hunt_peak_stays_trimmed() {
    let circuit = increment_circuit(5);
    let (buggy, report) = hunt_row(&circuit, 7);
    assert!(report.bug_found, "the injected gate must be found");
    assert!(report.confirm_with_simulator(&circuit, &buggy).is_some());
    assert!(
        report.stats.peak_states < 160,
        "peak {} regressed past the basis path's hunt (132)",
        report.stats.peak_states
    );
}

/// increment8, seed 48 (the Table 3 row): the untrimmed product peaked at
/// 947,139 states in the last iteration's CNOT(13→0), the trimmed one at
/// 11,797; the basis path peaks at 1,425.
#[test]
#[ignore = "exact-arithmetic heavy: run in release (--include-ignored)"]
fn increment8_hunt_peak_stays_trimmed() {
    let circuit = increment_circuit(8);
    let (buggy, report) = hunt_row(&circuit, 48);
    assert!(report.bug_found, "the injected gate must be found");
    assert_eq!(report.iterations, 11);
    assert_eq!(report.confirm_with_simulator(&circuit, &buggy), Some(836));
    assert!(
        report.stats.peak_states < 2_000,
        "in-gate peak {} regressed past the basis path's (1,425)",
        report.stats.peak_states
    );
}

/// The input sets of `BugHunter::hunt`'s iterations: a random base
/// pattern, then one more freed qubit per iteration in a random order,
/// drawn from `rng` exactly as the hunt draws them.
fn hunt_input_sets(n: u32, iterations: u32, rng: &mut StdRng) -> Vec<StateSet> {
    let base = rng.gen::<u128>() & basis::index_mask(n);
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    (0..iterations as usize)
        .map(|free_count| {
            let free = &order[..free_count];
            let free_mask: u128 = free.iter().map(|&q| basis::qubit_bit(n, q)).sum();
            StateSet::basis_pattern(n, base & !free_mask, free)
        })
        .collect()
}

/// The Hybrid engine's gate choices with every composition-encoded gate on
/// the paper's ladder ([`CompositionOptions::default`]), reducing after
/// every gate; returns the largest state count seen inside or after a gate.
fn ladder_peak(circuit: &Circuit, inputs: &StateSet) -> usize {
    let mut automaton = inputs.automaton().clone();
    let mut peak = automaton.state_count();
    for index in interference_schedule(circuit) {
        for primitive in circuit.gates()[index].decompose() {
            if permutation::supports(&primitive) {
                permutation::apply_in_place(&mut automaton, &primitive);
            } else {
                let formula = update_formula(&primitive).expect("primitives have formulae");
                let in_gate = apply_formula_in_place_interruptible(
                    &mut automaton,
                    &formula,
                    &CompositionOptions::default(),
                    None,
                )
                .expect("no interrupt");
                peak = peak.max(in_gate.states);
            }
            peak = peak.max(automaton.state_count());
        }
        automaton = automaton.reduce();
    }
    peak
}

/// increment8's hunt sets, both circuits, through the ladder: the trimmed
/// product peaks at 11,797 (the hunt's peak before the basis path), where
/// the untrimmed one reached 947,139.
#[test]
#[ignore = "exact-arithmetic heavy: run in release (--include-ignored)"]
fn increment8_ladder_peak_stays_trimmed() {
    let circuit = increment_circuit(8);
    let (buggy, report) = hunt_row(&circuit, 48);
    let confirmed = report
        .confirm_with_simulator(&circuit, &buggy)
        .expect("the row confirms");
    let n = circuit.num_qubits();
    let sets = hunt_input_sets(
        n,
        report.iterations,
        &mut StdRng::seed_from_u64(48 ^ 0xabcd),
    );
    let last = sets.last().expect("at least one iteration");
    assert!(
        last.automaton().accepts(&Tree::basis_state(n, confirmed)),
        "the replayed sets must be the hunt's: its last one holds the confirmed input"
    );
    let peak = sets
        .iter()
        .flat_map(|set| [ladder_peak(&circuit, set), ladder_peak(&buggy, set)])
        .max()
        .expect("at least one set");
    assert!(
        peak < 20_000,
        "ladder peak {peak} regressed towards the untrimmed product (947,139)"
    );
}
