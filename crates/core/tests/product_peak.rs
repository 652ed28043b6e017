//! Pins the in-gate peak of hunts whose controlled gates have the control
//! below the target.  `permutation::supports` sends such gates to the
//! composition encoding, whose binary operation (Algorithm 9) used to build
//! every reachable tag-matching pair — on increment8 a 947,139-state
//! product that reduces to ~3.5k.  The trimmed product builds only the
//! pairs that accept a tree, so the peak tracks the reduced size.
//!
//! The rows reproduce `autoq_bench::table3::run_row`'s hunt: injection seed
//! `s`, hunt seed `s ^ 0xabcd`, `min(n, 10) + 1` iterations.

use autoq_circuit::generators::increment_circuit;
use autoq_circuit::mutation::inject_random_gate;
use autoq_circuit::Circuit;
use autoq_core::{BugHunter, Engine, HuntReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hunt_row(circuit: &Circuit, seed: u64) -> (Circuit, HuntReport) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (buggy, _bug) = inject_random_gate(circuit, false, &mut rng);
    let hunter =
        BugHunter::new(Engine::hybrid()).with_max_iterations(circuit.num_qubits().min(10) + 1);
    let mut hunt_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let report = hunter.hunt(circuit, &buggy, &mut hunt_rng);
    (buggy, report)
}

/// increment5, seed 7: the untrimmed product peaked at 503 states, the
/// trimmed one at 181.
#[test]
fn increment5_hunt_peak_stays_trimmed() {
    let circuit = increment_circuit(5);
    let (buggy, report) = hunt_row(&circuit, 7);
    assert!(report.bug_found, "the injected gate must be found");
    assert!(report.confirm_with_simulator(&circuit, &buggy).is_some());
    assert!(
        report.stats.peak_states < 300,
        "in-gate peak {} regressed towards the untrimmed product (503)",
        report.stats.peak_states
    );
}

/// increment8, seed 48 (the Table 3 row): the untrimmed product peaked at
/// 947,139 states in the last iteration's CNOT(13→0).
#[test]
#[ignore = "exact-arithmetic heavy: run in release (--include-ignored)"]
fn increment8_hunt_peak_stays_trimmed() {
    let circuit = increment_circuit(8);
    let (buggy, report) = hunt_row(&circuit, 48);
    assert!(report.bug_found, "the injected gate must be found");
    assert_eq!(report.iterations, 11);
    assert_eq!(report.confirm_with_simulator(&circuit, &buggy), Some(832));
    assert!(
        report.stats.peak_states < 20_000,
        "in-gate peak {} regressed towards the untrimmed product (947,139)",
        report.stats.peak_states
    );
}
