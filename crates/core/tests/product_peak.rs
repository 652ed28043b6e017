//! Pins the in-gate peak of hunts whose controlled gates have the control
//! below the target.  `permutation::supports` sends such gates to the
//! composition encoding.  Every input set of a Table 3 hunt is a set of
//! phased basis states, so under the Hybrid engine these gates take the
//! basis path (`composition`'s *The basis path*): a guess-and-verify
//! rewrite whose output is the peak, with no tags, ladder or product.  The
//! hunts below therefore pin the basis path's peak.
//!
//! The paper's ladder still runs for every such gate under the Composition
//! engine, and there the tagged product (Algorithm 9) is built in full,
//! dead pairs included, and trimmed afterwards: on increment8's hunt sets
//! a 947,139-state product that reduces to ~3.5k.  No hunt runs that
//! engine on such sets, so nothing here pins it.
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
