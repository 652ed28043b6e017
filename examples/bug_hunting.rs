//! Bug hunting in an "optimised" circuit — the paper's Table 3 scenario.
//!
//! A reversible adder is copied, one random gate is injected into the copy
//! (simulating an optimiser bug), and three checkers race to detect the
//! difference: AutoQ's incremental tree-automata hunt, the path-sum checker
//! and the random-stimuli checker.  The AutoQ witness is then confirmed with
//! the exact simulator, as the paper does with SliQSim.
//!
//! Run with `cargo run --release -p autoq-examples --example bug_hunting [bits]`.

use autoq_circuit::generators::ripple_carry_adder;
use autoq_circuit::mutation::inject_random_gate;
use autoq_core::{BugHunter, Engine};
use autoq_equivcheck::stimuli::{check_with_stimuli, StimuliConfig};
use autoq_equivcheck::{pathsum, Verdict};
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    // Witness trees are hash-consed DAGs, so extraction is linear in the
    // automaton size and hunts scale to the paper's 35-qubit Table 3 rows
    // (`bits = 16` gives a 34-qubit adder; try it).  The default stays
    // modest so the path-sum and stimuli baselines also finish quickly.
    let bits: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    let circuit = ripple_carry_adder(bits);
    println!(
        "original circuit: {}-bit ripple-carry adder, {} qubits, {} gates",
        bits,
        circuit.num_qubits(),
        circuit.gate_count()
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let (buggy, bug) = inject_random_gate(&circuit, false, &mut rng);
    println!("mutant: {bug}");

    // 1. AutoQ: incremental bug hunting with tree automata.
    let start = Instant::now();
    let report = BugHunter::new(Engine::hybrid()).hunt(&circuit, &buggy, &mut rng);
    println!(
        "AutoQ       : bug found = {} after {} iteration(s) in {:.3}s",
        report.bug_found,
        report.iterations,
        start.elapsed().as_secs_f64()
    );

    // Confirm the witness with the exact simulator (the paper feeds its
    // witnesses to SliQSim).  The witness — a DAG-shared tree with a small
    // support even at 35 qubits — is pulled back to a basis input through
    // the inverse circuit and the two circuits are compared on that input.
    if let Some(witness) = &report.witness {
        println!(
            "              witness: {} qubits, {} shared DAG nodes, support {}",
            witness.num_qubits(),
            witness.node_count(),
            witness.support_size()
        );
        match report.confirm_with_simulator(&circuit, &buggy) {
            // Qubit 0 is the most significant bit, so pad to the width.
            Some(basis) => println!(
                "              witness confirmed by the simulator: outputs differ on input |{basis:0width$b}⟩",
                width = circuit.num_qubits() as usize
            ),
            None => println!(
                "              (witness not confirmable via a basis-state preimage; simulator confirmation skipped)"
            ),
        }
    }

    // 2. Path-sum checker (Feynman stand-in).
    let start = Instant::now();
    let verdict = pathsum::check_equivalence(&circuit, &buggy);
    println!(
        "path-sum    : verdict = {verdict:?} in {:.3}s",
        start.elapsed().as_secs_f64()
    );

    // 3. Random stimuli (QCEC stand-in).
    let start = Instant::now();
    let stimuli = check_with_stimuli(&circuit, &buggy, &StimuliConfig::default(), &mut rng);
    println!(
        "stimuli     : verdict = {:?} ({} samples) in {:.3}s",
        stimuli.verdict,
        stimuli.samples_used,
        start.elapsed().as_secs_f64()
    );
    if stimuli.verdict == Verdict::Unknown {
        println!("              (the stimuli checker missed the bug — the paper's `F` entries)");
    }
}
