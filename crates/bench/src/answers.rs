//! The answers of `table2` and `table3 --paper` that no change to the
//! engine may move: for every Table 2 workload its automaton sizes and
//! verdicts, for every Table 3 row (default and paper-scale, with the seed
//! the `table3` bin gives it) what the hunt finds and its peak.  Timings
//! and the baselines (dense simulator, path-sum, stimuli) are left out.
//!
//! Release only: `cargo test --release -p autoq-bench --lib --
//! --include-ignored` (a few seconds, `random70`'s hunt the largest part).

use autoq_core::{verify, Engine, SpecMode};

use crate::table2::table2_workloads;
use crate::table3::{default_workload, paper_scale_workload, run_paper_scale_row};

/// An automaton size: `(states, transitions)`.
type Size = (usize, usize);

/// `(workload, before, after)`: `before` is the pre-condition's size,
/// `after` the Hybrid engine's output's.
const TABLE2: [(&str, Size, Size); 12] = [
    ("BV8", (19, 19), (19, 19)),
    ("BV12", (27, 27), (27, 27)),
    ("BV16", (35, 35), (35, 35)),
    ("BV20", (43, 43), (43, 43)),
    ("Grover-Sing2", (9, 9), (9, 9)),
    ("Grover-Sing3", (13, 13), (16, 16)),
    ("MCToffoli3", (13, 17), (13, 17)),
    ("MCToffoli4", (17, 22), (17, 22)),
    ("MCToffoli5", (21, 27), (21, 27)),
    ("MCToffoli6", (25, 32), (25, 32)),
    ("Grover-All2", (13, 15), (18, 21)),
    ("Grover-All3", (19, 22), (40, 47)),
];

/// `(row, iterations, bug found, confirmed, peak states)` in `table3
/// --paper` order.
const TABLE3: [(&str, u32, bool, bool, usize); 17] = [
    ("random8a", 1, true, true, 125),
    ("random10b", 1, true, true, 168),
    ("random12c", 1, true, true, 210),
    ("add4", 1, true, true, 42),
    ("add6", 1, true, true, 116),
    ("add8", 1, true, true, 74),
    ("increment8", 11, true, true, 1425),
    ("cycle10", 1, true, true, 84),
    ("gf2^4_mult", 3, true, true, 126),
    ("gf2^5_mult", 1, true, true, 234),
    ("gf2^6_mult", 2, true, true, 141),
    ("add17", 1, true, true, 146),
    ("gf2^10_mult", 1, true, true, 474),
    ("cycle35", 4, true, true, 880),
    ("random35", 1, true, true, 18425),
    ("random70", 1, true, false, 122904),
    ("random70p", 1, true, true, 846),
];

#[test]
#[ignore = "runs every Table 2 workload and Table 3 hunt: release only"]
fn table2_and_table3_answers_are_pinned() {
    let workloads = table2_workloads();
    assert_eq!(workloads.len(), TABLE2.len());
    for (w, (name, before, after)) in workloads.iter().zip(TABLE2) {
        assert_eq!(w.name, name);
        let sizes =
            |set: &autoq_core::StateSet| -> Size { (set.state_count(), set.transition_count()) };
        assert_eq!(sizes(&w.pre), before, "{name}: pre-condition size");
        let output = Engine::hybrid().apply_circuit(&w.pre, &w.circuit);
        assert_eq!(sizes(&output), after, "{name}: Hybrid output size");
        for engine in [Engine::hybrid(), Engine::composition()] {
            let outcome = verify(&engine, &w.pre, &w.circuit, &w.post, SpecMode::Equality);
            assert!(outcome.holds(), "{name}: must hold under {engine:?}");
        }
    }

    // The `table3` bin's seeds: 42 + index for the default rows, the
    // workload's own seed for the paper-scale ones.
    let rows: Vec<_> = default_workload()
        .into_iter()
        .enumerate()
        .map(|(index, (name, circuit, superposing))| {
            (name, circuit, superposing, 42 + index as u64)
        })
        .chain(paper_scale_workload())
        .collect();
    assert_eq!(rows.len(), TABLE3.len());
    for ((name, circuit, superposing, seed), expected) in rows.into_iter().zip(TABLE3) {
        let row = run_paper_scale_row(&name, &circuit, superposing, seed);
        let actual = (
            row.circuit.as_str(),
            row.autoq_iterations,
            row.autoq_found,
            row.autoq_confirmed_on.is_some(),
            row.peak_states,
        );
        assert_eq!(
            actual, expected,
            "{name}: iterations, found, confirmed, peak"
        );
    }
}
