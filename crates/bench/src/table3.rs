//! Table 3 — finding injected bugs, comparing AutoQ with the path-sum and
//! random-stimuli baselines.
//!
//! For every circuit a copy with one extra random gate is created
//! (Section 7.2) and all three checkers are asked whether the two circuits
//! are equivalent:
//!
//! * AutoQ (`BugHunter`, Hybrid engine) — reports the time and the number of
//!   input-set-growing iterations, like the paper's `time`/`iter` columns;
//! * the path-sum checker — `T` when it proves non-equivalence, `—` when it
//!   answers Unknown (mirroring Feynman's timeouts), `F` if it were ever to
//!   claim equivalence of genuinely different circuits;
//! * the stimuli checker — `T` when a distinguishing stimulus is found, `F`
//!   otherwise (it can only ever miss bugs, never prove equivalence).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use autoq_circuit::generators::{
    carry_lookahead_like, gf2_multiplier, increment_circuit, random_circuit, ripple_carry_adder,
    RandomCircuitConfig,
};
use autoq_circuit::mutation::inject_random_gate;
use autoq_circuit::Circuit;
use autoq_core::{BugHunter, Engine, HuntReport};
use autoq_equivcheck::stimuli::{check_with_stimuli, StimuliConfig};
use autoq_equivcheck::{pathsum, Verdict};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::timed;

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Circuit name.
    pub circuit: String,
    /// Number of qubits.
    pub qubits: u32,
    /// Number of gates (of the original circuit).
    pub gates: usize,
    /// AutoQ bug-hunting time (witness confirmation excluded).
    pub autoq_time: Duration,
    /// Time of the simulator confirmation of AutoQ's witness
    /// ([`autoq_core::HuntReport::confirm_with_simulator`]).
    pub confirm_time: Duration,
    /// AutoQ iterations (the `iter` column).
    pub autoq_iterations: u32,
    /// Did AutoQ find the bug?
    pub autoq_found: bool,
    /// Path-sum checker time.
    pub pathsum_time: Duration,
    /// Path-sum verdict.
    pub pathsum_verdict: Verdict,
    /// Stimuli checker time.
    pub stimuli_time: Duration,
    /// Stimuli verdict.
    pub stimuli_verdict: Verdict,
    /// Basis input on which the exact simulator confirmed AutoQ's witness
    /// (the paper's SliQSim cross-check), if one was found.
    pub autoq_confirmed_on: Option<u128>,
    /// Number of shared DAG nodes in AutoQ's witness tree (`None` without a
    /// witness).  Stays linear in the qubit count thanks to hash-consing.
    pub witness_nodes: Option<usize>,
    /// Peak automaton state count reached anywhere in the hunt (before
    /// reductions) — the engine's hot-path health metric; printed so
    /// reduction/scheduling regressions are visible in PR output.
    pub peak_states: usize,
}

/// Renders a baseline verdict like the paper: `T` = bug found, `F` = bug
/// missed (claimed equivalent / no difference observed), `—` = unknown.
pub fn verdict_symbol(verdict: Verdict, definitely_buggy: bool) -> &'static str {
    match verdict {
        Verdict::NotEquivalent => "T",
        Verdict::Equivalent => {
            if definitely_buggy {
                "F"
            } else {
                "T"
            }
        }
        Verdict::Unknown => "—",
    }
}

impl Table3Row {
    /// Renders the row as a Markdown table line.
    pub fn to_markdown(&self) -> String {
        format!(
            "| {} | {} | {} | {:.3}s | {} | {} | {} | {} | {:.3}s | {} | {:.3}s | {} |",
            self.circuit,
            self.qubits,
            self.gates,
            self.autoq_time.as_secs_f64(),
            self.autoq_iterations,
            if self.autoq_found { "T" } else { "—" },
            if self.autoq_confirmed_on.is_some() {
                "✓"
            } else {
                "—"
            },
            self.peak_states,
            self.pathsum_time.as_secs_f64(),
            verdict_symbol(self.pathsum_verdict, true),
            self.stimuli_time.as_secs_f64(),
            match self.stimuli_verdict {
                Verdict::NotEquivalent => "T",
                _ => "F",
            },
        )
    }

    /// The Markdown header matching [`Table3Row::to_markdown`].
    pub fn markdown_header() -> String {
        "| circuit | #q | #G | AutoQ time | iter | bug? | confirmed? | peak states | path-sum time | bug? | stimuli time | bug? |\n|---|---|---|---|---|---|---|---|---|---|---|---|".to_string()
    }
}

/// Runs one bug-finding row: injects a random gate into `circuit` and asks
/// all three checkers.
pub fn run_row(name: &str, circuit: &Circuit, superposing: bool, seed: u64) -> Table3Row {
    run_row_inner(name, circuit, superposing, seed, true)
}

/// Runs one *paper-scale* AutoQ-only bug-finding row: the path-sum and
/// stimuli baselines are skipped because they do not terminate in reasonable
/// time at 35+ qubits (exactly the regime the paper's Table 3 uses to
/// separate AutoQ from them), while the hunter still produces — and the
/// sparse simulator confirms — a DAG-shared witness in seconds.  Skipped
/// baselines report `Unknown` with zero time.
pub fn run_paper_scale_row(
    name: &str,
    circuit: &Circuit,
    superposing: bool,
    seed: u64,
) -> Table3Row {
    run_row_inner(name, circuit, superposing, seed, false)
}

fn run_row_inner(
    name: &str,
    circuit: &Circuit,
    superposing: bool,
    seed: u64,
    run_baselines: bool,
) -> Table3Row {
    let ((buggy, report), autoq_time) = timed(|| hunt_row(circuit, superposing, seed));
    let (autoq_confirmed_on, confirm_time) =
        timed(|| report.confirm_with_simulator(circuit, &buggy));

    let (pathsum_verdict, pathsum_time) = if run_baselines {
        timed(|| pathsum::check_equivalence(circuit, &buggy))
    } else {
        (Verdict::Unknown, Duration::ZERO)
    };

    let (stimuli_verdict, stimuli_time) = if run_baselines {
        let mut stimuli_rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let (stimuli_report, stimuli_time) = timed(|| {
            check_with_stimuli(circuit, &buggy, &StimuliConfig::default(), &mut stimuli_rng)
        });
        (stimuli_report.verdict, stimuli_time)
    } else {
        (Verdict::Unknown, Duration::ZERO)
    };

    Table3Row {
        circuit: name.to_string(),
        qubits: circuit.num_qubits(),
        gates: circuit.gate_count(),
        autoq_time,
        confirm_time,
        autoq_iterations: report.iterations,
        autoq_found: report.bug_found,
        autoq_confirmed_on,
        witness_nodes: report.witness.as_ref().map(autoq_treeaut::Tree::node_count),
        peak_states: report.stats.peak_states,
        pathsum_time,
        pathsum_verdict,
        stimuli_time,
        stimuli_verdict,
    }
}

/// AutoQ's part of a row: injects a random gate into `circuit` (seed
/// `seed`) and hunts for it (seed `seed ^ 0xabcd`, `min(n, 10) + 1`
/// iterations); returns the buggy circuit and the hunt's report.
fn hunt_row(circuit: &Circuit, superposing: bool, seed: u64) -> (Circuit, HuntReport) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (buggy, _bug) = inject_random_gate(circuit, superposing, &mut rng);
    let hunter =
        BugHunter::new(Engine::hybrid()).with_max_iterations(circuit.num_qubits().min(10) + 1);
    let mut hunt_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    let report = hunter.hunt(circuit, &buggy, &mut hunt_rng);
    (buggy, report)
}

/// Runs the whole paper-scale workload with the canonical per-row seeds —
/// the single source of truth for both the `table3 --paper` binary and the
/// CI-exercised release test.
pub fn run_paper_scale_rows() -> Vec<Table3Row> {
    run_paper_scale_rows_threaded(1)
}

/// Runs the paper-scale workload with rows drawn from a shared queue by
/// `threads` worker threads — the `table3 --paper --threads N` path.
///
/// Rows are independent hunts, so row-level parallelism is the natural
/// portfolio axis at this scale (the engine itself is sequential).  The
/// per-row seeds are pinned, so the resulting table is identical — rows
/// included — for every thread count; only the wall-clock changes.
pub fn run_paper_scale_rows_threaded(threads: usize) -> Vec<Table3Row> {
    let workload = paper_scale_workload();
    let threads = threads.max(1).min(workload.len());
    if threads == 1 {
        return workload
            .into_iter()
            .map(|(name, circuit, superposing, seed)| {
                run_paper_scale_row(&name, &circuit, superposing, seed)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Table3Row>>> = workload.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                let Some((name, circuit, superposing, seed)) = workload.get(index) else {
                    break;
                };
                let row = run_paper_scale_row(name, circuit, *superposing, *seed);
                *slots[index].lock().expect("row slot poisoned") = Some(row);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("row slot poisoned")
                .expect("every row computed")
        })
        .collect()
}

/// The paper-scale workload: Table 3's 35- and 70-qubit regimes.  The
/// 35-qubit rows require DAG-shared witness trees (a 35-qubit witness
/// unfolds to `2^36` explicit nodes); the 70-qubit `Random` rows
/// additionally require the `u128` basis indices that replaced the old
/// 64-qubit `u64` cap.  Only AutoQ rows are run at this scale; see
/// [`run_paper_scale_row`].
///
/// Three rows are reversible (RevLib/FeynmanBench-style); `random35` and
/// `random70` are the paper's superposing `Random` family at the paper's two
/// widths with the 1:3 qubit-to-gate ratio (`H`/`Rx`/`Ry` included), which
/// exercise the composition-encoding + reduction hot path end to end;
/// `random70p` is the same 70-qubit `Random` shape restricted to the
/// permutation gate pool, whose witnesses always pull back to a basis input
/// — so the sparse simulator must confirm them.
///
/// Each entry is `(name, circuit, superposing, row_seed)`; the row seed
/// drives both the bug injection and the hunt and is pinned per row so the
/// table stays reproducible (the 70-qubit seeds are chosen so the injected
/// gate is actually observable — a random phase/controlled gate whose
/// controls are stuck at 0 across the sampled inputs is legitimately missed
/// by the hunt, as in the paper's own `F` rows).
pub fn paper_scale_workload() -> Vec<(String, Circuit, bool, u64)> {
    let mut random_rng = StdRng::seed_from_u64(3500);
    let mut random70_rng = StdRng::seed_from_u64(7001);
    let mut random70p_rng = StdRng::seed_from_u64(7001);
    vec![
        ("add17".to_string(), ripple_carry_adder(17), false, 4242),
        ("gf2^10_mult".to_string(), gf2_multiplier(10), false, 4243),
        (
            "cycle35".to_string(),
            carry_lookahead_like(35, 2),
            false,
            4244,
        ),
        (
            "random35".to_string(),
            random_circuit(&RandomCircuitConfig::with_paper_ratio(35), &mut random_rng),
            true,
            4245,
        ),
        (
            "random70".to_string(),
            random_circuit(
                &RandomCircuitConfig::with_paper_ratio(70),
                &mut random70_rng,
            ),
            true,
            4246,
        ),
        (
            "random70p".to_string(),
            random_circuit(
                &RandomCircuitConfig {
                    num_qubits: 70,
                    num_gates: 210,
                    include_superposing_gates: false,
                },
                &mut random70p_rng,
            ),
            false,
            9001,
        ),
    ]
}

/// The default Table 3 workload: a scaled-down version of the paper's
/// `Random`, `RevLib` and `FeynmanBench` families (identical gate vocabulary
/// and structure; sizes chosen so that the whole table runs on a laptop).
pub fn default_workload() -> Vec<(String, Circuit, bool)> {
    let mut workload = Vec::new();
    // Random family (the paper uses 35 and 70 qubits with a 1:3 ratio).
    for (index, qubits) in [8u32, 10, 12].into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(1000 + index as u64);
        let circuit = random_circuit(&RandomCircuitConfig::with_paper_ratio(qubits), &mut rng);
        workload.push((
            format!("random{qubits}{}", (b'a' + index as u8) as char),
            circuit,
            true,
        ));
    }
    // RevLib-style reversible arithmetic.
    for bits in [4u32, 6, 8] {
        workload.push((format!("add{bits}"), ripple_carry_adder(bits), false));
    }
    workload.push(("increment8".to_string(), increment_circuit(8), false));
    workload.push(("cycle10".to_string(), carry_lookahead_like(10, 5), false));
    // FeynmanBench-style multiplier circuits.
    for bits in [4u32, 5, 6] {
        workload.push((format!("gf2^{bits}_mult"), gf2_multiplier(bits), false));
    }
    workload
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoq_simulator::SparseState;

    #[test]
    fn autoq_finds_bugs_in_reversible_rows() {
        let row = run_row("add4", &ripple_carry_adder(4), false, 7);
        assert!(row.autoq_found, "AutoQ must find the injected bug");
        assert!(row.autoq_iterations >= 1);
        assert!(row.to_markdown().contains("add4"));
        // The witness is confirmed by the exact simulator and stays linear.
        assert!(row.autoq_confirmed_on.is_some());
        let nodes = row.witness_nodes.expect("witness tree recorded");
        assert!(nodes <= 2 * row.qubits as usize + 1);
    }

    #[test]
    fn paper_scale_rows_skip_the_baselines() {
        // Small stand-in circuit: the row shape is what matters here; the
        // real 35-qubit runs are exercised by the `witness_scale`
        // integration tests and the `table3 --paper` binary.
        let row = run_paper_scale_row("add4", &ripple_carry_adder(4), false, 7);
        assert!(row.autoq_found);
        assert_eq!(row.pathsum_verdict, Verdict::Unknown);
        assert_eq!(row.pathsum_time, Duration::ZERO);
        assert_eq!(row.stimuli_verdict, Verdict::Unknown);
        let header_cols = Table3Row::markdown_header()
            .lines()
            .next()
            .unwrap()
            .matches('|')
            .count();
        assert_eq!(header_cols, row.to_markdown().matches('|').count());
    }

    /// The real 35- and 70-qubit regimes — minutes in a debug build,
    /// manageable in release, so CI runs it with
    /// `--release -- --include-ignored`.  The 70-qubit rows are the ones
    /// the `u128` basis indices unlocked: `random70p`'s witness must be
    /// extracted *and* simulator-confirmed on a basis input past the old
    /// `u64` boundary.
    #[test]
    #[ignore = "exact-arithmetic heavy: run in release (--include-ignored)"]
    fn paper_scale_rows_hunt_and_confirm_at_35_and_70_qubits() {
        let rows = run_paper_scale_rows();
        for (row, (_, _, superposing, _)) in rows.iter().zip(paper_scale_workload()) {
            let name = &row.circuit;
            eprintln!(
                "{name}: {:.3}s, {} iteration(s), witness nodes {:?}, peak states {}, confirmed on {:?}",
                row.autoq_time.as_secs_f64(),
                row.autoq_iterations,
                row.witness_nodes,
                row.peak_states,
                row.autoq_confirmed_on,
            );
            assert!(row.autoq_found, "{name}: AutoQ must find the injected bug");
            let nodes = row.witness_nodes.expect("witness tree recorded");
            if superposing {
                // Superposition witnesses are DAG-shared but not basis
                // states; they stay polynomial — measured ~3.7k shared
                // nodes at 35 qubits and ~11k at 70 (against 2^71
                // unfolded) — and may lack a basis-state preimage for
                // simulator confirmation.
                assert!(
                    nodes <= 256 * row.qubits as usize,
                    "{name}: witness DAG exploded, got {nodes} nodes"
                );
            } else {
                assert!(
                    nodes <= 2 * row.qubits as usize + 1,
                    "{name}: witness must stay linear, got {nodes} nodes"
                );
                // Reversible rows' witnesses always pull back to a basis
                // input, so the sparse simulator must confirm them.
                assert!(row.autoq_confirmed_on.is_some(), "{name}: unconfirmed");
            }
        }
        // The 70-qubit confirmation exercises a basis input that does not
        // fit in the old u64 index type.
        let row70p = rows
            .iter()
            .find(|r| r.circuit == "random70p")
            .expect("random70p row present");
        let confirmed_on = row70p.autoq_confirmed_on.expect("random70p unconfirmed");
        assert!(
            confirmed_on > u128::from(u64::MAX),
            "expected a confirmation input past the 64-bit boundary, got {confirmed_on}"
        );
    }

    /// The premise of the confirmation shortcut in
    /// [`HuntReport::confirm_with_simulator`]: a row's witness is one
    /// circuit's exact output on the confirmed input, and the other
    /// circuit's output there differs.
    fn assert_witness_is_an_output_on_its_confirmed_input(
        name: &str,
        circuit: &Circuit,
        superposing: bool,
        seed: u64,
    ) {
        let (buggy, report) = hunt_row(circuit, superposing, seed);
        let Some(basis) = report.confirm_with_simulator(circuit, &buggy) else {
            assert!(superposing, "{name}: a reversible row must confirm");
            return;
        };
        let witness = SparseState::from_tree(report.witness.as_ref().expect("a witness"));
        let outputs = [
            SparseState::run(circuit, basis),
            SparseState::run(&buggy, basis),
        ];
        assert_ne!(outputs[0], outputs[1], "{name}");
        assert!(
            outputs.contains(&witness),
            "{name}: the witness is no circuit's output on {basis}"
        );
    }

    /// Every default row, with the `table3` binary's seeds (`42 + index`).
    #[test]
    fn default_row_witnesses_are_outputs_on_their_confirmed_inputs() {
        for (index, (name, circuit, superposing)) in default_workload().into_iter().enumerate() {
            assert_witness_is_an_output_on_its_confirmed_input(
                &name,
                &circuit,
                superposing,
                42 + index as u64,
            );
        }
    }

    /// Every paper-scale row; `random70` has no basis preimage and is
    /// skipped by the helper.
    #[test]
    #[ignore = "exact-arithmetic heavy: run in release (--include-ignored)"]
    fn paper_row_witnesses_are_outputs_on_their_confirmed_inputs() {
        for (name, circuit, superposing, seed) in paper_scale_workload() {
            assert_witness_is_an_output_on_its_confirmed_input(&name, &circuit, superposing, seed);
        }
    }

    #[test]
    fn paper_scale_workload_is_at_paper_scale() {
        let workload = paper_scale_workload();
        // Both of the paper's Table 3 widths are present, including the
        // 70-qubit rows the u128 basis indices unlocked.
        assert!(workload.iter().any(|(_, c, _, _)| c.num_qubits() >= 35));
        assert!(workload.iter().any(|(_, c, _, _)| c.num_qubits() >= 70));
        for (name, circuit, _, _) in &workload {
            assert!(!name.is_empty());
            assert!(
                circuit.num_qubits() <= autoq_treeaut::basis::MAX_QUBITS,
                "{name} exceeds the 128-qubit index width"
            );
        }
    }

    #[test]
    fn pathsum_catches_classical_bugs() {
        let row = run_row("gf2^3_mult", &gf2_multiplier(3), false, 3);
        assert_eq!(row.pathsum_verdict, Verdict::NotEquivalent);
        assert!(row.autoq_found);
    }

    #[test]
    fn workload_is_nonempty_and_well_formed() {
        let workload = default_workload();
        assert!(workload.len() >= 8);
        for (name, circuit, _) in &workload {
            assert!(!name.is_empty());
            assert!(circuit.gate_count() > 0);
            assert!(
                circuit.num_qubits() <= autoq_treeaut::basis::MAX_QUBITS,
                "{name} exceeds the 128-qubit index width"
            );
        }
    }

    #[test]
    fn verdict_symbols_match_the_paper_conventions() {
        assert_eq!(verdict_symbol(Verdict::NotEquivalent, true), "T");
        assert_eq!(verdict_symbol(Verdict::Equivalent, true), "F");
        assert_eq!(verdict_symbol(Verdict::Unknown, true), "—");
    }

    #[test]
    fn markdown_header_and_rows_have_matching_column_counts() {
        let header = Table3Row::markdown_header();
        let row = run_row("inc4", &increment_circuit(4), false, 11).to_markdown();
        let header_cols = header.lines().next().unwrap().matches('|').count();
        assert_eq!(header_cols, row.matches('|').count());
    }
}
