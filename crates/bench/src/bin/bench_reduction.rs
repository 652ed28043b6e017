//! Hot-path micro/row benchmark for the automaton reduction engine.
//!
//! Usage: `cargo run --release -p autoq-bench --bin bench_reduction
//! [--paper] [--out PATH]`
//!
//! Measures the reduction/engine hot path at three granularities and writes
//! the results as JSON (default `BENCH_reduction.json`), so the CI
//! bench-smoke job emits a comparable baseline on every run:
//!
//! * **micro** — `TreeAutomaton::reduce` on a duplicated-copies automaton
//!   (the shape every primed-copy gate construction produces),
//!   `Engine::apply_gate` for one permutation (CNOT) and two composition
//!   gates (H on qubits 5 and 0, the second the longest ladder) on a
//!   12-qubit all-basis set, the fused projection ladder against its
//!   reference at depth 64, and witness extraction at 35 and 70 qubits;
//! * **rows** — the two previously slow Table 3 rows: the `increment8`
//!   AutoQ hunt and the `cycle10` path-sum check — plus the `Interrupt`
//!   governance overhead / budget-trip stop latencies (`exhaustion.*`);
//! * **paper** (with `--paper`) — the superposing `random35`/`random70`
//!   hunts (paper ratio: `3n` gates including `H`/`Rx`/`Ry`) and the
//!   permutation-pool `random70p` row, all through the fused composition
//!   ladder; each row's simulator confirmation of the witness is recorded
//!   next to its hunt (`paper.<row>_confirm_s`).

use std::fmt::Write as _;
use std::time::Duration;

use autoq_amplitude::{intern as amp_intern, Algebraic};
use autoq_bench::table3::{paper_scale_workload, run_paper_scale_row, run_row};
use autoq_bench::timed;
use autoq_circuit::generators::{carry_lookahead_like, increment_circuit};
use autoq_circuit::mutation::inject_random_gate;
use autoq_circuit::Gate;
use autoq_core::composition::{project_reference, project_with, tag_in_place};
use autoq_core::{
    Engine, HuntJob, HuntPool, Interrupt, Resource, RunOptions, StateSet, StopReason,
};
use autoq_equivcheck::pathsum;
use autoq_treeaut::{basis, inclusion, InclusionResult, Tree, TreeAutomaton};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Median wall time of `runs` executions of `f`.
fn median_time(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..runs).map(|_| timed(&mut f).1).collect();
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper = args.iter().any(|a| a == "--paper");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_reduction.json".to_string());

    let mut entries: Vec<(String, String)> = Vec::new();
    /// Seconds to the nanosecond, so sub-millisecond keys keep their
    /// significant digits.
    fn record_secs(entries: &mut Vec<(String, String)>, key: &str, duration: Duration) {
        let value = format!("{:.9}", duration.as_secs_f64());
        println!("{key}: {value}s");
        entries.push((key.to_string(), value));
    }

    // Micro: reduce a duplicated all-basis automaton (the redundancy shape
    // the primed-copy constructions produce).
    let base = StateSet::all_basis_states(12);
    let mut duplicated = base.automaton().clone();
    let offset = duplicated.import_disjoint(base.automaton());
    let roots: Vec<_> = base
        .automaton()
        .roots
        .iter()
        .map(|r| r.offset(offset))
        .collect();
    for root in roots {
        duplicated.add_root(root);
    }
    let reduce_time = median_time(20, || {
        let reduced = duplicated.reduce();
        assert!(reduced.state_count() <= base.state_count());
    });
    record_secs(
        &mut entries,
        "micro.reduce_duplicated_allbasis12",
        reduce_time,
    );

    // Micro: one permutation-encoded and one composition-encoded gate.
    let engine = Engine::hybrid();
    let cnot = Gate::Cnot {
        control: 0,
        target: 11,
    };
    record_secs(
        &mut entries,
        "micro.apply_gate_cnot_allbasis12",
        median_time(20, || {
            let _ = engine.apply_gate(&base, &cnot);
        }),
    );
    record_secs(
        &mut entries,
        "micro.apply_gate_h_allbasis12",
        median_time(20, || {
            let _ = engine.apply_gate(&base, &Gate::H(5));
        }),
    );
    // H on the top qubit climbs the longest ladder: 11 forward and 11
    // backward passes per projection, against 6 for H(5).  Its time is
    // nearly all the tagged product, which pairs ~11M states (~1 GB), so
    // it takes the median of 3 runs, not 20.
    record_secs(
        &mut entries,
        "micro.apply_gate_h0_allbasis12",
        median_time(3, || {
            let _ = engine.apply_gate(&base, &Gate::H(0));
        }),
    );

    // Micro: one projection through a depth-64 swap ladder, fused against
    // the unfused reference ladder it is tested against.  The input is a
    // tagged union of four basis states: linear-size with bounded
    // branching, so the cost scales with the depth, not with 2^depth (wide
    // sets make every tag distinct and time the encoding's worst case).
    let mut tagged =
        TreeAutomaton::from_trees(65, &[0u128, 1, 3, 6].map(|b| Tree::basis_state(65, b)));
    tag_in_place(&mut tagged);
    record_secs(
        &mut entries,
        "micro.project_fused_depth64",
        median_time(20, || {
            let _ = project_with(&tagged, 0, false);
        }),
    );
    record_secs(
        &mut entries,
        "micro.project_reference_depth64",
        median_time(20, || {
            let _ = project_reference(&tagged, 0, false);
        }),
    );

    // Micro: the inclusion counterexample of two basis states against one
    // at the paper's Table 3 widths.  With DAG-shared trees the witness is
    // linear in the qubit count (a boxed 35-qubit witness would unfold to
    // 2^36 nodes).
    for n in [35u32, 70] {
        let p = 1u128 << (n - 1);
        let a = TreeAutomaton::from_trees(
            n,
            &[
                Tree::basis_state(n, p),
                Tree::basis_state(n, basis::index_mask(n)),
            ],
        );
        let b = TreeAutomaton::from_tree(&Tree::basis_state(n, p));
        record_secs(
            &mut entries,
            &format!("micro.witness_extraction_{n}q"),
            median_time(20, || match inclusion(&a, &b) {
                InclusionResult::Counterexample(witness) => {
                    assert!(witness.node_count() <= 2 * n as usize + 1);
                }
                InclusionResult::Included => unreachable!("inclusion must fail"),
            }),
        );
    }

    // Leaf-amplitude fast path: interning cost cold (first-ever values)
    // vs warm (pure hit path) on 10k distinct irreducible amplitudes, and
    // the process-wide hit rate over one composition-encoded gate.
    let fresh: Vec<Algebraic> = (0..10_000)
        .map(|i| Algebraic::from_components(2 * i + 1, 0, 0, 0, 1))
        .collect();
    let (_, cold) = timed(|| {
        for value in &fresh {
            let _ = amp_intern::intern(value);
        }
    });
    record_secs(&mut entries, "leaf.intern_cold_10k", cold);
    record_secs(
        &mut entries,
        "leaf.intern_warm_10k",
        median_time(5, || {
            for value in &fresh {
                let _ = amp_intern::intern(value);
            }
        }),
    );
    let stats_before = amp_intern::stats();
    let _ = engine.apply_gate(&base, &Gate::H(5));
    let stats_after = amp_intern::stats();
    let hits = (stats_after.intern_hits + stats_after.combine_hits)
        - (stats_before.intern_hits + stats_before.combine_hits);
    let misses = (stats_after.intern_misses + stats_after.combine_misses)
        - (stats_before.intern_misses + stats_before.combine_misses);
    entries.push((
        "leaf.apply_gate_h_intern_hit_rate".to_string(),
        format!("{:.4}", hits as f64 / (hits + misses).max(1) as f64),
    ));
    entries.push((
        "leaf.table_distinct".to_string(),
        stats_after.distinct.to_string(),
    ));

    // Rows: the previously slow Table 3 entries, with the canonical
    // `table3` seeds so the numbers are directly comparable.
    let increment8_row = run_row("increment8", &increment_circuit(8), false, 48);
    record_secs(
        &mut entries,
        "row.increment8_autoq_hunt",
        increment8_row.autoq_time,
    );
    entries.push((
        "row.increment8_peak_states".to_string(),
        increment8_row.peak_states.to_string(),
    ));
    assert!(increment8_row.autoq_found, "increment8 bug must be found");

    let cycle10 = carry_lookahead_like(10, 5);
    let mut rng = StdRng::seed_from_u64(49);
    let (cycle10_buggy, _) = inject_random_gate(&cycle10, false, &mut rng);
    let (verdict, cycle10_time) = timed(|| pathsum::check_equivalence(&cycle10, &cycle10_buggy));
    record_secs(&mut entries, "row.cycle10_pathsum", cycle10_time);
    entries.push((
        "row.cycle10_pathsum_verdict".to_string(),
        format!("{verdict:?}"),
    ));

    // A short superposing circuit at 20 qubits, all composition-encoded —
    // four deep fused ladders per run on a basis-state input (wide input
    // sets like the all-basis automaton are the tagged encoding's
    // exponential worst case and would benchmark the encoding, not the
    // governance).
    let superposing_input = StateSet::basis_state(20, 0);
    let superposing_circuit = autoq_circuit::Circuit::from_gates(
        20,
        [Gate::H(0), Gate::RyPi2(1), Gate::RxPi2(2), Gate::H(3)],
    )
    .expect("well-formed circuit");
    let governed = |interrupt| {
        engine.run(
            &superposing_input,
            &superposing_circuit,
            RunOptions {
                interrupt: Some(interrupt),
                observer: None,
            },
        )
    };

    // Resource governance: what an `Interrupt` costs when it never trips
    // (checkpoint overhead on the same superposing run, governed under
    // generous budgets vs ungoverned) and how fast a tripped budget stops
    // the run (the "within one gate boundary" latency, measured).  The
    // stop latencies bound the daemon's graceful-degradation answer time
    // for blowing-up jobs.
    record_secs(
        &mut entries,
        "exhaustion.ungoverned_baseline",
        median_time(5, || {
            let _ = engine.apply_circuit(&superposing_input, &superposing_circuit);
        }),
    );
    let generous = Interrupt::new()
        .with_deadline(Duration::from_secs(600))
        .with_max_states(u64::MAX);
    record_secs(
        &mut entries,
        "exhaustion.governed_overhead",
        median_time(5, || {
            let applied = governed(&generous);
            assert!(applied.is_ok(), "generous budgets must never trip");
        }),
    );
    let tiny_states = Interrupt::new().with_max_states(1);
    record_secs(
        &mut entries,
        "exhaustion.states_stop_latency",
        median_time(5, || {
            let stopped = governed(&tiny_states)
                .expect_err("a 1-state budget must trip on a superposing run");
            assert!(matches!(
                stopped.reason,
                StopReason::Exhausted {
                    resource: Resource::States,
                    ..
                }
            ));
        }),
    );
    let elapsed_deadline = Interrupt::new().with_deadline(Duration::ZERO);
    record_secs(
        &mut entries,
        "exhaustion.deadline_stop_latency",
        median_time(5, || {
            let stopped =
                governed(&elapsed_deadline).expect_err("an already-elapsed deadline must trip");
            assert!(matches!(
                stopped.reason,
                StopReason::Exhausted {
                    resource: Resource::WallClock,
                    ..
                }
            ));
        }),
    );

    // Portfolio hunt scaling: the same 8-job portfolio (self-equivalent
    // hunts with a pinned iteration bound, so every worker does the full,
    // deterministic amount of work — no early-exit variance) on 1/2/4/8
    // `HuntPool` workers.  Hunts share no tree storage, so on a multi-core
    // machine these can scale; on a 1-core CI runner the four entries are
    // expected to be flat (plus scheduling overhead), which is itself the
    // baseline worth recording.
    let portfolio_circuit = increment_circuit(6);
    let hunt_jobs: Vec<HuntJob> = (0..8)
        .map(|i| HuntJob {
            label: format!("inc6-self-{i}"),
            original: portfolio_circuit.clone(),
            candidate: portfolio_circuit.clone(),
            seed: 0x7AB1E3 + i as u64,
        })
        .collect();
    let bounded = autoq_core::BugHunter::new(Engine::hybrid()).with_max_iterations(4);
    for threads in [1usize, 2, 4, 8] {
        let pool = HuntPool::new(Engine::hybrid())
            .with_hunter(bounded)
            .with_threads(threads);
        record_secs(
            &mut entries,
            &format!("sweep.hunt_threads.{threads}"),
            median_time(3, || {
                let outcome = pool.run(&hunt_jobs);
                assert_eq!(outcome.hunts_completed, hunt_jobs.len());
            }),
        );
    }

    // Reduction-policy sweep over the Table 2 verification workloads — the
    // recorded evidence behind the `Engine::hybrid()` adaptive-reduction
    // default (revert the default if any row regresses here).
    for row in autoq_bench::table2::run_policy_sweep() {
        assert!(
            row.both_verified,
            "{} must verify under both reduction policies",
            row.name
        );
        record_secs(
            &mut entries,
            &format!("sweep.{}.after_each_gate", row.name),
            row.after_each_gate,
        );
        record_secs(
            &mut entries,
            &format!("sweep.{}.adaptive", row.name),
            row.adaptive,
        );
    }

    // Certification overhead over the same Table 2 workloads: end-to-end
    // verification time vs the cost of building the AQIC certificate
    // bundle and re-checking it with the independent checker.  The
    // per-row guard (build + check within 15% of verify, 1 ms floor) is
    // the PR's acceptance bound for self-certifying verdicts.
    for row in autoq_bench::table2::run_certify_sweep() {
        assert!(
            row.overhead_acceptable(),
            "{}: certification overhead exceeds the 15% guard \
             (verify {:?}, build {:?}, check {:?})",
            row.name,
            row.verify,
            row.build,
            row.check,
        );
        record_secs(
            &mut entries,
            &format!("certify.{}.verify", row.name),
            row.verify,
        );
        record_secs(
            &mut entries,
            &format!("certify.{}.build", row.name),
            row.build,
        );
        record_secs(
            &mut entries,
            &format!("certify.{}.check", row.name),
            row.check,
        );
    }

    if paper {
        // The superposing `Random` rows at both paper widths (35 and 70
        // qubits) plus the permutation-pool 70-qubit row: the composition
        // hot path's acceptance rows, recorded so the fused-ladder numbers
        // are regenerated with the baseline on every CI run.
        for (name, circuit, superposing, seed) in paper_scale_workload()
            .into_iter()
            .filter(|(name, ..)| name.starts_with("random"))
        {
            let row = run_paper_scale_row(&name, &circuit, superposing, seed);
            record_secs(
                &mut entries,
                &format!("paper.{name}_autoq_hunt"),
                row.autoq_time,
            );
            record_secs(
                &mut entries,
                &format!("paper.{name}_confirm_s"),
                row.confirm_time,
            );
            entries.push((
                format!("paper.{name}_peak_states"),
                row.peak_states.to_string(),
            ));
            entries.push((
                format!("paper.{name}_bug_found"),
                row.autoq_found.to_string(),
            ));
            assert!(row.autoq_found, "{name}: bug must be found");
        }
    }

    let mut json = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        // Numeric values are emitted bare; everything else as a string.
        if value.parse::<f64>().is_ok() {
            let _ = writeln!(json, "  \"{key}\": {value}{comma}");
        } else {
            let _ = writeln!(json, "  \"{key}\": \"{value}\"{comma}");
        }
    }
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark baseline");
    println!("wrote {out_path}");
}
