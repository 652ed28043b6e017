//! `check_circuit_equivalence_with` against two full `Engine::run`s.
//!
//! The check applies the common prefix of the two circuits' interference
//! schedules once and forks the run there.  The oracle is the loop it
//! replaces: run each circuit in full, compare the outputs with
//! `equivalence`, and merge the statistics (an interrupted second run
//! carries the completed first run's statistics).  Under both engine kinds
//! and every reduction policy, on random circuits with one injected gate
//! over random basis-pattern sets, the two must return exactly the same
//! result, witness and `ApplyStats`.  Under an interrupt — a pre-raised
//! cancel flag or a size budget — they must stop with the same
//! `StopReason` and `partial_stats`, whether the stop falls in the shared
//! prefix, in the first circuit's suffix or in the second's.

use autoq_circuit::generators::{random_circuit, RandomCircuitConfig};
use autoq_circuit::mutation::inject_random_gate;
use autoq_circuit::schedule::interference_schedule;
use autoq_circuit::{Circuit, Gate};
use autoq_core::{
    check_circuit_equivalence_with, ApplyStats, Engine, Interrupt, Interrupted, ReductionPolicy,
    RunOptions, StateSet,
};
use autoq_treeaut::{basis, equivalence, EquivalenceResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Checked = Result<(EquivalenceResult, ApplyStats), Interrupted>;

fn options(interrupt: Option<&Interrupt>) -> RunOptions<'_> {
    RunOptions {
        interrupt,
        observer: None,
    }
}

/// The two-run loop the shared prefix replaces.
fn two_runs(
    engine: &Engine,
    inputs: &StateSet,
    c1: &Circuit,
    c2: &Circuit,
    interrupt: Option<&Interrupt>,
) -> Checked {
    let (out1, stats1) = engine.run(inputs, c1, options(interrupt))?;
    let (out2, stats2) = engine
        .run(inputs, c2, options(interrupt))
        .map_err(|interrupted| interrupted.merge_stats(&stats1))?;
    Ok((
        equivalence(out1.automaton(), out2.automaton()),
        stats1.merge(&stats2),
    ))
}

/// The number of leading scheduled gates the two circuits share.
fn shared_prefix(c1: &Circuit, c2: &Circuit) -> usize {
    let (s1, s2) = (interference_schedule(c1), interference_schedule(c2));
    s1.iter()
        .zip(&s2)
        .take_while(|(&i, &j)| c1.gates()[i] == c2.gates()[j])
        .count()
}

/// Where an interrupted check stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stop {
    Prefix,
    FirstSuffix,
    SecondSuffix,
}

/// How many interrupted checks stopped in each part of the forked run.
#[derive(Debug, Default)]
struct Coverage {
    prefix: usize,
    first_suffix: usize,
    second_suffix: usize,
}

impl Coverage {
    fn count(&mut self, stop: Option<Stop>) {
        match stop {
            Some(Stop::Prefix) => self.prefix += 1,
            Some(Stop::FirstSuffix) => self.first_suffix += 1,
            Some(Stop::SecondSuffix) => self.second_suffix += 1,
            None => {}
        }
    }

    fn assert_complete(&self, what: &str) {
        assert!(
            self.prefix > 0 && self.first_suffix > 0 && self.second_suffix > 0,
            "{what} did not stop in every part of the run: {self:?}"
        );
    }
}

/// Checks one interrupt against the oracle and returns where it stopped,
/// or `None` if neither run tripped it.  A first run that stops before or
/// inside its `j`-th scheduled gate reports `j` gates applied, so it
/// stopped in the prefix if `j` is below the shared length.
fn check_interrupt(
    engine: &Engine,
    inputs: &StateSet,
    c1: &Circuit,
    c2: &Circuit,
    interrupt: &Interrupt,
    context: &str,
) -> Option<Stop> {
    let expected = two_runs(engine, inputs, c1, c2, Some(interrupt));
    let actual = check_circuit_equivalence_with(engine, inputs, c1, c2, Some(interrupt));
    assert_eq!(actual, expected, "interrupted check, {context}");
    expected.err()?;
    Some(match engine.run(inputs, c1, options(Some(interrupt))) {
        Ok(_) => Stop::SecondSuffix,
        Err(stopped) if stopped.partial_stats.gates_applied < shared_prefix(c1, c2) => Stop::Prefix,
        Err(_) => Stop::FirstSuffix,
    })
}

/// An interrupt whose flag is already raised: it stops at the first check.
fn cancelled() -> Interrupt {
    let interrupt = Interrupt::new();
    interrupt.cancel();
    interrupt
}

/// Size budgets that trip somewhere in the check: just under the first
/// run's peak (late in the first run), at it when the second run grows
/// further (in the second run) and just under the second run's peak.  A
/// budget that trips nowhere returns the unlimited answer, which the
/// unlimited check already covers.
fn budgets(peaks: [usize; 2]) -> Vec<u64> {
    let [first, second] = peaks.map(|peak| peak as u64);
    let mut budgets = vec![first.saturating_sub(1), second.saturating_sub(1)];
    if second > first {
        budgets.push(first);
    }
    budgets
}

/// A random hunt input: a basis pattern with about a third of the qubits
/// free.
fn random_inputs(n: u32, rng: &mut StdRng) -> StateSet {
    let free: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.35)).collect();
    let free_bits: u128 = free.iter().map(|&q| basis::qubit_bit(n, q)).sum();
    let fixed = u128::from(rng.gen_range(0..1u64 << n));
    StateSet::basis_pattern(n, fixed & !free_bits, &free)
}

#[derive(Default)]
struct Totals {
    cancel: Coverage,
    budget: Coverage,
    shared_gates: usize,
    scheduled_gates: usize,
}

fn check_case(seed: u64, totals: &mut Totals) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(3..=6u32);
    let superposing = rng.gen_bool(0.5);
    let config = RandomCircuitConfig {
        num_qubits: n,
        num_gates: rng.gen_range(0..=n as usize + 2),
        include_superposing_gates: superposing,
    };
    let original = random_circuit(&config, &mut rng);
    let (mutant, _) = inject_random_gate(&original, superposing, &mut rng);
    let (c1, c2) = if rng.gen_bool(0.5) {
        (original, mutant)
    } else {
        (mutant, original)
    };
    let inputs = random_inputs(n, &mut rng);
    totals.shared_gates += 2 * shared_prefix(&c1, &c2);
    totals.scheduled_gates += c1.gate_count() + c2.gate_count();
    let policies = [
        ReductionPolicy::AfterEachGate,
        ReductionPolicy::Never,
        ReductionPolicy::default(),
    ];
    for base in [Engine::hybrid(), Engine::composition()] {
        for policy in policies {
            let engine = base.with_reduction(policy);
            let context = format!("seed {seed}, {engine:?}, {c1:?} then {c2:?}");
            let (out1, stats1) = engine.run(&inputs, &c1, options(None)).unwrap();
            let (out2, stats2) = engine.run(&inputs, &c2, options(None)).unwrap();
            let expected = (
                equivalence(out1.automaton(), out2.automaton()),
                stats1.merge(&stats2),
            );
            let actual = check_circuit_equivalence_with(&engine, &inputs, &c1, &c2, None);
            assert_eq!(actual, Ok(expected), "check, {context}");

            let stop = check_interrupt(&engine, &inputs, &c1, &c2, &cancelled(), &context);
            totals.cancel.count(stop);
            let peaks = [stats1.peak_states, stats2.peak_states];
            for max_states in budgets(peaks) {
                let interrupt = Interrupt::new().with_max_states(max_states);
                let stop = check_interrupt(&engine, &inputs, &c1, &c2, &interrupt, &context);
                totals.budget.count(stop);
            }
            let peaks = [stats1.peak_transitions, stats2.peak_transitions];
            for max_transitions in budgets(peaks) {
                let interrupt = Interrupt::new().with_max_transitions(max_transitions);
                let stop = check_interrupt(&engine, &inputs, &c1, &c2, &interrupt, &context);
                totals.budget.count(stop);
            }
        }
    }
}

fn check_cases(seeds: std::ops::Range<u64>) {
    let mut totals = Totals::default();
    for seed in seeds {
        check_case(seed, &mut totals);
    }
    totals.cancel.assert_complete("a raised cancel flag");
    totals.budget.assert_complete("a size budget");
    // The cases do share prefixes, and not only empty ones.
    assert!(
        totals.shared_gates * 5 > totals.scheduled_gates,
        "only {} of {} scheduled gates shared",
        totals.shared_gates,
        totals.scheduled_gates
    );
}

#[test]
fn the_shared_prefix_matches_two_full_runs() {
    check_cases(0..200);
}

/// The long run (`cargo test --release -p autoq-core --test hunt_parity
/// -- --include-ignored`).
#[test]
#[ignore]
fn the_shared_prefix_matches_two_full_runs_on_five_thousand_cases() {
    check_cases(10_000..15_000);
}

/// An interrupt stops in the part of the run it is built to stop in.
#[test]
fn interrupts_stop_in_each_part_of_the_forked_run() {
    let n = 3;
    let inputs = StateSet::basis_pattern(n, 0, &[0]);
    let prefix = [
        Gate::Cnot {
            control: 0,
            target: 1,
        },
        Gate::X(2),
    ];
    // The first circuit's suffix superposes one qubit; the second's
    // superposes two others, so it grows past the first's peak.
    let c1 = Circuit::from_gates(n, prefix.iter().copied().chain([Gate::H(1)])).unwrap();
    let c2 = Circuit::from_gates(
        n,
        prefix.iter().copied().chain([
            Gate::H(2),
            Gate::H(0),
            Gate::Cnot {
                control: 2,
                target: 1,
            },
            Gate::H(1),
        ]),
    )
    .unwrap();
    assert_eq!(shared_prefix(&c1, &c2), prefix.len());
    let engine = Engine::hybrid();
    let (_, stats1) = engine.run(&inputs, &c1, options(None)).unwrap();
    let (_, stats2) = engine.run(&inputs, &c2, options(None)).unwrap();
    let (_, prefix_stats) = engine
        .run(
            &inputs,
            &Circuit::from_gates(n, prefix).unwrap(),
            options(None),
        )
        .unwrap();
    assert!(prefix_stats.peak_states < stats1.peak_states);
    assert!(stats1.peak_states < stats2.peak_states);
    let stop = |interrupt: &Interrupt| {
        check_interrupt(&engine, &inputs, &c1, &c2, interrupt, "the built circuits")
    };
    let budget = |max_states: usize| Interrupt::new().with_max_states(max_states as u64);

    assert_eq!(stop(&cancelled()), Some(Stop::Prefix));
    assert_eq!(stop(&budget(0)), Some(Stop::Prefix));
    assert_eq!(
        stop(&budget(prefix_stats.peak_states)),
        Some(Stop::FirstSuffix)
    );
    assert_eq!(stop(&budget(stats1.peak_states)), Some(Stop::SecondSuffix));
    // In-ladder checks see sizes `peak_states` does not record, so the
    // budget that trips nowhere is set well above the peaks.
    assert_eq!(stop(&budget(u32::MAX as usize)), None);

    // With no shared gate a raised flag stops the first circuit's suffix,
    // and with an empty first circuit the second's.
    let other = Circuit::from_gates(n, [Gate::H(0)]).unwrap();
    assert_eq!(shared_prefix(&other, &c2), 0);
    let stop_between = |c1: &Circuit, c2: &Circuit| {
        check_interrupt(&engine, &inputs, c1, c2, &cancelled(), "a raised flag")
    };
    assert_eq!(stop_between(&other, &c2), Some(Stop::FirstSuffix));
    assert_eq!(
        stop_between(&Circuit::new(n), &c2),
        Some(Stop::SecondSuffix)
    );
}
