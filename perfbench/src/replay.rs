//! Replays of the engine's gate loop and of the bug hunter through the
//! layers' public functions, each call wrapped in a span.
//!
//! The replays follow `Engine::apply_circuit_with_stats` and
//! `BugHunter::hunt` step by step (same schedule, same encodings, same
//! reduction decisions, same random draws), so their results must match the
//! untraced entry points exactly; the traced run checks that they do.

use autoq_circuit::schedule::interference_schedule;
use autoq_circuit::{Circuit, Gate};
use autoq_core::formula::update_formula;
use autoq_core::{
    composition, permutation, ApplyStats, BugHunter, Engine, EngineKind, HuntReport,
    ReductionPolicy, StateSet,
};
use autoq_treeaut::basis::{self, BasisIndex};
use autoq_treeaut::{equivalence, EquivalenceResult, TreeAutomaton};
use rand::Rng;

use crate::trace::Tracer;

fn observe(stats: &mut ApplyStats, automaton: &TreeAutomaton) {
    stats.peak_states = stats.peak_states.max(automaton.state_count());
    stats.peak_transitions = stats.peak_transitions.max(automaton.transition_count());
}

/// Applies one primitive gate; returns `true` if it used the composition
/// encoding.
fn apply_primitive(
    tr: &mut Tracer,
    engine: &Engine,
    automaton: &mut TreeAutomaton,
    gate: &Gate,
    stats: &mut ApplyStats,
) -> bool {
    let use_permutation = match engine.kind {
        EngineKind::Hybrid => permutation::supports(gate),
        EngineKind::Composition => false,
    };
    if use_permutation {
        tr.span("core.permutation", || {
            permutation::apply_in_place(automaton, gate)
        });
        tr.add("core.permutation.calls", 1.0);
        return false;
    }
    let formula = update_formula(gate).expect("primitive gates always have an update formula");
    let options = engine.composition_options();
    let peak = tr
        .span("core.composition", || {
            composition::apply_formula_in_place_interruptible(automaton, &formula, &options, None)
        })
        .expect("no interrupt, so the formula cannot stop early");
    tr.add("core.composition.calls", 1.0);
    tr.max("core.composition.peak_states", peak.states as f64);
    stats.peak_states = stats.peak_states.max(peak.states);
    stats.peak_transitions = stats.peak_transitions.max(peak.transitions);
    true
}

/// The replay of `Engine::apply_circuit_with_stats`.
pub fn apply_circuit(
    tr: &mut Tracer,
    engine: &Engine,
    set: &StateSet,
    circuit: &Circuit,
) -> (TreeAutomaton, ApplyStats) {
    let gates = circuit.gates();
    let mut automaton = set.automaton().clone();
    let mut baseline = automaton.transition_count();
    let mut stats = ApplyStats::default();
    observe(&mut stats, &automaton);
    let order = tr.span("circuit.schedule", || interference_schedule(circuit));
    for index in order {
        let primitives = tr.span("circuit.decompose", || gates[index].decompose());
        let mut used_composition = false;
        for primitive in &primitives {
            used_composition |= apply_primitive(tr, engine, &mut automaton, primitive, &mut stats);
            observe(&mut stats, &automaton);
        }
        stats.gates_applied += 1;
        let reduce = match engine.reduction {
            ReductionPolicy::AfterEachGate => true,
            ReductionPolicy::Never => false,
            ReductionPolicy::Adaptive { growth_factor } => {
                used_composition
                    || automaton.transition_count()
                        > (growth_factor as usize).max(1) * baseline.max(1)
            }
        };
        if reduce {
            let states_in = automaton.state_count();
            automaton = tr.span("treeaut.reduce", || automaton.reduce());
            let states_out = automaton.state_count();
            tr.add("treeaut.reduce.calls", 1.0);
            tr.add("treeaut.reduce.states_in", states_in as f64);
            tr.add("treeaut.reduce.states_out", states_out as f64);
            if states_out >= states_in {
                tr.add("treeaut.reduce.noop", 1.0);
            }
            baseline = automaton.transition_count();
            stats.reductions += 1;
        }
    }
    (automaton, stats)
}

/// The replay of `equivalence` on two automata.
pub fn equivalent(tr: &mut Tracer, a: &TreeAutomaton, b: &TreeAutomaton) -> EquivalenceResult {
    let result = tr.span("treeaut.inclusion", || equivalence(a, b));
    tr.add("treeaut.inclusion.calls", 1.0);
    result
}

fn input_set_size(free_count: u32) -> u128 {
    if free_count >= basis::MAX_QUBITS {
        u128::MAX
    } else {
        basis::basis_count(free_count)
    }
}

/// The replay of `BugHunter::hunt`: the same random base pattern and
/// freeing order, then one `check_circuit_equivalence_with_stats` per
/// iteration, replayed.
pub fn hunt(
    tr: &mut Tracer,
    hunter: &BugHunter,
    original: &Circuit,
    candidate: &Circuit,
    rng: &mut impl Rng,
) -> HuntReport {
    let n = original.num_qubits();
    let base: BasisIndex = rng.gen::<u128>() & basis::index_mask(n);
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut iterations = 0;
    let mut stats = ApplyStats::default();
    let mut free_mask: BasisIndex = 0;
    for free_count in 0..=n.min(hunter.max_iterations.saturating_sub(1)) {
        iterations += 1;
        tr.add("core.hunt.iterations", 1.0);
        let free = &order[..free_count as usize];
        if free_count > 0 {
            free_mask |= basis::qubit_bit(n, order[free_count as usize - 1]);
        }
        let inputs = StateSet::basis_pattern(n, base & !free_mask, free);
        let (out1, stats1) = apply_circuit(tr, &hunter.engine, &inputs, original);
        let (out2, stats2) = apply_circuit(tr, &hunter.engine, &inputs, candidate);
        let result = equivalent(tr, &out1, &out2);
        stats = stats.merge(&stats1.merge(&stats2));
        if let Some(witness) = result.witness() {
            return HuntReport {
                bug_found: true,
                iterations,
                witness: Some(witness.clone()),
                final_input_size: input_set_size(free_count),
                stats,
            };
        }
        if iterations >= hunter.max_iterations {
            break;
        }
    }
    HuntReport {
        bug_found: false,
        iterations,
        witness: None,
        final_input_size: input_set_size(iterations - 1),
        stats,
    }
}
