//! The gate-application engine: Hybrid vs Composition settings.

use autoq_circuit::schedule::interference_schedule;
use autoq_circuit::{Circuit, Gate};
use autoq_treeaut::TreeAutomaton;

use crate::composition::{CompositionOptions, FormulaPeak};
use crate::formula::update_formula;
use crate::interrupt::{Interrupt, Interrupted, StopReason};
use crate::{composition, permutation, StateSet};

/// Which gate encoding the engine prefers (the two settings evaluated in the
/// paper's Section 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Use the permutation-based encoding whenever the gate supports it and
    /// fall back on the composition-based encoding otherwise (the paper's
    /// `Hybrid` setting — consistently the faster one in Table 2).
    #[default]
    Hybrid,
    /// Use the composition-based encoding for every gate (the paper's
    /// `Composition` setting).
    Composition,
}

/// When the automaton reduction (trimming + successor merging) runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReductionPolicy {
    /// Reduce after every user-level gate (the paper reduces after the cheap
    /// permutation-style gates; reducing after every gate keeps automata
    /// small at a modest cost).  Multi-primitive gates (`SWAP`, Fredkin)
    /// reduce once per gate, not once per primitive.
    AfterEachGate,
    /// Never reduce.  The reduction-policy tests run it next to the other
    /// two policies, which must accept the same states.
    Never,
    /// Reduce after every composition-encoded gate (those genuinely grow the
    /// automaton), but after the cheap permutation-encoded gates only once
    /// the automaton has grown past `growth_factor ×` the transition count
    /// measured at the last reduction.  This matches the paper's policy of
    /// reducing only around the permutation-style constructions when
    /// worthwhile: a run of permutation gates at most doubles the automaton
    /// each time, so skipping reduction under the threshold trades a little
    /// peak size for far fewer reduction passes.
    Adaptive {
        /// Growth multiplier over the last post-reduction transition count
        /// that triggers a reduction after a permutation-encoded gate.  `2`
        /// is the default (the `sweep.*` entries of `BENCH_reduction.json`
        /// time it against [`ReductionPolicy::AfterEachGate`], and the
        /// policy tests pin its answers to the eager ones); `1` reduces after
        /// any permutation gate that grew the automaton at all (still
        /// skipping the no-growth ones, e.g. `X`, which
        /// [`ReductionPolicy::AfterEachGate`] would reduce after too).
        growth_factor: u32,
    },
}

impl Default for ReductionPolicy {
    /// `Adaptive { growth_factor: 2 }` — the sweep-backed default of
    /// [`Engine::hybrid`], kept in sync so `Engine::default()` and
    /// `Engine::hybrid()` agree.
    fn default() -> Self {
        ReductionPolicy::Adaptive { growth_factor: 2 }
    }
}

/// Size statistics collected while applying gates — the peaks are what the
/// reduction policy trades off, so `table3` prints them per row to make hot
/// path regressions visible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Largest automaton state count observed after any primitive gate
    /// (before the following reduction) *or* inside a composition gate:
    /// its binary-operation products as built, the DAG nodes of the
    /// one-state path, or the basis path's output (see
    /// `composition::FormulaPeak`).
    pub peak_states: usize,
    /// Largest automaton transition count observed after any primitive gate
    /// *or* inside a composition gate, between the passes of its swap
    /// ladders included.
    pub peak_transitions: usize,
    /// Number of reductions the policy applied.  A gate the one-state path
    /// left reduced counts without re-running `reduce` (see `composition`'s
    /// *The one-state path*).
    pub reductions: usize,
    /// Number of user-level gates applied.
    pub gates_applied: usize,
    /// Certification record of the final verdict, when a
    /// [`CertifyPolicy`](crate::CertifyPolicy) other than `Off` produced
    /// one: the verdict polarity, the digest of the `AQIC` certificate
    /// bundle and the independent checker's outcome.  `None` when
    /// certification was off or nothing was certifiable.
    pub certified: Option<crate::CertifiedVerdict>,
}

impl ApplyStats {
    fn observe(&mut self, automaton: &TreeAutomaton) {
        self.peak_states = self.peak_states.max(automaton.state_count());
        self.peak_transitions = self.peak_transitions.max(automaton.transition_count());
    }

    /// Combines the statistics of two runs (peaks max, counters summed; the
    /// later certification record wins, since the merged run has one final
    /// verdict).
    pub fn merge(&self, other: &ApplyStats) -> ApplyStats {
        ApplyStats {
            peak_states: self.peak_states.max(other.peak_states),
            peak_transitions: self.peak_transitions.max(other.peak_transitions),
            reductions: self.reductions + other.reductions,
            gates_applied: self.gates_applied + other.gates_applied,
            certified: other.certified.or(self.certified),
        }
    }
}

/// Per-call governance of [`Engine::run`] and
/// [`verify_with`](crate::verify_with): an optional [`Interrupt`] (checked
/// between gates and between composition swap-ladder passes) and an
/// optional progress observer, called as `observer(applied, total)` after
/// each applied gate — the hook the verification daemon streams progress
/// frames from.  The observer must be cheap; it runs on the hot path.
/// [`RunOptions::default`] sets neither, which is the plain run.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// The interrupt governing the run; `None` never stops early.
    pub interrupt: Option<&'a Interrupt>,
    /// The progress observer; `None` reports nothing.
    pub observer: Option<&'a mut dyn FnMut(usize, usize)>,
}

/// A configured gate-application engine.
///
/// # Examples
///
/// ```
/// use autoq_circuit::{Circuit, Gate};
/// use autoq_core::{Engine, StateSet};
///
/// let circuit = Circuit::from_gates(2, [Gate::H(0), Gate::Cnot { control: 0, target: 1 }]).unwrap();
/// let input = StateSet::basis_state(2, 0);
/// let hybrid = Engine::hybrid().apply_circuit(&input, &circuit);
/// let composition = Engine::composition().apply_circuit(&input, &circuit);
/// // Both engines compute the same set of output states.
/// assert_eq!(hybrid.states(8), composition.states(8));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Engine {
    /// The preferred gate encoding.
    pub kind: EngineKind,
    /// When to reduce intermediate automata.
    pub reduction: ReductionPolicy,
}

impl Engine {
    /// The `Hybrid` engine with the default reduction policy.
    ///
    /// The default is [`ReductionPolicy::Adaptive`]`{ growth_factor: 2 }`:
    /// the Table 2 reduction-policy sweep (the `sweep.*` entries of
    /// `BENCH_reduction.json`, regenerated by `bench_reduction` as the
    /// median of interleaved runs) shows `Adaptive { growth_factor: 2 }`
    /// faster than [`ReductionPolicy::AfterEachGate`] on nearly every row
    /// and no row slower beyond the sweep's noise — including the BV
    /// family, where an earlier (pre-fused-ladder) sweep had it ~20% slower
    /// at BV16 and kept the eager default.  Every composition-encoded gate
    /// is still reduced after, so only the cheap permutation gates skip a
    /// reduction, and the saved reduction passes win on every family.
    /// Revert to `AfterEachGate` only if a future sweep shows a regressing
    /// row; callers can always pin a policy via [`Engine::with_reduction`].
    pub fn hybrid() -> Self {
        Engine {
            kind: EngineKind::Hybrid,
            reduction: ReductionPolicy::Adaptive { growth_factor: 2 },
        }
    }

    /// The `Composition` engine with the default reduction policy.
    pub fn composition() -> Self {
        Engine {
            kind: EngineKind::Composition,
            reduction: ReductionPolicy::AfterEachGate,
        }
    }

    /// Returns a copy with the given reduction policy.
    pub fn with_reduction(self, reduction: ReductionPolicy) -> Self {
        Engine { reduction, ..self }
    }

    /// The composition-pipeline options of this engine:
    /// [`EngineKind::Hybrid`] takes the fast paths ahead of the ladder —
    /// one-state inputs on a hash-consed DAG, then CNOTs and Toffolis on
    /// sets of phased basis states by guess-and-verify — while
    /// [`EngineKind::Composition`] keeps the paper's ladder for every gate
    /// (see `composition`'s *The one-state path* and *The basis path*).
    pub fn composition_options(&self) -> CompositionOptions {
        CompositionOptions {
            hybrid_fast_paths: self.kind == EngineKind::Hybrid,
        }
    }

    /// Applies a single gate to a set of states.
    ///
    /// Under [`ReductionPolicy::Adaptive`] this behaves like
    /// [`ReductionPolicy::AfterEachGate`]: adaptivity needs the cross-gate
    /// growth baseline that only [`Engine::apply_circuit`] maintains — on
    /// the stateless single-gate API, a gate that exactly doubles the
    /// automaton (every controlled graft does) would otherwise never
    /// trigger the growth threshold and the automaton would double
    /// unreduced on every call.
    ///
    /// # Panics
    ///
    /// Panics if the gate refers to qubits outside the set.
    pub fn apply_gate(&self, set: &StateSet, gate: &Gate) -> StateSet {
        for q in gate.qubits() {
            assert!(q < set.num_qubits(), "gate qubit {q} out of range");
        }
        let engine = match self.reduction {
            ReductionPolicy::Adaptive { .. } => self.with_reduction(ReductionPolicy::AfterEachGate),
            _ => *self,
        };
        let mut automaton = set.automaton().clone();
        let mut baseline = automaton.transition_count();
        let mut stats = ApplyStats::default();
        engine
            .apply_gate_in_place(&mut automaton, gate, &mut baseline, &mut stats, None)
            .expect("apply_gate without an interrupt cannot stop early");
        set.with_automaton(automaton)
    }

    /// Applies one user-level gate to the working automaton: every primitive
    /// of its decomposition in place, then at most one reduction (never one
    /// per primitive — a SWAP is one gate, not three).  On `Err` the
    /// automaton is left in an unspecified partial state and must be
    /// discarded by the caller.
    fn apply_gate_in_place(
        &self,
        automaton: &mut TreeAutomaton,
        gate: &Gate,
        baseline: &mut usize,
        stats: &mut ApplyStats,
        interrupt: Option<&Interrupt>,
    ) -> Result<(), StopReason> {
        let mut used_composition = false;
        let mut already_reduced = false;
        for primitive in gate.decompose() {
            let peak = self.apply_primitive_in_place(automaton, &primitive, stats, interrupt)?;
            used_composition |= peak.is_some();
            already_reduced = peak.is_some_and(|peak| peak.reduced);
            stats.observe(automaton);
            if let Some(interrupt) = interrupt {
                interrupt.check(stats)?;
            }
        }
        stats.gates_applied += 1;
        let reduce = match self.reduction {
            ReductionPolicy::AfterEachGate => true,
            ReductionPolicy::Never => false,
            ReductionPolicy::Adaptive { growth_factor } => {
                used_composition
                    || automaton.transition_count()
                        > (growth_factor as usize).max(1) * (*baseline).max(1)
            }
        };
        if reduce {
            // The one-state path emits its own reduction: running `reduce`
            // on it would return it unchanged, so the pass is counted, not
            // re-run.
            if already_reduced {
                debug_assert!(
                    automaton.reduce() == *automaton,
                    "the one-state path's output must be its own reduction"
                );
            } else {
                *automaton = automaton.reduce();
            }
            *baseline = automaton.transition_count();
            stats.reductions += 1;
        }
        Ok(())
    }

    /// Applies a primitive (already decomposed) gate to the working
    /// automaton; returns the gate's [`FormulaPeak`] if the
    /// composition-based encoding was used, `None` for the permutation one.
    /// Composition gates also report the peak automaton size reached
    /// *inside* the gate into `stats` — the tagged products and ladders
    /// outgrow the gate's output — and check the interrupt between ladder
    /// passes, so even a single blowing-up gate stops near its budget.
    fn apply_primitive_in_place(
        &self,
        automaton: &mut TreeAutomaton,
        gate: &Gate,
        stats: &mut ApplyStats,
        interrupt: Option<&Interrupt>,
    ) -> Result<Option<FormulaPeak>, StopReason> {
        let use_permutation = match self.kind {
            EngineKind::Hybrid => permutation::supports(gate),
            EngineKind::Composition => false,
        };
        if use_permutation {
            permutation::apply_in_place(automaton, gate);
            Ok(None)
        } else {
            let formula =
                update_formula(gate).expect("primitive gates always have an update formula");
            let in_gate_peak = composition::apply_formula_in_place_interruptible(
                automaton,
                &formula,
                &self.composition_options(),
                interrupt,
            )?;
            stats.peak_states = stats.peak_states.max(in_gate_peak.states);
            stats.peak_transitions = stats.peak_transitions.max(in_gate_peak.transitions);
            Ok(Some(in_gate_peak))
        }
    }

    /// Applies every gate of a circuit, returning the set of output states
    /// (the automaton `A` of the paper's workflow).
    ///
    /// Gates are applied in the interference-friendly commuting order of
    /// [`autoq_circuit::schedule`] rather than strict program order: only
    /// gates on disjoint qubit sets are reordered (which commutes exactly,
    /// so the output set is identical), and branching gates whose
    /// interference can collapse are scheduled before further branching —
    /// the same scheduling that keeps the sparse simulator's support small,
    /// lifted to the automata engine so intermediate automata stop blowing
    /// up on superposing circuits.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state set.
    pub fn apply_circuit(&self, set: &StateSet, circuit: &Circuit) -> StateSet {
        self.apply_circuit_with_stats(set, circuit).0
    }

    /// Like [`Engine::apply_circuit`] but also reports peak automaton sizes
    /// and reduction counts (the `table3` per-row columns).
    pub fn apply_circuit_with_stats(
        &self,
        set: &StateSet,
        circuit: &Circuit,
    ) -> (StateSet, ApplyStats) {
        self.run(set, circuit, RunOptions::default())
            .expect("a run without an interrupt cannot stop early")
    }

    /// [`Engine::apply_circuit_with_stats`] governed by [`RunOptions`]: with
    /// an interrupt, cancellation, the wall-clock deadline and the
    /// peak-size budgets are checked between gates (and inside composition
    /// swap ladders), so a run that would blow up stops within one gate
    /// boundary of its limit and reports a typed [`Interrupted`] with the
    /// statistics gathered so far; the partially applied automaton is
    /// discarded.  With an observer, `observer(applied, total)` is called
    /// after each applied gate, `(1, n)` through `(n, n)`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state set.
    pub fn run(
        &self,
        set: &StateSet,
        circuit: &Circuit,
        options: RunOptions<'_>,
    ) -> Result<(StateSet, ApplyStats), Interrupted> {
        assert!(
            circuit.num_qubits() <= set.num_qubits(),
            "circuit has more qubits than the state set"
        );
        let RunOptions {
            interrupt,
            mut observer,
        } = options;
        let gates = circuit.gates();
        let total = gates.len();
        let mut run = self.start_run(set);
        let mut applied = 0;
        let schedule = interference_schedule(circuit);
        self.apply_scheduled(
            &mut run,
            schedule.iter().map(|&index| &gates[index]),
            interrupt,
            || {
                applied += 1;
                if let Some(observer) = observer.as_deref_mut() {
                    observer(applied, total);
                }
            },
        )?;
        Ok((set.with_automaton(run.automaton), run.stats))
    }

    /// Starts a run on `set`: its automaton, the reduction policy's growth
    /// baseline, and statistics that have observed the input.
    pub(crate) fn start_run(&self, set: &StateSet) -> RunState {
        let automaton = set.automaton().clone();
        let mut stats = ApplyStats::default();
        stats.observe(&automaton);
        RunState {
            baseline: automaton.transition_count(),
            automaton,
            stats,
        }
    }

    /// Applies `gates`, already in schedule order, to a running state,
    /// checking the interrupt before each gate and calling `after_gate`
    /// after it.  On `Err` the run's automaton is partial and must be
    /// discarded; the report carries the run's statistics so far.
    pub(crate) fn apply_scheduled<'g>(
        &self,
        run: &mut RunState,
        gates: impl IntoIterator<Item = &'g Gate>,
        interrupt: Option<&Interrupt>,
        mut after_gate: impl FnMut(),
    ) -> Result<(), Interrupted> {
        for gate in gates {
            let step = match interrupt {
                Some(interrupt) => interrupt.check(&run.stats),
                None => Ok(()),
            }
            .and_then(|()| {
                self.apply_gate_in_place(
                    &mut run.automaton,
                    gate,
                    &mut run.baseline,
                    &mut run.stats,
                    interrupt,
                )
            });
            if let Err(reason) = step {
                return Err(Interrupted {
                    reason,
                    partial_stats: run.stats,
                });
            }
            after_gate();
        }
        Ok(())
    }
}

/// A run in progress between [`Engine::start_run`] and its last
/// [`Engine::apply_scheduled`]: cloning it forks the run, which is how
/// [`check_circuit_equivalence_with`](crate::check_circuit_equivalence_with)
/// applies two circuits' common gate prefix once.
#[derive(Clone)]
pub(crate) struct RunState {
    /// The working automaton.
    pub(crate) automaton: TreeAutomaton,
    /// The transition count at the last reduction (the growth baseline of
    /// [`ReductionPolicy::Adaptive`]).
    baseline: usize,
    /// The statistics of every gate applied so far.
    pub(crate) stats: ApplyStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoq_amplitude::Algebraic;
    use autoq_simulator::DenseState;
    use autoq_treeaut::Tree;

    /// Applies a circuit with both engines and with the dense simulator on a
    /// basis-state input and checks that all three agree exactly.
    fn check_against_simulator(circuit: &Circuit, basis: u128) {
        let expected = DenseState::run(circuit, basis).to_amplitude_map();
        let input = StateSet::basis_state(circuit.num_qubits(), basis);
        for engine in [Engine::hybrid(), Engine::composition()] {
            let output = engine.apply_circuit(&input, circuit);
            let states = output.states(4);
            assert_eq!(
                states.len(),
                1,
                "singleton input must stay a singleton ({engine:?})"
            );
            assert_eq!(
                states[0], expected,
                "engine {engine:?} disagrees with the simulator"
            );
        }
    }

    #[test]
    fn epr_circuit_constructs_the_bell_state() {
        let circuit = Circuit::from_gates(
            2,
            [
                Gate::H(0),
                Gate::Cnot {
                    control: 0,
                    target: 1,
                },
            ],
        )
        .unwrap();
        check_against_simulator(&circuit, 0b00);
        check_against_simulator(&circuit, 0b10);
    }

    #[test]
    fn every_single_qubit_gate_matches_the_simulator() {
        let gates = [
            Gate::X(1),
            Gate::Y(1),
            Gate::Z(1),
            Gate::H(1),
            Gate::S(1),
            Gate::Sdg(1),
            Gate::T(1),
            Gate::Tdg(1),
            Gate::RxPi2(1),
            Gate::RyPi2(1),
        ];
        for gate in gates {
            for basis in 0..4u128 {
                let circuit = Circuit::from_gates(2, [Gate::H(0), Gate::H(1), gate]).unwrap();
                check_against_simulator(&circuit, basis);
            }
        }
    }

    #[test]
    fn every_multi_qubit_gate_matches_the_simulator() {
        let gates = [
            Gate::Cnot {
                control: 0,
                target: 2,
            },
            Gate::Cnot {
                control: 2,
                target: 0,
            },
            Gate::Cz {
                control: 1,
                target: 2,
            },
            Gate::Cz {
                control: 2,
                target: 1,
            },
            Gate::Swap(0, 2),
            Gate::Toffoli {
                controls: [0, 1],
                target: 2,
            },
            Gate::Toffoli {
                controls: [2, 1],
                target: 0,
            },
            Gate::Fredkin {
                control: 0,
                targets: [1, 2],
            },
        ];
        for gate in gates {
            for basis in 0..8u128 {
                let circuit = Circuit::from_gates(3, [Gate::H(0), Gate::T(1), gate]).unwrap();
                check_against_simulator(&circuit, basis);
            }
        }
    }

    #[test]
    fn hybrid_and_composition_agree_on_superposition_circuits() {
        let circuit = Circuit::from_gates(
            3,
            [
                Gate::H(0),
                Gate::RyPi2(1),
                Gate::Cnot {
                    control: 1,
                    target: 0,
                },
                Gate::T(2),
                Gate::RxPi2(2),
                Gate::Toffoli {
                    controls: [0, 2],
                    target: 1,
                },
                Gate::H(2),
            ],
        )
        .unwrap();
        check_against_simulator(&circuit, 0);
        check_against_simulator(&circuit, 0b101);
    }

    #[test]
    fn engine_handles_sets_of_inputs() {
        // Apply X(1) to the set of all 2-qubit basis states: the set is unchanged.
        let all = StateSet::all_basis_states(2);
        let result = Engine::hybrid().apply_gate(&all, &Gate::X(1));
        assert_eq!(result.states(8).len(), 4);
        for b in 0..4u128 {
            assert!(result.contains_basis_state(b));
        }
        // Apply H(0) to {|00⟩, |10⟩}: produces the two superposition states.
        let two = StateSet::basis_state(2, 0).union(&StateSet::basis_state(2, 0b10));
        let result = Engine::composition().apply_gate(&two, &Gate::H(0));
        let states = result.states(8);
        assert_eq!(states.len(), 2);
        assert!(result.contains_state_fn(|b| match b {
            0b00 | 0b10 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        }));
        assert!(result.contains_state_fn(|b| match b {
            0b00 => Algebraic::one_over_sqrt2(),
            0b10 => -&Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        }));
    }

    #[test]
    fn reduction_policy_controls_automaton_growth() {
        let circuit = Circuit::from_gates(
            2,
            [
                Gate::H(0),
                Gate::T(0),
                Gate::H(1),
                Gate::Cnot {
                    control: 0,
                    target: 1,
                },
                Gate::H(0),
            ],
        )
        .unwrap();
        let input = StateSet::basis_state(2, 0);
        let reduced = Engine::hybrid().apply_circuit(&input, &circuit);
        let unreduced = Engine::hybrid()
            .with_reduction(ReductionPolicy::Never)
            .apply_circuit(&input, &circuit);
        assert!(reduced.state_count() <= unreduced.state_count());
        // Both represent the same single state.
        assert_eq!(reduced.states(4), unreduced.reduced().states(4));
    }

    #[test]
    fn adaptive_policy_agrees_with_after_each_gate() {
        // A mixed permutation/composition circuit: the adaptive policy may
        // skip reductions mid-run but must compute the same output set.
        let circuit = Circuit::from_gates(
            3,
            [
                Gate::H(0),
                Gate::T(1),
                Gate::Cnot {
                    control: 0,
                    target: 2,
                },
                Gate::X(1),
                Gate::Cz {
                    control: 1,
                    target: 2,
                },
                Gate::RyPi2(2),
                Gate::Toffoli {
                    controls: [0, 1],
                    target: 2,
                },
                Gate::H(1),
            ],
        )
        .unwrap();
        let eager_engine = Engine::hybrid().with_reduction(ReductionPolicy::AfterEachGate);
        for basis in [0u128, 0b101] {
            let input = StateSet::basis_state(3, basis);
            let (eager, eager_stats) = eager_engine.apply_circuit_with_stats(&input, &circuit);
            let (adaptive, adaptive_stats) =
                Engine::hybrid().apply_circuit_with_stats(&input, &circuit);
            assert!(
                autoq_treeaut::equivalence(eager.automaton(), adaptive.automaton()).holds(),
                "adaptive output set differs on |{basis:b}⟩"
            );
            assert_eq!(eager_stats.reductions, circuit.gates().len());
            assert!(
                adaptive_stats.reductions < eager_stats.reductions,
                "adaptive must skip the no-growth permutation gates ({} vs {})",
                adaptive_stats.reductions,
                eager_stats.reductions
            );
        }
    }

    #[test]
    fn adaptive_single_gate_api_keeps_automata_reduced() {
        // The stateless apply_gate API has no cross-gate growth baseline, so
        // Adaptive must fall back to reducing after each gate: a long run of
        // controlled grafts (each doubling the automaton) must not compound.
        let engine = Engine::hybrid();
        let mut set = Engine::hybrid().apply_gate(&StateSet::basis_state(3, 0), &Gate::H(0));
        for _ in 0..10 {
            set = engine.apply_gate(
                &set,
                &Gate::Cnot {
                    control: 0,
                    target: 1,
                },
            );
            assert!(
                set.transition_count() < 100,
                "automaton must stay reduced, got {} transitions",
                set.transition_count()
            );
        }
    }

    #[test]
    fn multi_primitive_gates_reduce_once_per_gate() {
        // A SWAP decomposes into three CNOTs but is one user-level gate: the
        // default policy must run exactly one reduction for it.
        let circuit = Circuit::from_gates(2, [Gate::Swap(0, 1)]).unwrap();
        let input = StateSet::basis_state(2, 0b01);
        let (output, stats) = Engine::hybrid().apply_circuit_with_stats(&input, &circuit);
        assert_eq!(stats.gates_applied, 1);
        assert_eq!(stats.reductions, 1);
        assert!(output.contains_basis_state(0b10));
        assert!(stats.peak_states >= output.state_count());
    }

    #[test]
    fn stats_report_peaks_and_merge() {
        let circuit = Circuit::from_gates(
            2,
            [
                Gate::H(0),
                Gate::Cnot {
                    control: 0,
                    target: 1,
                },
            ],
        )
        .unwrap();
        let input = StateSet::basis_state(2, 0);
        let (_, stats) = Engine::hybrid().apply_circuit_with_stats(&input, &circuit);
        assert_eq!(stats.gates_applied, 2);
        assert!(stats.peak_states > 0);
        assert!(stats.peak_transitions > 0);
        let doubled = stats.merge(&stats);
        assert_eq!(doubled.gates_applied, 4);
        assert_eq!(doubled.peak_states, stats.peak_states);
    }

    #[test]
    fn bell_state_output_accepts_expected_tree() {
        let circuit = Circuit::from_gates(
            2,
            [
                Gate::H(0),
                Gate::Cnot {
                    control: 0,
                    target: 1,
                },
            ],
        )
        .unwrap();
        let output = Engine::hybrid().apply_circuit(&StateSet::basis_state(2, 0), &circuit);
        let bell = Tree::from_fn(2, |b| match b {
            0b00 | 0b11 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        assert!(output.automaton().accepts(&bell));
    }
}
