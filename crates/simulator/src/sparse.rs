//! Sparse (hash-map) state-vector simulation for wide but sparse states.

use std::collections::BTreeMap;

use autoq_amplitude::Algebraic;
use autoq_circuit::schedule::interference_schedule;
use autoq_circuit::{Circuit, Gate};
use autoq_treeaut::basis;
use autoq_treeaut::Tree;

/// A sparse quantum state: a map from basis indices to non-zero amplitudes.
///
/// Unlike [`DenseState`](crate::DenseState), the sparse simulator scales to
/// up to 128 qubits (basis states are `u128` indices) as long as the number
/// of non-zero amplitudes stays manageable — which is the case for the
/// reversible-circuit benchmarks of the paper (they permute basis states)
/// and, thanks to the interference-friendly gate scheduling of
/// [`SparseState::apply_circuit`], for Bernstein–Vazirani.
///
/// # Examples
///
/// ```
/// use autoq_circuit::{Circuit, Gate};
/// use autoq_simulator::SparseState;
///
/// // A 120-qubit reversible circuit on a basis state stays a basis state.
/// let mut circuit = Circuit::new(120);
/// for q in 0..119 {
///     circuit.push(Gate::Cnot { control: q, target: q + 1 }).unwrap();
/// }
/// let mut state = SparseState::basis_state(120, 0);
/// state.apply_gate(&Gate::X(0));
/// state.apply_circuit(&circuit);
/// assert_eq!(state.support_size(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SparseState {
    num_qubits: u32,
    amplitudes: BTreeMap<u128, Algebraic>,
}

impl SparseState {
    /// Largest witness-tree support [`SparseState::from_tree`] will
    /// materialise; larger trees make it panic, so callers wanting graceful
    /// degradation must check `Tree::support_size` against this first.
    pub const MAX_TREE_SUPPORT: u128 = 1 << 24;

    /// The computational basis state `|basis⟩` over `num_qubits ≤ 128` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 128`.
    pub fn basis_state(num_qubits: u32, basis: u128) -> Self {
        assert!(
            num_qubits <= basis::MAX_QUBITS,
            "sparse simulation limited to {} qubits",
            basis::MAX_QUBITS
        );
        basis::assert_in_range(num_qubits, basis);
        let mut amplitudes = BTreeMap::new();
        amplitudes.insert(basis, Algebraic::one());
        SparseState {
            num_qubits,
            amplitudes,
        }
    }

    /// Builds a state from explicit non-zero amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 128` or any basis index has bits outside the
    /// `num_qubits`-qubit space.
    pub fn from_amplitudes(
        num_qubits: u32,
        entries: impl IntoIterator<Item = (u128, Algebraic)>,
    ) -> Self {
        assert!(
            num_qubits <= basis::MAX_QUBITS,
            "sparse simulation limited to {} qubits",
            basis::MAX_QUBITS
        );
        let amplitudes: BTreeMap<u128, Algebraic> =
            entries.into_iter().filter(|(_, a)| !a.is_zero()).collect();
        for &basis in amplitudes.keys() {
            basis::assert_in_range(num_qubits, basis);
        }
        SparseState {
            num_qubits,
            amplitudes,
        }
    }

    /// Builds a sparse state from a (DAG-shared) witness tree produced by
    /// the automata framework, so AutoQ witnesses can be fed straight into
    /// the exact simulator for confirmation — the role SliQSim plays in the
    /// paper's evaluation.
    ///
    /// The conversion enumerates only the tree's non-zero amplitudes, so a
    /// 35-qubit basis-state witness costs a handful of map entries, not
    /// `2^35` leaves.
    ///
    /// # Panics
    ///
    /// Panics if the witness support exceeds
    /// [`SparseState::MAX_TREE_SUPPORT`] non-zero amplitudes (materialising
    /// it as a map would defeat the sparse representation); check
    /// `tree.support_size()` against that constant first to degrade
    /// gracefully instead.
    ///
    /// ```
    /// use autoq_simulator::SparseState;
    /// use autoq_treeaut::Tree;
    ///
    /// let witness = Tree::basis_state(40, 1 << 39);
    /// let state = SparseState::from_tree(&witness);
    /// assert_eq!(state.support_size(), 1);
    /// assert_eq!(state.num_qubits(), 40);
    /// ```
    pub fn from_tree(tree: &Tree) -> Self {
        let support = tree.support_size();
        assert!(
            support <= Self::MAX_TREE_SUPPORT,
            "witness support {support} too large to materialise as a sparse state"
        );
        // Witness trees and sparse states now share the `u128` basis-index
        // type end to end, so the map moves across without conversion.
        Self::from_amplitudes(tree.num_qubits(), tree.to_amplitude_map())
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Number of non-zero amplitudes.
    pub fn support_size(&self) -> usize {
        self.amplitudes.len()
    }

    /// The amplitude of `|basis⟩` (zero if absent).
    pub fn amplitude(&self, basis: u128) -> Algebraic {
        self.amplitudes
            .get(&basis)
            .cloned()
            .unwrap_or_else(Algebraic::zero)
    }

    /// The non-zero amplitudes.
    pub fn to_amplitude_map(&self) -> &BTreeMap<u128, Algebraic> {
        &self.amplitudes
    }

    /// Consumes the state and returns its non-zero amplitudes without
    /// copying (for callers that only need the final map).
    pub fn into_amplitude_map(self) -> BTreeMap<u128, Algebraic> {
        self.amplitudes
    }

    /// Total squared norm (should be 1).
    pub fn total_probability(&self) -> f64 {
        self.amplitudes.values().map(|a| a.norm_sqr()).sum()
    }

    fn mask(&self, qubit: u32) -> u128 {
        1u128 << (self.num_qubits - 1 - qubit)
    }

    /// Applies one gate in place.
    ///
    /// # Panics
    ///
    /// Panics if the gate refers to a qubit outside the state.
    pub fn apply_gate(&mut self, gate: &Gate) {
        for q in gate.qubits() {
            assert!(q < self.num_qubits, "gate qubit {q} out of range");
        }
        let mut next: BTreeMap<u128, Algebraic> = BTreeMap::new();
        let mut add = |basis: u128, amp: Algebraic| {
            if amp.is_zero() {
                return;
            }
            let entry = next.entry(basis).or_insert_with(Algebraic::zero);
            *entry = &*entry + &amp;
        };
        for (&basis, amp) in &self.amplitudes {
            match *gate {
                Gate::X(q) => add(basis ^ self.mask(q), amp.clone()),
                Gate::Y(q) => {
                    let mask = self.mask(q);
                    let flipped = basis ^ mask;
                    // |0⟩→i|1⟩ (sign +i when source bit is 0), |1⟩→−i|0⟩.
                    let factor = if basis & mask == 0 {
                        Algebraic::i()
                    } else {
                        -&Algebraic::i()
                    };
                    add(flipped, amp * &factor);
                }
                Gate::Z(q) => {
                    let sign = if basis & self.mask(q) != 0 {
                        -amp
                    } else {
                        amp.clone()
                    };
                    add(basis, sign);
                }
                Gate::H(q) => {
                    let mask = self.mask(q);
                    let scaled = amp.div_sqrt2();
                    if basis & mask == 0 {
                        add(basis, scaled.clone());
                        add(basis | mask, scaled);
                    } else {
                        add(basis & !mask, scaled.clone());
                        add(basis, -&scaled);
                    }
                }
                Gate::S(q) => add(basis, phase_if_set(basis, self.mask(q), amp, 2)),
                Gate::Sdg(q) => add(basis, phase_if_set(basis, self.mask(q), amp, 6)),
                Gate::T(q) => add(basis, phase_if_set(basis, self.mask(q), amp, 1)),
                Gate::Tdg(q) => add(basis, phase_if_set(basis, self.mask(q), amp, 7)),
                Gate::RxPi2(q) => {
                    let mask = self.mask(q);
                    let scaled = amp.div_sqrt2();
                    let minus_i_scaled = -&(&scaled * &Algebraic::i());
                    add(basis, scaled);
                    add(basis ^ mask, minus_i_scaled);
                }
                Gate::RyPi2(q) => {
                    let mask = self.mask(q);
                    let scaled = amp.div_sqrt2();
                    if basis & mask == 0 {
                        add(basis, scaled.clone());
                        add(basis | mask, scaled);
                    } else {
                        add(basis & !mask, -&scaled);
                        add(basis, scaled);
                    }
                }
                Gate::Cnot { control, target } => {
                    let flipped = if basis & self.mask(control) != 0 {
                        basis ^ self.mask(target)
                    } else {
                        basis
                    };
                    add(flipped, amp.clone());
                }
                Gate::Cz { control, target } => {
                    let both = basis & self.mask(control) != 0 && basis & self.mask(target) != 0;
                    add(basis, if both { -amp } else { amp.clone() });
                }
                Gate::Swap(a, b) => {
                    let (ma, mb) = (self.mask(a), self.mask(b));
                    let bit_a = basis & ma != 0;
                    let bit_b = basis & mb != 0;
                    let mut new_basis = basis & !(ma | mb);
                    if bit_a {
                        new_basis |= mb;
                    }
                    if bit_b {
                        new_basis |= ma;
                    }
                    add(new_basis, amp.clone());
                }
                Gate::Toffoli { controls, target } => {
                    let on =
                        basis & self.mask(controls[0]) != 0 && basis & self.mask(controls[1]) != 0;
                    let flipped = if on { basis ^ self.mask(target) } else { basis };
                    add(flipped, amp.clone());
                }
                Gate::Fredkin { control, targets } => {
                    if basis & self.mask(control) != 0 {
                        let (ma, mb) = (self.mask(targets[0]), self.mask(targets[1]));
                        let bit_a = basis & ma != 0;
                        let bit_b = basis & mb != 0;
                        let mut new_basis = basis & !(ma | mb);
                        if bit_a {
                            new_basis |= mb;
                        }
                        if bit_b {
                            new_basis |= ma;
                        }
                        add(new_basis, amp.clone());
                    } else {
                        add(basis, amp.clone());
                    }
                }
            }
        }
        next.retain(|_, amp| !amp.is_zero());
        self.amplitudes = next;
    }

    /// Applies every gate of a circuit.
    ///
    /// Gates are applied in an *interference-friendly* order rather than
    /// strict program order: only gates acting on disjoint qubit sets are
    /// ever reordered, which commutes exactly, so the final state is
    /// identical to program-order application.  The scheduler greedily
    /// collapses superpositions (e.g. each qubit's `H … oracle … H` pattern
    /// in Bernstein–Vazirani) before branching further qubits, keeping the
    /// support polynomial on circuits whose program order would visit an
    /// exponential intermediate support.
    ///
    /// # Panics
    ///
    /// Panics if the circuit width exceeds the state width.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        self.try_apply_circuit(circuit, usize::MAX);
    }

    /// Applies a circuit like [`SparseState::apply_circuit`] but gives up
    /// (returning `false`) as soon as the live support exceeds
    /// `max_support`, so callers probing a possibly-dense evolution — e.g.
    /// witness confirmation pulling a state back through a superposing
    /// circuit — degrade gracefully instead of exhausting memory.
    ///
    /// On `false` the state is left mid-circuit and is not meaningful.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state.
    pub fn try_apply_circuit(&mut self, circuit: &Circuit, max_support: usize) -> bool {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit wider than the state"
        );
        let gates = circuit.gates();
        for index in interference_schedule(circuit) {
            self.apply_gate(&gates[index]);
            if self.support_size() > max_support {
                return false;
            }
        }
        true
    }

    /// Convenience: simulates `circuit` on the basis state `|basis⟩`.
    pub fn run(circuit: &Circuit, basis: u128) -> SparseState {
        let mut state = SparseState::basis_state(circuit.num_qubits(), basis);
        state.apply_circuit(circuit);
        state
    }
}

/// Multiplies by `ω^power` if the masked bit is set.
fn phase_if_set(basis: u128, mask: u128, amp: &Algebraic, power: i64) -> Algebraic {
    if basis & mask != 0 {
        amp.mul_omega_pow(power)
    } else {
        amp.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseState;
    use autoq_circuit::generators::{random_circuit, RandomCircuitConfig};
    use rand::SeedableRng;

    #[test]
    fn sparse_matches_dense_on_random_circuits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let config = RandomCircuitConfig::with_paper_ratio(6);
        for _ in 0..10 {
            let circuit = random_circuit(&config, &mut rng);
            let dense = DenseState::run(&circuit, 5);
            let sparse = SparseState::run(&circuit, 5);
            for (basis, amp) in dense.to_amplitude_map() {
                assert_eq!(sparse.amplitude(basis), amp, "mismatch at |{basis:b}⟩");
            }
            assert_eq!(dense.to_amplitude_map().len(), sparse.support_size());
        }
    }

    #[test]
    fn y_gate_phases_match_dense() {
        for basis in 0..2u128 {
            let mut dense = DenseState::basis_state(1, basis);
            let mut sparse = SparseState::basis_state(1, basis);
            dense.apply_gate(&Gate::Y(0));
            sparse.apply_gate(&Gate::Y(0));
            for b in 0..2u128 {
                assert_eq!(dense.amplitude(b), sparse.amplitude(b));
            }
        }
    }

    #[test]
    fn wide_reversible_circuit_keeps_single_support() {
        let circuit = autoq_circuit::generators::ripple_carry_adder(40); // 82 qubits
        let state = SparseState::run(&circuit, 0);
        assert_eq!(state.support_size(), 1);
        assert!((state.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sixty_qubit_bernstein_vazirani() {
        let hidden: Vec<bool> = (0..60).map(|i| i % 3 == 0).collect();
        let circuit = autoq_circuit::generators::bernstein_vazirani(&hidden);
        let state = SparseState::run(&circuit, 0);
        assert_eq!(state.support_size(), 1);
        let expected = autoq_circuit::generators::bernstein_vazirani_expected_output(&hidden);
        assert_eq!(state.amplitude(expected), Algebraic::one());
    }

    #[test]
    fn schedule_is_a_valid_commuting_reorder() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let config = RandomCircuitConfig::with_paper_ratio(5);
        for _ in 0..5 {
            let circuit = random_circuit(&config, &mut rng);
            let order = interference_schedule(&circuit);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..circuit.gate_count()).collect::<Vec<_>>());
            // Gates sharing a qubit must keep their program order.
            let mut position = vec![0usize; circuit.gate_count()];
            for (pos, &index) in order.iter().enumerate() {
                position[index] = pos;
            }
            let gates = circuit.gates();
            for a in 0..gates.len() {
                let qubits_a = gates[a].qubits();
                for b in (a + 1)..gates.len() {
                    if gates[b].qubits().iter().any(|q| qubits_a.contains(q)) {
                        assert!(
                            position[a] < position[b],
                            "dependent gates {a} -> {b} were reordered"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interference_cancels_amplitudes_exactly() {
        // H · Z · H |0⟩ = |1⟩: the |0⟩ branch must vanish exactly, not just approximately.
        let mut state = SparseState::basis_state(1, 0);
        state.apply_gate(&Gate::H(0));
        state.apply_gate(&Gate::Z(0));
        state.apply_gate(&Gate::H(0));
        assert_eq!(state.support_size(), 1);
        assert_eq!(state.amplitude(1), Algebraic::one());
    }
}
