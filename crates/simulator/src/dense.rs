//! Dense state-vector simulation.

use std::collections::BTreeMap;

use autoq_amplitude::Algebraic;
use autoq_circuit::{Circuit, Gate};
use autoq_treeaut::basis::{self, BasisIndex};

/// A dense `2ⁿ`-element state vector with exact algebraic amplitudes.
///
/// Basis states are indexed MSBF: qubit `0` is the most significant bit of
/// the index, matching the tree encoding used by `autoq-treeaut`.
///
/// # Examples
///
/// ```
/// use autoq_simulator::DenseState;
/// use autoq_circuit::Gate;
///
/// let mut state = DenseState::basis_state(1, 0);
/// state.apply_gate(&Gate::H(0));
/// assert!((state.probability_of(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseState {
    num_qubits: u32,
    amplitudes: Vec<Algebraic>,
}

impl DenseState {
    /// The all-zero computational basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: u32) -> Self {
        Self::basis_state(num_qubits, 0)
    }

    /// The computational basis state `|basis⟩`.
    ///
    /// Basis indices are [`BasisIndex`] (`u128`) for uniformity with the
    /// automata stack and the sparse simulator, although the dense vector
    /// itself caps at 26 qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 26` (the dense vector would not fit in memory)
    /// or the basis index is out of range.
    pub fn basis_state(num_qubits: u32, basis: BasisIndex) -> Self {
        assert!(
            num_qubits <= 26,
            "dense simulation limited to 26 qubits; use SparseState"
        );
        basis::assert_in_range(num_qubits, basis);
        let dim = 1usize << num_qubits;
        let mut amplitudes = vec![Algebraic::zero(); dim];
        amplitudes[basis as usize] = Algebraic::one();
        DenseState {
            num_qubits,
            amplitudes,
        }
    }

    /// Builds a state from explicit amplitudes (length must be `2ⁿ`).
    ///
    /// # Panics
    ///
    /// Panics if the vector length is not a power of two matching
    /// `num_qubits`.
    pub fn from_amplitudes(num_qubits: u32, amplitudes: Vec<Algebraic>) -> Self {
        assert_eq!(
            amplitudes.len(),
            1usize << num_qubits,
            "amplitude vector has wrong length"
        );
        DenseState {
            num_qubits,
            amplitudes,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The amplitude of `|basis⟩`.
    pub fn amplitude(&self, basis: BasisIndex) -> Algebraic {
        self.amplitudes[usize::try_from(basis).expect("basis index out of range")].clone()
    }

    /// The full amplitude vector.
    pub fn amplitudes(&self) -> &[Algebraic] {
        &self.amplitudes
    }

    /// The non-zero amplitudes as a map.
    pub fn to_amplitude_map(&self) -> BTreeMap<BasisIndex, Algebraic> {
        self.amplitudes
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.is_zero())
            .map(|(i, a)| (i as BasisIndex, a.clone()))
            .collect()
    }

    /// The probability of measuring `|basis⟩` (floating-point, diagnostics
    /// only).
    pub fn probability_of(&self, basis: BasisIndex) -> f64 {
        self.amplitudes[usize::try_from(basis).expect("basis index out of range")].norm_sqr()
    }

    /// The total squared norm (must be 1 for a valid quantum state).
    pub fn total_probability(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// The bit mask of qubit `q` in a basis index (MSBF convention).
    fn mask(&self, qubit: u32) -> usize {
        1usize << (self.num_qubits - 1 - qubit)
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
        match *gate {
            Gate::X(q) => self.map_pairs(q, |v0, v1| (v1, v0)),
            Gate::Y(q) => self.map_pairs(q, |v0, v1| {
                (&(-&v1) * &Algebraic::i(), &v0 * &Algebraic::i())
            }),
            Gate::Z(q) => self.map_pairs(q, |v0, v1| (v0, -&v1)),
            Gate::H(q) => self.map_pairs(q, |v0, v1| {
                ((&v0 + &v1).div_sqrt2(), (&v0 - &v1).div_sqrt2())
            }),
            Gate::S(q) => self.map_pairs(q, |v0, v1| (v0, &v1 * &Algebraic::i())),
            Gate::Sdg(q) => self.map_pairs(q, |v0, v1| (v0, &v1 * &Algebraic::omega_pow(6))),
            Gate::T(q) => self.map_pairs(q, |v0, v1| (v0, &v1 * &Algebraic::omega())),
            Gate::Tdg(q) => self.map_pairs(q, |v0, v1| (v0, &v1 * &Algebraic::omega_pow(7))),
            Gate::RxPi2(q) => self.map_pairs(q, |v0, v1| {
                let minus_i = -&Algebraic::i();
                (
                    (&v0 + &(&v1 * &minus_i)).div_sqrt2(),
                    (&(&v0 * &minus_i) + &v1).div_sqrt2(),
                )
            }),
            Gate::RyPi2(q) => self.map_pairs(q, |v0, v1| {
                ((&v0 - &v1).div_sqrt2(), (&v0 + &v1).div_sqrt2())
            }),
            Gate::Cnot { control, target } => {
                let control_mask = self.mask(control);
                let target_mask = self.mask(target);
                for index in 0..self.amplitudes.len() {
                    if index & control_mask != 0 && index & target_mask == 0 {
                        self.amplitudes.swap(index, index | target_mask);
                    }
                }
            }
            Gate::Cz { control, target } => {
                let control_mask = self.mask(control);
                let target_mask = self.mask(target);
                for index in 0..self.amplitudes.len() {
                    if index & control_mask != 0 && index & target_mask != 0 {
                        self.amplitudes[index] = -&self.amplitudes[index];
                    }
                }
            }
            Gate::Swap(a, b) => {
                let mask_a = self.mask(a);
                let mask_b = self.mask(b);
                for index in 0..self.amplitudes.len() {
                    if index & mask_a != 0 && index & mask_b == 0 {
                        self.amplitudes.swap(index, (index & !mask_a) | mask_b);
                    }
                }
            }
            Gate::Toffoli { controls, target } => {
                let c0 = self.mask(controls[0]);
                let c1 = self.mask(controls[1]);
                let t = self.mask(target);
                for index in 0..self.amplitudes.len() {
                    if index & c0 != 0 && index & c1 != 0 && index & t == 0 {
                        self.amplitudes.swap(index, index | t);
                    }
                }
            }
            Gate::Fredkin { control, targets } => {
                let c = self.mask(control);
                let a = self.mask(targets[0]);
                let b = self.mask(targets[1]);
                for index in 0..self.amplitudes.len() {
                    if index & c != 0 && index & a != 0 && index & b == 0 {
                        self.amplitudes.swap(index, (index & !a) | b);
                    }
                }
            }
        }
    }

    /// Applies a single-qubit gate given as a closure on `(v0, v1)` pairs.
    fn map_pairs(
        &mut self,
        qubit: u32,
        f: impl Fn(Algebraic, Algebraic) -> (Algebraic, Algebraic),
    ) {
        let mask = self.mask(qubit);
        for index in 0..self.amplitudes.len() {
            if index & mask == 0 {
                let v0 = self.amplitudes[index].clone();
                let v1 = self.amplitudes[index | mask].clone();
                let (n0, n1) = f(v0, v1);
                self.amplitudes[index] = n0;
                self.amplitudes[index | mask] = n1;
            }
        }
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit width exceeds the state width.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit wider than the state"
        );
        for gate in circuit.gates() {
            self.apply_gate(gate);
        }
    }

    /// Convenience: simulates `circuit` on the basis state `|basis⟩`.
    pub fn run(circuit: &Circuit, basis: BasisIndex) -> DenseState {
        let mut state = DenseState::basis_state(circuit.num_qubits(), basis);
        state.apply_circuit(circuit);
        state
    }

    /// Applies a gate by multiplying with its dense unitary matrix.  This is
    /// exponentially slower than [`DenseState::apply_gate`] and exists only
    /// to cross-validate it in tests.
    pub fn apply_gate_via_matrix(&mut self, gate: &Gate) {
        let gate_qubits = gate.qubits();
        let unitary = gate.unitary();
        let k = gate_qubits.len();
        let dim = self.amplitudes.len();
        let mut result = vec![Algebraic::zero(); dim];
        for (index, amp) in self.amplitudes.iter().enumerate() {
            if amp.is_zero() {
                continue;
            }
            // Extract the sub-index of the gate's qubits (in gate order).
            let mut column = 0usize;
            for &q in &gate_qubits {
                column = (column << 1) | usize::from(index & self.mask(q) != 0);
            }
            for (row, unitary_row) in unitary.iter().enumerate().take(1 << k) {
                let factor = &unitary_row[column];
                if factor.is_zero() {
                    continue;
                }
                // Rebuild the full index with the gate qubits set to `row`.
                let mut new_index = index;
                for (bit_pos, &q) in gate_qubits.iter().enumerate() {
                    let bit = (row >> (k - 1 - bit_pos)) & 1;
                    let mask = self.mask(q);
                    if bit == 1 {
                        new_index |= mask;
                    } else {
                        new_index &= !mask;
                    }
                }
                result[new_index] = &result[new_index] + &(factor * amp);
            }
        }
        self.amplitudes = result;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoq_circuit::generators::{bernstein_vazirani, bernstein_vazirani_expected_output};

    #[test]
    fn bell_state_preparation() {
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
        let state = DenseState::run(&circuit, 0);
        assert_eq!(state.amplitude(0), Algebraic::one_over_sqrt2());
        assert_eq!(state.amplitude(3), Algebraic::one_over_sqrt2());
        assert!(state.amplitude(1).is_zero());
        assert!(state.amplitude(2).is_zero());
        assert!((state.total_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_gate_application_matches_matrix_application() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n = 4;
        let config = autoq_circuit::generators::RandomCircuitConfig::with_paper_ratio(n);
        for _ in 0..10 {
            let circuit = autoq_circuit::generators::random_circuit(&config, &mut rng);
            let basis = u128::from(rng.gen_range(0..(1u64 << n)));
            let mut fast = DenseState::basis_state(n, basis);
            let mut slow = DenseState::basis_state(n, basis);
            for gate in circuit.gates() {
                fast.apply_gate(gate);
                slow.apply_gate_via_matrix(gate);
            }
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn swap_and_fredkin_permute_basis_states() {
        let mut state = DenseState::basis_state(3, 0b100);
        state.apply_gate(&Gate::Swap(0, 2));
        assert_eq!(
            state.to_amplitude_map().keys().copied().collect::<Vec<_>>(),
            vec![0b001]
        );
        let mut state = DenseState::basis_state(3, 0b110);
        state.apply_gate(&Gate::Fredkin {
            control: 0,
            targets: [1, 2],
        });
        assert_eq!(
            state.to_amplitude_map().keys().copied().collect::<Vec<_>>(),
            vec![0b101]
        );
        // control off: nothing happens
        let mut state = DenseState::basis_state(3, 0b010);
        state.apply_gate(&Gate::Fredkin {
            control: 0,
            targets: [1, 2],
        });
        assert_eq!(
            state.to_amplitude_map().keys().copied().collect::<Vec<_>>(),
            vec![0b010]
        );
    }

    #[test]
    fn hadamard_is_self_inverse_exactly() {
        let mut state = DenseState::basis_state(1, 1);
        state.apply_gate(&Gate::H(0));
        state.apply_gate(&Gate::H(0));
        assert_eq!(state, DenseState::basis_state(1, 1));
    }

    #[test]
    fn s_t_and_daggers_cancel() {
        let mut state = DenseState::basis_state(2, 3);
        state.apply_gate(&Gate::H(1));
        let reference = state.clone();
        for (gate, inverse) in [(Gate::S(1), Gate::Sdg(1)), (Gate::T(1), Gate::Tdg(1))] {
            state.apply_gate(&gate);
            state.apply_gate(&inverse);
            assert_eq!(state, reference);
        }
    }

    #[test]
    fn bernstein_vazirani_returns_hidden_string() {
        let hidden = [true, false, true, true];
        let circuit = bernstein_vazirani(&hidden);
        let state = DenseState::run(&circuit, 0);
        let expected = bernstein_vazirani_expected_output(&hidden);
        assert_eq!(state.amplitude(expected), Algebraic::one());
        assert_eq!(state.to_amplitude_map().len(), 1);
    }

    #[test]
    fn grover_single_amplifies_the_marked_state() {
        let (circuit, layout) = autoq_circuit::generators::grover_single(3, 0b110, None);
        let state = DenseState::run(&circuit, 0);
        // The marked basis state (search register = 110, work = 0, phase = 1).
        let mut marked_index = 0u128;
        for (i, &q) in layout.search.iter().enumerate() {
            if (0b110 >> (layout.search.len() - 1 - i)) & 1 == 1 {
                marked_index |= 1 << (circuit.num_qubits() - 1 - q);
            }
        }
        marked_index |= 1 << (circuit.num_qubits() - 1 - layout.phase);
        let marked_probability = state.probability_of(marked_index);
        assert!(
            marked_probability > 0.9,
            "Grover should amplify the marked state, got p = {marked_probability}"
        );
        assert!((state.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ripple_carry_adder_adds() {
        // n = 3 bits: a = 3, b = 5 → b' = 0 (mod 8) with carry-out 1.
        let n = 3u32;
        let circuit = autoq_circuit::generators::ripple_carry_adder(n);
        for (a_value, b_value) in [(3u64, 5u64), (1, 2), (7, 7), (0, 6)] {
            let mut basis = 0u128;
            // qubit layout: 0 = carry-in, 2i+1 = a_i (LSB first), 2i+2 = b_i, 2n+1 = carry-out
            for i in 0..n as u64 {
                if (a_value >> i) & 1 == 1 {
                    basis |= 1 << (circuit.num_qubits() as u64 - 1 - (2 * i + 1));
                }
                if (b_value >> i) & 1 == 1 {
                    basis |= 1 << (circuit.num_qubits() as u64 - 1 - (2 * i + 2));
                }
            }
            let state = DenseState::run(&circuit, basis);
            let map = state.to_amplitude_map();
            assert_eq!(map.len(), 1, "classical circuit must map basis to basis");
            let output = *map.keys().next().unwrap();
            // Decode the b register and the carry-out.
            let mut sum = 0u64;
            for i in 0..n as u64 {
                if output & (1 << (circuit.num_qubits() as u64 - 1 - (2 * i + 2))) != 0 {
                    sum |= 1 << i;
                }
            }
            let carry = output & (1 << (circuit.num_qubits() as u64 - 1 - (2 * n as u64 + 1))) != 0;
            let expected = a_value + b_value;
            assert_eq!(sum, expected % 8, "sum bits wrong for {a_value}+{b_value}");
            assert_eq!(carry, expected >= 8, "carry wrong for {a_value}+{b_value}");
        }
    }

    #[test]
    fn probabilities_sum_to_one_for_random_circuits() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let config = autoq_circuit::generators::RandomCircuitConfig::with_paper_ratio(5);
        for _ in 0..5 {
            let circuit = autoq_circuit::generators::random_circuit(&config, &mut rng);
            let state = DenseState::run(&circuit, 0);
            assert!((state.total_probability() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gate_outside_the_state_panics() {
        let mut state = DenseState::basis_state(2, 0);
        state.apply_gate(&Gate::X(5));
    }
}
