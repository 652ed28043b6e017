//! Bernstein–Vazirani circuits.

use crate::{Circuit, Gate};

/// Builds the Bernstein–Vazirani circuit for the given hidden string.
///
/// Qubit layout (matching Appendix E of the AutoQ paper):
///
/// * qubits `0 .. n−1` — the input register (`n = hidden.len()`),
/// * qubit `n` — the oracle work qubit.
///
/// The circuit is `X(n); H(all); [CNOT(i → n) for every hidden bit i = 1];
/// H(all)`.  On input `|0…0⟩` the output is exactly the basis state
/// `|s⟩ ⊗ |1⟩` where `s` is the hidden string — a convenient post-condition
/// because the final Hadamard on the work qubit (which the paper also
/// appends) turns `|−⟩` back into `|1⟩`.
///
/// # Examples
///
/// ```
/// use autoq_circuit::generators::bernstein_vazirani;
/// let circuit = bernstein_vazirani(&[true, false, true]);
/// assert_eq!(circuit.num_qubits(), 4);
/// // 1 X + 4 H + 2 CNOT + 4 H
/// assert_eq!(circuit.gate_count(), 11);
/// ```
pub fn bernstein_vazirani(hidden: &[bool]) -> Circuit {
    let n = hidden.len() as u32;
    let work = n;
    let mut circuit = Circuit::new(n + 1);
    circuit.push(Gate::X(work)).expect("valid gate");
    for q in 0..=n {
        circuit.push(Gate::H(q)).expect("valid gate");
    }
    for (i, &bit) in hidden.iter().enumerate() {
        if bit {
            circuit
                .push(Gate::Cnot {
                    control: i as u32,
                    target: work,
                })
                .expect("valid gate");
        }
    }
    for q in 0..=n {
        circuit.push(Gate::H(q)).expect("valid gate");
    }
    circuit
}

/// The expected output basis state of [`bernstein_vazirani`] on the all-zero
/// input: `|s⟩ ⊗ |1⟩` encoded as an MSBF integer.
///
/// # Panics
///
/// Panics if `hidden` has more than 127 bits (the state would not fit the
/// 128-bit basis index).
pub fn bernstein_vazirani_expected_output(hidden: &[bool]) -> u128 {
    assert!(hidden.len() < 128, "BV output past 128 qubits");
    let mut basis = 0u128;
    for &bit in hidden {
        basis = (basis << 1) | u128::from(bit);
    }
    (basis << 1) | 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_count_matches_structure() {
        for n in 1..8usize {
            let hidden: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            let ones = hidden.iter().filter(|&&b| b).count();
            let circuit = bernstein_vazirani(&hidden);
            assert_eq!(circuit.num_qubits() as usize, n + 1);
            assert_eq!(circuit.gate_count(), 1 + 2 * (n + 1) + ones);
        }
    }

    #[test]
    fn expected_output_encodes_hidden_string_and_work_bit() {
        assert_eq!(
            bernstein_vazirani_expected_output(&[true, false, true]),
            0b1011
        );
        assert_eq!(bernstein_vazirani_expected_output(&[false]), 0b01);
        assert_eq!(bernstein_vazirani_expected_output(&[]), 1);
        // Every bit survives past the 64-bit boundary.
        assert_eq!(bernstein_vazirani_expected_output(&[true; 127]), u128::MAX);
    }

    #[test]
    fn all_gates_are_clifford() {
        let circuit = bernstein_vazirani(&[true, true, false, true]);
        assert!(circuit.gates().iter().all(|g| g.is_clifford()));
    }
}
