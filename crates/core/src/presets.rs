//! Pre-/post-condition presets for the paper's benchmark families
//! (Appendix E).

use autoq_circuit::generators::{bernstein_vazirani_expected_output, GroverLayout};
use autoq_circuit::Circuit;

use crate::StateSet;

/// Pre- and post-condition of a verification benchmark, as used by Table 2.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The set of input states `P`.
    pub pre: StateSet,
    /// The set of required output states `Q`.
    pub post: StateSet,
}

/// The Bernstein–Vazirani specification: from `|0…0⟩` the circuit must reach
/// exactly `|s⟩ ⊗ |1⟩` (Appendix E).
///
/// ```
/// use autoq_circuit::generators::bernstein_vazirani;
/// use autoq_core::presets::bv_spec;
/// use autoq_core::{verify, Engine, SpecMode};
///
/// let hidden = [true, false, true];
/// let circuit = bernstein_vazirani(&hidden);
/// let spec = bv_spec(&hidden);
/// assert!(verify(&Engine::hybrid(), &spec.pre, &circuit, &spec.post, SpecMode::Equality).holds());
/// ```
pub fn bv_spec(hidden: &[bool]) -> Spec {
    let n = hidden.len() as u32 + 1;
    Spec {
        pre: StateSet::basis_state(n, 0),
        post: StateSet::basis_state(n, bernstein_vazirani_expected_output(hidden)),
    }
}

/// The MCToffoli specification: the pre- and post-condition are the same set
/// `{|c 0^(m−1) t⟩ : c ∈ {0,1}^m, t ∈ {0,1}}` — all basis states whose work
/// qubits are clean (Appendix E).
///
/// `circuit` must be the output of
/// [`mc_toffoli`](autoq_circuit::generators::mc_toffoli).
pub fn mc_toffoli_spec(circuit: &Circuit) -> Spec {
    let n = circuit.num_qubits();
    let m = n / 2;
    let free: Vec<u32> = (0..m).chain(std::iter::once(n - 1)).collect();
    let set = StateSet::basis_pattern(n, 0, &free);
    Spec {
        pre: set.clone(),
        post: set,
    }
}

/// The Grover-Single pre-condition `{|0…0⟩}` (the post-condition depends on
/// the amplified amplitudes and is computed from a reference execution; see
/// the benchmark harness).
pub fn grover_single_pre(layout: &GroverLayout, num_qubits: u32) -> StateSet {
    let _ = layout;
    StateSet::basis_state(num_qubits, 0)
}

/// The Grover-All pre-condition `{|s 0^m 0^m⟩ : s ∈ {0,1}^m}`: the oracle
/// register ranges over all values, every other qubit starts at `0`
/// (Appendix E).
pub fn grover_all_pre(layout: &GroverLayout, num_qubits: u32) -> StateSet {
    StateSet::basis_pattern(num_qubits, 0, &layout.oracle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoq_circuit::generators::{grover_all, grover_single, mc_toffoli};

    #[test]
    fn bv_spec_sizes() {
        let spec = bv_spec(&[true, true, false]);
        assert_eq!(spec.pre.num_qubits(), 4);
        assert_eq!(spec.pre.states(4).len(), 1);
        assert_eq!(spec.post.states(4).len(), 1);
    }

    #[test]
    fn wide_bv_specs_hold_past_the_u64_boundary() {
        use autoq_circuit::generators::bernstein_vazirani;

        use crate::{verify, Engine, SpecMode};
        for bits in [64usize, 127] {
            let hidden: Vec<bool> = (0..bits).map(|i| i % 3 != 1).collect();
            let spec = bv_spec(&hidden);
            let circuit = bernstein_vazirani(&hidden);
            let outcome = verify(
                &Engine::hybrid(),
                &spec.pre,
                &circuit,
                &spec.post,
                SpecMode::Equality,
            );
            assert!(outcome.holds(), "BV{bits}");
        }
    }

    #[test]
    fn mc_toffoli_spec_counts_match_the_paper_structure() {
        let circuit = mc_toffoli(4);
        let spec = mc_toffoli_spec(&circuit);
        // 2^(m+1) basis states: controls and target free.
        assert_eq!(spec.pre.states(64).len(), 32);
        // Pre- and post-condition are the same set.
        assert_eq!(spec.pre.states(64), spec.post.states(64));
    }

    #[test]
    fn grover_preconditions_have_expected_sizes() {
        let (single_circuit, single_layout) = grover_single(3, 0b010, Some(1));
        let pre = grover_single_pre(&single_layout, single_circuit.num_qubits());
        assert_eq!(pre.states(4).len(), 1);

        let (all_circuit, all_layout) = grover_all(3, Some(1));
        let pre = grover_all_pre(&all_layout, all_circuit.num_qubits());
        assert_eq!(pre.states(16).len(), 8);
        // Every state fixes the non-oracle qubits to zero.
        for state in pre.states(16) {
            let basis = *state.keys().next().unwrap();
            let non_oracle_mask = autoq_treeaut::basis::index_mask(
                all_circuit.num_qubits() - all_layout.oracle.len() as u32,
            );
            assert_eq!(basis & non_oracle_mask, 0);
        }
    }
}
