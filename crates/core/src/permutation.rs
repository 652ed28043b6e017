//! The permutation-based encoding of quantum gates (Section 5).
//!
//! Gates whose matrices have exactly one non-zero entry per row (possibly
//! with a constant scaling) permute the computational basis and can be
//! applied to a tree automaton by direct transition surgery:
//!
//! * `X` swaps the children of every `x_t` transition (Theorem 5.1),
//! * `Z`, `S`, `S†`, `T`, `T†` scale the two subtrees of every `x_t` node by
//!   constants, implemented with a "primed copy" whose leaves are rescaled
//!   (Algorithm 1, Theorem 5.2),
//! * `Y` combines scaling and swapping,
//! * `CNOT`, `CZ` and Toffoli graft the transformed primed copy under the
//!   `1`-branch of the control qubit (Algorithm 2, Theorem 5.3), provided
//!   every control sits above the target in the variable order.
//!
//! Gates outside this fragment (`H`, `Rx(π/2)`, `Ry(π/2)`, or controlled
//! gates with a control *below* the target) must use the composition-based
//! encoding of [`crate::composition`].

use autoq_amplitude::Algebraic;
use autoq_circuit::Gate;
use autoq_treeaut::TreeAutomaton;

/// Returns `true` if the permutation-based encoding can apply this gate
/// (cf. the `Hybrid` setting of the paper's tool).
pub fn supports(gate: &Gate) -> bool {
    match *gate {
        Gate::X(_)
        | Gate::Y(_)
        | Gate::Z(_)
        | Gate::S(_)
        | Gate::Sdg(_)
        | Gate::T(_)
        | Gate::Tdg(_) => true,
        Gate::Cnot { control, target } => control < target,
        // CZ is symmetric in its two qubits, so it can always be oriented
        // with the control above the target.
        Gate::Cz { .. } => true,
        Gate::Toffoli { controls, target } => controls[0] < target && controls[1] < target,
        Gate::H(_) | Gate::RxPi2(_) | Gate::RyPi2(_) | Gate::Swap(..) | Gate::Fredkin { .. } => {
            false
        }
    }
}

/// Applies a gate with the permutation-based encoding, in place on the
/// engine's working automaton (no per-gate whole-automaton clone).
///
/// # Panics
///
/// Panics if [`supports`] returns `false` for the gate.
pub fn apply_in_place(automaton: &mut TreeAutomaton, gate: &Gate) {
    assert!(
        supports(gate),
        "gate {gate} is not supported by the permutation-based encoding"
    );
    match *gate {
        Gate::X(t) => swap_children_in_place(automaton, t),
        Gate::Z(t) => {
            scale_children_in_place(automaton, t, &Algebraic::one(), &(-&Algebraic::one()))
        }
        Gate::S(t) => scale_children_in_place(automaton, t, &Algebraic::one(), &Algebraic::i()),
        Gate::Sdg(t) => {
            scale_children_in_place(automaton, t, &Algebraic::one(), &Algebraic::omega_pow(6))
        }
        Gate::T(t) => scale_children_in_place(automaton, t, &Algebraic::one(), &Algebraic::omega()),
        Gate::Tdg(t) => {
            scale_children_in_place(automaton, t, &Algebraic::one(), &Algebraic::omega_pow(7))
        }
        Gate::Y(t) => {
            // Y: (v0, v1) ↦ (−ω²·v1, ω²·v0) — swap, then scale.
            swap_children_in_place(automaton, t);
            scale_children_in_place(automaton, t, &(-&Algebraic::i()), &Algebraic::i());
        }
        Gate::Cnot { control, target } => {
            controlled_graft_in_place(automaton, control, |inner| {
                swap_children_in_place(inner, target)
            });
        }
        Gate::Cz { control, target } => {
            let (c, t) = (control.min(target), control.max(target));
            controlled_graft_in_place(automaton, c, |inner| {
                scale_children_in_place(inner, t, &Algebraic::one(), &(-&Algebraic::one()))
            });
        }
        Gate::Toffoli { controls, target } => {
            let c_low = controls[0].min(controls[1]);
            let c_high = controls[0].max(controls[1]);
            controlled_graft_in_place(automaton, c_low, |inner| {
                controlled_graft_in_place(inner, c_high, |inner2| {
                    swap_children_in_place(inner2, target)
                })
            });
        }
        _ => unreachable!("supports() rejected the gate"),
    }
}

/// Swaps the left and right children of every `x_t` transition
/// (the `X_t` construction of Theorem 5.1), in place.
pub fn swap_children_in_place(automaton: &mut TreeAutomaton, qubit: u32) {
    for transition in automaton.internal.iter_mut() {
        if transition.symbol.var == qubit {
            std::mem::swap(&mut transition.left, &mut transition.right);
        }
    }
}

/// Scales the `0`-subtree of every `x_t` node by `scale_left` and the
/// `1`-subtree by `scale_right` (Algorithm 1 generalised to both scalars),
/// in place.
pub fn scale_children_in_place(
    automaton: &mut TreeAutomaton,
    qubit: u32,
    scale_left: &Algebraic,
    scale_right: &Algebraic,
) {
    let one = Algebraic::one();
    if scale_left == &one && scale_right == &one {
        return;
    }
    if scale_left == scale_right {
        automaton.map_leaves_in_place(|value| value * scale_left);
        return;
    }
    // Primed copy with leaves scaled by `scale_right`.
    let primed = automaton.map_leaves(|value| value * scale_right);
    // Working automaton with leaves scaled by `scale_left`.
    automaton.map_leaves_in_place(|value| value * scale_left);
    let original_count = automaton.internal.len();
    let offset = automaton.import_disjoint(&primed);
    for transition in automaton.internal.iter_mut().take(original_count) {
        if transition.symbol.var == qubit {
            transition.right = transition.right.offset(offset);
        }
    }
}

/// Grafts a transformed copy of the automaton under the `1`-branch of every
/// `x_c` transition (Algorithm 2), in place: the result behaves like the
/// original automaton when the control qubit is `0` and like the copy after
/// `inner` when it is `1`.
///
/// Correct only when every qubit touched by `inner` lies strictly below `c`
/// in the variable order.
pub fn controlled_graft_in_place(
    automaton: &mut TreeAutomaton,
    control: u32,
    inner: impl FnOnce(&mut TreeAutomaton),
) {
    let mut transformed = automaton.clone();
    inner(&mut transformed);
    let original_count = automaton.internal.len();
    let offset = automaton.import_disjoint(&transformed);
    for transition in automaton.internal.iter_mut().take(original_count) {
        if transition.symbol.var == control {
            transition.right = transition.right.offset(offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoq_treeaut::Tree;

    fn apply(automaton: &TreeAutomaton, gate: &Gate) -> TreeAutomaton {
        let mut result = automaton.clone();
        apply_in_place(&mut result, gate);
        result
    }

    fn states_of(automaton: &TreeAutomaton) -> Vec<std::collections::BTreeMap<u128, Algebraic>> {
        automaton
            .enumerate(64)
            .iter()
            .map(Tree::to_amplitude_map)
            .collect()
    }

    #[test]
    fn support_classification_matches_the_paper() {
        assert!(supports(&Gate::X(0)));
        assert!(supports(&Gate::T(5)));
        assert!(supports(&Gate::Cnot {
            control: 0,
            target: 3
        }));
        assert!(!supports(&Gate::Cnot {
            control: 3,
            target: 0
        }));
        assert!(supports(&Gate::Cz {
            control: 3,
            target: 0
        }));
        assert!(supports(&Gate::Toffoli {
            controls: [0, 1],
            target: 2
        }));
        assert!(!supports(&Gate::Toffoli {
            controls: [0, 3],
            target: 2
        }));
        assert!(!supports(&Gate::H(0)));
        assert!(!supports(&Gate::RxPi2(0)));
    }

    #[test]
    fn x_gate_swaps_subtrees() {
        let automaton = TreeAutomaton::from_tree(&Tree::basis_state(2, 0b01));
        let result = apply(&automaton, &Gate::X(0));
        assert!(result.accepts(&Tree::basis_state(2, 0b11)));
        assert!(!result.accepts(&Tree::basis_state(2, 0b01)));
        // Applying X twice is the identity.
        let twice = apply(&result, &Gate::X(0));
        assert!(twice.accepts(&Tree::basis_state(2, 0b01)));
    }

    #[test]
    fn z_gate_negates_the_one_branch() {
        let plus = Tree::from_fn(1, |_| Algebraic::one_over_sqrt2());
        let automaton = TreeAutomaton::from_tree(&plus);
        let result = apply(&automaton, &Gate::Z(0)).reduce();
        let states = states_of(&result);
        assert_eq!(states.len(), 1);
        assert_eq!(states[0][&0], Algebraic::one_over_sqrt2());
        assert_eq!(states[0][&1], -&Algebraic::one_over_sqrt2());
    }

    #[test]
    fn t_gate_applies_omega_phase() {
        let plus = Tree::from_fn(1, |_| Algebraic::one_over_sqrt2());
        let automaton = TreeAutomaton::from_tree(&plus);
        let result = apply(&automaton, &Gate::T(0)).reduce();
        let states = states_of(&result);
        assert_eq!(states[0][&1], Algebraic::one_over_sqrt2().mul_omega());
        // T · T† is the identity.
        let back = apply(&result, &Gate::Tdg(0)).reduce();
        assert!(back.accepts(&plus));
    }

    #[test]
    fn y_gate_matches_its_matrix() {
        // Y|0⟩ = i|1⟩, Y|1⟩ = −i|0⟩.
        let automaton = TreeAutomaton::from_tree(&Tree::basis_state(1, 0));
        let result = apply(&automaton, &Gate::Y(0)).reduce();
        let states = states_of(&result);
        assert_eq!(states[0].get(&1), Some(&Algebraic::i()));
        assert_eq!(states[0].get(&0), None);
        let automaton = TreeAutomaton::from_tree(&Tree::basis_state(1, 1));
        let result = apply(&automaton, &Gate::Y(0)).reduce();
        let states = states_of(&result);
        assert_eq!(states[0].get(&0), Some(&(-&Algebraic::i())));
    }

    #[test]
    fn cnot_flips_target_only_when_control_is_one() {
        let automaton =
            TreeAutomaton::from_trees(2, &[Tree::basis_state(2, 0b00), Tree::basis_state(2, 0b10)]);
        let result = apply(
            &automaton,
            &Gate::Cnot {
                control: 0,
                target: 1,
            },
        )
        .reduce();
        assert!(result.accepts(&Tree::basis_state(2, 0b00)));
        assert!(result.accepts(&Tree::basis_state(2, 0b11)));
        assert!(!result.accepts(&Tree::basis_state(2, 0b10)));
        assert_eq!(result.enumerate(16).len(), 2);
    }

    #[test]
    fn cz_is_symmetric_in_its_arguments() {
        let minus_both = Tree::from_fn(2, |b| match b {
            0b11 => Algebraic::one(),
            _ => Algebraic::zero(),
        });
        let automaton = TreeAutomaton::from_tree(&minus_both);
        for gate in [
            Gate::Cz {
                control: 0,
                target: 1,
            },
            Gate::Cz {
                control: 1,
                target: 0,
            },
        ] {
            let result = apply(&automaton, &gate).reduce();
            let states = states_of(&result);
            assert_eq!(
                states[0][&0b11],
                -&Algebraic::one(),
                "wrong result for {gate}"
            );
        }
    }

    #[test]
    fn toffoli_requires_both_controls() {
        let inputs: Vec<Tree> = (0..8).map(|b| Tree::basis_state(3, b)).collect();
        let automaton = TreeAutomaton::from_trees(3, &inputs);
        let result = apply(
            &automaton,
            &Gate::Toffoli {
                controls: [0, 1],
                target: 2,
            },
        )
        .reduce();
        // The set of all basis states is closed under Toffoli.
        assert_eq!(result.enumerate(16).len(), 8);
        for b in 0..8u128 {
            assert!(result.accepts(&Tree::basis_state(3, b)));
        }
        // A single state is permuted: |110⟩ ↦ |111⟩.
        let single = TreeAutomaton::from_tree(&Tree::basis_state(3, 0b110));
        let moved = apply(
            &single,
            &Gate::Toffoli {
                controls: [0, 1],
                target: 2,
            },
        )
        .reduce();
        assert!(moved.accepts(&Tree::basis_state(3, 0b111)));
        assert_eq!(moved.enumerate(4).len(), 1);
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn unsupported_gate_panics() {
        let automaton = TreeAutomaton::from_tree(&Tree::basis_state(1, 0));
        let _ = apply(&automaton, &Gate::H(0));
    }
}
