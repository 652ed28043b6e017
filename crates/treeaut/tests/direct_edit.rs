//! `TreeAutomaton` is plain data: its public fields may be edited directly,
//! and every later operation must see the edit.
//!
//! The edit below follows an operation that reads adjacency (`validate`), so
//! an adjacency index kept on the automaton across calls would answer the
//! later `trim`, `reduce` and `inclusion` from the pre-edit transitions: the
//! new state would look unproductive and the new tree would be lost.

use autoq_amplitude::{intern, Algebraic};
use autoq_treeaut::{
    inclusion, InclusionResult, InternalSymbol, InternalTransition, LeafTransition, StateId, Tree,
    TreeAutomaton,
};

/// The one-qubit state `amp·|0⟩`.
fn ket0_times(amp: Algebraic) -> Tree {
    Tree::from_fn(1, |b| {
        if b == 0 {
            amp.clone()
        } else {
            Algebraic::zero()
        }
    })
}

#[test]
fn direct_field_edits_after_an_indexed_operation_are_seen() {
    let ket0 = TreeAutomaton::from_tree(&ket0_times(Algebraic::one()));
    let mut edited = ket0.clone();
    edited.validate().unwrap();

    // Add `ω·|0⟩` through the public fields only: a fresh leaf state for ω
    // and a second root transition over it.
    let root = *edited.roots.iter().next().unwrap();
    let zero_leaf = edited
        .leaves
        .iter()
        .find(|t| t.amp == intern(&Algebraic::zero()))
        .unwrap()
        .parent;
    let omega_leaf = StateId::new(edited.num_states);
    edited.num_states += 1;
    edited.leaves.push(LeafTransition {
        parent: omega_leaf,
        amp: intern(&Algebraic::omega()),
    });
    edited.internal.push(InternalTransition {
        parent: root,
        symbol: InternalSymbol::new(0),
        left: omega_leaf,
        right: zero_leaf,
    });

    let added = ket0_times(Algebraic::omega());
    assert!(edited.accepts(&added));
    assert!(edited.trim().accepts(&added), "trim lost the edit");
    let reduced = edited.reduce();
    assert!(reduced.accepts(&added), "reduce lost the edit");
    assert!(reduced.accepts(&ket0_times(Algebraic::one())));
    match inclusion(&edited, &ket0) {
        InclusionResult::Counterexample(witness) => assert_eq!(witness, added),
        InclusionResult::Included => panic!("inclusion lost the edit"),
    }
    assert!(inclusion(&ket0, &edited).holds());
}
