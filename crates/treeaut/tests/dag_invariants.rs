//! Invariants of the hash-consed DAG tree representation:
//!
//! * trees are equal exactly when they are structurally equal, however
//!   they were built, and one construction shares equal subtrees,
//! * basis states have linear (not exponential) node counts,
//! * `Tree::from_fn` → `amplitude` round-trips against the defining
//!   function (property-based, matching the old boxed-tree semantics),
//! * witness extraction works at paper scale (≥ 32 qubits), where the
//!   unfolded binary witness tree would need more than `2^33` nodes.

use autoq_amplitude::Algebraic;
use autoq_treeaut::{inclusion, InclusionResult, Tree, TreeAutomaton};
use proptest::prelude::*;

#[test]
fn independent_constructions_compare_equal() {
    // The same GHZ-like state built three different ways: equal trees with
    // equal node counts.
    let a = Tree::from_fn(3, |b| match b {
        0 | 7 => Algebraic::one_over_sqrt2(),
        _ => Algebraic::zero(),
    });
    let b = Tree::from_fn(3, |b| {
        if b == 0 || b == 7 {
            Algebraic::one_over_sqrt2()
        } else {
            Algebraic::zero()
        }
    });
    let c = Tree::node(0, a.as_node().unwrap().1, a.as_node().unwrap().2);
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(a.node_count(), b.node_count());
    assert_eq!(a.node_count(), c.node_count());
    assert_ne!(a, Tree::basis_state(3, 0));
}

#[test]
fn equal_subtrees_share_node_ids_inside_one_tree() {
    // |0000⟩: every all-zero fringe at one layer is one shared node, so the
    // right child (all zero, three layers) has one node per layer plus its
    // leaf, and its two children are equal.
    let tree = Tree::basis_state(4, 0);
    let (_, _, right) = tree.as_node().unwrap();
    assert_eq!(right.node_count(), 4);
    let (_, rl, rr) = right.as_node().unwrap();
    assert_eq!(rl, rr);
}

#[test]
fn basis_state_node_counts_stay_linear_up_to_128_qubits() {
    for n in 1..=128u32 {
        let basis = autoq_treeaut::basis::index_mask(n) / 3;
        let tree = Tree::basis_state(n, basis);
        assert_eq!(tree.node_count(), 2 * n as usize + 1, "n = {n}");
    }
}

#[test]
fn witness_extraction_at_40_qubits_is_linear_not_exponential() {
    // L(A) = {|p⟩, |q⟩} ⊄ L(B) = {|p⟩}: the counterexample is the 40-qubit
    // tree |q⟩, which the boxed representation could only materialise as
    // 2^41 nodes (an out-of-memory, ~32 TiB).  The DAG-shared witness has
    // 2·40 + 1 nodes and is extracted in well under a second.
    let n = 40u32;
    let p = 0b1010u128 << 30;
    let q = (1u128 << n) - 1;
    let a = TreeAutomaton::from_trees(n, &[Tree::basis_state(n, p), Tree::basis_state(n, q)]);
    let b = TreeAutomaton::from_tree(&Tree::basis_state(n, p));
    match inclusion(&a, &b) {
        InclusionResult::Counterexample(witness) => {
            assert_eq!(witness.num_qubits(), n);
            assert!(witness.node_count() <= 2 * n as usize + 1);
            assert_eq!(witness.support_size(), 1);
            assert_eq!(witness.amplitude(q), Algebraic::one());
            assert!(a.accepts(&witness));
            assert!(!b.accepts(&witness));
        }
        InclusionResult::Included => panic!("inclusion must fail"),
    }
    // The reverse direction holds.
    assert!(inclusion(&b, &a).holds());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Tree::from_fn` followed by `amplitude` is the identity on the
    /// defining function — the exact contract of the old boxed-tree
    /// implementation, now over shared nodes.
    #[test]
    fn from_fn_amplitude_round_trip(n in 0u32..6, seed in any::<u64>()) {
        let f = |basis: u128| {
            // A deterministic pseudo-random amplitude with plenty of zeros,
            // so sharing actually occurs.
            let h = (basis as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
            match h % 4 {
                0 => Algebraic::zero(),
                1 => Algebraic::one(),
                2 => Algebraic::one_over_sqrt2(),
                _ => -&Algebraic::one(),
            }
        };
        let tree = Tree::from_fn(n, f);
        prop_assert!(tree.is_well_formed());
        prop_assert_eq!(tree.num_qubits(), n);
        let mut support = 0u128;
        for basis in 0..(1u128 << n) {
            prop_assert_eq!(tree.amplitude(basis), f(basis));
            if !f(basis).is_zero() {
                support += 1;
            }
        }
        prop_assert_eq!(tree.support_size(), support);
        // The amplitude map agrees with the function on its support.
        let map = tree.to_amplitude_map();
        prop_assert_eq!(map.len() as u128, support);
        for (basis, amp) in &map {
            prop_assert_eq!(amp.clone(), f(*basis));
        }
    }

    /// Two constructors of the same basis state build equal trees with the
    /// same node count, and automaton membership agrees with equality.
    #[test]
    fn constructors_of_one_state_build_equal_trees(n in 1u32..5, basis in any::<u64>()) {
        let basis = u128::from(basis) % (1u128 << n);
        let direct = Tree::basis_state(n, basis);
        let explicit = Tree::from_fn(n, |b| if b == basis { Algebraic::one() } else { Algebraic::zero() });
        prop_assert_eq!(&direct, &explicit);
        prop_assert_eq!(direct.node_count(), explicit.node_count());
        let automaton = TreeAutomaton::from_tree(&direct);
        prop_assert!(automaton.accepts(&explicit));
    }
}
