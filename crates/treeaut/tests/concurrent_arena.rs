//! Trees built concurrently (`docs/CONCURRENCY.md` §1):
//!
//! * many threads building the same structure at once get trees that are
//!   structurally equal, hash alike and have the same node count,
//! * concurrent construction of *distinct* structures keeps them distinct.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Barrier;

use autoq_amplitude::Algebraic;
use autoq_treeaut::Tree;
use proptest::prelude::*;

const THREADS: usize = 8;

/// Builds the deterministic test tree for `(qubits, basis, phase)`: a basis
/// state scaled by one of a few exact amplitudes, so distinct parameters give
/// structurally distinct trees.
fn build_tree(qubits: u32, basis: u128, phase: u8) -> Tree {
    let amplitude = match phase % 3 {
        0 => Algebraic::one(),
        1 => Algebraic::one_over_sqrt2(),
        _ => Algebraic::one_over_sqrt2().scale_int(-1),
    };
    Tree::from_fn(qubits, |b| {
        if b == basis {
            amplitude.clone()
        } else {
            Algebraic::zero()
        }
    })
}

/// Races all `THREADS` threads through a barrier into the same construction
/// and returns each thread's tree.
fn race(build: impl Fn() -> Tree + Sync) -> Vec<Tree> {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    build()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("building thread panicked"))
            .collect()
    })
}

/// Every tree equals `expected`, hashes like it and has its node count.
fn all_equal(trees: &[Tree], expected: &Tree) -> bool {
    let hasher = RandomState::new();
    trees.iter().all(|tree| {
        tree == expected
            && hasher.hash_one(tree) == hasher.hash_one(expected)
            && tree.node_count() == expected.node_count()
    })
}

#[test]
fn eight_threads_building_one_structure_build_equal_trees() {
    let trees = race(|| build_tree(10, 0b1011001, 1));
    // Equal to each other and to a later sequential construction.
    assert!(all_equal(&trees, &trees[0]), "trees diverged: {trees:?}");
    assert!(all_equal(&trees, &build_tree(10, 0b1011001, 1)));
}

#[test]
fn concurrent_distinct_structures_stay_distinct() {
    // Every thread builds its own basis state; the trees must be pairwise
    // different and each must equal a sequential re-construction.
    let trees: Vec<(u128, Tree)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS as u128)
            .map(|basis| scope.spawn(move || (basis, Tree::basis_state(8, basis))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("building thread panicked"))
            .collect()
    });
    for (i, (basis, tree)) in trees.iter().enumerate() {
        assert_eq!(*tree, Tree::basis_state(8, *basis));
        for (other_basis, other) in &trees[i + 1..] {
            assert_ne!(tree, other, "|{basis}⟩ and |{other_basis}⟩ collided");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Construction is race-free: for an arbitrary (qubits, basis, phase)
    /// triple, 8 threads building the structure concurrently all get equal
    /// trees.
    #[test]
    fn concurrent_interning_is_deterministic(
        qubits in 1u32..9,
        basis_seed in any::<u128>(),
        phase in 0u8..3,
    ) {
        let basis = basis_seed & ((1u128 << qubits) - 1);
        let trees = race(|| build_tree(qubits, basis, phase));
        prop_assert!(all_equal(&trees, &build_tree(qubits, basis, phase)), "trees diverged: {trees:?}");
    }
}
