//! `SparseState::from_tree` against its oracle: the state built from the
//! tree's explicit amplitude map, `from_amplitudes(tree.to_amplitude_map())`.
//!
//! The trees are DAG-shared the way witness trees are: subtrees reused
//! under several parents, all-zero subtrees, the same leaf amplitude at
//! many positions, and basis trees at the full 128-qubit index width.

use autoq_amplitude::Algebraic;
use autoq_simulator::SparseState;
use autoq_treeaut::basis;
use autoq_treeaut::Tree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A few amplitudes, zero among them, so leaves repeat.
fn leaf_pool() -> Vec<Algebraic> {
    vec![
        Algebraic::zero(),
        Algebraic::zero(),
        Algebraic::one(),
        -&Algebraic::one(),
        Algebraic::i(),
        Algebraic::one_over_sqrt2(),
        Algebraic::omega_pow(3),
    ]
}

/// The all-zero tree of height `height` whose root is labelled `top`.
fn zero_tree(top: u32, height: u32) -> Tree {
    let mut tree = Tree::leaf(Algebraic::zero());
    for var in (top..top + height).rev() {
        tree = Tree::node(var, tree.clone(), tree);
    }
    tree
}

/// A random well-formed tree over variables `top..top + height`, built
/// bottom-up from small per-layer pools of subtrees so that subtrees are
/// shared by several parents; each pool also holds the layer's all-zero
/// subtree.
fn random_shared_tree(top: u32, height: u32, rng: &mut StdRng) -> Tree {
    let leaves = leaf_pool();
    let mut pool: Vec<Tree> = (0..3)
        .map(|_| Tree::leaf(leaves[rng.gen_range(0..leaves.len())].clone()))
        .collect();
    for var in (top..top + height).rev() {
        let mut next: Vec<Tree> = (0..3)
            .map(|_| {
                let left = pool[rng.gen_range(0..pool.len())].clone();
                let right = pool[rng.gen_range(0..pool.len())].clone();
                Tree::node(var, left, right)
            })
            .collect();
        next.push(zero_tree(var, top + height - var));
        pool = next;
    }
    // Skip the all-zero entry unless it is all there is to draw.
    pool[rng.gen_range(0..pool.len() - 1)].clone()
}

/// A `width`-qubit tree whose top `width - low` layers are a single path
/// (the other child an all-zero subtree) above a random shared tree of
/// height `low`: a wide witness with a small support.
fn wide_tree(width: u32, low: u32, rng: &mut StdRng) -> Tree {
    let mut tree = random_shared_tree(width - low, low, rng);
    for var in (0..width - low).rev() {
        let zero = zero_tree(var + 1, width - var - 1);
        tree = if rng.gen_bool(0.5) {
            Tree::node(var, tree, zero)
        } else {
            Tree::node(var, zero, tree)
        };
    }
    tree
}

fn assert_converts(tree: &Tree) {
    assert!(tree.is_well_formed());
    let map = tree.to_amplitude_map();
    assert_eq!(map.len() as u128, tree.support_size());
    let state = SparseState::from_tree(tree);
    assert_eq!(
        state,
        SparseState::from_amplitudes(tree.num_qubits(), map.clone())
    );
    assert_eq!(state.num_qubits(), tree.num_qubits());
    assert_eq!(state.into_amplitude_map(), map);
}

#[test]
fn from_tree_matches_the_amplitude_map_on_shared_trees() {
    let mut rng = StdRng::seed_from_u64(160);
    for _ in 0..200 {
        let height = rng.gen_range(0..=10u32);
        let tree = random_shared_tree(0, height, &mut rng);
        assert_converts(&tree);
    }
}

#[test]
fn from_tree_matches_the_amplitude_map_on_wide_trees() {
    let mut rng = StdRng::seed_from_u64(161);
    for width in [35u32, 63, 64, 65, 70, 128] {
        for _ in 0..10 {
            let low = rng.gen_range(0..=8u32);
            assert_converts(&wide_tree(width, low, &mut rng));
        }
    }
}

#[test]
fn from_tree_of_a_128_qubit_basis_tree() {
    for b in [0, 1, 1 << 127, basis::index_mask(128) - 12345] {
        let tree = Tree::basis_state(128, b);
        assert_converts(&tree);
        assert_eq!(
            SparseState::from_tree(&tree),
            SparseState::basis_state(128, b)
        );
    }
}

#[test]
fn from_tree_of_an_all_zero_tree_is_empty() {
    for height in [0, 1, 5, 40] {
        let state = SparseState::from_tree(&zero_tree(0, height));
        assert_eq!(state.support_size(), 0);
        assert_eq!(state.num_qubits(), height);
    }
}
