//! Cross-validation of the one-walk hash-consing reduction against the
//! retained naive reference implementation
//! (`TreeAutomaton::reduce_reference`), plus regression properties:
//!
//! * on random small automata — unions of trees with injected redundancy,
//!   and layered automata with tags, dead states, ids with no transition,
//!   repeated transitions, leaves on internal states, unproductive roots,
//!   duplicated copies and *permuted* state ids and transition order, so
//!   bottom-up order is not id order — `reduce` returns exactly the
//!   reference's automaton (same states, roots and transition order), which
//!   accepts the original language;
//! * `reduce` is idempotent, to the automaton;
//! * cyclic automata (which `validate` rejects) fall back to the reference.

use std::collections::HashSet;

use autoq_amplitude::Algebraic;
use autoq_treeaut::{
    equivalence, InternalSymbol, LeafTransition, StateId, Tag, Tree, TreeAutomaton,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Builds a random small automaton: the basis states selected by `mask`
/// plus one superposition tree derived from `seed`, optionally with a
/// duplicated copy of itself unioned in (the redundancy shape the gate
/// constructions create, which reduction must collapse).
fn random_automaton(n: u32, mask: u64, seed: u32, duplicate: bool) -> TreeAutomaton {
    let space = autoq_treeaut::basis::basis_count(n);
    let mut trees: Vec<Tree> = (0..space)
        .filter(|b| mask & (1 << b) != 0)
        .map(|b| Tree::basis_state(n, b))
        .collect();
    trees.push(Tree::from_fn(n, |b| {
        Algebraic::from_int(((seed as u128 + b) % 4) as i64)
    }));
    let mut automaton = TreeAutomaton::from_trees(n, &trees);
    if duplicate {
        add_copy(&mut automaton);
    }
    automaton
}

/// Unions a disjoint copy of the automaton (states, transitions and roots)
/// into itself: every state then has a twin, and the twins merge only
/// level by level from the leaves up — a merge chain as deep as the tree.
fn add_copy(automaton: &mut TreeAutomaton) {
    let copy = automaton.clone();
    let offset = automaton.import_disjoint(&copy);
    for root in copy.roots {
        automaton.add_root(root.offset(offset));
    }
}

/// Fisher–Yates shuffle (the `rand` shim has no `shuffle`).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Renames the states by a random permutation and shuffles both
/// transition lists, so neither ids nor transition positions follow the
/// bottom-up order.
fn permuted(automaton: &TreeAutomaton, rng: &mut StdRng) -> TreeAutomaton {
    let mut perm: Vec<u32> = (0..automaton.num_states).collect();
    shuffle(&mut perm, rng);
    let rename = |q: StateId| StateId::new(perm[q.index()]);
    let mut internal = automaton.internal.clone();
    shuffle(&mut internal, rng);
    let mut leaves = automaton.leaves.clone();
    shuffle(&mut leaves, rng);
    let mut result = TreeAutomaton::new(automaton.num_vars);
    result.add_states(automaton.num_states);
    for &root in &automaton.roots {
        result.add_root(rename(root));
    }
    for t in internal {
        result.add_internal(rename(t.parent), t.symbol, rename(t.left), rename(t.right));
    }
    for t in leaves {
        result.leaves.push(LeafTransition {
            parent: rename(t.parent),
            amp: t.amp,
        });
    }
    result
}

/// A random layered automaton: a few leaf states over three amplitudes,
/// then one layer per variable whose states take one to three transitions
/// (some tagged) into the layer below.  Few distinct leaf values make many
/// states equal; optional noise adds a non-productive child, an
/// inaccessible state, a leaf on an internal state, an unproductive root,
/// repeated transitions, ids with no transition and a duplicated copy; the
/// ids are then permuted.
fn layered_automaton(seed: u64) -> TreeAutomaton {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_vars = rng.gen_range(1..=4u32);
    let mut automaton = TreeAutomaton::new(num_vars);
    let mut below: Vec<StateId> = (0..rng.gen_range(1..=4))
        .map(|_| {
            let q = automaton.add_state();
            automaton.add_leaf(q, Algebraic::from_int(rng.gen_range(0..3i64)));
            q
        })
        .collect();
    let mut internal_states = Vec::new();
    for var in (0..num_vars).rev() {
        let width = rng.gen_range(1..=4);
        let mut layer = Vec::with_capacity(width);
        for _ in 0..width {
            let q = automaton.add_state();
            for _ in 0..rng.gen_range(1..=3) {
                let tag = match rng.gen_range(0..4) {
                    0 => Tag::Single(rng.gen_range(1..=2u64) as u32),
                    _ => Tag::None,
                };
                let left = *below.choose(&mut rng).unwrap();
                let right = *below.choose(&mut rng).unwrap();
                automaton.add_internal(q, InternalSymbol::new(var).with_tag(tag), left, right);
            }
            layer.push(q);
        }
        internal_states.extend_from_slice(&layer);
        below = layer;
    }
    for &q in &below {
        if rng.gen_bool(0.7) {
            automaton.add_root(q);
        }
    }
    if rng.gen_bool(0.3) {
        // A transition into a state that derives nothing; the cycle it
        // closes through `parent` dies with it, so no fallback is needed.
        let dead = automaton.add_state();
        let parent = *below.choose(&mut rng).unwrap();
        automaton.add_internal(parent, InternalSymbol::new(0), dead, parent);
    }
    if rng.gen_bool(0.3) {
        // A productive state no root reaches.
        let orphan = automaton.add_state();
        automaton.add_leaf(orphan, Algebraic::one());
    }
    if rng.gen_bool(0.3) {
        // A state with internal transitions and a leaf, so it derives trees
        // of two heights.
        let q = *internal_states.choose(&mut rng).unwrap();
        automaton.add_leaf(q, Algebraic::from_int(rng.gen_range(0..3i64)));
    }
    if rng.gen_bool(0.3) {
        // A root that derives nothing: its one transition has a child
        // without transitions.
        let root = automaton.add_state();
        let dead = automaton.add_state();
        let left = *below.choose(&mut rng).unwrap();
        automaton.add_internal(root, InternalSymbol::new(0), left, dead);
        automaton.add_root(root);
    }
    if rng.gen_bool(0.3) {
        // Transitions listed twice, which the output lists once.
        for _ in 0..rng.gen_range(1..=3) {
            let t = automaton.internal.choose(&mut rng).unwrap().clone();
            automaton.add_internal(t.parent, t.symbol, t.left, t.right);
        }
        // `add_leaf_id` ignores a repeated leaf, so push it directly.
        let t = *automaton.leaves.choose(&mut rng).unwrap();
        automaton.leaves.push(t);
    }
    if rng.gen_bool(0.3) {
        // Ids with no transition, as the swap ladder leaves them.
        automaton.add_states(rng.gen_range(1..=6));
    }
    if rng.gen_bool(0.5) {
        add_copy(&mut automaton);
    }
    permuted(&automaton, &mut rng)
}

fn language(automaton: &TreeAutomaton) -> HashSet<Tree> {
    automaton.enumerate(100).into_iter().collect()
}

/// The properties every reduction must meet: exactly the reference's
/// automaton, the original language, valid, and a fixpoint of itself.
fn check_reduction(automaton: &TreeAutomaton) {
    let fast = automaton.reduce();
    let reference = automaton.reduce_reference();
    assert_eq!(
        fast, reference,
        "reduce differs from the reference on\n{automaton}"
    );
    assert!(equivalence(&fast, automaton).holds());
    fast.validate().unwrap();
    assert_eq!(fast.reduce(), fast, "reduce is not idempotent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn reduce_matches_reference_on_random_automata(
        n in 1u32..=3,
        mask in 0u64..256,
        seed in any::<u32>(),
        duplicate in 0u8..2,
    ) {
        let automaton = random_automaton(n, mask, seed, duplicate == 1);
        check_reduction(&automaton);
        // The language survives element for element.
        prop_assert_eq!(language(&automaton.reduce()), language(&automaton));
    }

    #[test]
    fn reduce_is_idempotent_on_random_automata(
        n in 1u32..=3,
        mask in 0u64..256,
        seed in any::<u32>(),
    ) {
        let reduced = random_automaton(n, mask, seed, true).reduce();
        prop_assert_eq!(reduced.reduce(), reduced);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn reduce_matches_reference_on_permuted_layered_automata(seed in any::<u64>()) {
        check_reduction(&layered_automaton(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]
    /// The long run of the layered property (seconds in release; run with
    /// `--include-ignored`).
    #[test]
    #[ignore]
    fn reduce_matches_reference_on_10k_permuted_layered_automata(seed in any::<u64>()) {
        check_reduction(&layered_automaton(seed));
    }
}

/// The duplicated-copy shape must collapse back to (at most) the original
/// size — the core guarantee the per-gate reduction relies on.
#[test]
fn duplicated_automaton_collapses_to_single_copy() {
    let single = random_automaton(3, 0b1010_0101, 7, false);
    let doubled = random_automaton(3, 0b1010_0101, 7, true);
    let reduced = doubled.reduce();
    assert!(reduced.state_count() <= single.reduce().state_count());
    assert!(equivalence(&reduced, &single).holds());
}

/// Two copies of a 40-level chain with shuffled ids: each level merges only
/// after the level below it did, 40 rounds deep for a round-based merge.
#[test]
fn deep_merge_chain_collapses_in_one_pass() {
    let depth = 40;
    let mut chain = TreeAutomaton::new(depth);
    let mut below = chain.add_state();
    chain.add_leaf(below, Algebraic::one());
    for var in (0..depth).rev() {
        let q = chain.add_state();
        chain.add_internal(q, InternalSymbol::new(var), below, below);
        below = q;
    }
    chain.add_root(below);
    add_copy(&mut chain);
    let automaton = permuted(&chain, &mut StdRng::seed_from_u64(40));
    check_reduction(&automaton);
    assert_eq!(automaton.reduce().state_count(), depth as usize + 1);
}

/// A cycle (`q → x0(q, leaf)` next to `q → x0(leaf, leaf)`) has no
/// bottom-up order: `reduce` falls back to the reference, and `validate`
/// refuses the automaton.
#[test]
fn cyclic_automata_fall_back_to_the_reference() {
    let mut automaton = TreeAutomaton::new(1);
    let leaf = automaton.add_state();
    automaton.add_leaf(leaf, Algebraic::one());
    let twin = automaton.add_state();
    automaton.add_leaf(twin, Algebraic::one());
    let q = automaton.add_state();
    automaton.add_internal(q, InternalSymbol::new(0), q, twin);
    automaton.add_internal(q, InternalSymbol::new(0), leaf, leaf);
    automaton.add_root(q);
    assert!(automaton.validate().is_err());
    let reduced = automaton.reduce();
    assert_eq!(reduced, automaton.reduce_reference());
    assert_eq!(reduced.state_count(), 2, "the twin leaves merge");
}
