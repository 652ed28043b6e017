//! The swap-ladder passes, the restriction and the product as they were
//! before their buffers became reusable tables: the oracle their
//! replacements are compared with, pass by pass, with `assert_eq!` on
//! random tagged automata.

use std::collections::{HashMap, HashSet};

use autoq_amplitude::hash::FixedMap;
use autoq_amplitude::intern;
use autoq_treeaut::{
    InternalSymbol, InternalTransition, LeafTransition, StateId, Tag, TransitionIndex,
    TreeAutomaton,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{project_with, single_tag, tag_in_place, Ladder, LadderState};
use crate::formula::CombineSign;
use crate::{Engine, StateSet};
use autoq_amplitude::Algebraic;
use autoq_circuit::Gate;
use autoq_treeaut::{basis, Tree};

/// The per-pass singleton-state interner, on a SipHash map keyed by the
/// whole symbol.
fn intern_pass_state(
    interned: &mut HashMap<(InternalSymbol, StateId, StateId), StateId>,
    next_state: &mut u32,
    symbol: InternalSymbol,
    left: StateId,
    right: StateId,
    new_transitions: &mut Vec<InternalTransition>,
) -> StateId {
    let key = (symbol, left, right);
    if let Some(&state) = interned.get(&key) {
        return state;
    }
    let state = StateId::new(*next_state);
    *next_state += 1;
    interned.insert(key, state);
    new_transitions.push(InternalTransition {
        parent: state,
        symbol,
        left,
        right,
    });
    state
}

/// One forward variable-order swap pass (Algorithm 7): pushes the
/// `x_qubit` layer below the `child_var` layer, remembering the
/// displaced layer's tags in a [`Tag::Pair`].  Touches exactly the two
/// active buckets.
pub(super) fn forward_pass(state: &mut LadderState, qubit: u32, child_var: u32) {
    let uppers = std::mem::take(&mut state.layers[qubit as usize]);
    let children = std::mem::take(&mut state.layers[child_var as usize]);
    let mut interned: HashMap<(InternalSymbol, StateId, StateId), StateId> = HashMap::new();

    // Child adjacency within the active child layer.
    let mut by_parent: HashMap<StateId, Vec<u32>> = HashMap::with_capacity(children.len());
    for (position, t) in children.iter().enumerate() {
        by_parent.entry(t.parent).or_default().push(position as u32);
    }

    let mut removed_child = vec![false; children.len()];
    let mut new_qubit: Vec<InternalTransition> = Vec::new();
    let mut new_pairs: Vec<InternalTransition> = Vec::new();
    let mut kept_uppers: Vec<InternalTransition> = Vec::new();

    for upper in uppers {
        let (Some(left_children), Some(right_children)) =
            (by_parent.get(&upper.left), by_parent.get(&upper.right))
        else {
            kept_uppers.push(upper);
            continue;
        };
        for &li in left_children {
            for &ri in right_children {
                let left_t = &children[li as usize];
                let right_t = &children[ri as usize];
                removed_child[li as usize] = true;
                removed_child[ri as usize] = true;
                let tag_left = single_tag(left_t.symbol.tag);
                let tag_right = single_tag(right_t.symbol.tag);
                let new_upper_symbol =
                    InternalSymbol::new(left_t.symbol.var).with_tag(Tag::Pair(tag_left, tag_right));
                // q'_0 generates x_t^h(q00, q10); q'_1 generates
                // x_t^h(q01, q11).
                let lower_symbol = upper.symbol;
                let q0 = intern_pass_state(
                    &mut interned,
                    &mut state.num_states,
                    lower_symbol,
                    left_t.left,
                    right_t.left,
                    &mut new_qubit,
                );
                let q1 = intern_pass_state(
                    &mut interned,
                    &mut state.num_states,
                    lower_symbol,
                    left_t.right,
                    right_t.right,
                    &mut new_qubit,
                );
                new_pairs.push(InternalTransition {
                    parent: upper.parent,
                    symbol: new_upper_symbol,
                    left: q0,
                    right: q1,
                });
            }
        }
    }

    assemble_layer(
        &mut state.layers[qubit as usize],
        kept_uppers,
        None,
        new_qubit,
    );
    assemble_layer(
        &mut state.layers[child_var as usize],
        children,
        Some(&removed_child),
        new_pairs,
    );
}

/// One backward variable-order swap pass (Algorithm 8): restores the
/// displaced `upper_var` layer (remembered in [`Tag::Pair`] tags)
/// sitting directly above the qubit\u2019s current position.
pub(super) fn backward_pass(state: &mut LadderState, qubit: u32, upper_var: u32) {
    let uppers = std::mem::take(&mut state.layers[upper_var as usize]);
    let children = std::mem::take(&mut state.layers[qubit as usize]);
    let mut interned: HashMap<(InternalSymbol, StateId, StateId), StateId> = HashMap::new();

    // A matching pair needs the left and right child transitions to
    // carry the *same* tagged symbol, so pairs are found by hash join
    // on (parent, symbol) instead of a quadratic |left| × |right| scan.
    let mut by_parent: HashMap<StateId, Vec<u32>> = HashMap::with_capacity(children.len());
    let mut by_parent_symbol: HashMap<(StateId, InternalSymbol), Vec<u32>> =
        HashMap::with_capacity(children.len());
    for (position, t) in children.iter().enumerate() {
        by_parent.entry(t.parent).or_default().push(position as u32);
        by_parent_symbol
            .entry((t.parent, t.symbol))
            .or_default()
            .push(position as u32);
    }

    let mut removed_child = vec![false; children.len()];
    let mut new_restored: Vec<InternalTransition> = Vec::new();
    let mut new_lower: Vec<InternalTransition> = Vec::new();
    let mut kept_uppers: Vec<InternalTransition> = Vec::new();

    for upper in uppers {
        // Only rewrite the Pair-tagged transitions; restored (Single)
        // transitions of this variable are carried.
        let (tag_left, tag_right) = match upper.symbol.tag {
            Tag::Pair(i, j) => (i, j),
            _ => {
                kept_uppers.push(upper);
                continue;
            }
        };
        let mut handled = false;
        if let Some(left_children) = by_parent.get(&upper.left) {
            for &li in left_children {
                let left_t = &children[li as usize];
                let Some(right_matches) = by_parent_symbol.get(&(upper.right, left_t.symbol))
                else {
                    continue;
                };
                for &ri in right_matches {
                    let left_t = &children[li as usize];
                    let right_t = &children[ri as usize];
                    handled = true;
                    removed_child[li as usize] = true;
                    removed_child[ri as usize] = true;
                    let restored_left_symbol =
                        InternalSymbol::new(upper.symbol.var).with_tag(Tag::Single(tag_left));
                    let restored_right_symbol =
                        InternalSymbol::new(upper.symbol.var).with_tag(Tag::Single(tag_right));
                    let lower_symbol = left_t.symbol;
                    // q''_0 generates x_l^i(q00, q01); q''_1 generates
                    // x_l^j(q10, q11).
                    let q0 = intern_pass_state(
                        &mut interned,
                        &mut state.num_states,
                        restored_left_symbol,
                        left_t.left,
                        right_t.left,
                        &mut new_restored,
                    );
                    let q1 = intern_pass_state(
                        &mut interned,
                        &mut state.num_states,
                        restored_right_symbol,
                        left_t.right,
                        right_t.right,
                        &mut new_restored,
                    );
                    new_lower.push(InternalTransition {
                        parent: upper.parent,
                        symbol: lower_symbol,
                        left: q0,
                        right: q1,
                    });
                }
            }
        }
        if !handled {
            kept_uppers.push(upper);
        }
    }

    assemble_layer(
        &mut state.layers[upper_var as usize],
        kept_uppers,
        None,
        new_restored,
    );
    assemble_layer(
        &mut state.layers[qubit as usize],
        children,
        Some(&removed_child),
        new_lower,
    );
}

/// Rebuilds one active layer bucket from its carried transitions (minus the
/// removed ones) plus the pass's new transitions, deduped with an
/// integer-key set as they are emitted.  Untouched buckets are never
/// rebuilt, and leaves are never visited — the bigint-cloning leaf dedup of
/// [`TreeAutomaton::dedup_transitions`] is skipped entirely.
fn assemble_layer(
    bucket: &mut Vec<InternalTransition>,
    carried: Vec<InternalTransition>,
    removed: Option<&[bool]>,
    new_transitions: Vec<InternalTransition>,
) {
    let mut seen: HashSet<(StateId, InternalSymbol, StateId, StateId)> =
        HashSet::with_capacity(carried.len() + new_transitions.len());
    bucket.reserve(carried.len() + new_transitions.len());
    for (position, t) in carried.into_iter().enumerate() {
        if removed.is_some_and(|flags| flags[position]) {
            continue;
        }
        if seen.insert((t.parent, t.symbol, t.left, t.right)) {
            bucket.push(t);
        }
    }
    for t in new_transitions {
        if seen.insert((t.parent, t.symbol, t.left, t.right)) {
            bucket.push(t);
        }
    }
}

/// `restrict_in_place` as it was, on the full adjacency index.
///
/// Only the states actually reachable from the redirected children are
/// imported as the primed zeroed copy (structure and tags identical on that
/// region), and all zeroed *leaf* states collapse into one — the old
/// whole-automaton import left the unreachable majority of the copy behind
/// as dead weight that every later pass still iterated.
pub(super) fn restrict_in_place(automaton: &mut TreeAutomaton, qubit: u32, bit: bool) {
    // The children that will be redirected into the zeroed copy.  When no
    // transition branches on `qubit` the restriction is the identity; skip
    // the import (and the index build) entirely.
    let seeds: Vec<StateId> = automaton
        .internal
        .iter()
        .filter(|t| t.symbol.var == qubit)
        .map(|t| if bit { t.left } else { t.right })
        .collect();
    if seeds.is_empty() {
        return;
    }
    let index = TransitionIndex::build(automaton);
    let n = automaton.num_states as usize;
    // Downward closure of the seeds: the only part of the zeroed copy the
    // redirected transitions can reach.
    let mut needed = vec![false; n];
    let mut worklist: Vec<StateId> = Vec::new();
    for seed in seeds {
        if !needed[seed.index()] {
            needed[seed.index()] = true;
            worklist.push(seed);
        }
    }
    while let Some(state) = worklist.pop() {
        for &position in index.internal_of(state) {
            let t = &automaton.internal[position as usize];
            for child in [t.left, t.right] {
                if !needed[child.index()] {
                    needed[child.index()] = true;
                    worklist.push(child);
                }
            }
        }
    }
    // Allocate the zeroed region: leaf-only states all carry the same
    // zeroed value, so they share a single state; states with internal
    // transitions (and dead states, which must stay dead) map individually.
    let mut mapping: Vec<Option<StateId>> = vec![None; n];
    let mut next_state = automaton.num_states;
    let mut zero_state: Option<StateId> = None;
    for q in 0..n {
        if !needed[q] {
            continue;
        }
        let state = StateId::new(q as u32);
        let leaf_only = index.internal_of(state).is_empty() && !index.leaves_of(state).is_empty();
        if leaf_only {
            if zero_state.is_none() {
                zero_state = Some(StateId::new(next_state));
                next_state += 1;
            }
            mapping[q] = zero_state;
        } else {
            mapping[q] = Some(StateId::new(next_state));
            next_state += 1;
        }
    }
    // Emit the zeroed region's transitions.
    let mut new_internal: Vec<InternalTransition> = Vec::new();
    let mut new_leaves: Vec<LeafTransition> = Vec::new();
    if let Some(zero) = zero_state {
        new_leaves.push(LeafTransition {
            parent: zero,
            amp: intern::zero_id(),
        });
    }
    for q in 0..n {
        if !needed[q] {
            continue;
        }
        let state = StateId::new(q as u32);
        let mapped = mapping[q].expect("needed states are mapped");
        for &position in index.internal_of(state) {
            let t = &automaton.internal[position as usize];
            new_internal.push(InternalTransition {
                parent: mapped,
                symbol: t.symbol,
                left: mapping[t.left.index()].expect("children of needed states are needed"),
                right: mapping[t.right.index()].expect("children of needed states are needed"),
            });
        }
        // A state with internal transitions *and* a leaf keeps a zeroed
        // leaf of its own (leaf-only states were collapsed above).
        if Some(mapped) != zero_state && !index.leaves_of(state).is_empty() {
            new_leaves.push(LeafTransition {
                parent: mapped,
                amp: intern::zero_id(),
            });
        }
    }
    // Splice the region in and redirect the restricted branch.
    let original_count = automaton.internal.len();
    automaton.num_states = next_state;
    automaton.internal.extend(new_internal);
    automaton.leaves.extend(new_leaves);
    for transition in automaton.internal.iter_mut().take(original_count) {
        if transition.symbol.var == qubit {
            if bit {
                // keep x_t = 1, zero the left (x_t = 0) subtree
                transition.left =
                    mapping[transition.left.index()].expect("redirected child is a seed");
            } else {
                transition.right =
                    mapping[transition.right.index()].expect("redirected child is a seed");
            }
        }
    }
}

/// `pair_product` as it was: the top-down worklist of `binary_op`: the product over every pair
/// reachable from the root pairs, and whether some pair got no transition.
/// The operands are acyclic, so every pair that accepts no tree reaches
/// such a dead pair: with the flag clear the product is already trimmed.
pub(super) fn pair_product(
    a1: &TreeAutomaton,
    a2: &TreeAutomaton,
    sign: CombineSign,
) -> (TreeAutomaton, bool) {
    let index1 = TransitionIndex::build(a1);
    let index2 = TransitionIndex::build(a2);
    let leaf_op = super::leaf_op(sign);
    let mut result = TreeAutomaton::new(a1.num_vars);
    let mut pair_state: FixedMap<(StateId, StateId), StateId> = FixedMap::default();
    let mut worklist: Vec<(StateId, StateId, StateId)> = Vec::new();
    let mut get_state = |result: &mut TreeAutomaton,
                         worklist: &mut Vec<(StateId, StateId, StateId)>,
                         q1: StateId,
                         q2: StateId| {
        *pair_state.entry((q1, q2)).or_insert_with(|| {
            let state = result.add_state();
            worklist.push((q1, q2, state));
            state
        })
    };

    for &r1 in &a1.roots {
        for &r2 in &a2.roots {
            let state = get_state(&mut result, &mut worklist, r1, r2);
            result.add_root(state);
        }
    }

    let mut dead = false;
    while let Some((q1, q2, parent)) = worklist.pop() {
        let mut emitted = false;
        for &i1 in index1.internal_of(q1) {
            let t1 = &a1.internal[i1 as usize];
            for &i2 in index2.internal_of(q2) {
                let t2 = &a2.internal[i2 as usize];
                if t1.symbol != t2.symbol {
                    continue;
                }
                let left = get_state(&mut result, &mut worklist, t1.left, t2.left);
                let right = get_state(&mut result, &mut worklist, t1.right, t2.right);
                result.add_internal(parent, t1.symbol, left, right);
                emitted = true;
            }
        }
        // Leaf combination — pure id arithmetic: the sum/difference of two
        // interned amplitudes is memoised process-wide.
        let leaf1 = index1.leaves_of(q1).first();
        let leaf2 = index2.leaves_of(q2).first();
        if let (Some(&leaf1), Some(&leaf2)) = (leaf1, leaf2) {
            let v1 = a1.leaves[leaf1 as usize].amp;
            let v2 = a2.leaves[leaf2 as usize].amp;
            result.add_leaf_id(parent, intern::combine(leaf_op, v1, v2));
            emitted = true;
        }
        dead |= !emitted;
    }
    (result, dead)
}

/// A random tagged automaton in one of the shapes of the
/// `composition_equivalence` suite — basis states next to a superposed
/// tree, a hunt input pattern, or such a pattern after a Hadamard — with
/// noise on top: repeated transitions, ids with no transition (some of
/// them children) and `Tag::Pair` tags.  One in ten is left untagged.
fn random_input(rng: &mut StdRng) -> TreeAutomaton {
    let n: u32 = rng.gen_range(2..=5);
    let space = basis::basis_count(n) as u64;
    let shape: u8 = rng.gen_range(0..3);
    let automaton = if shape == 0 {
        let mask: u64 = rng.gen();
        let seed: u32 = rng.gen();
        let mut trees: Vec<Tree> = (0..space)
            .filter(|b| mask >> (b % 64) & 1 == 1)
            .map(|b| Tree::basis_state(n, u128::from(b)))
            .collect();
        trees.push(Tree::from_fn(n, |b| {
            Algebraic::from_int(((u128::from(seed) + b) % 4) as i64)
        }));
        TreeAutomaton::from_trees(n, &trees)
    } else {
        let free: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.5)).collect();
        let free_bits: u128 = free.iter().map(|&q| basis::qubit_bit(n, q)).sum();
        let fixed = u128::from(rng.gen_range(0..space)) & !free_bits;
        let set = StateSet::basis_pattern(n, fixed, &free);
        if shape == 1 {
            set.automaton().clone()
        } else {
            let h = Gate::H(rng.gen_range(0..n));
            Engine::composition()
                .apply_gate(&set, &h)
                .automaton()
                .clone()
        }
    };
    let mut automaton = automaton;
    if rng.gen_bool(0.9) {
        tag_in_place(&mut automaton);
    }
    let transitions = automaton.internal.len();
    if transitions == 0 {
        return automaton;
    }
    if rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1..=3) {
            let t = automaton.internal[rng.gen_range(0..transitions)].clone();
            let at = rng.gen_range(0..=automaton.internal.len());
            automaton.internal.insert(at, t);
        }
    }
    if rng.gen_bool(0.3) {
        for _ in 0..rng.gen_range(1..=3) {
            let dead = automaton.add_state();
            if rng.gen_bool(0.5) {
                let mut t = automaton.internal[rng.gen_range(0..transitions)].clone();
                if rng.gen_bool(0.5) {
                    t.left = dead;
                } else {
                    t.right = dead;
                }
                automaton.internal.push(t);
            }
        }
    }
    if rng.gen_bool(0.3) {
        for t in automaton.internal.iter_mut() {
            if rng.gen_bool(0.3) {
                // Drawn as `u64`, so the cases stay those drawn before tags
                // became `u32`.
                let tag = Tag::Pair(
                    rng.gen_range(1..1u64 << 20) as u32,
                    rng.gen_range(1..1u64 << 20) as u32,
                );
                t.symbol = t.symbol.with_tag(tag);
            }
        }
    }
    automaton
}

/// The largest product of the operands' transition counts whose product
/// [`check_case`] builds.
const PRODUCT_LIMIT: usize = 1 << 20;

/// Runs one projection ladder of a random input with the passes under
/// test and with the oracle's side by side, comparing the two ladder
/// states after every pass, then a few passes outside the ladder's order;
/// then compares the product and the restriction with the oracle's on the
/// input and its two projections.
fn check_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input = random_input(&mut rng);
    let bottom = input.num_vars - 1;
    let qubit = rng.gen_range(0..bottom);
    let bit = rng.gen_bool(0.5);
    let swaps = bottom - qubit;
    let context = format!("seed {seed}, qubit {qubit}");
    let mut new = LadderState::from_automaton(&input);
    let mut old = new.clone();
    let mut ladder = Ladder::default();
    for k in 1..=swaps {
        ladder.forward_pass(&mut new, qubit, qubit + k);
        forward_pass(&mut old, qubit, qubit + k);
        assert_eq!(new, old, "{context}, forward pass {k}");
    }
    new.subtree_copy(qubit, bit);
    old.subtree_copy(qubit, bit);
    let mut ladder = Ladder::default();
    for k in 1..=swaps {
        ladder.backward_pass(&mut new, qubit, bottom - k + 1);
        backward_pass(&mut old, qubit, bottom - k + 1);
        assert_eq!(new, old, "{context}, backward pass {k}");
    }
    for extra in 0..3 {
        let upper = rng.gen_range(0..bottom);
        let lower = rng.gen_range(upper + 1..=bottom);
        if rng.gen_bool(0.5) {
            ladder.forward_pass(&mut new, upper, lower);
            forward_pass(&mut old, upper, lower);
        } else {
            ladder.backward_pass(&mut new, lower, upper);
            backward_pass(&mut old, lower, upper);
        }
        assert_eq!(new, old, "{context}, extra pass {extra}");
    }

    let projections = [false, true].map(|bit| project_with(&input, qubit, bit));
    let operands = [&input, &projections[0], &projections[1]];
    for (a, b) in [(0, 1), (1, 2), (2, 0), (1, 1)] {
        // A noisy input's projection can reach tens of thousands of
        // transitions, and the product of two such grows with the product
        // of their sizes.
        if operands[a].transition_count() * operands[b].transition_count() > PRODUCT_LIMIT {
            continue;
        }
        for sign in [CombineSign::Plus, CombineSign::Minus] {
            assert_eq!(
                super::pair_product(operands[a], operands[b], sign),
                pair_product(operands[a], operands[b], sign),
                "{context}, product of operands {a} and {b}"
            );
        }
    }
    for (index, operand) in operands.into_iter().enumerate() {
        for restricted in 0..=bottom {
            for bit in [false, true] {
                let mut new = operand.clone();
                let mut old = operand.clone();
                super::restrict_in_place(&mut new, restricted, bit);
                restrict_in_place(&mut old, restricted, bit);
                assert_eq!(new, old, "{context}, restriction of operand {index}");
            }
        }
    }
}

#[test]
fn ladder_passes_product_and_restriction_match_the_oracle() {
    for seed in 0..200 {
        check_case(seed);
    }
}

/// The 5,000-case run (release builds: `cargo test --release -p autoq-core
/// --lib -- --include-ignored`).
#[test]
#[ignore]
fn ladder_passes_product_and_restriction_match_the_oracle_on_five_thousand_cases() {
    for seed in 10_000..15_000 {
        check_case(seed);
    }
}
