//! Size reduction of tree automata.
//!
//! Two reductions are provided, matching the AutoQ paper:
//!
//! * **Trimming** — removing states that are not *productive* (cannot derive
//!   any tree) or not *accessible* (cannot be reached top-down from a root).
//! * **Successor merging** — the paper's lightweight simulation-based
//!   reduction (footnote 6): states with exactly the same outgoing
//!   transitions generate the same tree language, so they can be merged; the
//!   merge is iterated to a fixpoint.
//!
//! Both run after every gate of the engine's hot loop, so they are built for
//! speed.  Trimming is two worklist passes over the adjacency index
//! (O(states + transitions)).  Merging exploits that every automaton here is
//! acyclic: one iterative post-order walk from the roots, over the
//! parent-keyed tables only, closes each state after its children and gives
//! it a class there — unproductive if no transition has two productive
//! children and it has no leaf, else the class of its sorted,
//! deduplicated `(symbol, left-class, right-class)` tuples and leaf
//! amplitude ids.  The children's classes are final by then, so this one
//! walk reaches the merge fixpoint directly.  The keys are built in two
//! reused buffers and interned into one flat tuple pool and one flat
//! amplitude pool, so the walk allocates nothing per state, and ids no root
//! reaches (the swap ladder leaves many) are never visited.  Trim's
//! top-down accessibility pass runs only if some visited state turned out
//! unproductive.  The output numbers each class at its smallest live member
//! and keeps the transitions in input order, the first of any duplicates:
//! a class key lists its class's distinct transitions, so a transition is
//! kept only if its slot in the key is not yet taken.
//!
//! A walk that meets a cycle through transitions with two productive
//! children (never produced by this crate or `autoq-core`, and rejected by
//! [`TreeAutomaton::validate`]) falls back to the deliberately naive
//! [`TreeAutomaton::reduce_reference`], which is also the property tests'
//! oracle for the fast path.  A cycle closed through a dead child is no
//! cycle of the trimmed automaton, and stays on the fast path.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use autoq_amplitude::hash::{FixedHasher, FixedMap};
use autoq_amplitude::{resolve, Algebraic};

use crate::{
    InternalSymbol, InternalTransition, LeafTransition, StateId, TransitionIndex, TreeAutomaton,
};

/// State-map entry of a state the rewrite drops.
const DROPPED: u32 = u32::MAX;

/// `reduce`'s class of a state the walk has not reached (or that is not
/// live).  Every value below [`UNPRODUCTIVE`] is a class.
const UNSEEN: u32 = u32::MAX;
/// Class of a state on the walk's stack.
const OPEN: u32 = u32::MAX - 1;
/// Class of a closed state that derives no tree.
const UNPRODUCTIVE: u32 = u32::MAX - 2;

/// The hash-cons table of `reduce`'s classes.  Class `c`'s key is
/// `tuples[starts[c].0..starts[c + 1].0]` and `amps[starts[c].1..starts[c +
/// 1].1]`, both sorted and deduplicated.
#[derive(Default)]
struct Classes {
    tuples: Vec<(InternalSymbol, u32, u32)>,
    amps: Vec<u32>,
    starts: Vec<(usize, usize)>,
    /// The newest class with each key hash; `older[c]` is the next older
    /// class with `c`'s hash, or `DROPPED`.
    newest: FixedMap<u64, u32>,
    older: Vec<u32>,
    /// The key being built, reused for every state.
    key_tuples: Vec<(InternalSymbol, u32, u32)>,
    key_amps: Vec<u32>,
}

impl Classes {
    /// Class `class`'s key: its ranges in `tuples` and in `amps`.
    fn key(&self, class: u32) -> (Range<usize>, Range<usize>) {
        let (start, end) = (self.starts[class as usize], self.starts[class as usize + 1]);
        (start.0..end.0, start.1..end.1)
    }

    /// The class of the key in `key_tuples`/`key_amps`, new if no class has
    /// that key yet.
    fn intern_key(&mut self) -> u32 {
        self.key_tuples.sort_unstable();
        self.key_tuples.dedup();
        self.key_amps.sort_unstable();
        self.key_amps.dedup();
        let mut hasher = FixedHasher::default();
        self.key_tuples.hash(&mut hasher);
        self.key_amps.hash(&mut hasher);
        let hash = hasher.finish();
        let newest = self.newest.get(&hash).copied().unwrap_or(DROPPED);
        let mut class = newest;
        while class != DROPPED {
            let (tuples, amps) = self.key(class);
            if self.tuples[tuples] == self.key_tuples[..] && self.amps[amps] == self.key_amps[..] {
                return class;
            }
            class = self.older[class as usize];
        }
        let class = self.older.len() as u32;
        self.older.push(newest);
        self.newest.insert(hash, class);
        self.tuples.extend_from_slice(&self.key_tuples);
        self.amps.extend_from_slice(&self.key_amps);
        self.starts.push((self.tuples.len(), self.amps.len()));
        class
    }
}

impl TreeAutomaton {
    /// Removes useless states and transitions (non-productive or
    /// inaccessible) and renumbers the remaining states densely.
    pub fn trim(&self) -> TreeAutomaton {
        let live = self.live_states(&TransitionIndex::build(self));
        let mut count = 0;
        let map: Vec<u32> = live
            .iter()
            .map(|&live| {
                if !live {
                    return DROPPED;
                }
                count += 1;
                count - 1
            })
            .collect();
        self.rewrite(&map, count)
    }

    /// The paper's lightweight reduction: trim, then merge states that have
    /// exactly the same outgoing transitions ("the same successors") up to
    /// the fixpoint, which is a sound under-approximation of bottom-up
    /// bisimulation.
    pub fn reduce(&self) -> TreeAutomaton {
        let reduced = self
            .reduce_fast()
            .unwrap_or_else(|| self.reduce_reference());
        // Trimming drops every dead state and repeated transition, in
        // O(states + transitions), so a reduced automaton is its own trim.
        debug_assert!(
            reduced.trim() == reduced,
            "reduce left a dead state or a repeated transition"
        );
        reduced
    }

    /// The one-walk reduction of the [module docs](self); `None` if the walk
    /// meets a cycle through transitions with two productive children.
    fn reduce_fast(&self) -> Option<TreeAutomaton> {
        let index = TransitionIndex::by_parent(self);
        let mut class = vec![UNSEEN; self.num_states as usize];
        let mut classes = Classes {
            starts: vec![(0, 0)],
            newest: FixedMap::with_capacity_and_hasher(
                self.internal.len() + self.leaves.len(),
                Default::default(),
            ),
            ..Classes::default()
        };
        // Post-order walk; a stack entry is a state and its next child slot
        // (two per transition).  A child found open closes a cycle: its
        // transition is kept in `back_edges` and sees that child as
        // unproductive, which is exact unless both its children end up
        // productive.
        let mut stack: Vec<(StateId, usize)> = Vec::new();
        let mut back_edges: Vec<u32> = Vec::new();
        let mut some_unproductive = false;
        for &root in &self.roots {
            if class[root.index()] != UNSEEN {
                continue;
            }
            class[root.index()] = OPEN;
            stack.push((root, 0));
            while let Some(&mut (q, ref mut slot)) = stack.last_mut() {
                let positions = index.internal_of(q);
                if let Some(&position) = positions.get(*slot / 2) {
                    let t = &self.internal[position as usize];
                    let child = if *slot % 2 == 0 { t.left } else { t.right };
                    *slot += 1;
                    match class[child.index()] {
                        UNSEEN => {
                            class[child.index()] = OPEN;
                            stack.push((child, 0));
                        }
                        OPEN => back_edges.push(position),
                        _ => {}
                    }
                    continue;
                }
                stack.pop();
                classes.key_tuples.clear();
                for &position in positions {
                    let t = &self.internal[position as usize];
                    let (left, right) = (class[t.left.index()], class[t.right.index()]);
                    if left < UNPRODUCTIVE && right < UNPRODUCTIVE {
                        classes.key_tuples.push((t.symbol, left, right));
                    }
                }
                classes.key_amps.clear();
                classes.key_amps.extend(
                    index
                        .leaves_of(q)
                        .iter()
                        .map(|&position| self.leaves[position as usize].amp.raw()),
                );
                class[q.index()] = if classes.key_tuples.is_empty() && classes.key_amps.is_empty() {
                    some_unproductive = true;
                    UNPRODUCTIVE
                } else {
                    classes.intern_key()
                };
            }
        }
        let productive = |q: StateId| class[q.index()] < UNPRODUCTIVE;
        if back_edges.iter().any(|&position| {
            let t = &self.internal[position as usize];
            productive(t.left) && productive(t.right)
        }) {
            return None;
        }
        // With every visited state productive, every visited state is live.
        let live = some_unproductive.then(|| self.accessible(&index, productive));
        // Number each class at its smallest live member; forget the rest.
        let mut number = vec![DROPPED; classes.older.len()];
        let mut count = 0;
        for (q, c) in class.iter_mut().enumerate() {
            if live.as_ref().is_some_and(|live| !live[q]) {
                *c = UNSEEN;
            }
            if *c < UNPRODUCTIVE && number[*c as usize] == DROPPED {
                number[*c as usize] = count;
                count += 1;
            }
        }
        let mut result = TreeAutomaton::new(self.num_vars);
        result.num_states = count;
        let output = |c: u32| StateId::new(number[c as usize]);
        result.roots = self
            .roots
            .iter()
            .map(|root| class[root.index()])
            .filter(|&c| c < UNPRODUCTIVE)
            .map(output)
            .collect();
        // A transition between live states is in its parent's class key;
        // the first transition to reach a key slot takes it.
        let mut taken = vec![false; classes.tuples.len()];
        for t in &self.internal {
            let (parent, left, right) = (
                class[t.parent.index()],
                class[t.left.index()],
                class[t.right.index()],
            );
            if parent < UNPRODUCTIVE && left < UNPRODUCTIVE && right < UNPRODUCTIVE {
                let (key, _) = classes.key(parent);
                let slot = key.start
                    + classes.tuples[key]
                        .binary_search(&(t.symbol, left, right))
                        .expect("a live transition is in its class key");
                if !std::mem::replace(&mut taken[slot], true) {
                    result.internal.push(InternalTransition {
                        parent: output(parent),
                        symbol: t.symbol,
                        left: output(left),
                        right: output(right),
                    });
                }
            }
        }
        let mut taken = vec![false; classes.amps.len()];
        for t in &self.leaves {
            let parent = class[t.parent.index()];
            if parent < UNPRODUCTIVE {
                let (_, key) = classes.key(parent);
                let slot = key.start
                    + classes.amps[key]
                        .binary_search(&t.amp.raw())
                        .expect("a live leaf is in its class key");
                if !std::mem::replace(&mut taken[slot], true) {
                    result.leaves.push(LeafTransition {
                        parent: output(parent),
                        amp: t.amp,
                    });
                }
            }
        }
        Some(result)
    }

    /// Marks the live states: productive (some tree derives from them) and
    /// accessible.
    fn live_states(&self, index: &TransitionIndex) -> Vec<bool> {
        // Productive states: worklist from the leaves upwards.  `need`
        // counts the not-yet-productive child slots of each transition; a
        // transition fires (marks its parent productive) at zero.
        let mut productive = vec![false; self.num_states as usize];
        let mut need: Vec<u8> = vec![2; self.internal.len()];
        let mut worklist: Vec<StateId> = Vec::new();
        for t in &self.leaves {
            if !productive[t.parent.index()] {
                productive[t.parent.index()] = true;
                worklist.push(t.parent);
            }
        }
        while let Some(state) = worklist.pop() {
            for &position in index.occurrences_as_child(state) {
                need[position as usize] -= 1;
                if need[position as usize] == 0 {
                    let parent = self.internal[position as usize].parent;
                    if !productive[parent.index()] {
                        productive[parent.index()] = true;
                        worklist.push(parent);
                    }
                }
            }
        }
        self.accessible(index, |q| productive[q.index()])
    }

    /// Marks the states reachable from a productive root through
    /// transitions whose children are all productive.  Every such state is
    /// productive, so given the productive states this marks exactly the
    /// live ones.  Reads only the parent-keyed table of `index`.
    fn accessible(
        &self,
        index: &TransitionIndex,
        productive: impl Fn(StateId) -> bool,
    ) -> Vec<bool> {
        let mut accessible = vec![false; self.num_states as usize];
        let mut worklist: Vec<StateId> = Vec::new();
        for &root in &self.roots {
            if productive(root) && !accessible[root.index()] {
                accessible[root.index()] = true;
                worklist.push(root);
            }
        }
        while let Some(state) = worklist.pop() {
            for &position in index.internal_of(state) {
                let t = &self.internal[position as usize];
                if productive(t.left) && productive(t.right) {
                    for child in [t.left, t.right] {
                        if !accessible[child.index()] {
                            accessible[child.index()] = true;
                            worklist.push(child);
                        }
                    }
                }
            }
        }
        accessible
    }

    /// Rewrites the automaton under a state map (`DROPPED` drops a state
    /// and every transition touching it) onto `num_states` states, keeping
    /// the transition order and the first of any duplicates.
    fn rewrite(&self, map: &[u32], num_states: u32) -> TreeAutomaton {
        let get = |s: StateId| (map[s.index()] != DROPPED).then(|| StateId::new(map[s.index()]));
        let mut result = TreeAutomaton::new(self.num_vars);
        result.num_states = num_states;
        result.roots = self.roots.iter().filter_map(|&root| get(root)).collect();
        result.internal = self
            .internal
            .iter()
            .filter_map(|t| {
                Some(InternalTransition {
                    parent: get(t.parent)?,
                    symbol: t.symbol,
                    left: get(t.left)?,
                    right: get(t.right)?,
                })
            })
            .collect();
        result.leaves = self
            .leaves
            .iter()
            .filter_map(|t| {
                Some(LeafTransition {
                    parent: get(t.parent)?,
                    amp: t.amp,
                })
            })
            .collect();
        result.dedup_transitions();
        result
    }

    /// A deliberately naive reduction kept as a cross-validation oracle for
    /// [`TreeAutomaton::reduce`]: same trim-then-merge-to-fixpoint semantics,
    /// but each merge round rebuilds every state's signature from scratch as
    /// an explicit (sorted, via the structural `Ord` on `Algebraic`) list of
    /// outgoing transitions and compares them structurally.  Quadratic and allocation-heavy — use only in tests.
    #[doc(hidden)]
    pub fn reduce_reference(&self) -> TreeAutomaton {
        let mut current = self.trim();
        loop {
            let (merged, changed) = current.merge_identical_states_reference();
            current = merged;
            if !changed {
                return current;
            }
        }
    }

    /// One naive merge round: group states by their exact outgoing
    /// transitions, merge every group into its smallest member, rewrite.
    fn merge_identical_states_reference(&self) -> (TreeAutomaton, bool) {
        type Signature = (Vec<(InternalSymbol, StateId, StateId)>, Vec<Algebraic>);
        let mut signatures: HashMap<Signature, Vec<StateId>> = HashMap::new();
        for state_index in 0..self.num_states {
            let state = StateId::new(state_index);
            let mut internal_sig: Vec<(InternalSymbol, StateId, StateId)> = self
                .internal
                .iter()
                .filter(|t| t.parent == state)
                .map(|t| (t.symbol, t.left, t.right))
                .collect();
            internal_sig.sort();
            internal_sig.dedup();
            let mut leaf_sig: Vec<Algebraic> = self
                .leaves
                .iter()
                .filter(|t| t.parent == state)
                .map(|t| resolve(t.amp))
                .collect();
            leaf_sig.sort();
            signatures
                .entry((internal_sig, leaf_sig))
                .or_default()
                .push(state);
        }
        let mut mapping: HashMap<StateId, StateId> = HashMap::new();
        let mut changed = false;
        for group in signatures.values() {
            let representative = *group.iter().min().unwrap();
            for &state in group {
                if state != representative {
                    changed = true;
                }
                mapping.insert(state, representative);
            }
        }
        if !changed {
            return (self.clone(), false);
        }
        let remap = |s: StateId| *mapping.get(&s).unwrap_or(&s);
        let mut result = TreeAutomaton::new(self.num_vars);
        result.num_states = self.num_states;
        for &root in &self.roots {
            result.roots.insert(remap(root));
        }
        for t in &self.internal {
            result.internal.push(InternalTransition {
                parent: remap(t.parent),
                symbol: t.symbol,
                left: remap(t.left),
                right: remap(t.right),
            });
        }
        for t in &self.leaves {
            result.leaves.push(LeafTransition {
                parent: remap(t.parent),
                amp: t.amp,
            });
        }
        result.dedup_transitions();
        (result.trim(), true)
    }
}

#[cfg(test)]
mod tests {
    use autoq_amplitude::Algebraic;

    use crate::{InternalSymbol, StateId, Tree, TreeAutomaton};

    fn all_basis(n: u32) -> TreeAutomaton {
        let trees: Vec<Tree> = (0..crate::basis::basis_count(n))
            .map(|b| Tree::basis_state(n, b))
            .collect();
        TreeAutomaton::from_trees(n, &trees)
    }

    #[test]
    fn trim_removes_unreachable_states() {
        let mut automaton = TreeAutomaton::from_tree(&Tree::basis_state(2, 0));
        // Add a dangling state with no transitions and an unproductive chain.
        let dangling = automaton.add_state();
        let unproductive = automaton.add_state();
        automaton.add_internal(unproductive, InternalSymbol::new(0), dangling, dangling);
        let before = automaton.state_count();
        let trimmed = automaton.trim();
        assert!(trimmed.state_count() < before);
        trimmed.validate().unwrap();
        assert!(trimmed.accepts(&Tree::basis_state(2, 0)));
        assert_eq!(trimmed.enumerate(10).len(), 1);
    }

    #[test]
    fn trim_preserves_language() {
        let automaton = all_basis(3);
        let trimmed = automaton.trim();
        let original: Vec<Tree> = automaton.enumerate(100);
        for tree in &original {
            assert!(trimmed.accepts(tree));
        }
        assert_eq!(trimmed.enumerate(100).len(), original.len());
    }

    #[test]
    fn reduce_merges_identical_subtrees() {
        // Duplicate an automaton side by side (as the primed-copy gate
        // constructions do); the successor-merging reduction must collapse
        // the two copies back into one while preserving the language.
        let automaton = all_basis(4);
        let mut redundant = automaton.clone();
        let offset = redundant.import_disjoint(&automaton);
        let copied_roots: Vec<_> = automaton.roots.iter().map(|r| r.offset(offset)).collect();
        for root in copied_roots {
            redundant.add_root(root);
        }
        assert_eq!(redundant.state_count(), 2 * automaton.state_count());
        let reduced = redundant.reduce();
        assert!(reduced.state_count() <= automaton.state_count());
        assert!(reduced.state_count() < redundant.state_count());
        assert_eq!(reduced.enumerate(100).len(), 16);
        for b in 0..16u128 {
            assert!(reduced.accepts(&Tree::basis_state(4, b)));
        }
        reduced.validate().unwrap();
    }

    #[test]
    fn reduce_is_idempotent() {
        let automaton = all_basis(3).reduce();
        assert_eq!(automaton.reduce(), automaton);
    }

    #[test]
    fn reduce_matches_the_reference_oracle_on_structured_automata() {
        for automaton in [
            all_basis(4),
            TreeAutomaton::from_trees(
                3,
                &[
                    Tree::basis_state(3, 1),
                    Tree::basis_state(3, 5),
                    Tree::from_fn(3, |b| Algebraic::from_int((b % 3) as i64)),
                ],
            ),
        ] {
            let fast = automaton.reduce();
            assert_eq!(fast, automaton.reduce_reference());
            assert!(crate::equivalence(&fast, &automaton).holds());
        }
    }

    #[test]
    fn chained_merges_converge() {
        // A three-deep merge chain: the duplicate leaf merges first, which
        // makes B/A equal to C, which makes P equal to Q.  A round-based
        // merge needs one round per link; the bottom-up pass keys each
        // parent on its children's final classes.
        let mut automaton = TreeAutomaton::new(2);
        let d1 = automaton.add_state();
        let d2 = automaton.add_state();
        automaton.add_leaf(d1, Algebraic::one());
        automaton.add_leaf(d2, Algebraic::one());
        let c = automaton.add_state();
        let b = automaton.add_state();
        let a = automaton.add_state();
        automaton.add_internal(c, InternalSymbol::new(1), d1, d1);
        automaton.add_internal(b, InternalSymbol::new(1), d2, d2);
        automaton.add_internal(a, InternalSymbol::new(1), d2, d2);
        let p = automaton.add_state();
        let q = automaton.add_state();
        automaton.add_internal(p, InternalSymbol::new(0), a, a);
        automaton.add_internal(q, InternalSymbol::new(0), c, c);
        automaton.add_root(p);
        automaton.add_root(q);
        let fast = automaton.reduce();
        assert_eq!(fast.state_count(), 3, "leaf, middle and root must merge");
        assert_eq!(fast, automaton.reduce_reference());
        assert!(crate::equivalence(&fast, &automaton).holds());
    }

    #[test]
    fn reduce_keeps_superposition_amplitudes_distinct() {
        let bell = Tree::from_fn(2, |b| match b {
            0 | 3 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        let flipped = Tree::from_fn(2, |b| match b {
            1 | 2 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        let automaton = TreeAutomaton::from_trees(2, &[bell.clone(), flipped.clone()]);
        let reduced = automaton.reduce();
        assert!(reduced.accepts(&bell));
        assert!(reduced.accepts(&flipped));
        // The spurious cross-combinations must not be accepted.
        let wrong = Tree::from_fn(2, |b| match b {
            0 | 1 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        assert!(!reduced.accepts(&wrong));
    }

    /// A one-variable automaton with two equal leaves and a root `q` with
    /// `x0(leaf, leaf)`; returns it with `q` and the twin leaf.
    fn leaf_pair_root() -> (TreeAutomaton, StateId, StateId) {
        let mut automaton = TreeAutomaton::new(1);
        let leaf = automaton.add_state();
        automaton.add_leaf(leaf, Algebraic::one());
        let twin = automaton.add_state();
        automaton.add_leaf(twin, Algebraic::one());
        let q = automaton.add_state();
        automaton.add_internal(q, InternalSymbol::new(0), leaf, leaf);
        automaton.add_root(q);
        (automaton, q, twin)
    }

    #[test]
    fn a_cycle_through_a_dead_child_stays_on_the_fast_path() {
        let (mut automaton, q, _) = leaf_pair_root();
        let dead = automaton.add_state();
        automaton.add_internal(q, InternalSymbol::new(0), dead, q);
        let fast = automaton.reduce_fast().expect("the cycle dies with `dead`");
        assert_eq!(fast, automaton.reduce_reference());
        assert_eq!(fast.state_count(), 2);
    }

    #[test]
    fn ids_without_transitions_stay_on_the_fast_path() {
        // The swap ladder's shape: every other id has no transition.
        let mut automaton = TreeAutomaton::new(3);
        let mut below = automaton.add_state();
        automaton.add_leaf(below, Algebraic::one());
        for var in (0..3).rev() {
            automaton.add_state();
            let q = automaton.add_state();
            automaton.add_internal(q, InternalSymbol::new(var), below, below);
            below = q;
        }
        automaton.add_root(below);
        assert_eq!(automaton.state_count(), 7);
        let fast = automaton.reduce_fast().expect("acyclic");
        assert_eq!(fast, automaton.reduce_reference());
        assert_eq!(fast.state_count(), 4);
    }

    #[test]
    fn only_a_live_cycle_leaves_the_fast_path() {
        let (mut automaton, q, twin) = leaf_pair_root();
        automaton.add_internal(q, InternalSymbol::new(0), q, twin);
        assert!(automaton.reduce_fast().is_none());
        assert_eq!(automaton.reduce(), automaton.reduce_reference());
    }

    #[test]
    fn empty_automaton_trims_to_empty() {
        let automaton = TreeAutomaton::new(2);
        let trimmed = automaton.trim();
        assert_eq!(trimmed.state_count(), 0);
        assert_eq!(trimmed.enumerate(10).len(), 0);
    }
}
