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
//! acyclic: one pass over the live states in bottom-up (Kahn) order gives
//! each state a class from a hash-cons table keyed on its sorted
//! `(symbol, left-class, right-class)` tuples and leaf amplitude ids.  The
//! children's classes are final by the time a parent is keyed, so this one
//! pass reaches the merge fixpoint directly, in O(states + transitions)
//! hash-table operations.  Both reductions end in the same rewrite, which
//! numbers the surviving states (each class's smallest member) in ascending
//! order and keeps the first of any duplicate transitions.
//!
//! A cyclic automaton (never produced by this crate or `autoq-core`, and
//! rejected by [`TreeAutomaton::validate`]) falls back to the deliberately
//! naive [`TreeAutomaton::reduce_reference`], which is also the property
//! tests' oracle for the fast path.

use std::collections::HashMap;

use autoq_amplitude::{resolve, Algebraic};

use crate::{
    InternalSymbol, InternalTransition, LeafTransition, StateId, TransitionIndex, TreeAutomaton,
};

/// State-map entry of a state the rewrite drops.
const DROPPED: u32 = u32::MAX;

/// A state's merge key: its sorted, deduplicated `(symbol, left-class,
/// right-class)` tuples and its sorted leaf amplitude ids.
type MergeKey = (Vec<(InternalSymbol, u32, u32)>, Vec<u32>);

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
        let index = TransitionIndex::build(self);
        let live = self.live_states(&index);
        let Some(order) = self.bottom_up_order(&index, &live) else {
            return self.reduce_reference();
        };
        let mut class = vec![DROPPED; live.len()];
        let mut classes: HashMap<MergeKey, u32> = HashMap::with_capacity(order.len());
        for q in order {
            let mut tuples: Vec<(InternalSymbol, u32, u32)> = index
                .internal_of(q)
                .iter()
                .map(|&position| &self.internal[position as usize])
                .filter(|t| live[t.left.index()] && live[t.right.index()])
                .map(|t| (t.symbol, class[t.left.index()], class[t.right.index()]))
                .collect();
            tuples.sort_unstable();
            tuples.dedup();
            let mut amps: Vec<u32> = index
                .leaves_of(q)
                .iter()
                .map(|&position| self.leaves[position as usize].amp.raw())
                .collect();
            amps.sort_unstable();
            amps.dedup();
            let next = classes.len() as u32;
            class[q.index()] = *classes.entry((tuples, amps)).or_insert(next);
        }
        // Each class is represented by its smallest member: scanning the
        // states in ascending order meets every class first at that member.
        let mut number = vec![DROPPED; classes.len()];
        let mut count = 0;
        let map: Vec<u32> = class
            .iter()
            .map(|&c| {
                if c == DROPPED {
                    return DROPPED;
                }
                let id = &mut number[c as usize];
                if *id == DROPPED {
                    *id = count;
                    count += 1;
                }
                *id
            })
            .collect();
        self.rewrite(&map, count)
    }

    /// Marks the live states: productive (some tree derives from them) and
    /// accessible (reachable from a root through transitions whose
    /// children are all productive).
    fn live_states(&self, index: &TransitionIndex) -> Vec<bool> {
        let n = self.num_states as usize;
        // 1. Productive states: worklist from the leaves upwards.  `need`
        //    counts the not-yet-productive child slots of each transition;
        //    a transition fires (marks its parent productive) at zero.
        let mut productive = vec![false; n];
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
        // 2. Accessible states: from the roots downwards, only through
        //    transitions whose children are productive.  Every accessible
        //    state is productive, so this marks exactly the live ones.
        let mut accessible = vec![false; n];
        for &root in &self.roots {
            if productive[root.index()] && !accessible[root.index()] {
                accessible[root.index()] = true;
                worklist.push(root);
            }
        }
        while let Some(state) = worklist.pop() {
            for &position in index.internal_of(state) {
                let t = &self.internal[position as usize];
                if productive[t.left.index()] && productive[t.right.index()] {
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

    /// Orders the `live` states bottom-up with Kahn's algorithm: every state
    /// comes after the children of all its transitions between live states.
    /// Returns `None` if some live state lies on a cycle.
    pub(crate) fn bottom_up_order(
        &self,
        index: &TransitionIndex,
        live: &[bool],
    ) -> Option<Vec<StateId>> {
        let survives = |t: &InternalTransition| {
            live[t.parent.index()] && live[t.left.index()] && live[t.right.index()]
        };
        // `pending[q]` counts the child slots of q's surviving transitions
        // whose child is not yet ordered.
        let mut pending = vec![0u32; live.len()];
        for t in self.internal.iter().filter(|t| survives(t)) {
            pending[t.parent.index()] += 2;
        }
        let mut order: Vec<StateId> = (0..live.len() as u32)
            .map(StateId::new)
            .filter(|q| live[q.index()] && pending[q.index()] == 0)
            .collect();
        let mut next = 0;
        while let Some(&state) = order.get(next) {
            next += 1;
            for &position in index.occurrences_as_child(state) {
                let t = &self.internal[position as usize];
                if survives(t) {
                    pending[t.parent.index()] -= 1;
                    if pending[t.parent.index()] == 0 {
                        order.push(t.parent);
                    }
                }
            }
        }
        (order.len() == live.iter().filter(|&&l| l).count()).then_some(order)
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

    use crate::{InternalSymbol, Tree, TreeAutomaton};

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

    #[test]
    fn empty_automaton_trims_to_empty() {
        let automaton = TreeAutomaton::new(2);
        let trimmed = automaton.trim();
        assert_eq!(trimmed.state_count(), 0);
        assert_eq!(trimmed.enumerate(10).len(), 0);
    }
}
