//! CSR-style adjacency indexing over an automaton's transitions.
//!
//! The gate transformers and the reduction/inclusion algorithms all need to
//! answer "which transitions have state `q` as parent / as a child / as a
//! leaf parent?".  Scanning the transition vectors per query turns every
//! such operation into an O(states · transitions) rescan, which was the
//! engine's dominant cost at paper scale.  [`TransitionIndex`] answers the
//! same queries from three compressed-sparse-row tables built in one
//! counting-sort pass, O(states + transitions) total.
//!
//! The index is a *derived* snapshot that each operation builds for itself
//! with [`TransitionIndex::build`] and drops when it returns.  It is not
//! cached on the automaton: every gate yields a fresh automaton, so a cache
//! was almost never hit, and without one a direct edit of the automaton's
//! public fields can never meet a stale index.  A borrowed automaton cannot
//! change while the operation holds the index built from it.

use crate::{StateId, TreeAutomaton};

/// Parent-, child- and leaf-indexed adjacency for one automaton snapshot.
///
/// All three tables store *positions* into the automaton's transition
/// vectors (`internal` / `leaves`), grouped by state id in CSR layout
/// (`starts[q] .. starts[q + 1]` delimits state `q`'s slice).
#[derive(Debug)]
pub struct TransitionIndex {
    /// Positions into `internal`, grouped by `parent`.
    internal_order: Vec<u32>,
    internal_starts: Vec<u32>,
    /// Positions into `internal`, grouped by child state; a transition
    /// occurs once per child *slot*, so `left == right` lists it twice
    /// (occurrence counting is what the worklist algorithms need).
    child_order: Vec<u32>,
    child_starts: Vec<u32>,
    /// Positions into `leaves`, grouped by `parent`.
    leaf_order: Vec<u32>,
    leaf_starts: Vec<u32>,
}

/// Builds a CSR table from `(key, position)` pairs via counting sort.
fn csr(num_keys: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; num_keys + 1];
    for (key, _) in pairs.clone() {
        starts[key as usize + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut order = vec![0u32; starts[num_keys] as usize];
    let mut cursor = starts.clone();
    for (key, position) in pairs {
        order[cursor[key as usize] as usize] = position;
        cursor[key as usize] += 1;
    }
    (order, starts)
}

impl TransitionIndex {
    /// Indexes the automaton's current transitions.
    pub fn build(automaton: &TreeAutomaton) -> Self {
        let mut index = Self::by_parent(automaton);
        (index.child_order, index.child_starts) = csr(
            automaton.num_states as usize,
            automaton
                .internal
                .iter()
                .enumerate()
                .flat_map(|(i, t)| [(t.left.raw(), i as u32), (t.right.raw(), i as u32)]),
        );
        index
    }

    /// Builds only the two parent-keyed tables, for walks that go from
    /// parents to children and never ask for a state's occurrences as a
    /// child (on this index [`TransitionIndex::occurrences_as_child`] is
    /// empty).
    pub fn by_parent(automaton: &TreeAutomaton) -> Self {
        let n = automaton.num_states as usize;
        let (internal_order, internal_starts) = csr(
            n,
            automaton
                .internal
                .iter()
                .enumerate()
                .map(|(i, t)| (t.parent.raw(), i as u32)),
        );
        let (leaf_order, leaf_starts) = csr(
            n,
            automaton
                .leaves
                .iter()
                .enumerate()
                .map(|(i, t)| (t.parent.raw(), i as u32)),
        );
        TransitionIndex {
            internal_order,
            internal_starts,
            child_order: Vec::new(),
            child_starts: Vec::new(),
            leaf_order,
            leaf_starts,
        }
    }

    fn slice<'a>(order: &'a [u32], starts: &[u32], state: StateId) -> &'a [u32] {
        let q = state.index();
        if q + 1 >= starts.len() {
            return &[];
        }
        &order[starts[q] as usize..starts[q + 1] as usize]
    }

    /// Positions (into `internal`) of the transitions with parent `state`.
    pub fn internal_of(&self, state: StateId) -> &[u32] {
        Self::slice(&self.internal_order, &self.internal_starts, state)
    }

    /// Positions (into `internal`) of the transitions using `state` as a
    /// child, one entry per child slot (a transition with `left == right ==
    /// state` appears twice).
    pub fn occurrences_as_child(&self, state: StateId) -> &[u32] {
        Self::slice(&self.child_order, &self.child_starts, state)
    }

    /// Positions (into `leaves`) of the leaf transitions with parent `state`.
    pub fn leaves_of(&self, state: StateId) -> &[u32] {
        Self::slice(&self.leaf_order, &self.leaf_starts, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tree;

    #[test]
    fn index_groups_transitions_by_parent_child_and_leaf() {
        let trees: Vec<Tree> = (0..4).map(|b| Tree::basis_state(2, b)).collect();
        let automaton = TreeAutomaton::from_trees(2, &trees);
        let index = TransitionIndex::build(&automaton);
        let mut seen_internal = 0;
        let mut seen_children = 0;
        for q in 0..automaton.num_states {
            let state = StateId::new(q);
            for &i in index.internal_of(state) {
                assert_eq!(automaton.internal[i as usize].parent, state);
                seen_internal += 1;
            }
            for &i in index.occurrences_as_child(state) {
                let t = &automaton.internal[i as usize];
                assert!(t.left == state || t.right == state);
                seen_children += 1;
            }
            for &i in index.leaves_of(state) {
                assert_eq!(automaton.leaves[i as usize].parent, state);
            }
        }
        assert_eq!(seen_internal, automaton.internal.len());
        // Each internal transition has exactly two child slots.
        assert_eq!(seen_children, 2 * automaton.internal.len());
    }

    #[test]
    fn out_of_range_states_have_empty_slices() {
        let automaton = TreeAutomaton::new(1);
        let index = TransitionIndex::build(&automaton);
        assert!(index.internal_of(StateId::new(5)).is_empty());
        assert!(index.occurrences_as_child(StateId::new(5)).is_empty());
        assert!(index.leaves_of(StateId::new(5)).is_empty());
    }
}
