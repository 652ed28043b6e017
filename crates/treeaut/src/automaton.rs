//! The tree automaton data structure.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use autoq_amplitude::hash::{FixedMap, FixedSet};
use autoq_amplitude::{intern, Algebraic, AmpId};

use crate::index::TransitionIndex;
use crate::tree::{Shape, TreeBuilder};
use crate::{InternalSymbol, StateId, Tag, Tree};

/// An internal transition `parent → symbol(left, right)`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct InternalTransition {
    /// The parent (upper) state.
    pub parent: StateId,
    /// The binary symbol (qubit variable + optional tag).
    pub symbol: InternalSymbol,
    /// Child state generating the `0` (left) subtree.
    pub left: StateId,
    /// Child state generating the `1` (right) subtree.
    pub right: StateId,
}

/// A leaf transition `parent → amplitude()`.
///
/// The amplitude is held by its process-wide interned id (see
/// [`mod@autoq_amplitude::intern`]), so leaf transitions are `Copy` and leaf
/// equality everywhere downstream is an integer compare.  Use
/// [`autoq_amplitude::resolve`] (or [`TreeAutomaton::leaf_value`]) where the
/// actual value is needed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LeafTransition {
    /// The parent state.
    pub parent: StateId,
    /// The interned id of the exact amplitude carried by the leaf.
    pub amp: AmpId,
}

/// A nondeterministic finite tree automaton over full binary trees whose
/// leaves carry exact algebraic amplitudes.
///
/// The struct exposes its components publicly because the gate transformers
/// in `autoq-core` are whole-automaton rewrites (they add, remove and rewire
/// transitions wholesale, exactly as the paper's Algorithms 1–9 do).
///
/// # Examples
///
/// ```
/// use autoq_amplitude::{intern, AmpId, Algebraic};
/// use autoq_treeaut::{Tree, TreeAutomaton};
///
/// // The set {|0⟩, |1⟩} of one-qubit basis states.
/// let set = TreeAutomaton::from_trees(1, &[Tree::basis_state(1, 0), Tree::basis_state(1, 1)]);
/// assert!(set.accepts(&Tree::basis_state(1, 0)));
/// assert!(set.accepts(&Tree::basis_state(1, 1)));
/// assert_eq!(set.enumerate(16).len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeAutomaton {
    /// Number of qubit variables (tree height).
    pub num_vars: u32,
    /// Number of allocated states (ids `0..num_states`).
    pub num_states: u32,
    /// Root (accepting) states.
    pub roots: BTreeSet<StateId>,
    /// Internal transitions.
    pub internal: Vec<InternalTransition>,
    /// Leaf transitions.
    pub leaves: Vec<LeafTransition>,
}

impl TreeAutomaton {
    /// Creates an empty automaton over `num_vars` qubit variables.
    pub fn new(num_vars: u32) -> Self {
        TreeAutomaton {
            num_vars,
            num_states: 0,
            roots: BTreeSet::new(),
            internal: Vec::new(),
            leaves: Vec::new(),
        }
    }

    /// Allocates a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId::new(self.num_states);
        self.num_states += 1;
        id
    }

    /// Allocates `count` fresh states and returns their ids.
    pub fn add_states(&mut self, count: u32) -> Vec<StateId> {
        (0..count).map(|_| self.add_state()).collect()
    }

    /// Marks a state as a root (accepting) state.
    pub fn add_root(&mut self, state: StateId) {
        assert!(state.raw() < self.num_states, "root state out of range");
        self.roots.insert(state);
    }

    /// Adds an internal transition `parent → symbol(left, right)`.
    pub fn add_internal(
        &mut self,
        parent: StateId,
        symbol: InternalSymbol,
        left: StateId,
        right: StateId,
    ) {
        debug_assert!(
            parent.raw() < self.num_states
                && left.raw() < self.num_states
                && right.raw() < self.num_states
        );
        self.internal.push(InternalTransition {
            parent,
            symbol,
            left,
            right,
        });
    }

    /// Adds a leaf transition `parent → value()`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` already has a leaf transition with a *different*
    /// value: the paper requires leaf parents to determine their symbol.
    pub fn add_leaf(&mut self, parent: StateId, value: Algebraic) {
        self.add_leaf_id(parent, intern(&value));
    }

    /// Adds a leaf transition by its interned amplitude id (the
    /// allocation-free fast path of [`TreeAutomaton::add_leaf`]).
    ///
    /// # Panics
    ///
    /// Panics if `parent` already has a leaf transition with a different
    /// amplitude.
    pub fn add_leaf_id(&mut self, parent: StateId, amp: AmpId) {
        debug_assert!(parent.raw() < self.num_states);
        if let Some(existing) = self.leaf_amp(parent) {
            assert!(
                existing == amp,
                "state {parent} already carries a different leaf value"
            );
            return;
        }
        self.leaves.push(LeafTransition { parent, amp });
    }

    /// Returns the leaf value of `state` if it has a leaf transition.
    pub fn leaf_value(&self, state: StateId) -> Option<Algebraic> {
        self.leaf_amp(state).map(autoq_amplitude::resolve)
    }

    /// Returns the interned leaf amplitude id of `state`, if any.
    pub fn leaf_amp(&self, state: StateId) -> Option<AmpId> {
        self.leaves
            .iter()
            .find(|t| t.parent == state)
            .map(|t| t.amp)
    }

    /// Returns an existing state carrying the given leaf value, or allocates
    /// one.  Keeps the "one leaf state per amplitude" canonical shape used by
    /// the constructors.
    pub fn leaf_state(&mut self, value: &Algebraic) -> StateId {
        self.leaf_state_id(intern(value))
    }

    /// Id-keyed variant of [`TreeAutomaton::leaf_state`].
    pub fn leaf_state_id(&mut self, amp: AmpId) -> StateId {
        if let Some(t) = self.leaves.iter().find(|t| t.amp == amp) {
            return t.parent;
        }
        let state = self.add_state();
        self.leaves.push(LeafTransition { parent: state, amp });
        state
    }

    /// Total number of transitions (internal + leaf), the paper's
    /// "transitions" column.
    pub fn transition_count(&self) -> usize {
        self.internal.len() + self.leaves.len()
    }

    /// Number of allocated states, the paper's "states" column.
    pub fn state_count(&self) -> usize {
        self.num_states as usize
    }

    /// Builds the automaton accepting exactly one tree.
    pub fn from_tree(tree: &Tree) -> Self {
        Self::from_trees(tree.num_qubits(), std::slice::from_ref(tree))
    }

    /// Builds the automaton accepting exactly the given trees (all of height
    /// `num_vars`).
    ///
    /// # Panics
    ///
    /// Panics if some tree has a different height than `num_vars`.
    pub fn from_trees(num_vars: u32, trees: &[Tree]) -> Self {
        let mut automaton = TreeAutomaton::new(num_vars);
        // Shared across all insertions: `memo` keys on node addresses (so a
        // shared subtree is inserted once), and `interned` gives equal
        // subtrees of *different* trees the same state and keeps transition
        // insertion O(1) instead of a per-node rescan of `internal`.
        let mut memo: FixedMap<usize, StateId> = FixedMap::default();
        let mut interned: HashMap<(InternalSymbol, StateId, StateId), StateId> = HashMap::new();
        for tree in trees {
            assert_eq!(tree.num_qubits(), num_vars, "tree height mismatch");
            let root = automaton.insert_node(tree, &mut memo, &mut interned);
            automaton.add_root(root);
        }
        automaton
    }

    /// Inserts the transitions generating `tree` and returns the state that
    /// generates it.  The walk is memoised on node addresses, so the
    /// automaton gains one state per *distinct* subtree — linear in the DAG
    /// size, even when the unfolded tree is exponential (e.g. re-inserting a
    /// 35-qubit witness during hunt confirmation).
    fn insert_node(
        &mut self,
        tree: &Tree,
        memo: &mut FixedMap<usize, StateId>,
        interned: &mut HashMap<(InternalSymbol, StateId, StateId), StateId>,
    ) -> StateId {
        if let Some(&state) = memo.get(&tree.addr()) {
            return state;
        }
        let state = match *tree.shape() {
            Shape::Leaf(amp) => self.leaf_state_id(amp),
            Shape::Node {
                var,
                ref left,
                ref right,
            } => {
                let left_state = self.insert_node(left, memo, interned);
                let right_state = self.insert_node(right, memo, interned);
                // Share states for structurally equal internal transitions
                // created by earlier insertions into the same automaton.
                let key = (InternalSymbol::new(var), left_state, right_state);
                if let Some(&existing) = interned.get(&key) {
                    existing
                } else {
                    let parent = self.add_state();
                    self.add_internal(parent, InternalSymbol::new(var), left_state, right_state);
                    interned.insert(key, parent);
                    parent
                }
            }
        };
        memo.insert(tree.addr(), state);
        state
    }

    /// Returns `true` if the automaton accepts `tree` (tags are ignored).
    pub fn accepts(&self, tree: &Tree) -> bool {
        self.run_states(tree)
            .iter()
            .any(|state| self.roots.contains(state))
    }

    /// Computes the set of states that can generate `tree` (bottom-up run).
    ///
    /// Memoised on node addresses: each distinct subtree is run once, so
    /// membership tests on DAG-shared witnesses cost O(|DAG| · |Δ|) rather
    /// than O(2ⁿ · |Δ|).
    pub fn run_states(&self, tree: &Tree) -> HashSet<StateId> {
        // Group the transitions by variable / leaf value once, so each
        // distinct tree node only scans the transitions of its own layer.
        let mut by_var: Vec<Vec<u32>> = vec![Vec::new(); self.num_vars as usize];
        for (position, t) in self.internal.iter().enumerate() {
            if let Some(bucket) = by_var.get_mut(t.symbol.var as usize) {
                bucket.push(position as u32);
            }
        }
        let mut leaves_by_value: HashMap<AmpId, Vec<StateId>> = HashMap::new();
        for t in &self.leaves {
            leaves_by_value.entry(t.amp).or_default().push(t.parent);
        }
        let mut memo: FixedMap<usize, Rc<HashSet<StateId>>> = FixedMap::default();
        let states = self.run_node(tree, &by_var, &leaves_by_value, &mut memo);
        // The memo still holds the root's other Rc clone; release it so the
        // unwrap below moves the set out instead of deep-cloning it.
        drop(memo);
        Rc::try_unwrap(states).unwrap_or_else(|shared| (*shared).clone())
    }

    fn run_node(
        &self,
        tree: &Tree,
        by_var: &[Vec<u32>],
        leaves_by_value: &HashMap<AmpId, Vec<StateId>>,
        memo: &mut FixedMap<usize, Rc<HashSet<StateId>>>,
    ) -> Rc<HashSet<StateId>> {
        if let Some(states) = memo.get(&tree.addr()) {
            return Rc::clone(states);
        }
        let states: HashSet<StateId> = match *tree.shape() {
            Shape::Leaf(amp) => leaves_by_value
                .get(&amp)
                .map(|states| states.iter().copied().collect())
                .unwrap_or_default(),
            Shape::Node {
                var,
                ref left,
                ref right,
            } => {
                let left_states = self.run_node(left, by_var, leaves_by_value, memo);
                let right_states = self.run_node(right, by_var, leaves_by_value, memo);
                by_var
                    .get(var as usize)
                    .map(|bucket| {
                        bucket
                            .iter()
                            .map(|&position| &self.internal[position as usize])
                            .filter(|t| {
                                left_states.contains(&t.left) && right_states.contains(&t.right)
                            })
                            .map(|t| t.parent)
                            .collect()
                    })
                    .unwrap_or_default()
            }
        };
        let states = Rc::new(states);
        memo.insert(tree.addr(), Rc::clone(&states));
        states
    }

    /// Enumerates the accepted trees, returning at most `limit` of them.
    ///
    /// The automaton is assumed to be acyclic (every automaton produced by
    /// this crate and by `autoq-core` is); states on a cycle contribute no
    /// trees.
    pub fn enumerate(&self, limit: usize) -> Vec<Tree> {
        let index = TransitionIndex::build(self);
        let mut memo: HashMap<StateId, Vec<Tree>> = HashMap::new();
        let mut visiting: HashSet<StateId> = HashSet::new();
        let mut builder = TreeBuilder::default();
        let mut result = Vec::new();
        let mut seen: HashSet<Tree> = HashSet::new();
        for &root in &self.roots {
            let language =
                self.language_of(root, limit, &index, &mut memo, &mut visiting, &mut builder);
            for tree in language {
                if result.len() >= limit {
                    return result;
                }
                if seen.insert(tree.clone()) {
                    result.push(tree);
                }
            }
        }
        result
    }

    fn language_of(
        &self,
        state: StateId,
        limit: usize,
        index: &TransitionIndex,
        memo: &mut HashMap<StateId, Vec<Tree>>,
        visiting: &mut HashSet<StateId>,
        builder: &mut TreeBuilder,
    ) -> Vec<Tree> {
        if let Some(cached) = memo.get(&state) {
            return cached.clone();
        }
        if !visiting.insert(state) {
            return Vec::new();
        }
        let mut trees = Vec::new();
        for &position in index.leaves_of(state) {
            trees.push(builder.leaf(self.leaves[position as usize].amp));
        }
        let transitions: Vec<InternalTransition> = index
            .internal_of(state)
            .iter()
            .map(|&position| self.internal[position as usize].clone())
            .collect();
        for t in transitions {
            let left_trees = self.language_of(t.left, limit, index, memo, visiting, builder);
            let right_trees = self.language_of(t.right, limit, index, memo, visiting, builder);
            'outer: for l in &left_trees {
                for r in &right_trees {
                    if trees.len() >= limit {
                        break 'outer;
                    }
                    trees.push(builder.node(t.symbol.var, l, r));
                }
            }
        }
        visiting.remove(&state);
        memo.insert(state, trees.clone());
        trees
    }

    /// Applies a function to every leaf value, returning the rewritten
    /// automaton (used by the scaling constructions of Algorithm 1 and the
    /// multiplication operation of Algorithm 5).
    pub fn map_leaves(&self, f: impl Fn(&Algebraic) -> Algebraic) -> Self {
        let mut result = self.clone();
        result.map_leaves_in_place(f);
        result
    }

    /// In-place variant of [`TreeAutomaton::map_leaves`], used by the gate
    /// transformers operating on the engine's working automaton.
    ///
    /// `f` is evaluated once per *distinct* amplitude id in the automaton
    /// (memoised per call), not once per leaf transition — an automaton with
    /// thousands of leaves over a handful of amplitudes resolves and maps
    /// each value a single time.
    pub fn map_leaves_in_place(&mut self, f: impl Fn(&Algebraic) -> Algebraic) {
        let mut memo: FixedMap<AmpId, AmpId> = FixedMap::default();
        for leaf in &mut self.leaves {
            leaf.amp = *memo
                .entry(leaf.amp)
                .or_insert_with(|| intern(&f(&autoq_amplitude::resolve(leaf.amp))));
        }
    }

    /// Imports all states and transitions of `other` with state ids shifted
    /// past this automaton's states, returning the offset.  Roots of `other`
    /// are *not* imported.
    pub fn import_disjoint(&mut self, other: &TreeAutomaton) -> u32 {
        let offset = self.num_states;
        self.num_states += other.num_states;
        for t in &other.internal {
            self.internal.push(InternalTransition {
                parent: t.parent.offset(offset),
                symbol: t.symbol,
                left: t.left.offset(offset),
                right: t.right.offset(offset),
            });
        }
        for t in &other.leaves {
            self.leaves.push(LeafTransition {
                parent: t.parent.offset(offset),
                amp: t.amp,
            });
        }
        offset
    }

    /// Removes duplicate transitions, keeping the first of each set of
    /// duplicates where it stands.
    pub fn dedup_transitions(&mut self) {
        let mut seen_internal: FixedSet<(InternalSymbol, u128)> =
            FixedSet::with_capacity_and_hasher(self.internal.len(), Default::default());
        self.internal.retain(|t| {
            let states = u128::from(t.parent.raw()) << 64
                | u128::from(t.left.raw()) << 32
                | u128::from(t.right.raw());
            seen_internal.insert((t.symbol, states))
        });
        let mut seen_leaves: FixedSet<u64> =
            FixedSet::with_capacity_and_hasher(self.leaves.len(), Default::default());
        self.leaves.retain(|t| {
            seen_leaves.insert(u64::from(t.parent.raw()) << 32 | u64::from(t.amp.raw()))
        });
    }

    /// Returns a copy with every tag stripped from the internal symbols and
    /// duplicate transitions removed (the paper's final "untagging" step).
    pub fn untagged(&self) -> Self {
        let mut result = self.clone();
        result.untag_in_place();
        result
    }

    /// In-place variant of [`TreeAutomaton::untagged`]: strips every tag and
    /// removes the duplicates this creates, without copying the automaton.
    pub fn untag_in_place(&mut self) {
        for t in &mut self.internal {
            t.symbol = t.symbol.untagged();
        }
        self.dedup_transitions();
    }

    /// Returns `true` if any internal symbol carries a tag.
    pub fn is_tagged(&self) -> bool {
        self.internal.iter().any(|t| t.symbol.tag != Tag::None)
    }

    /// Checks basic structural sanity: transitions refer to allocated
    /// states, every leaf parent carries a single value, and no state lies
    /// on a cycle (every automaton denotes a set of finite trees bottom-up,
    /// which the reduction relies on).
    pub fn validate(&self) -> Result<(), String> {
        for t in &self.internal {
            for s in [t.parent, t.left, t.right] {
                if s.raw() >= self.num_states {
                    return Err(format!(
                        "internal transition refers to unallocated state {s}"
                    ));
                }
            }
            if t.symbol.var >= self.num_vars {
                return Err(format!("symbol variable x{} out of range", t.symbol.var));
            }
        }
        let mut leaf_values: HashMap<StateId, AmpId> = HashMap::new();
        for t in &self.leaves {
            if t.parent.raw() >= self.num_states {
                return Err(format!(
                    "leaf transition refers to unallocated state {}",
                    t.parent
                ));
            }
            if let Some(existing) = leaf_values.insert(t.parent, t.amp) {
                if existing != t.amp {
                    return Err(format!(
                        "leaf parent {} carries two distinct values",
                        t.parent
                    ));
                }
            }
        }
        for &root in &self.roots {
            if root.raw() >= self.num_states {
                return Err(format!("root {root} out of range"));
            }
        }
        if !self.is_acyclic() {
            return Err("transitions form a cycle".into());
        }
        Ok(())
    }

    /// Whether no state lies on a cycle: Kahn's algorithm over the child
    /// slots of every transition orders all states bottom-up.
    fn is_acyclic(&self) -> bool {
        let index = TransitionIndex::build(self);
        // `pending[q]` counts the child slots of q's transitions whose
        // child is not yet ordered.
        let mut pending = vec![0u32; self.num_states as usize];
        for t in &self.internal {
            pending[t.parent.index()] += 2;
        }
        let mut ready: Vec<StateId> = (0..self.num_states)
            .map(StateId::new)
            .filter(|q| pending[q.index()] == 0)
            .collect();
        let mut ordered = 0;
        while let Some(state) = ready.pop() {
            ordered += 1;
            for &position in index.occurrences_as_child(state) {
                let parent = self.internal[position as usize].parent;
                pending[parent.index()] -= 1;
                if pending[parent.index()] == 0 {
                    ready.push(parent);
                }
            }
        }
        ordered == self.num_states
    }
}

impl fmt::Display for TreeAutomaton {
    /// Renders the automaton in a VATA/Timbuk-like textual format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Automaton ({} vars, {} states)",
            self.num_vars, self.num_states
        )?;
        write!(f, "Roots:")?;
        for root in &self.roots {
            write!(f, " {root}")?;
        }
        writeln!(f)?;
        writeln!(f, "Transitions:")?;
        for t in &self.internal {
            writeln!(f, "  {} -> {}({}, {})", t.parent, t.symbol, t.left, t.right)?;
        }
        for t in &self.leaves {
            writeln!(f, "  {} -> [{}]", t.parent, autoq_amplitude::resolve(t.amp))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis(n: u32, b: u128) -> Tree {
        Tree::basis_state(n, b)
    }

    /// Transitions are the reduction hot path's working set: a `Tag` with
    /// `u32` payloads keeps each one at 28 bytes.
    #[test]
    fn internal_transitions_are_28_bytes() {
        assert_eq!(std::mem::size_of::<InternalTransition>(), 28);
    }

    #[test]
    fn singleton_automaton_accepts_only_its_tree() {
        let tree = basis(3, 0b101);
        let automaton = TreeAutomaton::from_tree(&tree);
        automaton.validate().unwrap();
        assert!(automaton.accepts(&tree));
        assert!(!automaton.accepts(&basis(3, 0b100)));
        assert_eq!(automaton.enumerate(100), vec![tree]);
    }

    #[test]
    fn union_of_trees_accepts_each_tree() {
        let trees: Vec<Tree> = (0..4).map(|b| basis(2, b)).collect();
        let automaton = TreeAutomaton::from_trees(2, &trees);
        automaton.validate().unwrap();
        for tree in &trees {
            assert!(automaton.accepts(tree));
        }
        assert_eq!(automaton.enumerate(100).len(), 4);
    }

    #[test]
    fn superposition_trees_are_supported() {
        let bell = Tree::from_fn(2, |b| match b {
            0 | 3 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        let automaton = TreeAutomaton::from_tree(&bell);
        assert!(automaton.accepts(&bell));
        assert!(!automaton.accepts(&basis(2, 0)));
    }

    #[test]
    fn leaf_state_reuses_states_per_value() {
        let mut automaton = TreeAutomaton::new(1);
        let q0 = automaton.leaf_state(&Algebraic::zero());
        let q0_again = automaton.leaf_state(&Algebraic::zero());
        let q1 = automaton.leaf_state(&Algebraic::one());
        assert_eq!(q0, q0_again);
        assert_ne!(q0, q1);
        assert_eq!(automaton.leaf_value(q1), Some(Algebraic::one()));
        assert_eq!(automaton.leaf_value(StateId::new(99)), None);
    }

    #[test]
    #[should_panic(expected = "different leaf value")]
    fn conflicting_leaf_values_panic() {
        let mut automaton = TreeAutomaton::new(1);
        let q = automaton.add_state();
        automaton.add_leaf(q, Algebraic::zero());
        automaton.add_leaf(q, Algebraic::one());
    }

    #[test]
    fn map_leaves_scales_all_amplitudes() {
        let automaton = TreeAutomaton::from_tree(&basis(2, 1));
        let scaled = automaton.map_leaves(|v| v.mul_omega());
        let trees = scaled.enumerate(10);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].amplitude(1), Algebraic::omega());
        assert_eq!(trees[0].amplitude(0), Algebraic::zero());
    }

    #[test]
    fn import_disjoint_offsets_states() {
        let mut a = TreeAutomaton::from_tree(&basis(1, 0));
        let b = TreeAutomaton::from_tree(&basis(1, 1));
        let before_states = a.num_states;
        let offset = a.import_disjoint(&b);
        assert_eq!(offset, before_states);
        assert_eq!(a.num_states, before_states + b.num_states);
        a.validate().unwrap();
        // roots were not imported, so the language is unchanged
        assert_eq!(a.enumerate(10).len(), 1);
    }

    #[test]
    fn untagging_removes_tags_and_duplicates() {
        let mut automaton = TreeAutomaton::new(1);
        let leaf0 = automaton.leaf_state(&Algebraic::zero());
        let leaf1 = automaton.leaf_state(&Algebraic::one());
        let root = automaton.add_state();
        automaton.add_root(root);
        automaton.add_internal(
            root,
            InternalSymbol::new(0).with_tag(Tag::Single(1)),
            leaf0,
            leaf1,
        );
        automaton.add_internal(
            root,
            InternalSymbol::new(0).with_tag(Tag::Single(2)),
            leaf0,
            leaf1,
        );
        assert!(automaton.is_tagged());
        let untagged = automaton.untagged();
        assert!(!untagged.is_tagged());
        assert_eq!(untagged.internal.len(), 1);
        assert!(untagged.accepts(&basis(1, 1)));
    }

    #[test]
    fn validation_catches_broken_automata() {
        let mut automaton = TreeAutomaton::new(1);
        let q = automaton.add_state();
        automaton.add_root(q);
        automaton.internal.push(InternalTransition {
            parent: q,
            symbol: InternalSymbol::new(5),
            left: q,
            right: q,
        });
        assert!(automaton.validate().is_err());
    }

    #[test]
    fn automaton_stays_send_and_sync() {
        // Callers parallelise independent hunts over whole automata.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TreeAutomaton>();
    }

    #[test]
    fn display_contains_roots_and_transitions() {
        let automaton = TreeAutomaton::from_tree(&basis(1, 0));
        let rendered = automaton.to_string();
        assert!(rendered.contains("Roots:"));
        assert!(rendered.contains("x0"));
    }

    #[test]
    fn example_3_1_linear_size_encoding_of_all_basis_states() {
        // Build the TA of Example 3.1 for n = 3 by hand: 2n+1 states and
        // 3n+1 transitions accepting all 2^n basis states.
        let n = 3u32;
        let mut automaton = TreeAutomaton::new(n);
        let leaf0 = automaton.leaf_state(&Algebraic::zero());
        let leaf1 = automaton.leaf_state(&Algebraic::one());
        // states q^level_0 and q^level_1 for levels 1..n-1, plus root.
        let mut zero_state = leaf0;
        let mut one_state = leaf1;
        for level in (1..n).rev() {
            let new_zero = automaton.add_state();
            let new_one = automaton.add_state();
            automaton.add_internal(new_zero, InternalSymbol::new(level), zero_state, zero_state);
            automaton.add_internal(new_one, InternalSymbol::new(level), one_state, zero_state);
            automaton.add_internal(new_one, InternalSymbol::new(level), zero_state, one_state);
            zero_state = new_zero;
            one_state = new_one;
        }
        let root = automaton.add_state();
        automaton.add_root(root);
        automaton.add_internal(root, InternalSymbol::new(0), one_state, zero_state);
        automaton.add_internal(root, InternalSymbol::new(0), zero_state, one_state);
        automaton.validate().unwrap();
        assert_eq!(automaton.state_count(), 2 * n as usize + 1);
        assert_eq!(automaton.transition_count(), 3 * n as usize + 1);
        let language = automaton.enumerate(100);
        assert_eq!(language.len(), 8);
        for b in 0..8u128 {
            assert!(automaton.accepts(&basis(3, b)), "missing |{b:03b}⟩");
        }
    }
}
