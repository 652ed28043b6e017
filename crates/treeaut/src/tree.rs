//! Full binary trees encoding individual quantum states, stored as DAGs
//! with shared subtrees.
//!
//! A full binary tree of height `n` encodes a function `{0,1}ⁿ → amplitudes`
//! (Section 3 of the AutoQ paper): following the left child of the layer-`t`
//! node corresponds to qubit `t` being `0`, the right child to `1`, and the
//! leaf at the end of a branch carries the amplitude of that computational
//! basis state.
//!
//! # Representation
//!
//! A [`Tree`] owns its root node through an [`Arc`]; a node is a leaf
//! carrying an interned amplitude id ([`AmpId`]) or a `(var, left, right)`
//! triple of child trees, plus a structural hash computed once when the
//! node is built.  Cloning is one reference-count increment, hashing reads
//! the stored hash, and a node is freed when the last tree holding it is
//! dropped: there is no process-wide table to lock or to sweep.
//!
//! The constructors that build many nodes at once — [`Tree::from_fn`],
//! [`Tree::basis_state`], inclusion witnesses, the binary tree codec and
//! [`crate::TreeAutomaton::enumerate`] — hash-cons locally for the length
//! of one construction, so structurally equal subtrees of the tree they
//! build are one shared node.  This turns the `2^(n+1)`-node explicit
//! binary tree of an `n`-qubit basis state into a DAG of `2n + 1` nodes,
//! which is what lets witness extraction (see [`crate::inclusion`]) scale
//! to the paper's 35- and 70-qubit Table 3 bug hunts.  [`Tree::node`] is
//! O(1) and shares nothing on its own.
//!
//! Equality is structural: trees built separately compare equal when they
//! denote the same term (see [`Tree`]'s `PartialEq`).  Walks over one tree
//! ([`Tree::node_count`], [`Tree::support_size`], automaton membership, the
//! codec, …) are memoised on node addresses, so they run in DAG size.
//! `Tree` is `Send + Sync`; `docs/CONCURRENCY.md` §1 has the concurrency
//! model.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use autoq_amplitude::hash::{FixedHasher, FixedMap, FixedSet};
use autoq_amplitude::{intern, Algebraic, AmpId};

use crate::basis::{self, BasisIndex};

/// Number of tree nodes alive in the process (read through
/// [`crate::arena::live_node_count`]).
pub(crate) static LIVE_NODES: AtomicUsize = AtomicUsize::new(0);

/// What a node holds besides its hash.
pub(crate) enum Shape {
    /// A leaf carrying the id of its amplitude in the process-wide table.
    Leaf(AmpId),
    /// An internal node for qubit variable `var` (0-based, root = 0).
    Node { var: u32, left: Tree, right: Tree },
}

struct Node {
    hash: u64,
    shape: Shape,
}

impl Drop for Node {
    fn drop(&mut self) {
        LIVE_NODES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A ground term over the binary/leaf alphabet, held as a shared DAG node
/// (see the module docs for the representation).
///
/// Cloning and hashing are O(1).  Equality is structural: it is `true` at
/// once for the same node and `false` at once for different hashes; trees
/// that are distinct nodes with equal hashes are compared by a walk
/// memoised on node pairs, linear in their DAG sizes.
///
/// # Examples
///
/// ```
/// use autoq_amplitude::{intern, Algebraic, AmpId};
/// use autoq_treeaut::Tree;
///
/// // The Bell state (|00⟩ + |11⟩)/√2 over two qubits.
/// let bell = Tree::from_fn(2, |basis| match basis {
///     0b00 | 0b11 => Algebraic::one_over_sqrt2(),
///     _ => Algebraic::zero(),
/// });
/// assert_eq!(bell.num_qubits(), 2);
/// assert_eq!(bell.amplitude(0b11), Algebraic::one_over_sqrt2());
/// assert_eq!(bell.amplitude(0b01), Algebraic::zero());
/// ```
#[derive(Clone)]
pub struct Tree(Arc<Node>);

/// Hash-conses the nodes of one construction: equal leaves and equal
/// `(var, left, right)` triples come back as the same node.  Children must
/// come from the same builder, so their addresses identify their structure.
#[derive(Default)]
pub(crate) struct TreeBuilder {
    leaves: FixedMap<AmpId, Tree>,
    nodes: FixedMap<(u32, usize, usize), Tree>,
}

impl TreeBuilder {
    /// The builder's leaf for `amp`.
    pub(crate) fn leaf(&mut self, amp: AmpId) -> Tree {
        self.leaves
            .entry(amp)
            .or_insert_with(|| Tree::interned_leaf(amp))
            .clone()
    }

    /// The builder's node for `(var, left, right)`.
    pub(crate) fn node(&mut self, var: u32, left: &Tree, right: &Tree) -> Tree {
        self.nodes
            .entry((var, left.addr(), right.addr()))
            .or_insert_with(|| Tree::node(var, left.clone(), right.clone()))
            .clone()
    }
}

impl Tree {
    fn new(shape: Shape) -> Tree {
        let mut hasher = FixedHasher::default();
        match &shape {
            Shape::Leaf(amp) => amp.hash(&mut hasher),
            Shape::Node { var, left, right } => {
                (var, left.0.hash, right.0.hash).hash(&mut hasher);
            }
        }
        LIVE_NODES.fetch_add(1, Ordering::Relaxed);
        Tree(Arc::new(Node {
            hash: hasher.finish(),
            shape,
        }))
    }

    /// The address of the root node: the key of every memoised walk, valid
    /// for as long as the tree is alive.
    pub(crate) fn addr(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// The root node's leaf amplitude or children.
    pub(crate) fn shape(&self) -> &Shape {
        &self.0.shape
    }

    /// A leaf carrying the amplitude `value`.
    pub fn leaf(value: Algebraic) -> Tree {
        Tree::interned_leaf(intern::intern(&value))
    }

    /// A leaf carrying an already-interned amplitude id, for callers that
    /// already hold an [`AmpId`].
    pub fn interned_leaf(amp: AmpId) -> Tree {
        Tree::new(Shape::Leaf(amp))
    }

    /// An internal node for qubit variable `var` with the given subtrees,
    /// in O(1): the new node shares the children it is given and nothing
    /// else.
    ///
    /// No well-formedness is enforced (see [`Tree::is_well_formed`]): the
    /// constructor accepts arbitrary variable labels and subtree heights, as
    /// tests for malformed terms require.
    pub fn node(var: u32, left: Tree, right: Tree) -> Tree {
        Tree::new(Shape::Node { var, left, right })
    }

    /// The leaf amplitude, if this tree is a single leaf.
    pub fn as_leaf(&self) -> Option<Algebraic> {
        self.as_leaf_id().map(intern::resolve)
    }

    /// The interned amplitude id, if this tree is a single leaf.
    pub fn as_leaf_id(&self) -> Option<AmpId> {
        match self.shape() {
            Shape::Leaf(amp) => Some(*amp),
            Shape::Node { .. } => None,
        }
    }

    /// The `(var, left, right)` decomposition, if this tree is an internal
    /// node.
    pub fn as_node(&self) -> Option<(u32, Tree, Tree)> {
        match self.shape() {
            Shape::Leaf(_) => None,
            Shape::Node { var, left, right } => Some((*var, left.clone(), right.clone())),
        }
    }

    /// Builds the full binary tree of height `num_qubits` whose leaf for the
    /// computational basis state `b` (MSBF encoding: qubit 0 is the most
    /// significant bit) is `f(b)`.
    ///
    /// `f` is evaluated at all `2^num_qubits` basis states, so the running
    /// time is exponential in the qubit count; the *resulting* tree only
    /// occupies space proportional to its number of distinct subtrees
    /// (hash-consing shares the rest).  For single basis states use the
    /// linear-time [`Tree::basis_state`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `2^num_qubits` exceeds [`crate::basis::MAX_QUBITS`] bits or
    /// the leaf table of `2^num_qubits` entries exceeds addressable memory
    /// (the construction is explicitly exponential; wide registers should
    /// use [`Tree::basis_state`] or automaton-level constructors).
    pub fn from_fn(num_qubits: u32, f: impl Fn(BasisIndex) -> Algebraic) -> Tree {
        let count = usize::try_from(basis::basis_count(num_qubits))
            .expect("2^num_qubits leaf evaluations exceed addressable memory");
        let mut builder = TreeBuilder::default();
        let mut layer: Vec<Tree> = (0..count)
            .map(|b| builder.leaf(intern::intern(&f(b as BasisIndex))))
            .collect();
        for var in (0..num_qubits).rev() {
            layer = layer
                .chunks(2)
                .map(|pair| builder.node(var, &pair[0], &pair[1]))
                .collect();
        }
        layer.pop().expect("at least one leaf")
    }

    /// Builds the tree of a single computational basis state `|basis⟩`
    /// directly as a DAG of at most `2n + 1` shared nodes (the whole
    /// all-zero fringe at each layer is one shared node), in O(n) time —
    /// usable far beyond the `2^n` wall of [`Tree::from_fn`].
    ///
    /// ```
    /// # use autoq_treeaut::Tree;
    /// # use autoq_amplitude::{intern, Algebraic, AmpId};
    /// let t = Tree::basis_state(3, 0b101);
    /// assert_eq!(t.amplitude(0b101), Algebraic::one());
    /// assert_eq!(t.amplitude(0b100), Algebraic::zero());
    /// // Linear, not exponential, in the qubit count — works past the old
    /// // 64-qubit boundary:
    /// let wide = Tree::basis_state(70, 1 << 69);
    /// assert_eq!(wide.node_count(), 2 * 70 + 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds [`crate::basis::MAX_QUBITS`] or
    /// `basis` has bits above the tree height.
    pub fn basis_state(num_qubits: u32, basis: BasisIndex) -> Tree {
        assert!(
            num_qubits <= basis::MAX_QUBITS,
            "at most {} qubits supported by Tree::basis_state",
            basis::MAX_QUBITS
        );
        basis::assert_in_range(num_qubits, basis);
        let mut builder = TreeBuilder::default();
        let mut zero = builder.leaf(intern::zero_id());
        let mut path = builder.leaf(intern::one_id());
        for var in (0..num_qubits).rev() {
            let bit = (basis >> (num_qubits - 1 - var)) & 1;
            path = if bit == 0 {
                builder.node(var, &path, &zero)
            } else {
                builder.node(var, &zero, &path)
            };
            if var > 0 {
                zero = builder.node(var, &zero, &zero);
            }
        }
        path
    }

    /// Number of qubits (the height of the tree).
    pub fn num_qubits(&self) -> u32 {
        let mut tree = self;
        let mut height = 0;
        while let Shape::Node { left, .. } = tree.shape() {
            height += 1;
            tree = left;
        }
        height
    }

    /// Number of *distinct* DAG nodes reachable from the root — the actual
    /// storage cost of the tree.  A full binary tree view of the same term
    /// has `2^(n+1) − 1` positions; for shared trees this count is far
    /// smaller (e.g. `2n + 1` for basis states).
    pub fn node_count(&self) -> usize {
        let mut seen: FixedSet<usize> = FixedSet::default();
        let mut stack = vec![self];
        while let Some(tree) = stack.pop() {
            if !seen.insert(tree.addr()) {
                continue;
            }
            if let Shape::Node { left, right, .. } = tree.shape() {
                stack.push(left);
                stack.push(right);
            }
        }
        seen.len()
    }

    /// Returns `true` if the tree is a full binary tree whose layer-`t`
    /// nodes are all labelled with variable `t`.
    pub fn is_well_formed(&self) -> bool {
        let height = self.num_qubits();
        let mut seen: FixedSet<(usize, u32)> = FixedSet::default();
        let mut stack = vec![(self, 0u32)];
        while let Some((tree, depth)) = stack.pop() {
            if !seen.insert((tree.addr(), depth)) {
                continue;
            }
            match tree.shape() {
                Shape::Leaf(_) => {
                    if depth != height {
                        return false;
                    }
                }
                Shape::Node { var, left, right } => {
                    if *var != depth || depth >= height {
                        return false;
                    }
                    stack.push((left, depth + 1));
                    stack.push((right, depth + 1));
                }
            }
        }
        true
    }

    /// The amplitude of the computational basis state `basis`, read off by
    /// walking one root-to-leaf path (O(n), independent of sharing).
    ///
    /// # Panics
    ///
    /// Panics if `basis` has bits above the tree height.
    pub fn amplitude(&self, basis: BasisIndex) -> Algebraic {
        let n = self.num_qubits();
        basis::assert_in_range(n, basis);
        let mut tree = self;
        for level in (0..n).rev() {
            tree = match tree.shape() {
                Shape::Node { left, right, .. } => {
                    if (basis >> level) & 1 == 0 {
                        left
                    } else {
                        right
                    }
                }
                Shape::Leaf(_) => unreachable!("tree shallower than expected"),
            };
        }
        match tree.shape() {
            Shape::Leaf(amp) => intern::resolve(*amp),
            Shape::Node { .. } => panic!("tree deeper than expected"),
        }
    }

    /// The number of basis states with a non-zero amplitude.
    ///
    /// Computed in time linear in the DAG size (not in `2^n`), so it is the
    /// safe way to decide whether materialising [`Tree::to_amplitude_map`]
    /// is affordable for a wide witness.
    pub fn support_size(&self) -> u128 {
        fn count(tree: &Tree, memo: &mut FixedMap<usize, u128>) -> u128 {
            if let Some(&cached) = memo.get(&tree.addr()) {
                return cached;
            }
            let result = match tree.shape() {
                // Canonical zero is unique, so the id comparison decides
                // zero-ness without resolving the value.
                Shape::Leaf(amp) => u128::from(*amp != intern::zero_id()),
                Shape::Node { left, right, .. } => count(left, memo) + count(right, memo),
            };
            memo.insert(tree.addr(), result);
            result
        }
        count(self, &mut FixedMap::default())
    }

    /// Calls `f(basis, amplitude)` for every basis state with a non-zero
    /// amplitude, in ascending basis order.
    ///
    /// The DAG is first copied into a local vector, each distinct node
    /// visited once and every all-zero subtree folded into one sentinel;
    /// the walk then follows local indices and skips the sentinel, so the
    /// cost is proportional to the support (times the height), not to
    /// `2^n`.  The amplitude comes as its interned [`AmpId`], so callers
    /// resolve each distinct value once, not once per entry.
    ///
    /// ```
    /// # use autoq_treeaut::Tree;
    /// # use autoq_amplitude::intern;
    /// let t = Tree::basis_state(3, 0b110);
    /// let mut seen = Vec::new();
    /// t.for_each_nonzero(|basis, amp| seen.push((basis, amp)));
    /// assert_eq!(seen, vec![(0b110, intern::one_id())]);
    /// ```
    pub fn for_each_nonzero(&self, mut f: impl FnMut(BasisIndex, AmpId)) {
        /// A node of the local copy: a non-zero leaf, or the local indices
        /// of two children.
        enum Local {
            Leaf(AmpId),
            Node(u32, u32),
        }
        /// The local index of every all-zero subtree.
        const ZERO: u32 = u32::MAX;
        fn import(tree: &Tree, index: &mut FixedMap<usize, u32>, nodes: &mut Vec<Local>) -> u32 {
            if let Some(&local) = index.get(&tree.addr()) {
                return local;
            }
            let node = match tree.shape() {
                // Canonical zero is unique, so the id comparison decides
                // zero-ness without resolving the value.
                Shape::Leaf(amp) if *amp == intern::zero_id() => None,
                Shape::Leaf(amp) => Some(Local::Leaf(*amp)),
                Shape::Node { left, right, .. } => {
                    let left = import(left, index, nodes);
                    let right = import(right, index, nodes);
                    (left != ZERO || right != ZERO).then_some(Local::Node(left, right))
                }
            };
            let local = node.map_or(ZERO, |node| {
                nodes.push(node);
                nodes.len() as u32 - 1
            });
            index.insert(tree.addr(), local);
            local
        }
        fn walk(
            local: u32,
            prefix: BasisIndex,
            nodes: &[Local],
            f: &mut impl FnMut(BasisIndex, AmpId),
        ) {
            match nodes[local as usize] {
                Local::Leaf(amp) => f(prefix, amp),
                Local::Node(left, right) => {
                    if left != ZERO {
                        walk(left, prefix << 1, nodes, f);
                    }
                    if right != ZERO {
                        walk(right, (prefix << 1) | 1, nodes, f);
                    }
                }
            }
        }
        let mut nodes = Vec::new();
        let root = import(self, &mut FixedMap::default(), &mut nodes);
        if root != ZERO {
            walk(root, 0, &nodes, &mut f);
        }
    }

    /// Converts the tree into an explicit map from basis states to non-zero
    /// amplitudes (the walk of [`Tree::for_each_nonzero`]); check
    /// [`Tree::support_size`] first when the support itself might be huge.
    ///
    /// ```
    /// # use autoq_treeaut::Tree;
    /// # use autoq_amplitude::{intern, Algebraic, AmpId};
    /// let t = Tree::basis_state(2, 0b10);
    /// let map = t.to_amplitude_map();
    /// assert_eq!(map.len(), 1);
    /// assert_eq!(map[&0b10], Algebraic::one());
    /// ```
    pub fn to_amplitude_map(&self) -> BTreeMap<BasisIndex, Algebraic> {
        let mut map = BTreeMap::new();
        self.for_each_nonzero(|basis, amp| {
            map.insert(basis, intern::resolve(amp));
        });
        map
    }

    /// Converts the tree into a dense state vector of length `2^n`, indexed
    /// by basis state.
    ///
    /// # Panics
    ///
    /// Panics if the `2^n`-entry vector exceeds addressable memory (the
    /// representation is explicitly dense).
    pub fn to_state_vector(&self) -> Vec<Algebraic> {
        let n = self.num_qubits();
        let dim = usize::try_from(basis::basis_count(n))
            .expect("2^n dense state vector exceeds addressable memory");
        let mut vector = vec![Algebraic::zero(); dim];
        for (basis, amp) in self.to_amplitude_map() {
            vector[basis as usize] = amp;
        }
        vector
    }

    /// Renders the tree as a Dirac-notation superposition, e.g.
    /// `(1/√2^1)|00⟩ + (1/√2^1)|11⟩`.
    pub fn to_dirac(&self) -> String {
        let n = self.num_qubits();
        let map = self.to_amplitude_map();
        if map.is_empty() {
            return "0".to_string();
        }
        map.iter()
            .map(|(basis, amp)| format!("({amp})|{:0width$b}⟩", basis, width = n as usize))
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

impl PartialEq for Tree {
    /// Structural equality: the same node and different hashes decide at
    /// once; otherwise the two DAGs are walked together, each pair of
    /// nodes compared once.
    fn eq(&self, other: &Tree) -> bool {
        fn equal(a: &Tree, b: &Tree, proven: &mut FixedSet<(usize, usize)>) -> bool {
            if Arc::ptr_eq(&a.0, &b.0) {
                return true;
            }
            if a.0.hash != b.0.hash {
                return false;
            }
            // A pair already entered is equal, or the walk that entered it
            // is about to return `false` for the whole comparison.
            if !proven.insert((a.addr(), b.addr())) {
                return true;
            }
            match (a.shape(), b.shape()) {
                (Shape::Leaf(x), Shape::Leaf(y)) => x == y,
                (
                    Shape::Node { var, left, right },
                    Shape::Node {
                        var: other_var,
                        left: other_left,
                        right: other_right,
                    },
                ) => {
                    var == other_var
                        && equal(left, other_left, proven)
                        && equal(right, other_right, proven)
                }
                _ => false,
            }
        }
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && equal(self, other, &mut FixedSet::default()))
    }
}

impl Eq for Tree {}

impl Hash for Tree {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for Tree {
    /// Term-like rendering (`x0(0, 1)`) for small trees; wide trees — whose
    /// unfolded term is exponentially larger than their DAG — are summarised
    /// by height, node count and support instead.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_TERM_HEIGHT: u32 = 8;
        fn term(tree: &Tree, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match tree.shape() {
                Shape::Leaf(amp) => write!(f, "{}", intern::resolve(*amp)),
                Shape::Node { var, left, right } => {
                    write!(f, "x{var}(")?;
                    term(left, f)?;
                    write!(f, ", ")?;
                    term(right, f)?;
                    write!(f, ")")
                }
            }
        }
        let height = self.num_qubits();
        if height > MAX_TERM_HEIGHT {
            write!(
                f,
                "Tree({height} qubits, {} shared nodes, support {})",
                self.node_count(),
                self.support_size()
            )
        } else {
            term(self, f)
        }
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dirac())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_state_tree_has_single_one_leaf() {
        let tree = Tree::basis_state(3, 0b010);
        assert!(tree.is_well_formed());
        assert_eq!(tree.num_qubits(), 3);
        let map = tree.to_amplitude_map();
        assert_eq!(map.len(), 1);
        assert_eq!(map[&0b010], Algebraic::one());
        for basis in 0..8u128 {
            let expected = if basis == 0b010 {
                Algebraic::one()
            } else {
                Algebraic::zero()
            };
            assert_eq!(tree.amplitude(basis), expected);
        }
    }

    #[test]
    fn from_fn_matches_eq4_of_the_paper() {
        // Eq. (4): x1(x2(x3(1,0), x3(0,0)), x2(x3(0,0), x3(0,0))) encodes T(000)=1.
        let tree = Tree::basis_state(3, 0);
        let (var, left, _) = tree.as_node().expect("expected internal node");
        assert_eq!(var, 0);
        let (var, _, _) = left.as_node().expect("expected internal node");
        assert_eq!(var, 1);
        assert_eq!(tree.to_dirac(), "(1)|000⟩");
    }

    #[test]
    fn basis_state_agrees_with_from_fn() {
        for n in 0..6u32 {
            for basis in 0..basis::basis_count(n) {
                let direct = Tree::basis_state(n, basis);
                let explicit = Tree::from_fn(n, |b| {
                    if b == basis {
                        Algebraic::one()
                    } else {
                        Algebraic::zero()
                    }
                });
                assert_eq!(direct, explicit, "n = {n}, basis = {basis}");
            }
        }
    }

    #[test]
    fn separate_constructions_are_equal_and_one_construction_shares() {
        let build = || {
            Tree::from_fn(3, |b| {
                if b % 2 == 0 {
                    Algebraic::one_over_sqrt2()
                } else {
                    Algebraic::zero()
                }
            })
        };
        let (a, b) = (build(), build());
        assert_ne!(a.addr(), b.addr());
        assert_eq!(a, b);
        assert_ne!(a, Tree::basis_state(3, 0));
        // Inside one construction equal subtrees are one node: both
        // children of the root of a constant tree.
        let (_, left, right) = Tree::from_fn(2, |_| Algebraic::one())
            .as_node()
            .expect("internal node");
        assert_eq!(left.addr(), right.addr());
    }

    #[test]
    fn basis_state_node_count_is_linear() {
        // Straddles the old 64-qubit `u64` boundary and runs to the full
        // 128-qubit index width.
        for n in [1u32, 4, 16, 40, 63, 64, 65, 70, 128] {
            let tree = Tree::basis_state(n, basis::index_mask(n));
            assert_eq!(tree.node_count(), 2 * n as usize + 1, "n = {n}");
            assert_eq!(tree.support_size(), 1);
        }
    }

    #[test]
    fn wide_basis_states_are_cheap() {
        // 2^61 explicit nodes before DAG sharing; instantaneous now.
        let tree = Tree::basis_state(60, 0b1011 << 40);
        assert!(tree.is_well_formed());
        assert_eq!(tree.num_qubits(), 60);
        assert_eq!(tree.amplitude(0b1011 << 40), Algebraic::one());
        assert_eq!(tree.amplitude(0), Algebraic::zero());
        let map = tree.to_amplitude_map();
        assert_eq!(map.len(), 1);
        assert_eq!(map[&(0b1011 << 40)], Algebraic::one());
    }

    #[test]
    fn state_vector_round_trip() {
        let bell = Tree::from_fn(2, |b| match b {
            0 | 3 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        let vec = bell.to_state_vector();
        assert_eq!(vec.len(), 4);
        assert_eq!(vec[0], Algebraic::one_over_sqrt2());
        assert_eq!(vec[1], Algebraic::zero());
        assert_eq!(vec[3], Algebraic::one_over_sqrt2());
    }

    #[test]
    fn zero_qubit_tree_is_a_single_leaf() {
        let tree = Tree::from_fn(0, |_| Algebraic::one());
        assert_eq!(tree.num_qubits(), 0);
        assert!(tree.is_well_formed());
        assert_eq!(tree.amplitude(0), Algebraic::one());
        assert_eq!(tree.as_leaf(), Some(Algebraic::one()));
    }

    #[test]
    fn ill_formed_trees_are_detected() {
        let bad = Tree::node(
            0,
            Tree::leaf(Algebraic::zero()),
            Tree::node(
                1,
                Tree::leaf(Algebraic::zero()),
                Tree::leaf(Algebraic::one()),
            ),
        );
        assert!(!bad.is_well_formed());
        let bad_var = Tree::node(
            3,
            Tree::leaf(Algebraic::zero()),
            Tree::leaf(Algebraic::one()),
        );
        assert!(!bad_var.is_well_formed());
    }

    #[test]
    fn dirac_rendering_of_superpositions() {
        let tree = Tree::from_fn(2, |b| match b {
            0 => Algebraic::one_over_sqrt2(),
            3 => -&Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        let dirac = tree.to_dirac();
        assert!(dirac.contains("|00⟩"));
        assert!(dirac.contains("|11⟩"));
        let zero = Tree::from_fn(1, |_| Algebraic::zero());
        assert_eq!(zero.to_dirac(), "0");
    }

    #[test]
    fn debug_rendering_is_term_like() {
        let tree = Tree::basis_state(1, 1);
        assert_eq!(format!("{tree:?}"), "x0(0, 1)");
        // Wide trees are summarised rather than unfolded.
        let wide = Tree::basis_state(40, 7);
        let rendered = format!("{wide:?}");
        assert!(rendered.contains("40 qubits"), "got {rendered}");
    }

    #[test]
    fn for_each_nonzero_lists_the_support_in_ascending_order() {
        let tree = Tree::from_fn(5, |b| match b % 7 {
            0 | 3 => Algebraic::zero(),
            1 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::i(),
        });
        let mut seen = Vec::new();
        tree.for_each_nonzero(|basis, amp| seen.push((basis, intern::resolve(amp))));
        let expected: Vec<_> = (0..32u128)
            .map(|b| (b, tree.amplitude(b)))
            .filter(|(_, amp)| !amp.is_zero())
            .collect();
        assert_eq!(seen, expected);
        let mut none = 0;
        Tree::from_fn(4, |_| Algebraic::zero()).for_each_nonzero(|_, _| none += 1);
        assert_eq!(none, 0);
    }

    /// A random well-formed tree of height `n` built with [`Tree::node`]
    /// from a pool of subtrees per depth, built bottom up: the all-zero
    /// subtree of that depth first, then nodes whose children are drawn
    /// from the pool below, so subtrees repeat (shared in the DAG), equal
    /// subtrees may also be distinct nodes, and whole branches are zero.
    fn random_shared_tree(rng: &mut impl rand::Rng, n: u32) -> Tree {
        let amps = [
            Algebraic::one(),
            Algebraic::one_over_sqrt2(),
            -&Algebraic::one_over_sqrt2(),
            Algebraic::i(),
        ];
        let mut pool = vec![Tree::leaf(Algebraic::zero())];
        pool.extend((0..3).map(|_| Tree::leaf(amps[rng.gen_range(0..amps.len())].clone())));
        for var in (0..n).rev() {
            let below = std::mem::take(&mut pool);
            pool.push(Tree::node(var, below[0].clone(), below[0].clone()));
            for _ in 0..4 {
                let left = below[rng.gen_range(0..below.len())].clone();
                let right = below[rng.gen_range(0..below.len())].clone();
                pool.push(Tree::node(var, left, right));
            }
        }
        pool[rng.gen_range(0..pool.len())].clone()
    }

    #[test]
    fn for_each_nonzero_matches_a_dense_enumeration_of_random_shared_trees() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..200 {
            let n = rng.gen_range(0..=8u32);
            let tree = random_shared_tree(&mut rng, n);
            let mut seen = Vec::new();
            tree.for_each_nonzero(|basis, amp| seen.push((basis, intern::resolve(amp))));
            let dense: Vec<_> = (0..basis::basis_count(n))
                .map(|b| (b, tree.amplitude(b)))
                .filter(|(_, amp)| !amp.is_zero())
                .collect();
            assert_eq!(seen, dense, "{tree:?}");
        }
    }

    #[test]
    fn equality_and_hash_agree_with_the_amplitude_map_across_constructors() {
        use rand::{Rng, SeedableRng};
        use std::hash::BuildHasher;
        let hasher = std::collections::hash_map::RandomState::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for _ in 0..300 {
            // Small heights, so independent draws are often equal.
            let n = rng.gen_range(0..=3u32);
            let tree = random_shared_tree(&mut rng, n);
            let map = tree.to_amplitude_map();
            let rebuilt = [
                Tree::from_fn(n, |b| tree.amplitude(b)),
                crate::format::tree_from_binary(&crate::format::tree_to_binary(&tree)).unwrap(),
                crate::TreeAutomaton::from_tree(&tree)
                    .enumerate(2)
                    .remove(0),
            ];
            for other in rebuilt {
                assert_eq!(other, tree, "{tree:?}");
                assert_eq!(hasher.hash_one(&other), hasher.hash_one(&tree));
            }
            let other = random_shared_tree(&mut rng, n);
            assert_eq!(
                other == tree,
                other.to_amplitude_map() == map,
                "{tree:?} vs {other:?}"
            );
            if other == tree {
                assert_eq!(hasher.hash_one(&other), hasher.hash_one(&tree));
            }
        }
    }

    #[test]
    fn support_size_counts_nonzero_leaves() {
        let tree = Tree::from_fn(3, |b| {
            if b < 3 {
                Algebraic::one_over_sqrt2()
            } else {
                Algebraic::zero()
            }
        });
        assert_eq!(tree.support_size(), 3);
        assert_eq!(Tree::from_fn(2, |_| Algebraic::zero()).support_size(), 0);
    }
}
