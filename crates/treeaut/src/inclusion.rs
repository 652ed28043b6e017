//! Language inclusion and equivalence checking with witness extraction.
//!
//! This module replaces the VATA calls of the AutoQ paper.  Inclusion
//! `L(A) ⊆ L(B)` is decided by an antichain-style bottom-up search over
//! pairs `(q, S)` where `q` is a state of `A` reachable by some tree `t` and
//! `S` is the exact set of states of `B` reachable by the same `t`.  A
//! counterexample exists iff some pair reaches a root of `A` while `S`
//! contains no root of `B`; the witness tree is reconstructed from the
//! search.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use autoq_amplitude::AmpId;

use crate::certificate::{build_certificate, CertificateBuildError, InclusionCertificate};
use crate::tree::TreeBuilder;
use crate::{StateId, TransitionIndex, Tree, TreeAutomaton};

/// Result of a language inclusion test `L(A) ⊆ L(B)`.
#[derive(Clone, Debug, PartialEq)]
pub enum InclusionResult {
    /// Every tree accepted by `A` is accepted by `B`.
    Included,
    /// A tree accepted by `A` but not by `B`.
    Counterexample(Tree),
}

impl InclusionResult {
    /// Returns `true` if the inclusion holds.
    pub fn holds(&self) -> bool {
        matches!(self, InclusionResult::Included)
    }
}

/// Result of a language equivalence test `L(A) = L(B)`.
#[derive(Clone, Debug, PartialEq)]
pub enum EquivalenceResult {
    /// The languages are equal.
    Equivalent,
    /// A tree accepted by `A` but not by `B`.
    OnlyInLeft(Tree),
    /// A tree accepted by `B` but not by `A`.
    OnlyInRight(Tree),
}

impl EquivalenceResult {
    /// Returns `true` if the languages are equal.
    pub fn holds(&self) -> bool {
        matches!(self, EquivalenceResult::Equivalent)
    }

    /// Returns the witness tree of a failed check, if any.
    pub fn witness(&self) -> Option<&Tree> {
        match self {
            EquivalenceResult::Equivalent => None,
            EquivalenceResult::OnlyInLeft(t) | EquivalenceResult::OnlyInRight(t) => Some(t),
        }
    }
}

/// A lazily shared witness tree (converted to a [`Tree`] only when a
/// counterexample is actually reported), so that deep automata do not pay
/// for materialising full binary trees during the search.
#[derive(Clone, Debug)]
enum Witness {
    Leaf(AmpId),
    Node(u32, Rc<Witness>, Rc<Witness>),
}

impl Witness {
    /// Converts the `Rc`-shared search witness into a [`Tree`].
    ///
    /// The conversion is memoised on the `Rc` pointers and hash-conses the
    /// nodes it builds, so each distinct witness subtree becomes one shared
    /// node and the result is emitted as a DAG: linear in the size of the
    /// search structure (itself bounded by the antichain work), never in
    /// the `2^(n+1)` unfolded tree.  This is what makes counterexample
    /// extraction possible at the paper's 35-qubit Table 3 scale, where the
    /// unfolded witness would need `2^36` nodes.
    fn to_tree(&self) -> Tree {
        fn convert(
            witness: &Witness,
            memo: &mut HashMap<*const Witness, Tree>,
            builder: &mut TreeBuilder,
        ) -> Tree {
            match witness {
                Witness::Leaf(amp) => builder.leaf(*amp),
                Witness::Node(var, left, right) => {
                    let mut subtree = |child: &Rc<Witness>| {
                        let key = Rc::as_ptr(child);
                        if let Some(tree) = memo.get(&key) {
                            return tree.clone();
                        }
                        let tree = convert(child, memo, builder);
                        memo.insert(key, tree.clone());
                        tree
                    };
                    let left = subtree(left);
                    let right = subtree(right);
                    builder.node(*var, &left, &right)
                }
            }
        }
        convert(self, &mut HashMap::new(), &mut TreeBuilder::default())
    }
}

/// A pair of the antichain search: the set of `B`-states reachable by the
/// witness tree, plus the witness itself.  Shared via `Rc` so the per-state
/// antichains and the worklist can hold the same pair without copying the
/// state set.
#[derive(Clone, Debug)]
struct SearchPair {
    b_states: BTreeSet<StateId>,
    witness: Rc<Witness>,
}

/// Decides `L(a) ⊆ L(b)`, producing a witness tree on failure.
///
/// Tags are ignored: inclusion is always performed on the untagged view of
/// the symbols (tagged automata only exist transiently inside gate
/// application).
///
/// # Examples
///
/// ```
/// use autoq_treeaut::{inclusion, Tree, TreeAutomaton};
///
/// let small = TreeAutomaton::from_tree(&Tree::basis_state(2, 1));
/// let trees: Vec<Tree> = (0..4).map(|b| Tree::basis_state(2, b)).collect();
/// let big = TreeAutomaton::from_trees(2, &trees);
/// assert!(inclusion(&small, &big).holds());
/// assert!(!inclusion(&big, &small).holds());
/// ```
pub fn inclusion(a: &TreeAutomaton, b: &TreeAutomaton) -> InclusionResult {
    match search(a, b) {
        Ok(_) => InclusionResult::Included,
        Err(counterexample) => InclusionResult::Counterexample(counterexample),
    }
}

/// Result of a certificate-producing inclusion test `L(A) ⊆ L(B)`.
#[derive(Clone, Debug, PartialEq)]
pub enum CertifiedInclusionResult {
    /// The inclusion holds; the certificate justifies it (see
    /// [`crate::certificate`] for the conditions it encodes).
    Included(InclusionCertificate),
    /// A tree accepted by `A` but not by `B`.
    Counterexample(Tree),
}

impl CertifiedInclusionResult {
    /// Returns `true` if the inclusion holds.
    pub fn holds(&self) -> bool {
        matches!(self, CertifiedInclusionResult::Included(_))
    }
}

/// Decides `L(a) ⊆ L(b)` like [`inclusion`], additionally emitting an
/// [`InclusionCertificate`] on a positive verdict.
///
/// The certificate is built by a deterministic post-pass over the final
/// antichains of the search; on a correct search the pass always succeeds,
/// so an `Err` is itself evidence of a soundness bug in the optimized
/// search and must be treated as a hard failure by callers.
///
/// ```
/// use autoq_treeaut::{inclusion_with_certificate, CertifiedInclusionResult, Tree, TreeAutomaton};
///
/// let small = TreeAutomaton::from_tree(&Tree::basis_state(2, 1));
/// let trees: Vec<Tree> = (0..4).map(|b| Tree::basis_state(2, b)).collect();
/// let big = TreeAutomaton::from_trees(2, &trees);
/// let result = inclusion_with_certificate(&small, &big).unwrap();
/// assert!(matches!(result, CertifiedInclusionResult::Included(_)));
/// ```
pub fn inclusion_with_certificate(
    a: &TreeAutomaton,
    b: &TreeAutomaton,
) -> Result<CertifiedInclusionResult, CertificateBuildError> {
    match search(a, b) {
        Err(counterexample) => Ok(CertifiedInclusionResult::Counterexample(counterexample)),
        Ok(pairs) => {
            let antichains: Vec<Vec<BTreeSet<StateId>>> = pairs
                .iter()
                .map(|chain| chain.iter().map(|pair| pair.b_states.clone()).collect())
                .collect();
            build_certificate(a, b, &antichains).map(CertifiedInclusionResult::Included)
        }
    }
}

/// The antichain search shared by [`inclusion`] and
/// [`inclusion_with_certificate`]: returns the final per-state antichains on
/// success, or a counterexample tree on failure.
fn search(a: &TreeAutomaton, b: &TreeAutomaton) -> Result<Vec<Vec<Rc<SearchPair>>>, Tree> {
    // Group B's leaf transitions by interned amplitude id and internal
    // transitions by var.
    let mut b_leaves: HashMap<AmpId, BTreeSet<StateId>> = HashMap::new();
    for t in &b.leaves {
        b_leaves.entry(t.amp).or_default().insert(t.parent);
    }
    let mut b_internal_by_var: HashMap<u32, Vec<(StateId, StateId, StateId)>> = HashMap::new();
    for t in &b.internal {
        b_internal_by_var
            .entry(t.symbol.var)
            .or_default()
            .push((t.parent, t.left, t.right));
    }
    let b_roots: BTreeSet<StateId> = b.roots.iter().copied().collect();
    // A's transitions indexed by child state, so each *new* pair combines
    // only with the transitions it can actually extend (worklist saturation)
    // instead of a fixpoint rescan over all of A's transitions.
    let a_index = TransitionIndex::build(a);

    // pairs[q] = antichain (by ⊆ on b_states) of SearchPairs for A-state q.
    let mut pairs: Vec<Vec<Rc<SearchPair>>> = vec![Vec::new(); a.num_states as usize];

    // Returns true when the pair is new (not subsumed by an existing pair).
    fn insert_pair(pairs: &mut [Vec<Rc<SearchPair>>], q: StateId, new: &Rc<SearchPair>) -> bool {
        let entry = &mut pairs[q.index()];
        // Subsumed: an existing pair with a subset of B-states witnesses at
        // least as much "escape" as the new one.
        if entry
            .iter()
            .any(|existing| existing.b_states.is_subset(&new.b_states))
        {
            return false;
        }
        entry.retain(|existing| !new.b_states.is_subset(&existing.b_states));
        entry.push(Rc::clone(new));
        true
    }

    let failure =
        |pair: &SearchPair, roots: &BTreeSet<StateId>| -> bool { pair.b_states.is_disjoint(roots) };

    // Worklist of newly inserted (A-state, pair) facts still to be combined
    // upwards.  A pair later evicted from its antichain may still be
    // processed; that is sound (its b_states set is exact for its witness)
    // and merely redundant.
    let mut worklist: Vec<(StateId, Rc<SearchPair>)> = Vec::new();

    // Initialise with A's leaf transitions.
    for t in &a.leaves {
        let b_states = b_leaves.get(&t.amp).cloned().unwrap_or_default();
        let pair = Rc::new(SearchPair {
            b_states,
            witness: Rc::new(Witness::Leaf(t.amp)),
        });
        if a.roots.contains(&t.parent) && failure(&pair, &b_roots) {
            return Err(pair.witness.to_tree());
        }
        if insert_pair(&mut pairs, t.parent, &pair) {
            worklist.push((t.parent, pair));
        }
    }

    // Saturate: combine each new pair through every transition where its
    // state occurs as a child, against the current pairs of the sibling
    // child (pairs added to the sibling later re-trigger the combination
    // themselves when they are popped).
    while let Some((q, pair)) = worklist.pop() {
        // A transition with left == right == q occurs twice in the
        // occurrence list, and the CSR build emits both slots consecutively,
        // so skipping adjacent repeats visits each transition exactly once.
        let mut previous: Option<u32> = None;
        for &position in a_index.occurrences_as_child(q) {
            if previous == Some(position) {
                continue;
            }
            previous = Some(position);
            let t = &a.internal[position as usize];
            let candidates = b_internal_by_var
                .get(&t.symbol.var)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            // The new pair can sit in the left slot, the right slot, or both
            // (when t.left == t.right == q).
            let mut combos: Vec<(Rc<SearchPair>, Rc<SearchPair>)> = Vec::new();
            if t.left == q {
                for rp in &pairs[t.right.index()] {
                    combos.push((Rc::clone(&pair), Rc::clone(rp)));
                }
            }
            if t.right == q {
                for lp in &pairs[t.left.index()] {
                    // Skip the (pair, pair) combo already produced by the
                    // left-slot loop when both children are q.
                    if t.left == q && Rc::ptr_eq(lp, &pair) {
                        continue;
                    }
                    combos.push((Rc::clone(lp), Rc::clone(&pair)));
                }
            }
            for (lp, rp) in combos {
                let mut b_states = BTreeSet::new();
                for &(parent, left, right) in candidates {
                    if lp.b_states.contains(&left) && rp.b_states.contains(&right) {
                        b_states.insert(parent);
                    }
                }
                let new_pair = Rc::new(SearchPair {
                    b_states,
                    witness: Rc::new(Witness::Node(
                        t.symbol.var,
                        Rc::clone(&lp.witness),
                        Rc::clone(&rp.witness),
                    )),
                });
                if a.roots.contains(&t.parent) && failure(&new_pair, &b_roots) {
                    return Err(new_pair.witness.to_tree());
                }
                if insert_pair(&mut pairs, t.parent, &new_pair) {
                    worklist.push((t.parent, new_pair));
                }
            }
        }
    }
    Ok(pairs)
}

/// Decides `L(a) = L(b)`, producing a witness tree on failure.
///
/// ```
/// use autoq_treeaut::{equivalence, Tree, TreeAutomaton};
/// let a = TreeAutomaton::from_tree(&Tree::basis_state(1, 0));
/// let b = TreeAutomaton::from_tree(&Tree::basis_state(1, 1));
/// assert!(equivalence(&a, &a).holds());
/// assert!(!equivalence(&a, &b).holds());
/// ```
pub fn equivalence(a: &TreeAutomaton, b: &TreeAutomaton) -> EquivalenceResult {
    match inclusion(a, b) {
        InclusionResult::Counterexample(tree) => EquivalenceResult::OnlyInLeft(tree),
        InclusionResult::Included => match inclusion(b, a) {
            InclusionResult::Counterexample(tree) => EquivalenceResult::OnlyInRight(tree),
            InclusionResult::Included => EquivalenceResult::Equivalent,
        },
    }
}

/// A brute-force equivalence check by explicit language enumeration, used to
/// cross-validate the antichain algorithm in tests on small automata.
///
/// # Panics
///
/// Panics if either language has more than `limit` trees.
pub fn naive_equivalence(a: &TreeAutomaton, b: &TreeAutomaton, limit: usize) -> bool {
    let la = a.enumerate(limit + 1);
    let lb = b.enumerate(limit + 1);
    assert!(
        la.len() <= limit && lb.len() <= limit,
        "language too large for naive check"
    );
    if la.len() != lb.len() {
        return false;
    }
    la.iter().all(|t| b.accepts(t)) && lb.iter().all(|t| a.accepts(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoq_amplitude::Algebraic;

    fn all_basis(n: u32) -> TreeAutomaton {
        let trees: Vec<Tree> = (0..crate::basis::basis_count(n))
            .map(|b| Tree::basis_state(n, b))
            .collect();
        TreeAutomaton::from_trees(n, &trees)
    }

    #[test]
    fn inclusion_of_singleton_in_full_set() {
        let single = TreeAutomaton::from_tree(&Tree::basis_state(3, 5));
        let all = all_basis(3);
        assert!(inclusion(&single, &all).holds());
        match inclusion(&all, &single) {
            InclusionResult::Counterexample(tree) => {
                assert!(all.accepts(&tree));
                assert!(!single.accepts(&tree));
            }
            InclusionResult::Included => panic!("inclusion should fail"),
        }
    }

    #[test]
    fn equivalence_detects_amplitude_differences() {
        let plus = Tree::from_fn(1, |_| Algebraic::one_over_sqrt2());
        let minus = Tree::from_fn(1, |b| {
            if b == 0 {
                Algebraic::one_over_sqrt2()
            } else {
                -&Algebraic::one_over_sqrt2()
            }
        });
        let a = TreeAutomaton::from_tree(&plus);
        let b = TreeAutomaton::from_tree(&minus);
        let result = equivalence(&a, &b);
        assert!(!result.holds());
        let witness = result.witness().unwrap();
        assert!(a.accepts(witness) != b.accepts(witness));
    }

    #[test]
    fn equivalence_after_reduction_is_preserved() {
        let all = all_basis(4);
        let reduced = all.reduce();
        assert!(equivalence(&all, &reduced).holds());
        assert!(naive_equivalence(&all, &reduced, 100));
    }

    #[test]
    fn empty_language_is_included_in_everything() {
        let empty = TreeAutomaton::new(2);
        let all = all_basis(2);
        assert!(inclusion(&empty, &all).holds());
        assert!(!inclusion(&all, &empty).holds());
        assert!(equivalence(&empty, &TreeAutomaton::new(2)).holds());
    }

    #[test]
    fn witness_is_minimal_looking_tree_from_left_language() {
        let a = all_basis(2);
        let three_of_four = TreeAutomaton::from_trees(
            2,
            &[
                Tree::basis_state(2, 0),
                Tree::basis_state(2, 1),
                Tree::basis_state(2, 2),
            ],
        );
        match equivalence(&a, &three_of_four) {
            EquivalenceResult::OnlyInLeft(tree) => {
                assert_eq!(tree, Tree::basis_state(2, 3));
            }
            other => panic!("unexpected result {other:?}"),
        }
    }

    #[test]
    fn antichain_matches_naive_on_random_small_sets() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = rng.gen_range(1..=3u32);
            let universe = crate::basis::basis_count(n);
            let pick = |rng: &mut rand::rngs::StdRng| -> Vec<Tree> {
                (0..universe)
                    .filter(|_| rng.gen_bool(0.5))
                    .map(|b| Tree::basis_state(n, b))
                    .collect()
            };
            let set_a = pick(&mut rng);
            let set_b = pick(&mut rng);
            let a = TreeAutomaton::from_trees(n, &set_a);
            let b = TreeAutomaton::from_trees(n, &set_b);
            let expected =
                set_a.iter().all(|t| set_b.contains(t)) && set_b.iter().all(|t| set_a.contains(t));
            assert_eq!(equivalence(&a, &b).holds(), expected);
            assert_eq!(naive_equivalence(&a, &b, 64), expected);
        }
    }

    #[test]
    fn certified_inclusion_agrees_with_plain_inclusion() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..30 {
            let n = rng.gen_range(1..=3u32);
            let universe = crate::basis::basis_count(n);
            let pick = |rng: &mut rand::rngs::StdRng| -> Vec<Tree> {
                (0..universe)
                    .filter(|_| rng.gen_bool(0.5))
                    .map(|b| Tree::basis_state(n, b))
                    .collect()
            };
            let a = TreeAutomaton::from_trees(n, &pick(&mut rng));
            let b = TreeAutomaton::from_trees(n, &pick(&mut rng));
            let plain = inclusion(&a, &b).holds();
            let certified = inclusion_with_certificate(&a, &b).expect("post-pass must succeed");
            assert_eq!(certified.holds(), plain);
            if let CertifiedInclusionResult::Included(cert) = &certified {
                let bytes = crate::format::certificates_to_binary(std::slice::from_ref(cert));
                let decoded = crate::format::certificates_from_binary(&bytes).unwrap();
                assert_eq!(decoded, vec![cert.clone()]);
            }
        }
    }

    #[test]
    fn inclusion_distinguishes_related_superpositions() {
        let bell = Tree::from_fn(2, |b| match b {
            0 | 3 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        });
        let union = TreeAutomaton::from_trees(2, &[bell.clone(), Tree::basis_state(2, 0)]);
        let only_bell = TreeAutomaton::from_tree(&bell);
        assert!(inclusion(&only_bell, &union).holds());
        let result = inclusion(&union, &only_bell);
        match result {
            InclusionResult::Counterexample(tree) => assert_eq!(tree, Tree::basis_state(2, 0)),
            InclusionResult::Included => panic!("should not be included"),
        }
    }
}
