//! Cross-validation of the fused composition pipeline against the retained
//! reference swap ladder:
//!
//! * on random automata (tagged and untagged, varying qubit depth), the
//!   fused [`project_with`] — layer-bucketed swap passes with per-pass
//!   interning — accepts exactly the same (tagged) language as the unfused
//!   [`project_reference`] ladder;
//! * a reference recursive formula evaluator built from the same unfused
//!   pieces and the untrimmed [`binary_op_reference`] product agrees with
//!   the fused [`evaluate_with`];
//! * on the operands of every `Combine` of X, H, CNOT and Toffoli formulae
//!   (controls above and below the target) over random tagged sets,
//!   [`binary_op`] (the paper's product, trimmed only when it holds a dead
//!   pair) accepts the reference product's tagged language and is exactly
//!   its trim: every state reachable and productive;
//! * tag structure survives reduction: reducing a tagged automaton never
//!   merges states whose signatures disagree on tags, and never invents or
//!   drops tags.
//!
//! The projection and product properties also run 5,000 cases each in
//! `#[ignore]`d tests, for release builds.  The exact, pass-by-pass
//! comparison of the ladder with its earlier implementation is a unit test
//! of the crate (`composition::pass_oracle`).

use std::collections::HashSet;

use autoq_amplitude::Algebraic;
use autoq_circuit::Gate;
use autoq_core::composition::{
    self, binary_op, binary_op_reference, evaluate_with, multiply_in_place, project_reference,
    project_with, restrict_in_place, tag_in_place, CompositionOptions,
};
use autoq_core::formula::{update_formula, CombineSign, UpdateExpr};
use autoq_core::CompositionOptions as ReexportedOptions;
use autoq_core::{Engine, StateSet};
use autoq_treeaut::{basis, equivalence, Tag, Tree, TreeAutomaton};
use proptest::prelude::*;

/// A tagged copy of `automaton`.
fn tag(automaton: &TreeAutomaton) -> TreeAutomaton {
    let mut tagged = automaton.clone();
    tag_in_place(&mut tagged);
    tagged
}

/// Builds a random small automaton: the basis states selected by `mask`
/// plus one superposition tree derived from `seed`, optionally tagged (the
/// shape every composition-encoded gate works on).
fn random_automaton(n: u32, mask: u64, seed: u32, tagged: bool) -> TreeAutomaton {
    let space = autoq_treeaut::basis::basis_count(n);
    let mut trees: Vec<Tree> = (0..space)
        .filter(|b| mask & (1 << b) != 0)
        .map(|b| Tree::basis_state(n, b))
        .collect();
    trees.push(Tree::from_fn(n, |b| {
        Algebraic::from_int(((seed as u128 + b) % 4) as i64)
    }));
    let automaton = TreeAutomaton::from_trees(n, &trees);
    if tagged {
        tag(&automaton)
    } else {
        automaton
    }
}

/// A random tagged *set* for the product property, in one of three shapes:
/// basis states plus a superposed tree ([`random_automaton`], shape 0); a
/// hunt input pattern, whose free qubits give one state two transitions
/// over a shared all-zero subtree (shape 1); or such a pattern after a
/// Hadamard, a nondeterministic superposing set.
fn random_tagged_set(n: u32, mask: u64, seed: u32, shape: u8) -> TreeAutomaton {
    let space = basis::basis_count(n) as u64;
    if shape == 0 {
        // At least one basis state next to the superposed tree.
        return random_automaton(n, 1 + mask % ((1 << space) - 1), seed, true);
    }
    let free: Vec<u32> = (0..n).filter(|q| mask & (1 << q) != 0).collect();
    let free_bits: u128 = free.iter().map(|&q| basis::qubit_bit(n, q)).sum();
    let fixed = (u128::from(seed) % u128::from(space)) & !free_bits;
    let set = StateSet::basis_pattern(n, fixed, &free);
    if shape == 1 {
        return tag(set.automaton());
    }
    let superposed = Engine::composition().apply_gate(&set, &Gate::H((seed >> 8) % n));
    tag(superposed.automaton())
}

/// Reference recursive evaluator: the pre-fusion semantics, term by term,
/// with the unfused projection ladder and owned operands everywhere.
fn evaluate_reference(expr: &UpdateExpr, tagged_source: &TreeAutomaton) -> TreeAutomaton {
    match expr {
        UpdateExpr::Source => tagged_source.clone(),
        UpdateExpr::Proj { qubit, bit } => project_reference(tagged_source, *qubit, *bit),
        UpdateExpr::Restrict { qubit, bit, inner } => {
            let mut restricted = evaluate_reference(inner, tagged_source);
            restrict_in_place(&mut restricted, *qubit, *bit);
            restricted
        }
        UpdateExpr::Scale { factor, inner } => {
            let mut scaled = evaluate_reference(inner, tagged_source);
            multiply_in_place(&mut scaled, *factor);
            scaled
        }
        UpdateExpr::Combine { sign, lhs, rhs } => binary_op_reference(
            &evaluate_reference(lhs, tagged_source),
            &evaluate_reference(rhs, tagged_source),
            *sign,
        ),
    }
}

/// X and H on `target`, and CNOT and Toffoli with their controls both above
/// and below it (`n >= 2`; Toffolis need a third qubit).
fn product_gates(n: u32, seed: u32) -> Vec<Gate> {
    let target = seed % n;
    let other = (target + 1 + (seed / n) % (n - 1)) % n;
    let mut gates = vec![
        Gate::X(target),
        Gate::H(target),
        Gate::Cnot {
            control: other,
            target,
        },
        Gate::Cnot {
            control: target,
            target: other,
        },
    ];
    if let Some(third) = (0..n).find(|&q| q != target && q != other) {
        let mut qubits = [target, other, third];
        qubits.sort_unstable();
        let [low, mid, high] = qubits;
        gates.push(Gate::Toffoli {
            controls: [high, mid],
            target: low,
        });
        gates.push(Gate::Toffoli {
            controls: [low, mid],
            target: high,
        });
        gates.push(Gate::Toffoli {
            controls: [low, high],
            target: mid,
        });
    }
    gates
}

/// Checks [`binary_op`] against the trim of [`binary_op_reference`] on the
/// operands of every `Combine` node of `expr`; returns how many it checked.
fn check_products(expr: &UpdateExpr, tagged: &TreeAutomaton) -> usize {
    match expr {
        UpdateExpr::Source | UpdateExpr::Proj { .. } => 0,
        UpdateExpr::Restrict { inner, .. } | UpdateExpr::Scale { inner, .. } => {
            check_products(inner, tagged)
        }
        UpdateExpr::Combine { sign, lhs, rhs } => {
            let a = evaluate_with(lhs, tagged);
            let b = evaluate_with(rhs, tagged);
            let trimmed = binary_op(&a, &b, *sign);
            let reference = binary_op_reference(&a, &b, *sign);
            assert!(
                equivalence(&trimmed, &reference).holds(),
                "trimmed product changed the tagged language"
            );
            let expected = reference.trim();
            assert_eq!(trimmed.state_count(), expected.state_count());
            assert_eq!(trimmed.transition_count(), expected.transition_count());
            assert_eq!(
                trimmed.trim().state_count(),
                trimmed.state_count(),
                "every state of the trimmed product is reachable and productive"
            );
            1 + check_products(lhs, tagged) + check_products(rhs, tagged)
        }
    }
}

/// [`binary_op`] on the operands of every `Combine` of X, H, CNOT and
/// Toffoli formulae over a random tagged set.
fn check_trimmed_products(n: u32, mask: u64, seed: u32, gate_seed: u32, shape: u8) {
    let tagged = random_tagged_set(n, mask, seed, shape);
    let mut checked = 0;
    for gate in product_gates(n, gate_seed) {
        let formula = update_formula(&gate).expect("X, H, CNOT and Toffoli have formulae");
        checked += check_products(&formula, &tagged);
    }
    assert!(checked > 0);
}

/// The fused projection of a random automaton against the reference
/// ladder.
fn check_fused_projection(n: u32, mask: u64, seed: u32, qubit_seed: u32, bit: bool, tagged: bool) {
    let automaton = random_automaton(n, mask, seed, tagged);
    let qubit = qubit_seed % n;
    let fused = project_with(&automaton, qubit, bit);
    let reference = project_reference(&automaton, qubit, bit);
    // Tags are part of the symbols, so this compares the *tagged*
    // languages — exactly what the downstream binary operation matches
    // transitions on.
    assert!(
        equivalence(&fused, &reference).holds(),
        "fused projection diverged (n = {n}, qubit = {qubit}, bit = {bit}, tagged = {tagged})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn trimmed_product_is_the_trim_of_the_reference_product(
        n in 2u32..=4,
        mask in 0u64..255,
        seed in any::<u32>(),
        gate_seed in any::<u32>(),
        shape in 0u8..3,
    ) {
        check_trimmed_products(n, mask, seed, gate_seed, shape);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5_000))]
    /// The 5,000-case runs of the product and projection properties
    /// (release builds: `cargo test --release -p autoq-core --test
    /// composition_equivalence -- --include-ignored`).
    #[test]
    #[ignore]
    fn trimmed_product_is_the_trim_of_the_reference_product_on_five_thousand_cases(
        n in 2u32..=4,
        mask in 0u64..255,
        seed in any::<u32>(),
        gate_seed in any::<u32>(),
        shape in 0u8..3,
    ) {
        check_trimmed_products(n, mask, seed, gate_seed, shape);
    }

    #[test]
    #[ignore]
    fn fused_projection_matches_the_reference_ladder_on_five_thousand_cases(
        n in 2u32..=4,
        mask in 0u64..256,
        seed in any::<u32>(),
        qubit_seed in any::<u32>(),
        bit_choice in 0u8..2,
        tagged_choice in 0u8..2,
    ) {
        check_fused_projection(n, mask, seed, qubit_seed, bit_choice == 1, tagged_choice == 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn fused_projection_matches_the_reference_ladder(
        n in 2u32..=4,
        mask in 0u64..256,
        seed in any::<u32>(),
        qubit_seed in any::<u32>(),
        bit_choice in 0u8..2,
        tagged_choice in 0u8..2,
    ) {
        check_fused_projection(n, mask, seed, qubit_seed, bit_choice == 1, tagged_choice == 1);
    }

    #[test]
    fn fused_formula_evaluation_matches_the_reference_evaluator(
        n in 2u32..=3,
        mask in 0u64..64,
        seed in any::<u32>(),
        gate_seed in any::<u32>(),
    ) {
        let tagged = random_automaton(n, mask, seed, true);
        let target = gate_seed % n;
        let gate = match gate_seed % 3 {
            0 => Gate::H(target),
            1 => Gate::RxPi2(target),
            _ => Gate::RyPi2(target),
        };
        let formula = update_formula(&gate).expect("superposing gates have formulae");
        let fused = evaluate_with(&formula, &tagged);
        let reference = evaluate_reference(&formula, &tagged);
        prop_assert!(
            equivalence(&fused.untagged(), &reference.untagged()).holds(),
            "fused evaluation diverged ({gate:?})"
        );
    }

    #[test]
    fn reduction_preserves_tag_structure(
        n in 2u32..=4,
        mask in 0u64..256,
        seed in any::<u32>(),
    ) {
        // Reduce a tagged automaton with injected redundancy (`reduce` is
        // public and accepts tagged automata): the tagged language must be
        // unchanged and no tag may appear that the input did not carry.
        let mut automaton = random_automaton(n, mask, seed, true);
        let copy = automaton.clone();
        let offset = automaton.import_disjoint(&copy);
        let copied_roots: Vec<_> = copy.roots.iter().map(|r| r.offset(offset)).collect();
        for root in copied_roots {
            automaton.add_root(root);
        }
        let reduced = automaton.reduce();
        prop_assert!(reduced.state_count() <= copy.state_count());
        prop_assert!(equivalence(&reduced, &copy).holds(), "tagged language changed");
        let original_tags: HashSet<Tag> =
            copy.internal.iter().map(|t| t.symbol.tag).collect();
        for transition in &reduced.internal {
            prop_assert!(
                original_tags.contains(&transition.symbol.tag),
                "reduction invented tag {:?}",
                transition.symbol.tag
            );
        }
    }
}

/// The product keeps each `a2` state's first `a1` partner in a slot and
/// sends later partners to a map.  Here `a2` shares one state below both
/// children of its root and one leaf state below both children of that,
/// while `a1` has distinct states there: the pairs `(A, C)`, `(B, C)`,
/// `(s, u)` and `(t, u)` each meet an `a2` state a second time, and `B`'s
/// children look up both a slot pair and an overflow pair.
#[test]
fn a_state_meeting_two_partners_gives_the_trimmed_reference_product() {
    let x = |var| autoq_treeaut::InternalSymbol::new(var);
    let mut a1 = TreeAutomaton::new(2);
    let s = a1.leaf_state(&Algebraic::one());
    let t = a1.leaf_state(&Algebraic::from_int(2));
    let [a, b, root] = [a1.add_state(), a1.add_state(), a1.add_state()];
    a1.add_internal(a, x(1), s, t);
    a1.add_internal(b, x(1), t, s);
    a1.add_internal(root, x(0), a, b);
    a1.add_root(root);
    let mut a2 = TreeAutomaton::new(2);
    let u = a2.leaf_state(&Algebraic::i());
    let [c, root] = [a2.add_state(), a2.add_state()];
    a2.add_internal(c, x(1), u, u);
    a2.add_internal(root, x(0), c, c);
    a2.add_root(root);
    for sign in [CombineSign::Plus, CombineSign::Minus] {
        let product = binary_op(&a1, &a2, sign);
        assert_eq!(product, binary_op_reference(&a1, &a2, sign).trim());
        assert_eq!(product.state_count(), 5, "one state per distinct pair");
        assert_eq!(product.leaves.len(), 2);
    }
}

/// Pins the tag-preservation contract of `reduce` on tagged automata: two
/// states that are identical *except for their tags* must never be merged
/// (tags live in the symbols, so their signatures differ).
#[test]
fn reduction_never_merges_across_tags() {
    let mut automaton = TreeAutomaton::new(1);
    let zero = automaton.leaf_state(&Algebraic::zero());
    let one = automaton.leaf_state(&Algebraic::one());
    let a = automaton.add_state();
    let b = automaton.add_state();
    automaton.add_internal(
        a,
        autoq_treeaut::InternalSymbol::new(0).with_tag(Tag::Single(1)),
        zero,
        one,
    );
    automaton.add_internal(
        b,
        autoq_treeaut::InternalSymbol::new(0).with_tag(Tag::Single(2)),
        zero,
        one,
    );
    automaton.add_root(a);
    automaton.add_root(b);
    let reduced = automaton.reduce();
    // Both tagged transitions survive: the two trees differ only in tags,
    // and the binary operation downstream depends on that distinction.
    assert_eq!(reduced.internal.len(), 2);
    let tags: HashSet<Tag> = reduced.internal.iter().map(|t| t.symbol.tag).collect();
    assert!(tags.contains(&Tag::Single(1)) && tags.contains(&Tag::Single(2)));
}

/// The composition options are re-exported at the crate root and default
/// to the paper's ladder for every gate.  Only the Hybrid engine derives
/// the one-state and basis fast paths, whatever its reduction policy; the
/// evaluator is sequential.
#[test]
fn composition_options_default_and_reexport() {
    let options: ReexportedOptions = CompositionOptions::default();
    assert!(!options.hybrid_fast_paths);
    assert!(Engine::hybrid().composition_options().hybrid_fast_paths);
    assert_eq!(Engine::composition().composition_options(), options);
    let never = Engine::hybrid().with_reduction(autoq_core::ReductionPolicy::Never);
    assert!(never.composition_options().hybrid_fast_paths);
    let composition_never =
        Engine::composition().with_reduction(autoq_core::ReductionPolicy::Never);
    assert!(!composition_never.composition_options().hybrid_fast_paths);
    assert_eq!(composition::default_eval_threads(), 1);
}
