//! The binary automaton/tree codec of [`autoq_treeaut::format`]:
//!
//! * `from_binary(to_binary(A)) == A` exactly (states, roots, transition
//!   order, tags),
//! * `tree_from_binary(tree_to_binary(t)) == t` with `t`'s node count —
//!   the decoder reconstructs DAG sharing,
//! * a 70-qubit witness fixture stays linear in both codec directions,
//! * hostile input (truncation at every offset, bit flips, garbage) is
//!   rejected with an error, never a panic,
//! * property tests over randomly generated automata and amplitude
//!   functions.

use autoq_amplitude::Algebraic;
use autoq_treeaut::format::{from_binary, to_binary, tree_from_binary, tree_to_binary};
use autoq_treeaut::{InternalSymbol, Tag, Tree, TreeAutomaton};
use proptest::prelude::*;

/// A small tagged automaton exercising every structural feature: multiple
/// roots, shared states, duplicate-target transitions, all three tag kinds,
/// and non-trivial amplitudes.
fn tagged_fixture() -> TreeAutomaton {
    let mut automaton = TreeAutomaton::new(2);
    let leaf_zero = automaton.leaf_state(&Algebraic::zero());
    let leaf_one = automaton.leaf_state(&Algebraic::one());
    let leaf_half = automaton.leaf_state(&Algebraic::one_over_sqrt2());
    let mid_a = automaton.add_state();
    let mid_b = automaton.add_state();
    let root_a = automaton.add_state();
    let root_b = automaton.add_state();
    automaton.add_internal(mid_a, InternalSymbol::new(1), leaf_zero, leaf_one);
    automaton.add_internal(
        mid_a,
        InternalSymbol::new(1).with_tag(Tag::Single(3)),
        leaf_one,
        leaf_zero,
    );
    automaton.add_internal(
        mid_b,
        InternalSymbol::new(1).with_tag(Tag::Pair(1, 2)),
        leaf_half,
        leaf_half,
    );
    automaton.add_internal(root_a, InternalSymbol::new(0), mid_a, mid_b);
    automaton.add_internal(root_b, InternalSymbol::new(0), mid_b, mid_b);
    automaton.add_root(root_a);
    automaton.add_root(root_b);
    automaton
}

/// Regression: an *untagged* automaton with small state ids encodes every
/// internal transition in exactly five bytes (the format minimum), so the
/// internal section is `5 × count` bytes with nothing after it.  The
/// hostile-count guard once assumed six bytes per transition and rejected
/// every such automaton — engine-produced `StateSet` automata are untagged,
/// so this is the daemon's Automaton-spec hot case.
#[test]
fn minimally_encoded_untagged_automata_round_trip() {
    let mut automaton = TreeAutomaton::new(2);
    let leaf_zero = automaton.leaf_state(&Algebraic::zero());
    let leaf_one = automaton.leaf_state(&Algebraic::one());
    let mid = automaton.add_state();
    let root = automaton.add_state();
    automaton.add_internal(mid, InternalSymbol::new(1), leaf_zero, leaf_one);
    automaton.add_internal(mid, InternalSymbol::new(1), leaf_one, leaf_zero);
    automaton.add_internal(root, InternalSymbol::new(0), mid, mid);
    automaton.add_root(root);

    let bytes = to_binary(&automaton);
    let decoded = from_binary(&bytes).unwrap();
    assert_eq!(decoded, automaton);
    assert_eq!(to_binary(&decoded), bytes);
}

#[test]
fn automaton_binary_round_trip_is_exact() {
    for automaton in [
        TreeAutomaton::new(0),
        TreeAutomaton::from_tree(&Tree::basis_state(3, 0b101)),
        TreeAutomaton::from_tree(&Tree::from_fn(2, |b| match b {
            0 | 3 => Algebraic::one_over_sqrt2(),
            _ => Algebraic::zero(),
        })),
        tagged_fixture(),
    ] {
        let bytes = to_binary(&automaton);
        let decoded = from_binary(&bytes).unwrap();
        assert_eq!(decoded, automaton);
        // A second encode of the decoded automaton is byte-identical.
        assert_eq!(to_binary(&decoded), bytes);
    }
}

/// Tags are `u32`: the widest one round-trips, and a tag varint one past
/// it is rejected with a typed error, not truncated.
#[test]
fn tags_above_u32_are_rejected() {
    let mut automaton = TreeAutomaton::new(1);
    let leaf = automaton.leaf_state(&Algebraic::one());
    let root = automaton.add_state();
    let symbol = InternalSymbol::new(0).with_tag(Tag::Pair(1, u32::MAX));
    automaton.add_internal(root, symbol, leaf, leaf);
    automaton.add_root(root);
    let mut bytes = to_binary(&automaton);
    assert_eq!(from_binary(&bytes).unwrap(), automaton);

    // u32::MAX and u32::MAX + 1 both take five varint bytes, so swapping
    // one for the other keeps every other field in place.
    let widest = [0xff, 0xff, 0xff, 0xff, 0x0f];
    let position = bytes
        .windows(widest.len())
        .position(|window| window == widest)
        .expect("the tag's varint is in the encoding");
    bytes[position..position + widest.len()].copy_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
    let error = from_binary(&bytes).expect_err("a tag above u32::MAX must be rejected");
    assert!(
        error.message.contains("exceeds u32"),
        "unexpected error: {error}"
    );
}

#[test]
fn tree_binary_round_trip_restores_an_equal_tree() {
    let trees = [
        Tree::leaf(Algebraic::zero()),
        Tree::basis_state(1, 1),
        Tree::from_fn(4, |b| match b % 3 {
            0 => Algebraic::one_over_sqrt2(),
            1 => Algebraic::one(),
            _ => Algebraic::zero(),
        }),
    ];
    for tree in trees {
        let bytes = tree_to_binary(&tree);
        let decoded = tree_from_binary(&bytes).unwrap();
        // Structurally equal, with the sharing reconstructed.
        assert_eq!(decoded, tree);
        assert_eq!(decoded.node_count(), tree.node_count());
    }
}

#[test]
fn seventy_qubit_witness_stays_linear_through_the_codec() {
    // A 70-qubit basis state: the unfolded tree would have 2^71 nodes; the
    // DAG has 2·70 + 1.  The codec must stay linear in the DAG.
    let tree = Tree::basis_state(70, (1u128 << 69) | 0b1011);
    assert_eq!(tree.node_count(), 141);
    let bytes = tree_to_binary(&tree);
    // Each node costs a handful of bytes — if sharing were lost this would
    // be astronomically larger.
    assert!(
        bytes.len() < 141 * 32,
        "70-qubit witness encoded to {} bytes",
        bytes.len()
    );
    let decoded = tree_from_binary(&bytes).unwrap();
    assert_eq!(decoded, tree);
    assert_eq!(decoded.node_count(), 141);
    assert_eq!(decoded.num_qubits(), 70);
}

#[test]
fn truncated_automaton_bytes_error_at_every_offset() {
    let bytes = to_binary(&tagged_fixture());
    for cut in 0..bytes.len() {
        assert!(from_binary(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn truncated_tree_bytes_error_at_every_offset() {
    let tree = Tree::from_fn(3, |b| {
        if b % 2 == 0 {
            Algebraic::one_over_sqrt2()
        } else {
            Algebraic::zero()
        }
    });
    let bytes = tree_to_binary(&tree);
    for cut in 0..bytes.len() {
        assert!(tree_from_binary(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn single_byte_corruptions_never_panic() {
    let automaton_bytes = to_binary(&tagged_fixture());
    let tree_bytes = tree_to_binary(&Tree::basis_state(5, 0b10110));
    for offset in 0..automaton_bytes.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut bad = automaton_bytes.clone();
            bad[offset] ^= mask;
            // Must return (Ok or Err), never panic; a surviving decode must
            // still be a valid automaton.
            if let Ok(decoded) = from_binary(&bad) {
                assert!(decoded.validate().is_ok());
            }
        }
    }
    for offset in 0..tree_bytes.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut bad = tree_bytes.clone();
            bad[offset] ^= mask;
            let _ = tree_from_binary(&bad);
        }
    }
}

#[test]
fn version_one_encodings_are_rejected_with_a_version_error() {
    // Version 2 moved leaf amplitudes into a per-message table; a v1 body
    // is not decodable as v2, so the version byte must be checked first.
    for magic in [b"AQBA", b"AQTD"] {
        let mut bytes = magic.to_vec();
        bytes.push(1);
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let message = match magic {
            b"AQBA" => from_binary(&bytes).unwrap_err().message,
            _ => tree_from_binary(&bytes).unwrap_err().message,
        };
        assert!(message.contains("version 1"), "got: {message}");
    }
}

/// Satellite check for the interned-amplitude codec: amplitudes whose
/// coefficients exceed one 64-bit limb (heap-spilled bigints) survive both
/// binary codecs exactly, and the per-message amplitude table deduplicates
/// them — each distinct multi-limb tuple is encoded once no matter how many
/// leaves reference it.
#[test]
fn multi_limb_amplitudes_round_trip_both_codecs() {
    // (i64::MAX)^2 ≈ 2^126 needs two limbs; cubing pushes to three.
    let wide = Algebraic::from_int(i64::MAX);
    let two_limb = &wide * &wide;
    let three_limb = &two_limb * &wide;
    let mixed = &two_limb - &Algebraic::one();
    assert!(two_limb != three_limb && three_limb != mixed);

    // Tree codec (AQTD): a DAG whose leaves carry the wide amplitudes.
    let tree = Tree::from_fn(4, |b| match b % 4 {
        0 => two_limb.clone(),
        1 => three_limb.clone(),
        2 => mixed.clone(),
        _ => Algebraic::zero(),
    });
    let bytes = tree_to_binary(&tree);
    let decoded = tree_from_binary(&bytes).unwrap();
    assert_eq!(decoded, tree);
    assert_eq!(decoded.to_amplitude_map(), tree.to_amplitude_map());

    // Automaton codec (AQBA): exact structural round-trip of the automaton
    // built from the same tree.
    let automaton = TreeAutomaton::from_tree(&tree);
    let bytes = to_binary(&automaton);
    let decoded = from_binary(&bytes).unwrap();
    assert_eq!(decoded, automaton);
    assert_eq!(to_binary(&decoded), bytes);
}

/// The amplitude table makes repeated wide amplitudes nearly free: a
/// 10-qubit uniform tree over one multi-limb amplitude must encode the
/// 48-byte bigint tuple once, not once per leaf transition.
#[test]
fn amplitude_table_deduplicates_wide_leaves() {
    let wide = Algebraic::from_int(i64::MAX);
    let huge = &(&wide * &wide) * &wide;
    let tree = Tree::from_fn(10, |_| huge.clone());
    let automaton = TreeAutomaton::from_tree(&tree);
    let leaf_count = automaton.leaves.len();
    assert!(leaf_count >= 1);
    let bytes = to_binary(&automaton);
    // One table entry (~3 limbs × 8 bytes + overhead) plus two varints per
    // leaf; if the tuple were inlined per-leaf this would blow well past
    // the bound.
    assert!(
        bytes.len() < 120 + 16 * leaf_count + 10 * automaton.internal.len(),
        "encoded {} leaves to {} bytes",
        leaf_count,
        bytes.len()
    );
}

#[test]
fn garbage_and_wrong_magic_are_rejected() {
    assert!(from_binary(&[]).is_err());
    assert!(tree_from_binary(&[]).is_err());
    assert!(from_binary(b"AQTD....").is_err(), "tree magic on automaton");
    assert!(
        tree_from_binary(b"AQBA....").is_err(),
        "automaton magic on tree"
    );
    assert!(from_binary(&[0xff; 64]).is_err());
    assert!(tree_from_binary(&[0xff; 64]).is_err());
}

/// Automata denote finite trees bottom-up, so a cycle is malformed input
/// for both decoders (it would also force the reduction onto its slow
/// reference path).
#[test]
fn cyclic_automata_are_rejected() {
    let mut automaton = TreeAutomaton::new(1);
    let leaf = automaton.leaf_state(&Algebraic::one());
    let q = automaton.add_state();
    automaton.add_internal(q, InternalSymbol::new(0), leaf, leaf);
    automaton.add_internal(q, InternalSymbol::new(0), q, leaf);
    automaton.add_root(q);
    let error = from_binary(&to_binary(&automaton)).unwrap_err();
    assert!(error.to_string().contains("cycle"), "{error}");
}

#[test]
fn hostile_counts_do_not_allocate() {
    // A header announcing u64::MAX states/nodes with no bytes behind it
    // must fail fast instead of attempting a huge allocation.
    let mut bytes = b"AQBA".to_vec();
    bytes.push(2); // version
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
    assert!(from_binary(&bytes).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random automata built from random trees round-trip exactly.
    #[test]
    fn random_tree_automata_round_trip(n in 0u32..5, seed in any::<u64>()) {
        let tree = Tree::from_fn(n, |basis| {
            let h = (basis as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed);
            match h % 4 {
                0 => Algebraic::zero(),
                1 => Algebraic::one(),
                2 => Algebraic::one_over_sqrt2(),
                _ => Algebraic::zero(),
            }
        });
        let automaton = TreeAutomaton::from_tree(&tree);
        let decoded = from_binary(&to_binary(&automaton)).unwrap();
        prop_assert_eq!(&decoded, &automaton);
        prop_assert!(decoded.accepts(&tree));
    }

    /// Random DAG-shared trees round-trip to equal trees of the same size.
    #[test]
    fn random_trees_round_trip(n in 0u32..7, seed in any::<u64>()) {
        let tree = Tree::from_fn(n, |basis| {
            let h = (basis as u64)
                .wrapping_mul(0xd134_2543_de82_ef95)
                .wrapping_add(seed);
            if h % 3 == 0 { Algebraic::one() } else { Algebraic::zero() }
        });
        let decoded = tree_from_binary(&tree_to_binary(&tree)).unwrap();
        prop_assert_eq!(decoded.node_count(), tree.node_count());
        prop_assert_eq!(decoded, tree);
    }

    /// Arbitrary byte soup never panics the decoders.
    #[test]
    fn decoding_random_bytes_never_panics(len in 0usize..96, seed in any::<u64>()) {
        let mut bytes = Vec::with_capacity(len);
        let mut state = seed | 1;
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            bytes.push((state >> 56) as u8);
        }
        let _ = from_binary(&bytes);
        let _ = tree_from_binary(&bytes);
    }
}
