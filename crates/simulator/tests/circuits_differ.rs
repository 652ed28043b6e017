//! Differential tests of `SparseState::circuits_differ_on`, which skips the
//! common gate prefix and suffix of two circuits, against its oracle: two
//! full `SparseState::run`s, and two `DenseState::run`s, compared.
//!
//! The pairs are random circuits of up to 8 qubits drawing every gate kind,
//! each paired with an edited copy: an inserted, deleted or replaced gate
//! anywhere (position 0 and the end included), several edits at once, no
//! edit at all, an unrelated circuit with no common prefix or suffix, and an
//! inserted gate that acts as the identity on the input.  Budget overflows
//! must read `None`.

use autoq_circuit::{Circuit, Gate};
use autoq_simulator::{DenseState, SparseState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{random_any_circuit, random_any_gate, random_basis};

/// Whether `a|basis⟩ ≠ b|basis⟩`, by full runs in both simulators (which
/// must agree).
fn oracle(a: &Circuit, b: &Circuit, basis: u128) -> bool {
    let sparse = SparseState::run(a, basis) != SparseState::run(b, basis);
    let dense = DenseState::run(a, basis) != DenseState::run(b, basis);
    assert_eq!(sparse, dense, "sparse and dense oracles disagree");
    sparse
}

/// Checks `circuits_differ_on` both ways round against the oracle, with an
/// unbounded budget, and returns the answer.
fn check(a: &Circuit, b: &Circuit, basis: u128, context: &str) -> bool {
    let expected = oracle(a, b, basis);
    for (x, y) in [(a, b), (b, a)] {
        assert_eq!(
            SparseState::circuits_differ_on(x, y, basis, usize::MAX),
            Some(expected),
            "{context}: {x:?} vs {y:?} on |{basis:b}⟩"
        );
    }
    expected
}

fn with_gates(n: u32, gates: impl IntoIterator<Item = Gate>) -> Circuit {
    Circuit::from_gates(n, gates).unwrap()
}

/// One random insertion, deletion or replacement, at `position` if given
/// (clamped to the circuit), else anywhere.
fn edit(n: u32, gates: &mut Vec<Gate>, position: Option<usize>, rng: &mut StdRng) {
    let kind = if gates.is_empty() {
        0
    } else {
        rng.gen_range(0..3)
    };
    match kind {
        0 => {
            let at =
                position.map_or_else(|| rng.gen_range(0..=gates.len()), |p| p.min(gates.len()));
            gates.insert(at, random_any_gate(n, rng));
        }
        kind => {
            let at =
                position.map_or_else(|| rng.gen_range(0..gates.len()), |p| p.min(gates.len() - 1));
            if kind == 1 {
                gates.remove(at);
            } else {
                gates[at] = random_any_gate(n, rng);
            }
        }
    }
}

/// A diagonal gate acting on `q` (and maybe one more qubit) that is the
/// identity while `q` is |0⟩.
fn identity_on_zero(n: u32, q: u32, rng: &mut StdRng) -> Gate {
    let kinds = [
        Gate::Z(q),
        Gate::S(q),
        Gate::Sdg(q),
        Gate::T(q),
        Gate::Tdg(q),
    ];
    if n > 1 && rng.gen_bool(0.3) {
        let other = (q + rng.gen_range(1..n)) % n;
        return Gate::Cz {
            control: other,
            target: q,
        };
    }
    kinds[rng.gen_range(0..kinds.len())]
}

/// One random pair, checked; `shape` picks the edit (see the match).
fn check_random_pair(shape: u32, rng: &mut StdRng) {
    let n = rng.gen_range(1..=8u32);
    let a = random_any_circuit(n, rng);
    let mut basis = random_basis(n, rng);
    let mut gates = a.gates().to_vec();
    let context = match shape {
        0 => {
            edit(n, &mut gates, None, rng);
            "one edit"
        }
        1 => {
            for _ in 0..rng.gen_range(2..=4) {
                edit(n, &mut gates, None, rng);
            }
            "several edits"
        }
        2 => {
            edit(n, &mut gates, Some(0), rng);
            "edit at position 0"
        }
        3 => {
            edit(n, &mut gates, Some(usize::MAX), rng);
            "edit at the end"
        }
        4 => {
            let same = with_gates(n, gates);
            assert!(!check(&a, &same, basis, "identical circuits"));
            return;
        }
        5 => {
            // Redraw until the first and the last gates both differ, so
            // the circuits share no prefix or suffix.
            let first_last = |c: &Circuit| (c.gates()[0], *c.gates().last().unwrap());
            let (first, last) = first_last(&a);
            gates = loop {
                let b = random_any_circuit(n, rng);
                let (f, l) = first_last(&b);
                if f != first && l != last {
                    break b.gates().to_vec();
                }
            };
            "no common prefix or suffix"
        }
        _ => {
            // An identity-acting gate right before the first gate touching
            // a qubit that the input holds at |0⟩.
            let q = rng.gen_range(0..n);
            basis &= !(1u128 << (n - 1 - q));
            let at = gates
                .iter()
                .position(|g| g.qubits().contains(&q))
                .unwrap_or(gates.len());
            gates.insert(at, identity_on_zero(n, q, rng));
            let b = with_gates(n, gates);
            assert!(!check(&a, &b, basis, "identity-acting insertion"));
            return;
        }
    };
    let b = with_gates(n, gates);
    check(&a, &b, basis, context);
    // Any budget either overflows or gives the oracle's answer.
    let budget = rng.gen_range(1..=1usize << n);
    let answer = SparseState::circuits_differ_on(&a, &b, basis, budget);
    assert!(
        answer.is_none() || answer == Some(oracle(&a, &b, basis)),
        "{context}: budget {budget} gave {answer:?}"
    );
}

#[test]
fn random_pairs_match_full_runs() {
    let mut rng = StdRng::seed_from_u64(221);
    for round in 0..140 {
        check_random_pair(round % 7, &mut rng);
    }
}

#[test]
fn each_edit_position_is_detected() {
    // X(0) X(1) H(2) T(2): every single-gate edit that changes the output
    // on |000⟩ must be found wherever it sits.
    let gates = vec![Gate::X(0), Gate::X(1), Gate::H(2), Gate::T(2)];
    let a = with_gates(3, gates.clone());
    for at in 0..=gates.len() {
        let mut inserted = gates.clone();
        inserted.insert(at, Gate::Y(1));
        assert!(check(&a, &with_gates(3, inserted), 0, "Y inserted"));
    }
    for at in 0..gates.len() {
        let mut deleted = gates.clone();
        deleted.remove(at);
        assert!(check(&a, &with_gates(3, deleted), 0, "gate deleted"));
        let mut replaced = gates.clone();
        replaced[at] = Gate::Sdg(2);
        check(&a, &with_gates(3, replaced), 0, "gate replaced");
    }
    // Z(0) before X(0) sees |0⟩ and does nothing; after it, it flips a sign.
    let before = with_gates(3, [&[Gate::Z(0)][..], &gates].concat());
    assert!(!check(&a, &before, 0, "Z on |0⟩"));
    let after = with_gates(3, [&gates[..1], &[Gate::Z(0)], &gates[1..]].concat());
    assert!(check(&a, &after, 0, "Z on |1⟩"));
}

#[test]
fn a_support_overflow_reads_none() {
    // The common prefix H⊗H⊗H spreads |000⟩ over 8 entries.
    let spread = [Gate::H(0), Gate::H(1), Gate::H(2)];
    let a = with_gates(3, [&spread[..], &[Gate::X(0)]].concat());
    let b = with_gates(3, [&spread[..], &[Gate::Z(0)]].concat());
    assert!(oracle(&a, &b, 0));
    assert_eq!(SparseState::circuits_differ_on(&a, &b, 0, 7), None);
    assert_eq!(SparseState::circuits_differ_on(&a, &b, 0, 8), Some(true));
    // An overflow inside one middle only.
    let narrow = with_gates(3, [Gate::X(0)]);
    assert_eq!(
        SparseState::circuits_differ_on(&narrow, &with_gates(3, spread.to_vec()), 0, 4),
        None
    );
    // Identical circuits run their whole gate list as the common prefix.
    assert_eq!(SparseState::circuits_differ_on(&a, &a, 0, 7), None);
    assert_eq!(SparseState::circuits_differ_on(&a, &a, 0, 8), Some(false));
}

#[test]
#[ignore = "~2000 random pairs: run in release (--include-ignored)"]
fn long_run_of_random_pairs() {
    let mut rng = StdRng::seed_from_u64(222);
    for round in 0..2002 {
        check_random_pair(round % 7, &mut rng);
    }
}
