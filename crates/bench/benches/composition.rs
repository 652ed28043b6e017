//! Micro-benchmarks for the composition-encoded gate pipeline: the fused
//! projection ladder at increasing qubit depth (1/8/32/64 swap passes each
//! way) against the retained reference ladder, and one short superposing
//! circuit through the composition engine.  The ladder depth is the
//! paper-scale cost driver — a Hadamard on qubit 0 of a 70-qubit automaton
//! runs a depth-69 ladder twice — so regressions here surface long before
//! the `random70` row.
//!
//! The ladder automata are small unions of basis states: wide sets (e.g.
//! the all-basis set) drive the *tagged* intermediate automata of a deep
//! projection exponentially large by construction — every tag is distinct,
//! so no reduction can merge them — which benchmarks the encoding's
//! worst case rather than the implementation.

use autoq_circuit::{Circuit, Gate};
use autoq_core::composition::{project_reference, project_with, tag};
use autoq_core::{Engine, StateSet};
use autoq_treeaut::{Tree, TreeAutomaton};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A tagged union of a few basis states, deep enough for a depth-`depth`
/// ladder on qubit 0 (`depth + 1` variables); linear-size and bounded
/// branching, so the ladder cost scales with depth, not with 2^depth.
fn tagged_basis_union(depth: u32) -> TreeAutomaton {
    let n = depth + 1;
    let trees: Vec<Tree> = [0u128, 1, 3, 6]
        .into_iter()
        .map(|b| Tree::basis_state(n, b & autoq_treeaut::basis::index_mask(n)))
        .collect();
    tag(&TreeAutomaton::from_trees(n, &trees))
}

fn bench_projection(c: &mut Criterion) {
    let mut group = c.benchmark_group("composition/project");
    group.sample_size(10);
    for depth in [1u32, 8, 32, 64] {
        let tagged = tagged_basis_union(depth);
        group.bench_function(format!("fused-depth{depth}"), |b| {
            b.iter(|| black_box(project_with(&tagged, 0, false)))
        });
        group.bench_function(format!("reference-depth{depth}"), |b| {
            b.iter(|| black_box(project_reference(&tagged, 0, false)))
        });
    }
    group.finish();
}

fn bench_hadamard_formula(c: &mut Criterion) {
    let mut group = c.benchmark_group("composition/apply-circuit");
    group.sample_size(10);
    let input = StateSet::basis_state(20, 0);
    let circuit =
        Circuit::from_gates(20, [Gate::H(0), Gate::RyPi2(1), Gate::RxPi2(2), Gate::H(3)]).unwrap();
    let engine = Engine::composition();
    group.bench_function("superposing-20q", |b| {
        b.iter(|| black_box(engine.apply_circuit(&input, &circuit)))
    });
    group.finish();
}

criterion_group!(benches, bench_projection, bench_hadamard_formula);
criterion_main!(benches);
