//! Ablation benchmarks for the design choices called out in
//! `docs/ARCHITECTURE.md`:
//!
//! * Hybrid vs Composition gate encoding (the paper's §7.1 claim that Hybrid
//!   is consistently faster),
//! * automaton reduction after each gate vs no reduction,
//! * dense vs sparse exact simulation.

use autoq_circuit::generators::{bernstein_vazirani, mc_toffoli};
use autoq_core::{Engine, ReductionPolicy, StateSet};
use autoq_simulator::{DenseState, SparseState};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_hybrid_vs_composition(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/hybrid-vs-composition");
    group.sample_size(10);
    let hidden: Vec<bool> = (0..10).map(|i| i % 3 != 0).collect();
    let circuit = bernstein_vazirani(&hidden);
    let pre = StateSet::basis_state(circuit.num_qubits(), 0);
    group.bench_function("hybrid", |b| {
        b.iter(|| black_box(Engine::hybrid().apply_circuit(&pre, &circuit)))
    });
    group.bench_function("composition", |b| {
        b.iter(|| black_box(Engine::composition().apply_circuit(&pre, &circuit)))
    });
    group.finish();
}

fn bench_reduction_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/reduction-policy");
    group.sample_size(10);
    let circuit = mc_toffoli(5);
    let spec = autoq_core::presets::mc_toffoli_spec(&circuit);
    group.bench_function("reduce-after-each-gate", |b| {
        b.iter(|| black_box(Engine::hybrid().apply_circuit(&spec.pre, &circuit)))
    });
    group.bench_function("never-reduce", |b| {
        b.iter(|| {
            black_box(
                Engine::hybrid()
                    .with_reduction(ReductionPolicy::Never)
                    .apply_circuit(&spec.pre, &circuit),
            )
        })
    });
    for growth_factor in [2u32, 4] {
        group.bench_function(format!("adaptive-{growth_factor}x"), |b| {
            b.iter(|| {
                black_box(
                    Engine::hybrid()
                        .with_reduction(ReductionPolicy::Adaptive { growth_factor })
                        .apply_circuit(&spec.pre, &circuit),
                )
            })
        });
    }
    group.finish();
}

fn bench_dense_vs_sparse_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/simulator-backends");
    group.sample_size(10);
    let hidden: Vec<bool> = (0..14).map(|i| i % 2 == 0).collect();
    let circuit = bernstein_vazirani(&hidden);
    group.bench_function("dense", |b| {
        b.iter(|| black_box(DenseState::run(&circuit, 0)))
    });
    group.bench_function("sparse", |b| {
        b.iter(|| black_box(SparseState::run(&circuit, 0)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hybrid_vs_composition,
    bench_reduction_policy,
    bench_dense_vs_sparse_simulation
);
criterion_main!(benches);
