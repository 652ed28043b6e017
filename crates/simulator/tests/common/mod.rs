//! Random circuits drawing every gate kind, shared by the simulator's
//! differential suites.

use autoq_circuit::{Circuit, Gate};
use rand::rngs::StdRng;
use rand::Rng;

/// `k` distinct qubits out of `0..n`.
pub fn distinct_qubits(n: u32, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut qubits = Vec::with_capacity(k);
    while qubits.len() < k {
        let q = rng.gen_range(0..n);
        if !qubits.contains(&q) {
            qubits.push(q);
        }
    }
    qubits
}

/// Every gate kind on the given distinct qubits (the first one, two or three
/// of them, as the kind needs).
pub fn every_kind(q: &[u32]) -> Vec<Gate> {
    let mut gates = vec![
        Gate::X(q[0]),
        Gate::Y(q[0]),
        Gate::Z(q[0]),
        Gate::H(q[0]),
        Gate::S(q[0]),
        Gate::Sdg(q[0]),
        Gate::T(q[0]),
        Gate::Tdg(q[0]),
        Gate::RxPi2(q[0]),
        Gate::RyPi2(q[0]),
    ];
    if q.len() >= 2 {
        gates.extend([
            Gate::Cnot {
                control: q[0],
                target: q[1],
            },
            Gate::Cz {
                control: q[0],
                target: q[1],
            },
            Gate::Swap(q[0], q[1]),
        ]);
    }
    if q.len() >= 3 {
        gates.extend([
            Gate::Toffoli {
                controls: [q[0], q[1]],
                target: q[2],
            },
            Gate::Fredkin {
                control: q[0],
                targets: [q[1], q[2]],
            },
        ]);
    }
    gates
}

/// A gate of any kind that fits `n` qubits, on random distinct qubits.
pub fn random_any_gate(n: u32, rng: &mut StdRng) -> Gate {
    let width = n.min(3) as usize;
    let qubits = distinct_qubits(n, width, rng);
    let kinds = every_kind(&qubits);
    kinds[rng.gen_range(0..kinds.len())]
}

/// A random circuit of up to `3n` gates drawing every gate kind.
pub fn random_any_circuit(n: u32, rng: &mut StdRng) -> Circuit {
    let length = rng.gen_range(1..=3 * n as usize);
    Circuit::from_gates(n, (0..length).map(|_| random_any_gate(n, rng))).unwrap()
}

/// A uniformly random basis index over `n ≤ 63` qubits.
pub fn random_basis(n: u32, rng: &mut StdRng) -> u128 {
    u128::from(rng.gen_range(0..1u64 << n))
}
