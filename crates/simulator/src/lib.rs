//! Exact quantum circuit simulators over algebraic amplitudes.
//!
//! This crate is the AutoQ-rs stand-in for SliQSim, the decision-diagram
//! simulator the paper compares against in Table 2.  Two simulators are
//! provided, both computing with the same exact `(a,b,c,d,k)` amplitude
//! encoding the automata framework uses (so outputs can be compared
//! *structurally*, with no numeric tolerance):
//!
//! * [`DenseState`] — a `2ⁿ`-element state vector; the work-horse oracle for
//!   tests and small-to-medium circuits.
//! * [`SparseState`] — the basis indices of the non-zero amplitudes in
//!   ascending order, each pointing into a table holding each distinct
//!   amplitude once, so a gate is one sequential pass over the entries and
//!   computes its exact arithmetic once per distinct amplitude (or
//!   amplitude pair), not once per entry; adequate for circuits that keep
//!   states sparse (reversible circuits, BV, …) even at 128 qubits.
//!   [`SparseState::from_tree`] converts a DAG-shared witness tree straight
//!   into a sparse state, so the framework's bug witnesses can be confirmed
//!   at 35+ qubits, and [`SparseState::circuits_differ_on`] decides whether
//!   two circuits' outputs on a basis input differ while simulating only
//!   the gates between their common prefix and suffix.
//!
//! The simulators do their arithmetic with
//! [`Algebraic`](autoq_amplitude::Algebraic) operations only and share no
//! code with the automata engine's interned leaf amplitudes, so they stay
//! an independent oracle for it.
//!
//! *Pipeline position*: bigint → amplitude → {treeaut, circuit} →
//! **simulator** → {equivcheck, core} → bench — the exact oracle for tests,
//! the stimuli baseline, and witness confirmation.
//!
//! # Examples
//!
//! ```
//! use autoq_circuit::{Circuit, Gate};
//! use autoq_simulator::DenseState;
//! use autoq_amplitude::Algebraic;
//!
//! // Simulate the EPR circuit on |00⟩ and observe the Bell state.
//! let circuit = Circuit::from_gates(2, [Gate::H(0), Gate::Cnot { control: 0, target: 1 }]).unwrap();
//! let mut state = DenseState::basis_state(2, 0);
//! state.apply_circuit(&circuit);
//! assert_eq!(state.amplitude(0b00), Algebraic::one_over_sqrt2());
//! assert_eq!(state.amplitude(0b11), Algebraic::one_over_sqrt2());
//! assert!(state.amplitude(0b01).is_zero());
//! ```

mod dense;
mod sparse;

pub use dense::DenseState;
pub use sparse::SparseState;
