//! AutoQ-rs: an automata-based framework for verification and bug hunting in
//! quantum circuits.
//!
//! This crate implements the core contribution of the PLDI'23 paper
//! *"An Automata-Based Framework for Verification and Bug Hunting in Quantum
//! Circuits"* (Chen, Chung, Lengál, Lin, Tsai, Yen):
//!
//! * **Sets of quantum states as tree automata** — [`StateSet`] wraps a
//!   [`TreeAutomaton`](autoq_treeaut::TreeAutomaton) whose full binary trees
//!   encode quantum states with exact algebraic amplitudes (Section 3).
//! * **Quantum gates as automata transformers** — two instantiations:
//!   the *permutation-based* encoding of Section 5 ([`permutation`]) and the
//!   *composition-based* encoding of Section 6 ([`composition`]), driven by
//!   the symbolic update formulae of Table 1 ([`formula`]).
//! * **Verification and bug hunting** — `{P} C {Q}` triple checking with
//!   witness extraction ([`verify()`]), circuit (non-)equivalence checking
//!   over a set of inputs, and the incremental bug-hunting strategy of
//!   Section 7.2 ([`hunt`]).  Witnesses are DAG-shared
//!   [`Tree`](autoq_treeaut::Tree)s, so extraction and simulator
//!   confirmation ([`HuntReport::confirm_with_simulator`]) work at the
//!   paper's 35-qubit Table 3 scale.  Hunts compose into a parallel
//!   portfolio ([`HuntPool`]): worker threads drain a job queue, and the
//!   first simulator-confirmed witness cancels the rest ([`CancelFlag`];
//!   see `docs/CONCURRENCY.md`).
//!
//! # Entry points
//!
//! Each operation has one plain and one governed entry point; the governed
//! one takes an [`Interrupt`] (cancellation, deadline, size budgets) and,
//! for apply and verify, a progress observer, both in [`RunOptions`]:
//!
//! | operation | plain | governed |
//! |---|---|---|
//! | apply | [`Engine::apply_circuit`], [`Engine::apply_circuit_with_stats`] | [`Engine::run`] |
//! | verify | [`verify()`] | [`verify_with`] (also certifies, see [`CertifyPolicy`]) |
//! | equivalence | [`check_circuit_equivalence`] | [`check_circuit_equivalence_with`] |
//! | hunt | [`BugHunter::hunt`] | [`BugHunter::hunt_interruptible`] |
//!
//! The engine itself is sequential; parallelism is between independent
//! jobs ([`HuntPool`]).
//!
//! *Pipeline position*: bigint → amplitude → {treeaut, circuit} →
//! simulator → **core** → bench — the user-facing engine tying the automata
//! substrate to circuits, specs and witness confirmation.
//!
//! # Quick start
//!
//! Verify the Bell-state preparation circuit of the paper's overview
//! (Fig. 1): starting from `|00⟩`, the EPR circuit must produce exactly the
//! maximally entangled state `(|00⟩ + |11⟩)/√2`.
//!
//! ```
//! use autoq_amplitude::Algebraic;
//! use autoq_circuit::{Circuit, Gate};
//! use autoq_core::{Engine, SpecMode, StateSet, VerificationOutcome};
//!
//! let epr = Circuit::from_gates(2, [Gate::H(0), Gate::Cnot { control: 0, target: 1 }]).unwrap();
//!
//! let pre = StateSet::basis_state(2, 0b00);
//! let post = StateSet::from_state_fn(2, |basis| match basis {
//!     0b00 | 0b11 => Algebraic::one_over_sqrt2(),
//!     _ => Algebraic::zero(),
//! });
//!
//! let engine = Engine::hybrid();
//! let outcome = autoq_core::verify(&engine, &pre, &epr, &post, SpecMode::Equality);
//! assert_eq!(outcome, VerificationOutcome::Holds);
//! ```

pub mod composition;
pub mod engine;
pub mod formula;
pub mod hunt;
pub mod interrupt;
pub mod permutation;
pub mod pool;
pub mod presets;
mod state_set;
pub mod verify;

pub use composition::{default_eval_threads, CompositionOptions};
pub use engine::{ApplyStats, Engine, EngineKind, ReductionPolicy, RunOptions};
pub use hunt::{BugHunter, HuntReport};
pub use interrupt::{CancelFlag, Interrupt, Interrupted, Resource, StopReason};
pub use pool::{HuntJob, HuntPool, PortfolioOutcome, PortfolioWin};
pub use state_set::StateSet;
pub use verify::{
    check_circuit_equivalence, check_circuit_equivalence_with, compare_with_post,
    compare_with_post_certified, verify, verify_with, CertifiedComparison, CertifiedOutcome,
    CertifiedVerdict, CertifyPolicy, SoundnessViolation, SpecMode, VerificationOutcome,
    VerifyError,
};
