//! Nondeterministic finite tree automata (TAs) over full binary trees.
//!
//! This crate is the automata substrate of AutoQ-rs.  It plays the role that
//! the VATA library plays in the AutoQ paper: it stores sets of full binary
//! trees (which encode sets of quantum states, see `autoq-core`), reduces
//! them, and decides language inclusion/equivalence with witness extraction.
//!
//! A tree automaton is a tuple `⟨Q, Σ, Δ, R⟩` (Section 2.2 of the paper):
//! states `Q`, a ranked alphabet `Σ` of binary symbols `x₁ … xₙ` (one per
//! qubit, possibly carrying a *tag* used by the composition-based gate
//! construction) and constant leaf symbols (exact algebraic amplitudes),
//! transitions `Δ`, and root states `R`.
//!
//! Individual trees ([`Tree`]) are stored as **DAGs that own their
//! nodes**, built with maximal subtree sharing, so inclusion
//! counterexamples — the framework's bug witnesses — stay linear in the
//! automaton size instead of exploding to `2^(n+1)` nodes, unlocking the
//! paper's 35-qubit Table 3 hunts (see `docs/ARCHITECTURE.md` §2).
//!
//! The per-gate hot path — `trim`, `reduce`, `inclusion`, `enumerate` —
//! reads adjacency through a CSR [`TransitionIndex`] that each operation
//! builds for itself instead of rescanning the transition vectors, and the
//! reduction merges states in one bottom-up hash-consing pass (see
//! `docs/ARCHITECTURE.md` §3.1).  [`TreeAutomaton`] is plain data: its
//! public fields may be edited directly, with nothing to keep in step.
//!
//! *Pipeline position*: bigint → amplitude → **treeaut** → simulator →
//! {equivcheck, core} → bench — the automata substrate `autoq-core` builds
//! its gate transformers on.
//!
//! # Examples
//!
//! Build the automaton of Fig. 1(a) of the paper — the single tree encoding
//! the 2-qubit basis state `|00⟩` — and check that it accepts exactly that
//! tree:
//!
//! ```
//! use autoq_amplitude::Algebraic;
//! use autoq_treeaut::{Tree, TreeAutomaton};
//!
//! // |00⟩ as a function {0,1}² → amplitudes
//! let tree = Tree::from_fn(2, |basis| {
//!     if basis == 0 { Algebraic::one() } else { Algebraic::zero() }
//! });
//! let automaton = TreeAutomaton::from_tree(&tree);
//! assert!(automaton.accepts(&tree));
//! assert_eq!(automaton.enumerate(10).len(), 1);
//! ```

pub mod arena;
mod automaton;
pub mod basis;
pub mod certificate;
pub mod format;
mod inclusion;
mod index;
mod reduce;
mod state;
mod symbol;
mod tree;

pub use automaton::{InternalTransition, LeafTransition, TreeAutomaton};
pub use basis::BasisIndex;
pub use certificate::{
    CertSet, CertificateBuildError, InclusionCertificate, LeafJustification, StepJustification,
};
pub use inclusion::{
    equivalence, inclusion, inclusion_with_certificate, naive_equivalence,
    CertifiedInclusionResult, EquivalenceResult, InclusionResult,
};
pub use index::TransitionIndex;
pub use state::StateId;
pub use symbol::{InternalSymbol, Tag};
pub use tree::Tree;
