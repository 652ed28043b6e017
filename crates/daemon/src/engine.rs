//! The verification engine behind the daemon, behind a trait so the whole
//! protocol surface is testable without ever touching the real automata
//! engine.
//!
//! [`RealEngine`] wraps [`autoq_core::Engine`] via the governed,
//! certificate-capable entry point [`autoq_core::verify_with`], passing the
//! job's interrupt and progress observer in its [`RunOptions`].
//! [`MockEngine`] produces scripted verdicts with configurable timing
//! (instant, slow, blocked-until-cancelled, or panicking) and counts its
//! invocations, which is how the test suites prove cache hits never reach
//! the engine, that disconnects cancel running jobs, and that a panicking
//! job cannot take a worker down.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use autoq_circuit::Circuit;
use autoq_core::{
    ApplyStats, CertifyPolicy, Engine, Interrupt, Interrupted, RunOptions, StateSet,
    VerificationOutcome, VerifyError,
};
use autoq_treeaut::{basis, format, Tree};

use crate::proto::{JobRequest, Spec, SpecMode};

/// A fully materialised verification job: parsed circuit, constructed
/// pre/post state sets, validated widths.
pub struct JobInputs {
    /// The parsed circuit.
    pub circuit: Circuit,
    /// Pre-condition set.
    pub pre: StateSet,
    /// Post-condition set.
    pub post: StateSet,
    /// Equality or inclusion.
    pub mode: autoq_core::SpecMode,
    /// Whether a violation should carry its witness.
    pub want_witness: bool,
    /// Whether a positive verdict should carry its proof certificate (and
    /// therefore be independently checked before it is returned).
    pub want_certificate: bool,
}

/// Builds a [`StateSet`] from a wire [`Spec`], validating every constraint
/// that the `StateSet` constructors would otherwise `panic` on.
pub fn build_spec_set(spec: &Spec) -> Result<StateSet, String> {
    let num_qubits = spec.num_qubits();
    if num_qubits == 0 {
        return Err("specification must cover at least one qubit".into());
    }
    if num_qubits > basis::MAX_QUBITS {
        return Err(format!(
            "specification covers {num_qubits} qubits, the limit is {}",
            basis::MAX_QUBITS
        ));
    }
    let in_range = |value: u128, what: &str| -> Result<(), String> {
        if num_qubits < 128 && value >> num_qubits != 0 {
            return Err(format!(
                "{what} {value:#x} has bits outside the {num_qubits}-qubit space"
            ));
        }
        Ok(())
    };
    match spec {
        Spec::Basis { basis, .. } => {
            in_range(*basis, "basis index")?;
            Ok(StateSet::basis_state(num_qubits, *basis))
        }
        Spec::AllBasis { .. } => Ok(StateSet::all_basis_states(num_qubits)),
        Spec::Pattern { fixed, free, .. } => {
            in_range(*fixed, "fixed bits")?;
            let mut free_mask: u128 = 0;
            for &position in free {
                if position >= num_qubits {
                    return Err(format!(
                        "free qubit {position} is out of range for {num_qubits} qubits"
                    ));
                }
                free_mask |= 1u128 << (num_qubits - 1 - position);
            }
            if fixed & free_mask != 0 {
                return Err(format!(
                    "fixed bits {fixed:#x} overlap the free qubit positions {free:?}"
                ));
            }
            Ok(StateSet::basis_pattern(num_qubits, *fixed, free))
        }
        Spec::Automaton { bytes, .. } => {
            let automaton = format::from_binary(bytes)
                .map_err(|e| format!("malformed specification automaton: {e}"))?;
            if automaton.num_vars != num_qubits {
                return Err(format!(
                    "specification automaton is over {} qubits, declared {num_qubits}",
                    automaton.num_vars
                ));
            }
            Ok(StateSet::from_automaton(num_qubits, automaton))
        }
    }
}

/// Materialises a [`JobRequest`] against its already-parsed circuit:
/// builds both state sets and checks that all widths agree.
pub fn materialize(circuit: Circuit, job: &JobRequest) -> Result<JobInputs, String> {
    let pre = build_spec_set(&job.pre)?;
    let post = build_spec_set(&job.post)?;
    if pre.num_qubits() != circuit.num_qubits() {
        return Err(format!(
            "pre-condition is over {} qubits, the circuit over {}",
            pre.num_qubits(),
            circuit.num_qubits()
        ));
    }
    if post.num_qubits() != circuit.num_qubits() {
        return Err(format!(
            "post-condition is over {} qubits, the circuit over {}",
            post.num_qubits(),
            circuit.num_qubits()
        ));
    }
    Ok(JobInputs {
        circuit,
        pre,
        post,
        mode: match job.mode {
            SpecMode::Equality => autoq_core::SpecMode::Equality,
            SpecMode::Inclusion => autoq_core::SpecMode::Inclusion,
        },
        want_witness: job.want_witness,
        want_certificate: job.want_certificate,
    })
}

/// An engine-level verdict (the witness still a live [`Tree`], not yet
/// serialised).
#[derive(Clone, Debug)]
pub struct EngineVerdict {
    /// Whether the triple holds.
    pub holds: bool,
    /// Violation direction (see [`crate::proto::Verdict`]).
    pub reachable_but_forbidden: bool,
    /// Witness of a violation, when available.
    pub witness: Option<Tree>,
    /// Serialized `AQIC` certificate bundle backing the verdict, when the
    /// job asked for one and the verdict was certifiable.  Already checked
    /// by the independent checker before the engine returned it.
    pub certificate: Option<Vec<u8>>,
}

/// Why an engine run failed to produce a verdict.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The run tripped a cancellation flag, deadline or size budget.
    Interrupted(Interrupted),
    /// The engine's verdict failed certification — a soundness bug, which
    /// the daemon must surface as a job error (and count), never as a
    /// verdict.
    Soundness(String),
}

impl From<Interrupted> for EngineError {
    fn from(interrupted: Interrupted) -> Self {
        EngineError::Interrupted(interrupted)
    }
}

/// The engine abstraction the daemon schedules jobs onto.
pub trait VerifyEngine: Send + Sync {
    /// Runs the job to a verdict under `interrupt` — cancellation, the
    /// wall-clock deadline and the peak-size budgets are all checked
    /// cooperatively — or returns the typed [`EngineError`] failure
    /// (interrupted, or a certification soundness failure).
    /// Implementations call `progress(applied, total)` as the circuit
    /// advances.
    fn verify(
        &self,
        inputs: &JobInputs,
        interrupt: &Interrupt,
        progress: &mut dyn FnMut(u32, u32),
    ) -> Result<EngineVerdict, EngineError>;
}

/// The production engine: [`autoq_core::verify_with`] on
/// a configurable [`Engine`]; jobs asking for a certificate run under
/// [`CertifyPolicy::OnHolds`].
pub struct RealEngine {
    engine: Engine,
}

impl RealEngine {
    /// Wraps the given core engine (the daemon default is
    /// [`Engine::hybrid`]).
    pub fn new(engine: Engine) -> Self {
        RealEngine { engine }
    }
}

impl Default for RealEngine {
    fn default() -> Self {
        RealEngine::new(Engine::hybrid())
    }
}

impl VerifyEngine for RealEngine {
    fn verify(
        &self,
        inputs: &JobInputs,
        interrupt: &Interrupt,
        progress: &mut dyn FnMut(u32, u32),
    ) -> Result<EngineVerdict, EngineError> {
        let mut observer = |applied: usize, total: usize| {
            progress(
                applied.min(u32::MAX as usize) as u32,
                total.min(u32::MAX as usize) as u32,
            );
        };
        let certify = if inputs.want_certificate {
            CertifyPolicy::OnHolds
        } else {
            CertifyPolicy::Off
        };
        let options = RunOptions {
            interrupt: Some(interrupt),
            observer: Some(&mut observer),
        };
        let certified = autoq_core::verify_with(
            &self.engine,
            &inputs.pre,
            &inputs.circuit,
            &inputs.post,
            inputs.mode,
            certify,
            options,
        )
        .map_err(|error| match error {
            VerifyError::Interrupted(interrupted) => EngineError::Interrupted(interrupted),
            VerifyError::Soundness(violation) => EngineError::Soundness(violation.to_string()),
        })?;
        Ok(match certified.outcome {
            VerificationOutcome::Holds => EngineVerdict {
                holds: true,
                reachable_but_forbidden: false,
                witness: None,
                certificate: certified.certificate,
            },
            VerificationOutcome::Violated {
                witness,
                reachable_but_forbidden,
            } => EngineVerdict {
                holds: false,
                reachable_but_forbidden,
                witness: Some(witness),
                certificate: certified.certificate,
            },
        })
    }
}

/// Scripted timing for [`MockEngine`].
#[derive(Clone, Copy, Debug)]
pub enum MockBehavior {
    /// Return the verdict immediately.
    Instant,
    /// Sleep in small cancel-checking steps before answering, emitting one
    /// progress callback per step.
    Slow {
        /// Number of sleep steps (each emits a progress frame).
        steps: u32,
        /// Duration of each step.
        step: Duration,
    },
    /// Never answer; spin (with short sleeps) until cancelled.
    BlockUntilCancelled,
    /// Panic mid-run — the worker's `catch_unwind` must contain it.
    Panic,
}

/// A scripted engine for protocol tests: fixed verdict, configurable
/// timing, invocation counting.
pub struct MockEngine {
    behavior: MockBehavior,
    holds: bool,
    reachable_but_forbidden: bool,
    witness: Option<Tree>,
    soundness_failure: Option<String>,
    calls: AtomicUsize,
    observed_cancel: AtomicBool,
}

impl MockEngine {
    /// An engine that instantly answers "holds".
    pub fn holding() -> Self {
        MockEngine {
            behavior: MockBehavior::Instant,
            holds: true,
            reachable_but_forbidden: false,
            witness: None,
            soundness_failure: None,
            calls: AtomicUsize::new(0),
            observed_cancel: AtomicBool::new(false),
        }
    }

    /// An engine that instantly answers "violated" with the given witness.
    pub fn violating(witness: Tree) -> Self {
        MockEngine {
            behavior: MockBehavior::Instant,
            holds: false,
            reachable_but_forbidden: true,
            witness: Some(witness),
            soundness_failure: None,
            calls: AtomicUsize::new(0),
            observed_cancel: AtomicBool::new(false),
        }
    }

    /// Overrides the timing behaviour.
    pub fn with_behavior(mut self, behavior: MockBehavior) -> Self {
        self.behavior = behavior;
        self
    }

    /// Scripts a certification soundness failure: every `verify` call
    /// answering a certificate-requesting job fails instead of producing a
    /// verdict.
    pub fn with_soundness_failure(mut self, message: impl Into<String>) -> Self {
        self.soundness_failure = Some(message.into());
        self
    }

    /// How many times `verify` has been invoked — the cache tests' proof
    /// that hits never reach the engine.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }

    /// Whether a `verify` call was ended by cancellation.
    pub fn observed_cancel(&self) -> bool {
        self.observed_cancel.load(Ordering::SeqCst)
    }
}

impl MockEngine {
    fn stop(&self, reason: autoq_core::StopReason) -> EngineError {
        if reason == autoq_core::StopReason::Cancelled {
            self.observed_cancel.store(true, Ordering::SeqCst);
        }
        EngineError::Interrupted(Interrupted {
            reason,
            partial_stats: ApplyStats::default(),
        })
    }
}

impl VerifyEngine for MockEngine {
    fn verify(
        &self,
        inputs: &JobInputs,
        interrupt: &Interrupt,
        progress: &mut dyn FnMut(u32, u32),
    ) -> Result<EngineVerdict, EngineError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        match self.behavior {
            MockBehavior::Instant => {}
            MockBehavior::Slow { steps, step } => {
                for applied in 1..=steps {
                    if let Err(reason) = interrupt.check_sizes(0, 0) {
                        return Err(self.stop(reason));
                    }
                    std::thread::sleep(step);
                    progress(applied, steps);
                }
            }
            MockBehavior::BlockUntilCancelled => loop {
                if let Err(reason) = interrupt.check_sizes(0, 0) {
                    return Err(self.stop(reason));
                }
                std::thread::sleep(Duration::from_millis(1));
            },
            MockBehavior::Panic => panic!("mock engine panic (scripted)"),
        }
        if let Err(reason) = interrupt.check_sizes(0, 0) {
            return Err(self.stop(reason));
        }
        if inputs.want_certificate {
            if let Some(message) = &self.soundness_failure {
                return Err(EngineError::Soundness(message.clone()));
            }
        }
        Ok(EngineVerdict {
            holds: self.holds,
            reachable_but_forbidden: self.reachable_but_forbidden,
            witness: self.witness.clone(),
            certificate: None,
        })
    }
}
