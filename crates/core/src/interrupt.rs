//! Cooperative interruption: cancellation, wall-clock deadlines and
//! resource budgets, unified behind one [`Interrupt`] handle.
//!
//! The paper's evaluation is defined by resource exhaustion — the Table 2/3
//! baselines "timeout" and "OOM" on the superposing rows — so the engine
//! needs a first-class notion of both.  An [`Interrupt`] carries a
//! [`CancelFlag`] *plus* an optional deadline and optional peak-size
//! budgets.  Every governed operation takes one — [`Engine::run`] and
//! [`verify_with`](crate::verify_with) through
//! [`RunOptions::interrupt`], [`check_circuit_equivalence_with`] and
//! [`BugHunter::hunt_interruptible`](crate::BugHunter::hunt_interruptible)
//! directly — and checks it between gates, inside composition swap
//! ladders, between hunt iterations and at portfolio job boundaries.  A
//! run that trips a limit stops within one gate boundary and reports a
//! typed [`Interrupted`] carrying the [`StopReason`] and the statistics
//! gathered so far, instead of hanging or exhausting memory.
//!
//! [`Engine::run`]: crate::Engine::run
//! [`RunOptions::interrupt`]: crate::RunOptions::interrupt
//! [`check_circuit_equivalence_with`]: crate::check_circuit_equivalence_with
//!
//! # Check-point invariants
//!
//! * **Monotone**: once [`Interrupt::check`] fails, every later check fails
//!   with an equally strong reason (the flag stays raised, the clock only
//!   advances, watermarks only grow).
//! * **Bounded staleness**: the engine checks between user-level gates and
//!   the composition pipeline additionally checks between swap-ladder
//!   passes, so a run overshoots its budget by at most one gate's worth of
//!   growth before stopping.
//! * **Partial results are discarded**: an interrupted run never yields an
//!   output automaton; only its [`ApplyStats`] survive, attached to the
//!   [`Interrupted`] report.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use autoq_core::{Interrupt, StopReason, Resource};
//!
//! let interrupt = Interrupt::new()
//!     .with_deadline(Duration::from_secs(5))
//!     .with_max_states(10_000);
//! assert!(interrupt.check_sizes(9_999, 0).is_ok());
//! match interrupt.check_sizes(10_001, 0) {
//!     Err(StopReason::Exhausted { resource: Resource::States, .. }) => {}
//!     other => panic!("expected a states-budget stop, got {other:?}"),
//! }
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::ApplyStats;

/// A shared, clonable cancellation flag: the part of an [`Interrupt`] that
/// other threads raise.
///
/// The portfolio hunter ([`crate::pool::HuntPool`]) raises the flag as soon
/// as one worker's witness is simulator-confirmed, and the daemon raises a
/// job's flag when its client disconnects or cancels, so the runs under
/// interrupts sharing the flag stop at their next checkpoint instead of
/// finishing a now-pointless analysis.  Cancellation is cooperative and
/// monotone: once raised, the flag stays raised.
///
/// # Examples
///
/// ```
/// use autoq_core::CancelFlag;
///
/// let flag = CancelFlag::new();
/// let observer = flag.clone(); // shares the same flag
/// assert!(!observer.is_cancelled());
/// flag.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unraised flag.
    pub fn new() -> Self {
        CancelFlag::default()
    }

    /// Raises the flag.  All clones observe the cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Returns `true` once any clone has raised the flag.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The resource whose budget a run exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resource {
    /// The wall-clock deadline passed.
    WallClock,
    /// The peak automaton state count exceeded its cap.
    States,
    /// The peak automaton transition count exceeded its cap.
    Transitions,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Resource::WallClock => "wall-clock deadline",
            Resource::States => "state budget",
            Resource::Transitions => "transition budget",
        })
    }
}

/// Why a run stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The [`CancelFlag`] was raised (client disconnect, a portfolio winner,
    /// an explicit cancel request).
    Cancelled,
    /// A resource budget was exhausted.  For [`Resource::WallClock`] the
    /// `limit` and `observed` fields are milliseconds; for the size budgets
    /// they are automaton state/transition counts.
    Exhausted {
        /// Which budget tripped.
        resource: Resource,
        /// The configured cap.
        limit: u64,
        /// The value that exceeded it.
        observed: u64,
    },
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled => f.write_str("cancelled"),
            StopReason::Exhausted {
                resource,
                limit,
                observed,
            } => write!(f, "{resource} exhausted ({observed} > {limit})"),
        }
    }
}

/// A typed early-stop report: the reason plus the statistics the run had
/// gathered when it stopped.  The output automaton of an interrupted run is
/// always discarded — `partial_stats` is what survives for diagnosis (the
/// peak sizes show *how far* the run got before tripping its budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted {
    /// Why the run stopped.
    pub reason: StopReason,
    /// Statistics accumulated up to the stop point.
    pub partial_stats: ApplyStats,
}

impl Interrupted {
    /// Attaches (merges) additional statistics gathered outside the failing
    /// call — hunt loops use this so a multi-iteration hunt reports its
    /// whole history, not just the interrupted iteration.
    pub fn merge_stats(mut self, stats: &ApplyStats) -> Interrupted {
        self.partial_stats = self.partial_stats.merge(stats);
        self
    }
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run interrupted: {}", self.reason)
    }
}

/// A cancellation flag generalised with a wall-clock deadline and peak-size
/// budgets.  Cheap to clone (the flag is shared; the limits are copied) and
/// cheap to check — a check is one atomic load plus, when a deadline is
/// set, one monotonic clock read.
///
/// An `Interrupt` with no deadline and no budgets behaves exactly like a
/// bare [`CancelFlag`]: [`Interrupt::from_flag`] is how a caller holding
/// only a flag governs a run.
#[derive(Clone, Debug, Default)]
pub struct Interrupt {
    cancel: CancelFlag,
    /// `(fires_at, total)` — the total is kept so exhaustion reports can
    /// state the configured limit in milliseconds.
    deadline: Option<(Instant, Duration)>,
    max_states: Option<u64>,
    max_transitions: Option<u64>,
}

impl Interrupt {
    /// An interrupt with a fresh flag and no limits.
    pub fn new() -> Self {
        Interrupt::default()
    }

    /// An interrupt sharing an existing cancel flag (no limits).
    pub fn from_flag(cancel: CancelFlag) -> Self {
        Interrupt {
            cancel,
            ..Interrupt::default()
        }
    }

    /// Returns a copy whose deadline is `budget` from **now**.
    pub fn with_deadline(self, budget: Duration) -> Self {
        Interrupt {
            deadline: Some((Instant::now() + budget, budget)),
            ..self
        }
    }

    /// Returns a copy capping the peak automaton state count.
    ///
    /// Inside a composition gate the swap ladder checks this cap against
    /// its allocated state count, which includes the ids its passes orphan,
    /// while [`ApplyStats::peak_states`](crate::ApplyStats::peak_states)
    /// does not report the ladder's states (see
    /// [`FormulaPeak::states`](crate::composition::FormulaPeak::states)).
    /// So a run can stop under a cap at or above the `peak_states` its
    /// unlimited run reports: a Hybrid run reporting peak 23 stops under
    /// `with_max_states(23)` with `observed: 27`
    /// (`tests/interrupt.rs`).
    pub fn with_max_states(self, max_states: u64) -> Self {
        Interrupt {
            max_states: Some(max_states),
            ..self
        }
    }

    /// Returns a copy capping the peak automaton transition count.
    pub fn with_max_transitions(self, max_transitions: u64) -> Self {
        Interrupt {
            max_transitions: Some(max_transitions),
            ..self
        }
    }

    /// Returns a copy with the same limits but sharing `cancel` instead of
    /// this interrupt's flag — how [`HuntPool`](crate::HuntPool) gives every
    /// worker the caller's budgets under the pool's own winner-cancellation
    /// flag.
    pub fn with_flag(self, cancel: CancelFlag) -> Self {
        Interrupt { cancel, ..self }
    }

    /// The shared cancellation flag.
    pub fn flag(&self) -> &CancelFlag {
        &self.cancel
    }

    /// Raises the cancellation flag (all clones observe it).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Whether the cancellation flag is raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Checks the flag, the deadline and the size budgets against raw peak
    /// counts; `Err` carries the strongest applicable reason (cancellation
    /// is reported before exhaustion).
    pub fn check_sizes(&self, states: usize, transitions: usize) -> Result<(), StopReason> {
        if self.cancel.is_cancelled() {
            return Err(StopReason::Cancelled);
        }
        if let Some((fires_at, total)) = self.deadline {
            let now = Instant::now();
            if now >= fires_at {
                let started = fires_at - total;
                return Err(StopReason::Exhausted {
                    resource: Resource::WallClock,
                    limit: total.as_millis() as u64,
                    observed: now.duration_since(started).as_millis() as u64,
                });
            }
        }
        if let Some(limit) = self.max_states {
            if states as u64 > limit {
                return Err(StopReason::Exhausted {
                    resource: Resource::States,
                    limit,
                    observed: states as u64,
                });
            }
        }
        if let Some(limit) = self.max_transitions {
            if transitions as u64 > limit {
                return Err(StopReason::Exhausted {
                    resource: Resource::Transitions,
                    limit,
                    observed: transitions as u64,
                });
            }
        }
        Ok(())
    }

    /// [`Interrupt::check_sizes`] against a run's statistics watermarks —
    /// the form the engine uses between gates.
    pub fn check(&self, stats: &ApplyStats) -> Result<(), StopReason> {
        self.check_sizes(stats.peak_states, stats.peak_transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_interrupt_behaves_like_a_cancel_flag() {
        let interrupt = Interrupt::new();
        assert!(interrupt.check_sizes(usize::MAX, usize::MAX).is_ok());
        interrupt.cancel();
        assert_eq!(
            interrupt.check_sizes(0, 0),
            Err(StopReason::Cancelled),
            "a raised flag must dominate"
        );
    }

    #[test]
    fn shared_flag_is_observed_across_clones() {
        let flag = CancelFlag::new();
        let interrupt = Interrupt::from_flag(flag.clone()).with_max_states(10);
        flag.cancel();
        assert_eq!(interrupt.check_sizes(0, 0), Err(StopReason::Cancelled));
    }

    #[test]
    fn state_and_transition_budgets_trip_with_observed_values() {
        let interrupt = Interrupt::new().with_max_states(5).with_max_transitions(7);
        assert!(interrupt.check_sizes(5, 7).is_ok(), "at the cap is fine");
        assert_eq!(
            interrupt.check_sizes(6, 0),
            Err(StopReason::Exhausted {
                resource: Resource::States,
                limit: 5,
                observed: 6,
            })
        );
        assert_eq!(
            interrupt.check_sizes(0, 8),
            Err(StopReason::Exhausted {
                resource: Resource::Transitions,
                limit: 7,
                observed: 8,
            })
        );
    }

    #[test]
    fn zero_deadline_trips_immediately_and_reports_milliseconds() {
        let interrupt = Interrupt::new().with_deadline(Duration::ZERO);
        match interrupt.check_sizes(0, 0) {
            Err(StopReason::Exhausted {
                resource: Resource::WallClock,
                limit: 0,
                ..
            }) => {}
            other => panic!("expected a deadline stop, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let interrupt = Interrupt::new().with_deadline(Duration::from_secs(3600));
        assert!(interrupt.check_sizes(1_000_000, 1_000_000).is_ok());
    }

    #[test]
    fn with_flag_keeps_limits_but_swaps_the_flag() {
        let pool_flag = CancelFlag::new();
        let interrupt = Interrupt::new()
            .with_max_states(3)
            .with_flag(pool_flag.clone());
        assert_eq!(
            interrupt.check_sizes(4, 0),
            Err(StopReason::Exhausted {
                resource: Resource::States,
                limit: 3,
                observed: 4,
            })
        );
        pool_flag.cancel();
        assert_eq!(interrupt.check_sizes(4, 0), Err(StopReason::Cancelled));
    }

    #[test]
    fn interrupted_merges_outer_stats_and_displays() {
        let interrupted = Interrupted {
            reason: StopReason::Exhausted {
                resource: Resource::States,
                limit: 10,
                observed: 12,
            },
            partial_stats: ApplyStats {
                peak_states: 12,
                peak_transitions: 30,
                reductions: 1,
                gates_applied: 2,
                certified: None,
            },
        };
        let outer = ApplyStats {
            peak_states: 5,
            peak_transitions: 99,
            reductions: 4,
            gates_applied: 7,
            certified: None,
        };
        let merged = interrupted.merge_stats(&outer);
        assert_eq!(merged.partial_stats.peak_states, 12);
        assert_eq!(merged.partial_stats.peak_transitions, 99);
        assert_eq!(merged.partial_stats.gates_applied, 9);
        assert!(format!("{merged}").contains("state budget"));
        assert_eq!(format!("{}", StopReason::Cancelled), "cancelled");
    }
}
