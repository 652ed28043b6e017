//! Parallel **portfolio bug hunting**: a pool of worker threads drains a
//! queue of hunt jobs, and the first simulator-confirmed witness wins.
//!
//! The paper's Table 3 experiments hunt for bugs one mutated circuit at a
//! time.  Trees own their nodes, so independent hunts share no tree
//! storage and can genuinely run in parallel: [`HuntPool`] spawns `W`
//! workers over a shared job queue, each worker runs
//! [`BugHunter::hunt_interruptible`] on its claimed job under an
//! [`Interrupt`] sharing one [`CancelFlag`], and as soon as one worker's
//! witness is confirmed by the exact simulator
//! ([`HuntReport::confirm_with_simulator`]) it raises that flag — the other
//! workers observe it between gates and abandon their hunts mid-circuit.
//!
//! Workers that find a bug the simulator *cannot* confirm (superposition
//! witnesses with no basis-state preimage) do not cancel the pool; the
//! lowest-indexed such report is kept as a fallback answer in case no
//! confirmed winner appears.
//!
//! Every tree a hunt builds is freed when the hunt drops it; only the
//! returned witness outlives the run, and it goes when the outcome does.
//! This is what keeps a 1000-hunt soak at a flat node count.
//!
//! # Examples
//!
//! Hunt over a small portfolio of mutated circuits on two workers:
//!
//! ```
//! use autoq_circuit::generators::mc_toffoli;
//! use autoq_circuit::mutation::insert_gate;
//! use autoq_circuit::Gate;
//! use autoq_core::{Engine, HuntJob, HuntPool};
//!
//! let original = mc_toffoli(3);
//! let jobs: Vec<HuntJob> = (0..2)
//!     .map(|i| HuntJob {
//!         label: format!("mutant-{i}"),
//!         original: original.clone(),
//!         candidate: insert_gate(&original, Gate::X(4), 2 + i),
//!         seed: 0xC0FFEE + i as u64,
//!     })
//!     .collect();
//! let outcome = HuntPool::new(Engine::hybrid()).with_threads(2).run(&jobs);
//! let win = outcome.win.expect("an injected X gate is observable");
//! assert!(win.report.bug_found);
//! assert!(win.confirmed_input.is_some());
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use autoq_circuit::Circuit;
use rand::SeedableRng;

use crate::{ApplyStats, BugHunter, CancelFlag, Engine, HuntReport, Interrupt, StopReason};

/// One unit of portfolio work: a pair of circuits to distinguish, plus the
/// RNG seed driving the hunt's input-set schedule (pinned per job so a
/// portfolio run is reproducible regardless of which worker claims it).
#[derive(Clone, Debug)]
pub struct HuntJob {
    /// Human-readable job name, reported back in [`PortfolioWin::label`].
    pub label: String,
    /// The reference circuit.
    pub original: Circuit,
    /// The allegedly equivalent candidate (e.g. a mutated optimisation).
    pub candidate: Circuit,
    /// Seed for the hunt's random input-set schedule.
    pub seed: u64,
}

/// The winning job of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioWin {
    /// Index of the winning job in the slice passed to [`HuntPool::run`].
    pub job_index: usize,
    /// The winning job's label.
    pub label: String,
    /// The hunt report, including the witness tree.
    pub report: HuntReport,
    /// The simulator-confirmed distinguishing basis input, when confirmation
    /// succeeded (`None` for an unconfirmed fallback win).
    pub confirmed_input: Option<u128>,
}

/// The aggregate result of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning bug report, if any job found one.  A simulator-confirmed
    /// win beats any unconfirmed one; among unconfirmed reports the lowest
    /// job index wins.
    pub win: Option<PortfolioWin>,
    /// Jobs whose hunts ran to completion (bug found or input space
    /// exhausted).
    pub hunts_completed: usize,
    /// Jobs abandoned mid-hunt when the cancel flag went up (or never
    /// claimed because the pool was already cancelled).
    pub hunts_cancelled: usize,
    /// Gate-application statistics merged across every worker.
    pub stats: ApplyStats,
    /// Why the run stopped early, when it did: the first budget/deadline
    /// exhaustion any worker observed (which cancels the rest of the
    /// portfolio), or [`StopReason::Cancelled`] when the caller's exterior
    /// interrupt was cancelled mid-run.  `None` for a portfolio that ran to
    /// completion or was stopped by its own confirmed winner.
    pub stopped: Option<StopReason>,
}

/// A fixed-width pool of portfolio hunt workers.  See the module docs for
/// the winner policy.
#[derive(Clone, Debug)]
pub struct HuntPool {
    hunter: BugHunter,
    threads: usize,
}

impl HuntPool {
    /// Creates a single-threaded pool hunting with `engine` and the default
    /// iteration bound.  Use [`with_threads`](HuntPool::with_threads) to
    /// widen it and [`with_hunter`](HuntPool::with_hunter) to bound
    /// iterations.
    pub fn new(engine: Engine) -> Self {
        HuntPool {
            hunter: BugHunter::new(engine),
            threads: 1,
        }
    }

    /// Replaces the underlying [`BugHunter`] (engine + iteration bound).
    pub fn with_hunter(mut self, hunter: BugHunter) -> Self {
        self.hunter = hunter;
        self
    }

    /// Sets the number of worker threads (clamped to at least 1).  Jobs are
    /// claimed from a shared queue, so any `threads ≤ jobs.len()` keeps all
    /// workers busy until the queue drains or a winner cancels the pool.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs every job on the pool's workers and returns the aggregate
    /// outcome.  Blocks until all workers have stopped (drained the queue or
    /// acknowledged cancellation).
    pub fn run(&self, jobs: &[HuntJob]) -> PortfolioOutcome {
        self.run_with_interrupt(jobs, &Interrupt::new())
    }

    /// Like [`HuntPool::run`], but governed by an exterior [`Interrupt`]:
    /// its deadline and peak-size budgets apply to every worker's hunts,
    /// and its cancel flag is polled at job-claim boundaries.  The first
    /// exhaustion any worker observes stops the whole portfolio (the
    /// remaining jobs count as cancelled) and is reported in
    /// [`PortfolioOutcome::stopped`] — the pool degrades to "best answer
    /// within budget" instead of hanging on a blowing-up mutant.
    pub fn run_with_interrupt(&self, jobs: &[HuntJob], exterior: &Interrupt) -> PortfolioOutcome {
        let cancel = CancelFlag::new();
        // Workers hunt under the exterior limits but the pool's own flag, so
        // a confirmed winner cancels siblings without touching the caller's
        // flag; the exterior flag itself is polled at claim boundaries.
        let job_interrupt = exterior.clone().with_flag(cancel.clone());
        let next_job = AtomicUsize::new(0);
        // First confirmed witness wins and cancels the pool; unconfirmed
        // reports compete by lowest job index without cancelling.
        let winner: Mutex<Option<PortfolioWin>> = Mutex::new(None);
        let fallback: Mutex<Option<PortfolioWin>> = Mutex::new(None);
        // First budget/deadline exhaustion (or exterior cancellation)
        // observed by any worker.
        let stopped: Mutex<Option<StopReason>> = Mutex::new(None);
        let record_stop = |reason: StopReason| {
            let mut slot = stopped.lock().unwrap_or_else(|p| p.into_inner());
            slot.get_or_insert(reason);
            cancel.cancel();
        };

        let worker = || -> (usize, usize, ApplyStats) {
            let mut completed = 0;
            let mut cancelled = 0;
            let mut stats = ApplyStats::default();
            loop {
                let index = next_job.fetch_add(1, Ordering::SeqCst);
                if index >= jobs.len() {
                    break;
                }
                if exterior.is_cancelled() {
                    record_stop(StopReason::Cancelled);
                }
                if cancel.is_cancelled() {
                    // Count only the job just claimed and keep draining the
                    // queue: each index is claimed exactly once, so the
                    // cancelled tally stays exact even when several workers
                    // observe the flag at the same time (a bulk
                    // `jobs.len() - index` here double-counts under races).
                    cancelled += 1;
                    continue;
                }
                let job = &jobs[index];
                let mut rng = rand::rngs::StdRng::seed_from_u64(job.seed);
                let report = match self.hunter.hunt_interruptible(
                    &job.original,
                    &job.candidate,
                    &mut rng,
                    &job_interrupt,
                ) {
                    Ok(report) => report,
                    Err(interrupted) => {
                        // Exhaustion stops the whole portfolio: the budget
                        // belongs to the run, not to one mutant.  A bare
                        // cancellation is the winner-found path and stops
                        // quietly.
                        if let StopReason::Exhausted { .. } = interrupted.reason {
                            record_stop(interrupted.reason);
                        }
                        stats = stats.merge(&interrupted.partial_stats);
                        cancelled += 1;
                        continue;
                    }
                };
                completed += 1;
                stats = stats.merge(&report.stats);
                if !report.bug_found {
                    continue;
                }
                let confirmed_input = report.confirm_with_simulator(&job.original, &job.candidate);
                let win = PortfolioWin {
                    job_index: index,
                    label: job.label.clone(),
                    report,
                    confirmed_input,
                };
                if win.confirmed_input.is_some() {
                    let mut slot = winner.lock().unwrap_or_else(|p| p.into_inner());
                    if slot.is_none() {
                        *slot = Some(win);
                        cancel.cancel();
                    }
                } else {
                    let mut slot = fallback.lock().unwrap_or_else(|p| p.into_inner());
                    if slot.as_ref().map_or(true, |held| held.job_index > index) {
                        *slot = Some(win);
                    }
                }
            }
            (completed, cancelled, stats)
        };

        let results: Vec<(usize, usize, ApplyStats)> = if self.threads == 1 {
            vec![worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.threads).map(|_| scope.spawn(worker)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("hunt worker panicked"))
                    .collect()
            })
        };

        let mut outcome = PortfolioOutcome {
            win: None,
            hunts_completed: 0,
            hunts_cancelled: 0,
            stats: ApplyStats::default(),
            stopped: None,
        };
        for (completed, cancelled, stats) in results {
            outcome.hunts_completed += completed;
            outcome.hunts_cancelled += cancelled;
            outcome.stats = outcome.stats.merge(&stats);
        }
        outcome.stopped = stopped.into_inner().unwrap_or_else(|p| p.into_inner());
        let winner = winner.into_inner().unwrap_or_else(|p| p.into_inner());
        let fallback = fallback.into_inner().unwrap_or_else(|p| p.into_inner());
        outcome.win = winner.or(fallback);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autoq_circuit::generators::mc_toffoli;
    use autoq_circuit::mutation::insert_gate;
    use autoq_circuit::Gate;

    fn mutant_jobs(count: usize) -> (Circuit, Vec<HuntJob>) {
        let original = mc_toffoli(3);
        let jobs = (0..count)
            .map(|i| HuntJob {
                label: format!("mutant-{i}"),
                original: original.clone(),
                candidate: insert_gate(&original, Gate::X(4), 1 + i),
                seed: 0x5EED_0000 + i as u64,
            })
            .collect();
        (original, jobs)
    }

    #[test]
    fn portfolio_finds_and_confirms_a_bug() {
        let (_, jobs) = mutant_jobs(3);
        for threads in [1, 4] {
            let outcome = HuntPool::new(Engine::hybrid())
                .with_threads(threads)
                .run(&jobs);
            let win = outcome.win.as_ref().expect("injected bug must be found");
            assert!(win.report.bug_found);
            assert!(win.confirmed_input.is_some());
            assert!(outcome.hunts_completed >= 1);
            assert!(outcome.stats.gates_applied > 0);
        }
    }

    #[test]
    fn equivalent_portfolio_completes_every_job() {
        let original = mc_toffoli(2);
        let jobs: Vec<HuntJob> = (0..3)
            .map(|i| HuntJob {
                label: format!("self-{i}"),
                original: original.clone(),
                candidate: original.clone(),
                seed: i as u64,
            })
            .collect();
        let outcome = HuntPool::new(Engine::hybrid())
            .with_hunter(BugHunter::new(Engine::hybrid()).with_max_iterations(2))
            .with_threads(2)
            .run(&jobs);
        assert!(outcome.win.is_none());
        assert_eq!(outcome.hunts_completed, 3);
        assert_eq!(outcome.hunts_cancelled, 0);
    }

    #[test]
    fn single_and_multi_threaded_runs_agree_on_the_confirmed_input() {
        // With one job the winner is deterministic, so thread count must not
        // change the confirmed distinguishing input.
        let (_, jobs) = mutant_jobs(1);
        let confirmed: Vec<Option<u128>> = [1usize, 2, 8]
            .into_iter()
            .map(|threads| {
                let outcome = HuntPool::new(Engine::hybrid())
                    .with_threads(threads)
                    .run(&jobs);
                outcome.win.expect("bug must be found").confirmed_input
            })
            .collect();
        assert!(confirmed[0].is_some());
        assert!(confirmed.iter().all(|c| *c == confirmed[0]));
    }
}
