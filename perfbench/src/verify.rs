//! The `verify` workload: Table 2 triples under both engines.

use std::collections::BTreeMap;
use std::time::Instant;

use autoq_core::{compare_with_post, ApplyStats, SpecMode};
use autoq_treeaut::TreeAutomaton;

use crate::host::HostMeter;
use crate::inputs::{verify_jobs, VerifyJob};
use crate::layers::{self, Counters, Determinism};
use crate::replay;
use crate::trace::Tracer;
use crate::util::{median, Outcome, Passes};
use crate::Args;

/// Set-up windows per run; `setup_s` is the median of their per-set-up
/// times.
const SETUP_WINDOWS: usize = 3;
/// A set-up takes tens of milliseconds, so each window repeats it for at
/// least this long.
const SETUP_WINDOW_S: f64 = 1.0;

/// What one job computed: verdict, final automaton size and statistics.
#[derive(Debug, PartialEq)]
struct JobResult {
    holds: bool,
    states: usize,
    transitions: usize,
    stats: ApplyStats,
}

/// The untraced entry point: `verify` is `apply_circuit` followed by
/// `compare_with_post`; the statistics variant of the first call is the
/// same code path and also returns the counts the replay is checked on.
fn entry_point(job: &VerifyJob) -> JobResult {
    let (output, stats) = job.engine.apply_circuit_with_stats(&job.pre, &job.circuit);
    let outcome = compare_with_post(&output, &job.post, SpecMode::Equality);
    JobResult {
        holds: outcome.holds(),
        states: output.state_count(),
        transitions: output.transition_count(),
        stats,
    }
}

fn replay_job(tr: &mut Tracer, job: &VerifyJob) -> JobResult {
    let root = tr.open("replay.job");
    let (output, stats): (TreeAutomaton, ApplyStats) =
        replay::apply_circuit(tr, &job.engine, &job.pre, &job.circuit);
    let holds = replay::equivalent(tr, &output, job.post.automaton()).holds();
    tr.close(root);
    JobResult {
        holds,
        states: output.state_count(),
        transitions: output.transition_count(),
        stats,
    }
}

fn check(out: &mut Outcome, job: &VerifyJob, result: &JobResult) {
    let problem = (!result.holds).then(|| "expected holds, got violated".to_string());
    out.check(&job.name, problem);
}

/// Builds the inputs and their independent answers over `SETUP_WINDOWS`
/// windows, each repeating the set-up for at least `SETUP_WINDOW_S` with a
/// host meter sample before each set-up; records each window's time per
/// set-up, scaled by the host's slowdown, and returns the last set.
fn set_up(args: &Args, setup_times: &mut Vec<f64>) -> Vec<VerifyJob> {
    let mut jobs = Vec::new();
    let mut meter = HostMeter::default();
    for _ in 0..SETUP_WINDOWS {
        let (count, time) = meter.timed(|meter| {
            let (start, mut count) = (Instant::now(), 0);
            while count == 0 || start.elapsed().as_secs_f64() < SETUP_WINDOW_S {
                meter.sample();
                jobs = verify_jobs(args.seed);
                count += 1;
            }
            count
        });
        setup_times.push(time / f64::from(count));
    }
    jobs
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let jobs = set_up(args, &mut setup_times);
    if args.trace {
        run_traced(args, &jobs, &mut out);
        return out;
    }
    let mut passes = Passes::new(jobs.len());
    while passes.keep_going(args.seconds) {
        passes.begin();
        for job in &jobs {
            let result = passes.job(|| entry_point(job));
            check(&mut out, job, &result);
        }
        passes.end();
    }
    passes.report(&mut out, &setup_times);
    out
}

/// The traced run: every job through the untraced entry point and then
/// through the traced replay, which must agree with it exactly.
fn run_traced(args: &Args, jobs: &[VerifyJob], out: &mut Outcome) {
    let mut tr = Tracer::new();
    let before = Counters::now();
    let window = Instant::now();
    let mut passes = 0usize;
    let mut untraced = 0.0;
    let mut traced = 0.0;
    let mut engine_layers = 0.0;
    let mut mismatches = 0u64;
    let mut determinism = Determinism::new();
    let mut row_times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    while passes == 0 || window.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        for (index, job) in jobs.iter().enumerate() {
            tr.set_job((passes * jobs.len() + index) as u64);
            let start = Instant::now();
            let expected = entry_point(job);
            let entry_time = start.elapsed().as_secs_f64();
            untraced += entry_time;
            row_times.entry(&job.name).or_default().push(entry_time);
            let mark = tr.mark();
            let counts_before = layers::job_counts(&tr);
            let start = Instant::now();
            let replayed = replay_job(&mut tr, job);
            traced += start.elapsed().as_secs_f64();
            engine_layers += layers::engine_layer_seconds(&tr, mark);
            if replayed != expected {
                mismatches += 1;
                let problem = format!("replay {replayed:?} != entry point {expected:?}");
                out.check(&job.name, Some(problem));
            } else {
                check(out, job, &replayed);
            }
            // Counts must repeat exactly from pass to pass.
            determinism.observe(&job.name, layers::job_counts_since(&tr, &counts_before));
        }
    }
    layers::report(out, &tr, passes, &before);
    for (name, times) in &row_times {
        out.metric(format!("row.{name}_s"), median(times), "s");
    }
    out.metric(
        "core.engine.other_s",
        (untraced - engine_layers) / passes as f64,
        "s",
    );
    out.metric("trace.overhead", traced / untraced, "ratio");
    out.metric("trace.untraced_pass_s", untraced / passes as f64, "s");
    out.metric("trace.traced_pass_s", traced / passes as f64, "s");
    out.metric("trace.replay_mismatches", mismatches as f64, "count");
    out.metric(
        "trace.nondeterministic_counts",
        determinism.differing as f64,
        "count",
    );
    crate::write_trace(args, &tr);
}
