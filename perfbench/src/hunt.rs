//! The `hunt` workload: Table 3 bug hunts, each followed by simulator
//! confirmation of the witness.

use std::time::Instant;

use autoq_core::{ApplyStats, HuntReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::host::HostMeter;
use crate::inputs::{hunt_jobs, HuntJob};
use crate::layers::{self, Counters, Determinism};
use crate::replay;
use crate::trace::Tracer;
use crate::util::{median, Outcome, Passes};
use crate::Args;

fn entry_point(job: &HuntJob) -> HuntReport {
    let mut rng = StdRng::seed_from_u64(job.hunt_seed);
    job.hunter.hunt(&job.original, &job.buggy, &mut rng)
}

/// The expected answer is "bug found" and "confirmed": the buggy copy
/// differs from the original by construction, and the simulator must find
/// a basis input on which the two circuits' outputs differ.
fn problem(report: &HuntReport, confirmed: Option<u128>) -> Option<String> {
    if !report.bug_found {
        Some(format!("no bug found in {} iterations", report.iterations))
    } else if confirmed.is_none() {
        Some("the simulator does not confirm the witness".into())
    } else {
        None
    }
}

/// A hunt's exact counts, which must repeat whenever the row runs again.
type HuntCounts = (bool, u32, u128, ApplyStats);

fn counts(report: &HuntReport) -> HuntCounts {
    (
        report.bug_found,
        report.iterations,
        report.final_input_size,
        report.stats,
    )
}

/// The rows whose hunt and confirmation take seconds: set-up warms up on
/// every other row.
const NOT_WARMED_UP: [&str; 2] = ["increment8", "random35"];

/// Set-ups per run: each generates the rows and hunts all but
/// `NOT_WARMED_UP` once (filling the amplitude and node tables).
const SETUP_REPEATS: usize = 3;

/// Generates the rows and runs the warm-up, `SETUP_REPEATS` times, with a
/// host meter sample before each step; records each set-up's time scaled
/// by the host's slowdown.  The warm-up hunts' counts go to `determinism`.
fn set_up(
    args: &Args,
    out: &mut Outcome,
    setup_times: &mut Vec<f64>,
    determinism: &mut Determinism<HuntCounts>,
) -> Vec<HuntJob> {
    let mut jobs = Vec::new();
    let mut meter = HostMeter::default();
    for _ in 0..SETUP_REPEATS {
        let (rows, time) = meter.timed(|meter| {
            let rows = hunt_jobs(args.seed);
            for job in rows
                .iter()
                .filter(|job| !NOT_WARMED_UP.contains(&job.name.as_str()))
            {
                meter.sample();
                let report = entry_point(job);
                let confirmed = report.confirm_with_simulator(&job.original, &job.buggy);
                out.check(&job.name, problem(&report, confirmed));
                determinism.observe(&job.name, counts(&report));
            }
            rows
        });
        jobs = rows;
        setup_times.push(time);
    }
    jobs
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut determinism = Determinism::new();
    let jobs = set_up(args, &mut out, &mut setup_times, &mut determinism);
    if args.trace {
        run_traced(args, &jobs, &mut out, determinism);
        return out;
    }
    let mut passes = Passes::new(jobs.len());
    while passes.keep_going(args.seconds) {
        passes.begin();
        for job in &jobs {
            let (report, confirmed) = passes.job(|| {
                let report = entry_point(job);
                let confirmed = report.confirm_with_simulator(&job.original, &job.buggy);
                (report, confirmed)
            });
            out.check(&job.name, problem(&report, confirmed));
        }
        passes.end();
    }
    passes.report(&mut out, &setup_times);
    out
}

/// The traced run: each hunt through `BugHunter::hunt` untraced, then
/// through the traced replay (which must return the identical report),
/// then simulator confirmation inside a span.  Every hunt's counts, the
/// set-up's warm-up hunts included, must repeat those of the row's first
/// hunt.
fn run_traced(
    args: &Args,
    jobs: &[HuntJob],
    out: &mut Outcome,
    mut determinism: Determinism<HuntCounts>,
) {
    let mut tr = Tracer::new();
    let before = Counters::now();
    let window = Instant::now();
    let mut passes = 0usize;
    let (mut untraced, mut traced, mut engine_layers) = (0.0, 0.0, 0.0);
    let mut mismatches = 0u64;
    let mut rows: Vec<(&str, f64)> = Vec::new();
    while passes == 0 || window.elapsed().as_secs_f64() < args.seconds {
        passes += 1;
        for (index, job) in jobs.iter().enumerate() {
            tr.set_job((passes * jobs.len() + index) as u64);
            let start = Instant::now();
            let expected = entry_point(job);
            let hunt_time = start.elapsed().as_secs_f64();
            untraced += hunt_time;
            determinism.observe(&job.name, counts(&expected));
            let mark = tr.mark();
            let start = Instant::now();
            let root = tr.open("replay.job");
            let mut rng = StdRng::seed_from_u64(job.hunt_seed);
            let report = replay::hunt(&mut tr, &job.hunter, &job.original, &job.buggy, &mut rng);
            tr.close(root);
            traced += start.elapsed().as_secs_f64();
            engine_layers += layers::engine_layer_seconds(&tr, mark);
            determinism.observe(&job.name, counts(&report));
            let confirm = tr.open("simulator.confirm");
            let confirmed = report.confirm_with_simulator(&job.original, &job.buggy);
            let confirm_time = tr.close(confirm);
            tr.add("simulator.confirm.calls", 1.0);
            tr.add(
                "simulator.confirm.confirmed",
                f64::from(u8::from(confirmed.is_some())),
            );
            rows.push((&job.name, hunt_time + confirm_time));
            if report != expected {
                mismatches += 1;
                let detail = format!(
                    "replay (found {}, {} iterations, {:?}) != entry point (found {}, {} iterations, {:?})",
                    report.bug_found, report.iterations, report.stats,
                    expected.bug_found, expected.iterations, expected.stats
                );
                out.check(&job.name, Some(detail));
            } else {
                out.check(&job.name, problem(&report, confirmed));
            }
        }
    }
    layers::report(out, &tr, passes, &before);
    for job in jobs {
        let times: Vec<f64> = rows
            .iter()
            .filter(|(n, _)| *n == job.name)
            .map(|(_, t)| *t)
            .collect();
        out.metric(format!("row.{}_s", job.name), median(&times), "s");
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
