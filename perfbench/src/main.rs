//! The AutoQ benchmark: `verify`, `hunt` and `serve` workloads.
//!
//! ```text
//! autoq-perfbench --workload verify|hunt|serve --seed N --seconds S --trace 0|1
//!                 [--daemon PATH] [--out DIR] [--rustc VERSION] [--commit ID]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of the traced run; the last line of standard output is
//! the JSON result.  `perfbench/run.py` builds this binary and the daemon
//! and passes the metadata.

mod host;
mod hunt;
mod inputs;
mod layers;
mod replay;
mod serve;
mod trace;
mod util;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
    pub out: PathBuf,
    pub rustc: String,
    pub commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        daemon: PathBuf::from("autoq-daemon"),
        out: PathBuf::from("perfbench/out"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => args.trace = value == "1",
            "--daemon" => args.daemon = value.into(),
            "--out" => args.out = value.into(),
            "--rustc" => args.rustc = value,
            "--commit" => args.commit = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes the spans of a traced run next to the other run outputs.
pub fn write_trace(args: &Args, tr: &trace::Tracer) {
    let path = args
        .out
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "verify" => verify::run(&args),
        "hunt" => hunt::run(&args),
        "serve" => match serve::run(&args) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: serve: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for failure in &outcome.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let notes: String = outcome
        .notes
        .iter()
        .map(|(name, value)| format!(", \"{name}\": {value}"))
        .collect();
    println!(
        "# meta {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"eval_threads\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"fail_frac\": {}{notes}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        autoq_core::default_eval_threads(),
        args.rustc,
        args.commit,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
