//! Reproduces Table 3 of the AutoQ paper (finding injected bugs) at laptop
//! scale: AutoQ's incremental bug hunting versus the path-sum (Feynman-style)
//! and random-stimuli (QCEC-style) baselines.
//!
//! Usage: `cargo run --release -p autoq-bench --bin table3 [--paper] [--threads N]`
//!
//! With `--paper`, the paper's 35-qubit regime is appended (AutoQ only: the
//! baselines do not terminate at that scale — which is the point of Table 3).
//! `--threads N` runs the paper-scale rows as a portfolio on `N` worker
//! threads (row seeds are pinned, so the table itself is identical for every
//! thread count; see `docs/CONCURRENCY.md` §portfolio hunting).
//!
//! AutoQ's hunts run the Hybrid engine, which applies a CNOT or Toffoli
//! whose control sits below its target to a set of phased basis states by
//! guess-and-verify (`autoq_core::composition`, *The basis path*) instead
//! of the paper's tagged composition ladder; the peak-states column reports
//! that path's output sizes.

use autoq_bench::table3::{default_workload, run_paper_scale_rows_threaded, run_row, Table3Row};

fn parse_threads(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let paper = args.iter().any(|a| a == "--paper");
    let threads = parse_threads(&args);
    println!("# Table 3 — bug finding on circuits with one injected gate");
    println!();
    println!(
        "Hybrid applies a CNOT or Toffoli whose control sits below its target to a set of \
         phased basis states by guess-and-verify instead of the tagged ladder, and a \
         composition-encoded gate whose input holds one quantum state on a hash-consed DAG, \
         deviations from the paper's Hybrid setting that the peak-states column reflects."
    );
    println!();
    println!("{}", Table3Row::markdown_header());

    let mut rows = Vec::new();
    for (index, (name, circuit, superposing)) in default_workload().into_iter().enumerate() {
        let row = run_row(&name, &circuit, superposing, 42 + index as u64);
        println!("{}", row.to_markdown());
        rows.push(row);
    }
    if paper {
        let start = std::time::Instant::now();
        let paper_rows = run_paper_scale_rows_threaded(threads);
        let elapsed = start.elapsed();
        for row in paper_rows {
            println!("{}", row.to_markdown());
            rows.push(row);
        }
        println!();
        println!(
            "Paper-scale rows: {:.3}s wall clock on {threads} thread(s)",
            elapsed.as_secs_f64()
        );
    }

    println!();
    let autoq_found = rows.iter().filter(|r| r.autoq_found).count();
    let pathsum_found = rows
        .iter()
        .filter(|r| r.pathsum_verdict.caught_bug())
        .count();
    let stimuli_found = rows
        .iter()
        .filter(|r| r.stimuli_verdict.caught_bug())
        .count();
    println!(
        "Bugs found — AutoQ: {autoq_found}/{} | path-sum: {pathsum_found}/{} | stimuli: {stimuli_found}/{}",
        rows.len(),
        rows.len(),
        rows.len()
    );
}
