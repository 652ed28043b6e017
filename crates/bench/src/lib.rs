//! Shared harness code for reproducing the AutoQ paper's evaluation tables.
//!
//! The binaries `table2` and `table3` print Markdown tables mirroring the
//! paper's Table 2 (verification against pre/post-conditions) and Table 3
//! (bug finding); `bench_reduction` reuses the same row runners and writes
//! the per-layer baseline `BENCH_reduction.json`.  `table3 --paper` appends
//! the paper's 35-qubit regime (AutoQ-only: the baselines do not terminate
//! at that scale), where DAG-shared witness trees keep extraction and
//! confirmation in seconds.
//!
//! *Pipeline position*: bigint → amplitude → {treeaut, circuit} →
//! simulator → {equivcheck, core} → **bench** — the terminal evaluation
//! stage exercising every crate below it.

pub mod table2;
pub mod table3;

#[cfg(test)]
mod answers;

use std::time::{Duration, Instant};

/// Runs a closure and returns its result together with the wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_and_returns() {
        let (value, duration) = timed(|| (0..1000).sum::<u64>());
        assert_eq!(value, 499500);
        assert!(duration.as_secs() < 5);
    }
}
