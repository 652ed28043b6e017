//! Process statistics, order statistics and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::host::HostMeter;

/// User+system CPU seconds of process `pid` ("self" for this process).
pub fn cpu_seconds(pid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Clock ticks per second of `/proc/<pid>/stat` times (fixed at 100 by the
/// Linux ABI).
const USER_HZ: f64 = 100.0;

/// Peak resident set size (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets this process's VmHWM to its current resident set size, so that
/// `peak_rss_mib` reads the peak since this call (Linux 4.0 and later;
/// elsewhere the peak keeps covering the whole process).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile (`p` in 0..=100); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The timed passes of the `verify` and `hunt` workloads.
///
/// Host meter samples run between jobs, one per started second of the job
/// before them (at least one), so that a long job is as well covered as a
/// run of short ones.  A job's slowdown is the mean of the samples right
/// before and right after it, and a pass's wall and CPU times are scaled
/// by the mean of its jobs' slowdowns weighted by their wall times (see
/// `host`).  `pass_s` and `cpu_s` are the medians over the run's passes.
pub struct Passes {
    window: Instant,
    meter: HostMeter,
    jobs: usize,
    /// The last job's wall time and the slowdown before it, until the
    /// samples after it are in.
    pending: Option<(f64, f64)>,
    wall: f64,
    /// Σ wall time × slowdown over the pass's jobs.
    weighted: f64,
    kernel: f64,
    cpu_start: f64,
    pass_wall: Vec<f64>,
    pass_cpu: Vec<f64>,
    peak_rss: f64,
}

impl Passes {
    pub fn new(jobs: usize) -> Self {
        Passes {
            window: Instant::now(),
            meter: HostMeter::default(),
            jobs,
            pending: None,
            wall: 0.0,
            weighted: 0.0,
            kernel: 0.0,
            cpu_start: 0.0,
            pass_wall: Vec::new(),
            pass_cpu: Vec::new(),
            peak_rss: 0.0,
        }
    }

    /// At least one pass, then passes until the window is over.
    pub fn keep_going(&self, seconds: f64) -> bool {
        self.pass_wall.is_empty() || self.window.elapsed().as_secs_f64() < seconds
    }

    pub fn begin(&mut self) {
        self.wall = 0.0;
        self.weighted = 0.0;
        self.kernel = 0.0;
        self.cpu_start = cpu_seconds("self");
    }

    /// Samples the host between two jobs; returns the slowdown the samples
    /// measured and settles the previous job's slowdown.
    fn sample(&mut self) -> f64 {
        let previous = self.pending.take();
        let count = previous.map_or(1, |(wall, _)| 1 + wall as usize);
        let mark = self.meter.mark();
        for _ in 0..count {
            self.kernel += self.meter.sample();
        }
        let slowdown = self.meter.slowdown_since(mark);
        if let Some((wall, before)) = previous {
            self.weighted += wall * (before + slowdown) / 2.0;
        }
        slowdown
    }

    /// Samples the host meter, then runs and times one job.  The peak
    /// resident set size is taken over the jobs alone, without the
    /// meter's buffer.
    pub fn job<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let before = self.sample();
        reset_peak_rss();
        let start = Instant::now();
        let result = work();
        let wall = start.elapsed().as_secs_f64();
        let peak = peak_rss_mib("self") - self.meter.resident_mib();
        self.peak_rss = self.peak_rss.max(peak);
        self.wall += wall;
        self.pending = Some((wall, before));
        result
    }

    pub fn end(&mut self) {
        self.sample();
        // The kernel is single-threaded, so its CPU time is its wall time.
        let cpu = cpu_seconds("self") - self.cpu_start - self.kernel;
        let slowdown = self.weighted / self.wall;
        self.pass_wall.push(self.wall / slowdown);
        self.pass_cpu.push(cpu / slowdown);
        eprintln!(
            "perfbench: pass {} took {:.3}s wall, {:.2}s cpu, host slowdown {slowdown:.3}",
            self.pass_wall.len(),
            self.wall,
            cpu,
        );
    }

    /// Fills the end-to-end metrics.
    pub fn report(&self, out: &mut Outcome, setup_times: &[f64]) {
        let pass = median(&self.pass_wall);
        out.metric("setup_s", median(setup_times), "s");
        out.metric("pass_s", pass, "s");
        out.metric("cpu_s", median(&self.pass_cpu), "s");
        out.metric("peak_rss_mb", self.peak_rss, "MiB");
        out.metric("verdicts_per_s", self.jobs as f64 / pass, "1/s");
        out.note("host_slowdown", self.meter.slowdown());
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A metric value with its unit.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run: verdict counts and metrics by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    /// Figures for the `# meta` line, not metrics.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), Metric { value, unit });
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// Records one checked job: `problem` is `None` when its answer was
    /// right.
    pub fn check(&mut self, job: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{job}: {problem}"));
            }
        }
    }

    /// The final result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
