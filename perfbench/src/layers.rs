//! The per-layer metrics of the traced run.  A workload reports the layers
//! it reaches; `run.py` fills in the others from `BENCHMARK.json`.

use std::collections::BTreeMap;

use autoq_amplitude::intern;

use crate::trace::Tracer;
use crate::util::Outcome;

/// Span name → self-time metric name.
const SELF_TIMES: [(&str, &str); 18] = [
    ("treeaut.reduce", "treeaut.reduce.self_s"),
    ("core.composition", "core.composition.self_s"),
    ("core.permutation", "core.permutation.self_s"),
    ("treeaut.inclusion", "treeaut.inclusion.self_s"),
    ("simulator.confirm", "simulator.confirm.self_s"),
    ("treeaut.certificate", "treeaut.certificate.build_s"),
    ("certify.check", "certify.check_s"),
    ("circuit.qasm", "circuit.qasm.parse_s"),
    ("circuit.digest", "circuit.digest.self_s"),
    ("daemon.proto", "daemon.proto.codec_s"),
    ("daemon.cache", "daemon.cache.lookup_s"),
    ("daemon.cache.spec_digest", "daemon.cache.spec_digest_s"),
    ("daemon.materialize", "daemon.materialize_s"),
    ("daemon.store.append", "daemon.store.append_s"),
    ("daemon.store.recover", "daemon.store.recover_s"),
    ("daemon.engine", "daemon.engine.self_s"),
    ("circuit.schedule", "circuit.schedule.self_s"),
    ("circuit.decompose", "circuit.decompose.self_s"),
];

/// Spans whose self time is engine-layer work (the rest of an entry
/// point's time is `core.engine.other_s`).
const ENGINE_LAYERS: [&str; 6] = [
    "treeaut.reduce",
    "core.composition",
    "core.permutation",
    "treeaut.inclusion",
    "circuit.schedule",
    "circuit.decompose",
];

/// Counters copied as they are, divided by the number of passes.
const PER_PASS_COUNTS: [&str; 8] = [
    "treeaut.reduce.calls",
    "treeaut.reduce.states_in",
    "treeaut.reduce.states_out",
    "core.composition.calls",
    "core.permutation.calls",
    "treeaut.inclusion.calls",
    "simulator.confirm.calls",
    "core.hunt.iterations",
];

/// Additive counters that, with `PER_PASS_COUNTS`, make up a job's exact
/// counts.
const OTHER_COUNTS: [&str; 2] = ["treeaut.reduce.noop", "treeaut.certificate.bytes"];

/// The exact counters of `tr` in a fixed order.  The difference between two
/// snapshots around a job is that job's counts, which must repeat exactly
/// whenever the same job runs again.
pub fn job_counts(tr: &Tracer) -> Vec<f64> {
    PER_PASS_COUNTS
        .iter()
        .chain(&OTHER_COUNTS)
        .map(|name| tr.counter(name))
        .collect()
}

/// The counts `tr` gained since the snapshot `before` of [`job_counts`].
pub fn job_counts_since(tr: &Tracer, before: &[f64]) -> Vec<f64> {
    job_counts(tr)
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .collect()
}

/// Count determinism: the counts of each job's first run, and how many
/// later runs of the same job gave other counts (nondeterministic work,
/// reported rather than averaged).
pub struct Determinism<T> {
    first: BTreeMap<String, T>,
    pub differing: u64,
}

impl<T: PartialEq> Determinism<T> {
    pub fn new() -> Self {
        Determinism {
            first: BTreeMap::new(),
            differing: 0,
        }
    }

    pub fn observe(&mut self, job: &str, counts: T) {
        match self.first.get(job) {
            Some(first) => self.differing += u64::from(*first != counts),
            None => {
                self.first.insert(job.to_string(), counts);
            }
        }
    }
}

/// Snapshot of the process-wide counters, taken around the measured
/// passes.
pub struct Counters {
    intern: intern::InternStats,
    spills: u64,
}

impl Counters {
    pub fn now() -> Self {
        Counters {
            intern: intern::stats(),
            spills: autoq_bigint::heap_spill_count(),
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Fills the outcome with the span self times and counters of `tr` per
/// pass (for the layers the run reached), then the process-wide counters
/// measured since `before`.
pub fn report(out: &mut Outcome, tr: &Tracer, passes: usize, before: &Counters) {
    let passes_f = passes.max(1) as f64;
    let selfs = tr.self_times();
    for (span, metric) in SELF_TIMES {
        if let Some(seconds) = selfs.get(span) {
            out.metric(metric, seconds / passes_f, "s");
        }
    }
    for name in PER_PASS_COUNTS {
        if tr.has_counter(name) {
            out.metric(name, tr.counter(name) / passes_f, "count");
        }
    }
    let calls = tr.counter("treeaut.reduce.calls");
    if calls > 0.0 {
        out.metric(
            "treeaut.reduce.noop_frac",
            tr.counter("treeaut.reduce.noop") / calls,
            "ratio",
        );
    }
    if tr.has_counter("core.composition.peak_states") {
        out.metric(
            "core.composition.peak_states",
            tr.counter("core.composition.peak_states"),
            "count",
        );
    }
    let confirms = tr.counter("simulator.confirm.calls");
    if confirms > 0.0 {
        out.metric(
            "simulator.confirm.confirmed_frac",
            tr.counter("simulator.confirm.confirmed") / confirms,
            "ratio",
        );
    }
    if tr.has_counter("treeaut.certificate.bytes") {
        out.metric(
            "treeaut.certificate.bytes",
            tr.counter("treeaut.certificate.bytes") / passes_f,
            "bytes",
        );
    }
    let after = Counters::now();
    let intern_hits = after.intern.intern_hits - before.intern.intern_hits;
    let intern_misses = after.intern.intern_misses - before.intern.intern_misses;
    let combine_hits = after.intern.combine_hits - before.intern.combine_hits;
    let combine_misses = after.intern.combine_misses - before.intern.combine_misses;
    out.metric(
        "amplitude.intern.distinct",
        after.intern.distinct as f64,
        "count",
    );
    out.metric(
        "amplitude.intern.hit_frac",
        ratio(intern_hits, intern_hits + intern_misses),
        "ratio",
    );
    out.metric(
        "amplitude.combine.hit_frac",
        ratio(combine_hits, combine_hits + combine_misses),
        "ratio",
    );
    out.metric(
        "bigint.heap_spills",
        (after.spills - before.spills) as f64 / passes_f,
        "count",
    );
    out.metric(
        "treeaut.arena.live_nodes",
        autoq_treeaut::arena::live_node_count() as f64,
        "count",
    );
    out.metric("meta.nproc", crate::nproc() as f64, "count");
    out.metric(
        "meta.eval_threads",
        autoq_core::default_eval_threads() as f64,
        "count",
    );
    out.metric("meta.passes", passes as f64, "count");
}

/// Engine-layer self time of the spans recorded since `mark`.
pub fn engine_layer_seconds(tr: &Tracer, mark: usize) -> f64 {
    let selfs = tr.self_times_since(mark);
    ENGINE_LAYERS
        .iter()
        .map(|name| selfs.get(name).copied().unwrap_or(0.0))
        .sum()
}
