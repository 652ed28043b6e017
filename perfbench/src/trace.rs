//! In-memory span tracing around the calls the benchmark makes into the
//! layers' public functions.
//!
//! A span records its name, start, end, parent span and job id.  Spans stay
//! in memory while the run measures and are written out as JSON lines when
//! it ends.  A layer's self time is the duration of its spans minus the part
//! of each span that its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u64,
}

/// The span recorder plus the exact counters measured at the same
/// boundaries.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the job id that the following spans carry.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(id);
        id
    }

    /// Closes the span `id`, which must be the innermost open one; returns
    /// its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.stack.pop(), Some(id), "spans must close in order");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    /// Raises the counter `name` to at least `value`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.counters.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }

    pub fn has_counter(&self, name: &str) -> bool {
        self.counters.contains_key(name)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time in seconds per span name, over the spans from index `from`
    /// on.
    pub fn self_times_since(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans[from..] {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate().skip(from) {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[index]);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        self.self_times_since(0)
    }

    /// Number of spans recorded so far (a mark for
    /// [`Tracer::self_times_since`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                span.name, span.start_ns, span.end_ns, span.job
            )?;
        }
        out.flush()
    }
}
