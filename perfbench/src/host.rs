//! The host's speed, measured with a fixed reference kernel.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! 10–40% over tens of seconds to minutes, with CPU time following wall
//! time, so a run's raw times mostly say which phase of the host it ran
//! in.  The benchmark therefore runs a small fixed kernel before every
//! unit of work it times and scales each time by how slow the kernel ran
//! around it: a time reported in seconds is seconds at the reference
//! speed, the kernel's speed on the machine the bounds were set on.
//!
//! The kernel uses only the standard library and this file.  It works in
//! one buffer allocated once and brought back into the caches before each
//! timed run, so neither the repository's crates nor the heap, page and
//! cache state they leave behind change its work: a change to the crates
//! moves the scaled times exactly as it moves the raw ones.  (Running in
//! fresh pages each time tracked the host slightly better, but page-fault
//! times moved with the memory the jobs before had freed, which a change
//! to the crates would move too.)

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use crate::util::mix;

/// The kernel's mean wall time on the reference machine (a shared 2-vCPU
/// KVM guest, Xeon at 2.1 GHz).
const REFERENCE_S: f64 = 0.0150;

/// Slots of the kernel's hash table (a power of two; 2 MiB).
const SLOTS: usize = 1 << 18;
/// Keys inserted per run, about three fifths of the slots.
const KEYS: u64 = 150_000;

/// Words of the kernel's buffer: the table, then two tuples per key.
const WORDS: usize = SLOTS + 2 * KEYS as usize;

/// One run of the reference kernel in `buffer`: hash-consing pairs into an
/// open-addressing table, then sorting tuples and counting the distinct
/// ones, the operations tree-automata reduction spends its time on.
/// Returns the wall time of that work.
fn kernel(buffer: &mut [u64]) -> f64 {
    // Untimed: clears the table and brings the buffer back into the
    // caches, whatever the job before evicted.
    buffer.fill(0);
    let start = Instant::now();
    let (table, tuples) = buffer.split_at_mut(SLOTS);
    let mut x = 0x1234_5678u64;
    let mut ids = 0u64;
    for i in 0..KEYS {
        x = mix(x, i);
        let (a, b, c) = (x % 60_000, (x >> 20) % 60_000, (x >> 40) % 64);
        let key = (a << 16 | b) + 1;
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let mut slot = hasher.finish() as usize & (SLOTS - 1);
        let id = loop {
            let entry = table[slot];
            if entry == 0 {
                ids += 1;
                table[slot] = key << 20 | ids;
                break ids;
            }
            if entry >> 20 == key {
                break entry & 0xf_ffff;
            }
            slot = (slot + 1) & (SLOTS - 1);
        };
        tuples[2 * i as usize] = a << 40 | b << 20 | c;
        tuples[2 * i as usize + 1] = id << 40 | c << 20 | a;
    }
    tuples.sort_unstable();
    let distinct = 1 + tuples.windows(2).filter(|w| w[0] != w[1]).count();
    std::hint::black_box(distinct);
    start.elapsed().as_secs_f64()
}

/// The kernel's buffer and its times in one run.
pub struct HostMeter {
    buffer: Vec<u64>,
    samples: Vec<f64>,
    /// Wall time spent in `sample`, warm-ups included.
    spent: f64,
}

impl Default for HostMeter {
    fn default() -> Self {
        let buffer = vec![0; WORDS];
        HostMeter {
            buffer,
            samples: Vec::new(),
            spent: 0.0,
        }
    }
}

impl HostMeter {
    /// Runs the kernel once and returns the wall time it took, warm-up
    /// included, which the caller leaves out of the time it measures.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let time = kernel(&mut self.buffer);
        self.samples.push(time);
        let spent = start.elapsed().as_secs_f64();
        self.spent += spent;
        spent
    }

    /// Times `work`, which may call `sample` between its steps: samples the
    /// host before and after it, and returns its result and its wall time
    /// less the samples', scaled by the host's slowdown over all of them.
    pub fn timed<T>(&mut self, work: impl FnOnce(&mut HostMeter) -> T) -> (T, f64) {
        let mark = self.mark();
        self.sample();
        let spent = self.spent;
        let start = Instant::now();
        let result = work(self);
        let time = start.elapsed().as_secs_f64() - (self.spent - spent);
        self.sample();
        (result, time / self.slowdown_since(mark))
    }

    /// The memory the kernel's buffer keeps resident, in MiB.
    pub fn resident_mib(&self) -> f64 {
        (self.buffer.len() * 8) as f64 / (1024.0 * 1024.0)
    }

    /// A position in the samples, for `slowdown_since`.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// How slow the host ran since `mark`: the mean kernel time of the
    /// samples since then over the reference time (1.25 = 25% slower).
    pub fn slowdown_since(&self, mark: usize) -> f64 {
        let since = &self.samples[mark.min(self.samples.len())..];
        if since.is_empty() {
            return 1.0;
        }
        since.iter().sum::<f64>() / since.len() as f64 / REFERENCE_S
    }

    /// The slowdown over the whole run.
    pub fn slowdown(&self) -> f64 {
        self.slowdown_since(0)
    }
}
