//! The process-wide **interned amplitude table**: canonical [`Algebraic`]
//! values mapped to compact integer [`AmpId`] handles.
//!
//! Benchmark circuits touch only a handful of distinct leaf amplitudes
//! (powers of `ω` scaled by `(1/√2)^k`), yet every automaton used to carry
//! its own `Algebraic` per leaf transition — hashed, cloned and compared
//! structurally on every reduction, dedup and product construction.  This
//! table interns each distinct canonical value once, process-wide, so leaf
//! identity everywhere downstream is a `Copy` 32-bit id: equality is an
//! integer compare, hashing is an integer hash, and the dominant leaf
//! combination of the composition ladder (`+`/`−` of two leaves) is memoised
//! on `(op, AmpId, AmpId)` and usually never re-does the big-integer
//! arithmetic at all.
//!
//! The table is sharded (`docs/CONCURRENCY.md` §5): [`NUM_SHARDS`] shards,
//! each behind its own mutex, selected by hashing the interning key; an id
//! carries its shard in the high [`SHARD_BITS`] bits so resolution goes
//! straight to the owning shard.  Unlike tree nodes, which are freed when
//! their last tree is dropped, interned amplitudes are **permanent**.  The
//! set of distinct amplitudes a verification run produces is tiny
//! (hundreds, even on the paper's scale rows) and each entry is a few dozen
//! bytes now that small big-integers are stored inline, so freeing them
//! would buy nothing and would cost every holder of an [`AmpId`] a
//! liveness protocol.
//!
//! # Examples
//!
//! ```
//! use autoq_amplitude::{intern, resolve, AmpId, Algebraic};
//!
//! let a = intern(&Algebraic::one_over_sqrt2());
//! let b = intern(&Algebraic::from_components(1, 0, 0, 0, 1));
//! assert_eq!(a, b); // same canonical value → same id
//! assert_eq!(resolve(a), Algebraic::one_over_sqrt2());
//!
//! // Memoised leaf combination (the composition ladder's hot path):
//! let sum = intern::combine(intern::LeafOp::Add, a, a);
//! assert_eq!(resolve(sum), Algebraic::one().mul_sqrt2());
//! ```

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::Algebraic;

/// Number of bits of an [`AmpId`] that select the shard.
pub const SHARD_BITS: u32 = 4;
/// Number of independent interning shards (`2^SHARD_BITS`).
pub const NUM_SHARDS: usize = 1 << SHARD_BITS;
/// Bits left for the slot index within a shard.
const INDEX_BITS: u32 = u32::BITS - SHARD_BITS;
/// Mask extracting the in-shard slot index from a raw [`AmpId`].
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;

/// Handle to an interned amplitude in the process-wide table.
///
/// Two `AmpId`s are equal **iff** the canonical [`Algebraic`] values they
/// denote are equal — the invariant every downstream leaf comparison relies
/// on.  The derived `Ord` is *arbitrary but stable* (it orders by shard and
/// interning slot, not by value); use [`resolve`] and [`Algebraic`]'s own
/// `Ord` where a value order matters.
///
/// Ids are process-local: they must never be serialised raw.  Codecs emit a
/// per-payload amplitude table and reference it by dense index instead (see
/// `autoq-treeaut`'s binary format).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AmpId(u32);

impl AmpId {
    /// The raw 32-bit representation (shard in the high [`SHARD_BITS`]
    /// bits).  Useful as a ready-made small integer key in signatures and
    /// hash-cons tables.
    pub fn raw(self) -> u32 {
        self.0
    }

    fn new(shard: usize, index: usize) -> AmpId {
        assert!(
            index <= INDEX_MASK as usize,
            "amplitude table shard overflow: more than 2^{INDEX_BITS} amplitudes in one shard"
        );
        AmpId(((shard as u32) << INDEX_BITS) | index as u32)
    }

    fn shard(self) -> usize {
        (self.0 >> INDEX_BITS) as usize
    }

    fn index(self) -> usize {
        (self.0 & INDEX_MASK) as usize
    }
}

/// The binary leaf operations the composition ladder combines leaves with,
/// memoised by [`combine`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LeafOp {
    /// `lhs + rhs` (the `Plus` arm of Algorithm 9's product construction).
    Add,
    /// `lhs - rhs` (the `Minus` arm).
    Sub,
}

/// One interning shard: slot storage, the hash-cons table mapping canonical
/// values back to ids, and the memo for [`combine`] results whose key hashes
/// here.
#[derive(Default)]
struct Shard {
    values: Vec<Algebraic>,
    ids: HashMap<Algebraic, AmpId>,
    combine_memo: HashMap<(LeafOp, AmpId, AmpId), AmpId>,
}

struct TableState {
    shards: [Mutex<Shard>; NUM_SHARDS],
    /// [`intern`] calls resolved by the hash-cons table without inserting.
    intern_hits: AtomicU64,
    /// [`intern`] calls that inserted a new distinct amplitude.
    intern_misses: AtomicU64,
    /// [`combine`] calls answered from the memo.
    combine_hits: AtomicU64,
    /// [`combine`] calls that had to do the big-integer arithmetic.
    combine_misses: AtomicU64,
}

fn state() -> &'static TableState {
    static STATE: OnceLock<TableState> = OnceLock::new();
    STATE.get_or_init(|| TableState {
        shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        intern_hits: AtomicU64::new(0),
        intern_misses: AtomicU64::new(0),
        combine_hits: AtomicU64::new(0),
        combine_misses: AtomicU64::new(0),
    })
}

/// Locks one shard.  Every table path holds at most one shard lock at a time
/// and never blocks while holding it, so lock order cannot deadlock.  The
/// table is structurally consistent at every release, so a poisoned lock is
/// deliberately ignored.
fn lock_shard(index: usize) -> MutexGuard<'static, Shard> {
    state().shards[index]
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn shard_of<K: Hash>(key: &K) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) & (NUM_SHARDS - 1)
}

/// Interns a canonical amplitude, returning its process-wide id.  Idempotent
/// and cheap on the hit path: one shard lock, one hash lookup.
pub fn intern(value: &Algebraic) -> AmpId {
    let shard_index = shard_of(value);
    let mut shard = lock_shard(shard_index);
    if let Some(&id) = shard.ids.get(value) {
        state().intern_hits.fetch_add(1, Ordering::Relaxed);
        return id;
    }
    state().intern_misses.fetch_add(1, Ordering::Relaxed);
    let id = AmpId::new(shard_index, shard.values.len());
    shard.values.push(value.clone());
    shard.ids.insert(value.clone(), id);
    id
}

/// Resolves an id back to its amplitude.  Cloning is cheap: canonical
/// amplitudes on benchmark circuits hold single-limb big-integers stored
/// inline, so the clone allocates nothing.
pub fn resolve(id: AmpId) -> Algebraic {
    lock_shard(id.shard()).values[id.index()].clone()
}

/// The id of the zero amplitude (cached; zero is the restriction
/// construction's hot constant).
pub fn zero_id() -> AmpId {
    static ZERO: OnceLock<AmpId> = OnceLock::new();
    *ZERO.get_or_init(|| intern(&Algebraic::zero()))
}

/// The id of the one amplitude (cached).
pub fn one_id() -> AmpId {
    static ONE: OnceLock<AmpId> = OnceLock::new();
    *ONE.get_or_init(|| intern(&Algebraic::one()))
}

/// Combines two interned leaves, memoising the result so repeated products
/// of the same pair (the overwhelmingly common case in the composition
/// ladder) skip the big-integer arithmetic entirely.
///
/// The arithmetic runs *outside* any shard lock — interning is idempotent,
/// so a race between two threads computing the same pair just inserts the
/// same id twice.
pub fn combine(op: LeafOp, lhs: AmpId, rhs: AmpId) -> AmpId {
    let key = (op, lhs, rhs);
    let memo_shard = shard_of(&key);
    if let Some(&id) = lock_shard(memo_shard).combine_memo.get(&key) {
        state().combine_hits.fetch_add(1, Ordering::Relaxed);
        return id;
    }
    state().combine_misses.fetch_add(1, Ordering::Relaxed);
    let a = resolve(lhs);
    let b = resolve(rhs);
    let value = match op {
        LeafOp::Add => &a + &b,
        LeafOp::Sub => &a - &b,
    };
    let id = intern(&value);
    lock_shard(memo_shard).combine_memo.insert(key, id);
    id
}

/// Counters exposed for the `leaf.*` benchmark entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct amplitudes currently interned.
    pub distinct: u64,
    /// [`intern`] lookups answered without inserting.
    pub intern_hits: u64,
    /// [`intern`] lookups that inserted a new value.
    pub intern_misses: u64,
    /// [`combine`] calls answered from the memo.
    pub combine_hits: u64,
    /// [`combine`] calls that performed arithmetic.
    pub combine_misses: u64,
}

/// A snapshot of the table's counters.  The counts are monotone over the
/// process lifetime (the table never reclaims), so differences between two
/// snapshots measure one workload's behaviour.
pub fn stats() -> InternStats {
    let state = state();
    let distinct = (0..NUM_SHARDS)
        .map(|i| lock_shard(i).values.len() as u64)
        .sum();
    InternStats {
        distinct,
        intern_hits: state.intern_hits.load(Ordering::Relaxed),
        intern_misses: state.intern_misses.load(Ordering::Relaxed),
        combine_hits: state.combine_hits.load(Ordering::Relaxed),
        combine_misses: state.combine_misses.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amp_id_round_trips_shard_and_index() {
        for shard in [0usize, 1, NUM_SHARDS - 1] {
            for index in [0usize, 1, 4096, INDEX_MASK as usize] {
                let id = AmpId::new(shard, index);
                assert_eq!(id.shard(), shard);
                assert_eq!(id.index(), index);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard overflow")]
    fn amp_id_overflow_is_detected() {
        let _ = AmpId::new(0, INDEX_MASK as usize + 1);
    }

    #[test]
    fn interning_is_idempotent_across_representations() {
        // Equal canonical values intern to the same id even when built
        // through different constructors.
        let a = intern(&Algebraic::one_over_sqrt2());
        let b = intern(&Algebraic::from_components(1, 0, 0, 0, 1));
        let c = intern(&Algebraic::from_components(1, 0, 0, 0, 2));
        assert_eq!(a, b);
        assert_eq!(resolve(a), Algebraic::one_over_sqrt2());
        assert_ne!(a, c);
        assert_eq!(zero_id(), intern(&Algebraic::zero()));
        assert_eq!(one_id(), intern(&Algebraic::one()));
        assert_ne!(zero_id(), one_id());
    }

    #[test]
    fn combine_matches_direct_arithmetic_and_memoises() {
        let x = intern(&Algebraic::from_components(1, 2, 3, 4, 2));
        let y = intern(&Algebraic::omega());
        let before = stats();
        let sum = combine(LeafOp::Add, x, y);
        let diff = combine(LeafOp::Sub, x, y);
        assert_eq!(resolve(sum), &resolve(x) + &resolve(y));
        assert_eq!(resolve(diff), &resolve(x) - &resolve(y));
        // Second round must come from the memo.
        assert_eq!(combine(LeafOp::Add, x, y), sum);
        assert_eq!(combine(LeafOp::Sub, x, y), diff);
        let after = stats();
        assert!(after.combine_hits >= before.combine_hits + 2);
        // Order matters for subtraction: (Sub, y, x) is a different key.
        assert_eq!(
            resolve(combine(LeafOp::Sub, y, x)),
            &resolve(y) - &resolve(x)
        );
    }

    #[test]
    fn stats_track_distinct_count() {
        let before = stats();
        let fresh = Algebraic::from_components(987, 654, 321, 99, 4);
        let id = intern(&fresh);
        let mid = stats();
        assert!(mid.distinct >= before.distinct);
        let again = intern(&fresh);
        assert_eq!(id, again);
        let after = stats();
        assert_eq!(after.distinct, mid.distinct, "re-interning adds nothing");
        assert!(after.intern_hits > mid.intern_hits - 1);
    }
}
