//! The process-wide **sharded hash-consing arena** behind [`crate::Tree`], with
//! epoch-based reclamation.
//!
//! Interning used to funnel every tree operation in the process through one
//! `Mutex<Arena>`, and interned nodes were never freed — two properties that
//! made parallel bug hunting pointless (all workers serialise on the lock)
//! and long soak runs unbounded (the arena only ever grows).  This module
//! replaces that design:
//!
//! * **Sharding** — nodes live in [`NUM_SHARDS`] independent shards, each
//!   behind its own mutex.  The shard is chosen by hashing the interning key
//!   (the leaf amplitude, or the `(var, left, right)` triple), so concurrent
//!   interning from many threads only contends when two threads intern into
//!   the same shard at the same moment.  A [`NodeId`] carries its shard in
//!   the high [`SHARD_BITS`] bits and the slot index in the low bits, so
//!   reads go straight to the owning shard without consulting any global
//!   table.
//! * **Epoch reclamation** — every node is stamped with the global
//!   *generation* counter at interning time.  A caller that wants its nodes
//!   to be reclaimable later captures [`generation()`] as a *floor*, holds an
//!   [`EpochPin`] while working (pins block reclamation), and afterwards
//!   calls [`try_reclaim`] with the floor and the handles it wants to keep:
//!   every node stamped *after* the floor and unreachable from the kept
//!   handles is removed and its slot recycled.  Nodes at or below the floor
//!   are never touched, so handles that predate the epoch stay valid
//!   everywhere in the process.
//!
//! The full design — encoding, locking discipline, the reclamation protocol
//! and the invariants callers must uphold — is documented in
//! `docs/CONCURRENCY.md`.
//!
//! # Examples
//!
//! Reclaim the nodes of a completed unit of work while keeping its result:
//!
//! ```
//! use autoq_amplitude::{intern as amplitude, Algebraic, AmpId};
//! use autoq_treeaut::{arena, Tree};
//!
//! let floor = arena::generation();
//! let witness = {
//!     let _pin = arena::pin(); // blocks reclamation while we build trees
//!     let scratch = Tree::basis_state(12, 0b1010);
//!     let witness = Tree::basis_state(12, 0b0101);
//!     drop(scratch);
//!     witness
//! };
//! // `scratch`'s nodes are gone, `witness` survives and stays readable.
//! let stats = arena::try_reclaim(floor, &[witness.id()]).unwrap();
//! assert_eq!(witness.amplitude(0b0101), Algebraic::one());
//! assert!(stats.live_after >= witness.node_count());
//! ```

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use autoq_amplitude::{intern as amplitude, Algebraic, AmpId};

/// Number of bits of a [`NodeId`] that select the shard.
pub const SHARD_BITS: u32 = 4;
/// Number of independent interning shards (`2^SHARD_BITS`).
pub const NUM_SHARDS: usize = 1 << SHARD_BITS;
/// Bits left for the slot index within a shard.
const INDEX_BITS: u32 = u32::BITS - SHARD_BITS;
/// Mask extracting the in-shard slot index from a raw [`NodeId`].
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;

/// Handle to a hash-consed tree node in the process-wide sharded arena.
///
/// Two `NodeId`s are equal **iff** the subtrees they denote are structurally
/// equal — this is the invariant maintained by the interner and relied upon
/// by [`Tree`]'s `PartialEq`/`Hash` implementations and by the memoised DAG
/// walks in [`crate::TreeAutomaton`].
///
/// The high [`SHARD_BITS`] bits of the raw id name the owning shard, the low
/// bits the slot within it, so a handle locates its node without any global
/// lookup.  The derived ordering is therefore *arbitrary but stable* — it
/// orders by (shard, slot), not by interning time.
///
/// [`Tree`]: crate::Tree
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(u32);

impl NodeId {
    fn new(shard: usize, index: usize) -> NodeId {
        assert!(
            index <= INDEX_MASK as usize,
            "tree arena shard overflow: more than 2^{INDEX_BITS} nodes in one shard"
        );
        NodeId(((shard as u32) << INDEX_BITS) | index as u32)
    }

    /// The shard this node lives in.
    pub(crate) fn shard(self) -> usize {
        (self.0 >> INDEX_BITS) as usize
    }

    /// The slot index within the owning shard.
    pub(crate) fn index(self) -> usize {
        (self.0 & INDEX_MASK) as usize
    }
}

/// A hash-consed node: either a leaf carrying an interned amplitude id, or
/// an internal node labelled with a qubit variable.  Also used as the
/// snapshot returned by [`read`] — all variants are a few plain words, so
/// reads are `Copy` and never touch the allocator.
#[derive(Clone, Copy)]
pub(crate) enum TreeNode {
    /// A leaf carrying the id of its amplitude in the process-wide table.
    Leaf(AmpId),
    /// An internal node for qubit variable `var` (0-based, root = 0).
    Node {
        var: u32,
        left: NodeId,
        right: NodeId,
    },
}

/// One arena slot: an interned node stamped with the generation it was
/// created in, or a reclaimed hole awaiting reuse.
#[derive(Default)]
enum Slot {
    Occupied {
        node: TreeNode,
        generation: u64,
    },
    #[default]
    Free,
}

/// One interning shard: slot storage plus the hash-cons tables mapping
/// interning keys back to canonical handles.
#[derive(Default)]
struct Shard {
    slots: Vec<Slot>,
    leaf_ids: HashMap<AmpId, NodeId>,
    node_ids: HashMap<(u32, NodeId, NodeId), NodeId>,
    /// Reclaimed slot indices available for reuse.
    free: Vec<u32>,
    /// Number of occupied slots (`slots.len() - free.len()`, tracked
    /// directly so [`live_node_count`] does not rescan).
    live: usize,
}

struct ArenaState {
    shards: [Mutex<Shard>; NUM_SHARDS],
    /// The global epoch counter; bumped by every [`pin`].
    generation: AtomicU64,
    /// Number of live [`EpochPin`]s; any active pin blocks [`try_reclaim`].
    active_pins: AtomicUsize,
}

fn state() -> &'static ArenaState {
    static STATE: OnceLock<ArenaState> = OnceLock::new();
    STATE.get_or_init(|| ArenaState {
        shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
        generation: AtomicU64::new(0),
        active_pins: AtomicUsize::new(0),
    })
}

/// Locks one shard.  Interning and reads hold at most one shard lock at a
/// time (and never block while holding it), so lock order cannot deadlock;
/// [`try_reclaim`] is the only path that holds several, always acquired in
/// index order.  The arena is structurally consistent at every lock release,
/// so a poisoned lock (a panic elsewhere while holding it) is deliberately
/// ignored.
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

/// Interns a leaf by value, returning the canonical handle.  The value is
/// first interned into the process-wide amplitude table, so equal values
/// always funnel into the same [`AmpId`] key.
pub(crate) fn intern_leaf(value: &Algebraic) -> NodeId {
    intern_leaf_id(amplitude::intern(value))
}

/// Interns a leaf by its already-interned amplitude id — the allocation-free
/// fast path used when the amplitude id is already in hand.
pub(crate) fn intern_leaf_id(amp: AmpId) -> NodeId {
    let shard_index = shard_of(&amp);
    let mut shard = lock_shard(shard_index);
    if let Some(&id) = shard.leaf_ids.get(&amp) {
        return id;
    }
    let id = occupy(&mut shard, shard_index, TreeNode::Leaf(amp));
    shard.leaf_ids.insert(amp, id);
    id
}

/// Interns an internal node, returning the canonical handle for the
/// `(variable, left, right)` triple.
pub(crate) fn intern_node(var: u32, left: NodeId, right: NodeId) -> NodeId {
    let key = (var, left, right);
    let shard_index = shard_of(&key);
    let mut shard = lock_shard(shard_index);
    if let Some(&id) = shard.node_ids.get(&key) {
        return id;
    }
    let id = occupy(&mut shard, shard_index, TreeNode::Node { var, left, right });
    shard.node_ids.insert(key, id);
    id
}

/// Places `node` into a free slot (reusing a reclaimed one if available),
/// stamped with the current generation.
fn occupy(shard: &mut Shard, shard_index: usize, node: TreeNode) -> NodeId {
    let generation = state().generation.load(Ordering::SeqCst);
    let slot = Slot::Occupied { node, generation };
    shard.live += 1;
    if let Some(index) = shard.free.pop() {
        shard.slots[index as usize] = slot;
        NodeId::new(shard_index, index as usize)
    } else {
        let index = shard.slots.len();
        shard.slots.push(slot);
        NodeId::new(shard_index, index)
    }
}

/// Reads the node behind a handle as a `Copy` snapshot (three words at
/// most; leaf amplitudes stay behind their interned id).  Locks only the
/// owning shard, and only for the duration of the copy.
///
/// # Panics
///
/// Panics if the handle's slot was reclaimed — i.e. the caller violated the
/// reclamation protocol by holding a `Tree` across a [`try_reclaim`] that
/// did not keep it (see `docs/CONCURRENCY.md`).
pub(crate) fn read(id: NodeId) -> TreeNode {
    let shard = lock_shard(id.shard());
    match &shard.slots[id.index()] {
        Slot::Occupied { node, .. } => *node,
        Slot::Free => panic!(
            "tree node {id:?} read after reclamation: a Tree handle was held across \
             arena::try_reclaim without being passed in `keep`"
        ),
    }
}

/// The current global generation.  Capture it *before* starting an epoch's
/// work to use as the `floor` of a later [`try_reclaim`] call.
pub fn generation() -> u64 {
    state().generation.load(Ordering::SeqCst)
}

/// The number of interned nodes currently alive across all shards — the
/// quantity the 1000-hunt soak test watches for unbounded growth.
pub fn live_node_count() -> usize {
    (0..NUM_SHARDS).map(|i| lock_shard(i).live).sum()
}

/// An RAII guard that blocks reclamation while alive.
///
/// Hold a pin while interning nodes that a concurrent thread might try to
/// reclaim: [`try_reclaim`] refuses to run while any pin is active, so the
/// pinned thread's fresh handles cannot be swept out from under it.
/// Creating a pin also advances the global generation, so nodes interned
/// under the pin are stamped above any floor captured before it.
#[must_use = "a pin only protects fresh nodes while it is alive"]
#[derive(Debug)]
pub struct EpochPin {
    generation: u64,
}

impl EpochPin {
    /// The generation this pin opened (always above the floor of the epoch
    /// it belongs to).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        state().active_pins.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Opens a new epoch: advances the global generation and registers a pin
/// blocking reclamation until the returned guard is dropped.
pub fn pin() -> EpochPin {
    let state = state();
    state.active_pins.fetch_add(1, Ordering::SeqCst);
    let generation = state.generation.fetch_add(1, Ordering::SeqCst) + 1;
    EpochPin { generation }
}

/// What a successful [`try_reclaim`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Nodes removed (stamped after the floor, unreachable from `keep`).
    pub swept: usize,
    /// Post-floor nodes retained because `keep` reaches them.
    pub kept: usize,
    /// Total live nodes after the sweep.
    pub live_after: usize,
}

/// Why [`try_reclaim`] refused to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReclaimBlocked {
    /// Number of [`EpochPin`]s active at the time of the call.
    pub active_pins: usize,
}

impl std::fmt::Display for ReclaimBlocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "arena reclamation blocked by {} active epoch pin(s)",
            self.active_pins
        )
    }
}

impl std::error::Error for ReclaimBlocked {}

/// Reclaims every node stamped with a generation **above** `floor` that is
/// not reachable from the `keep` handles.  Kept nodes — and everything at or
/// below the floor — survive with their ids (and hash-cons identity) intact;
/// swept slots are recycled by later interning.
///
/// Returns [`ReclaimBlocked`] without touching anything if any [`EpochPin`]
/// is active.  Callers must uphold the protocol of `docs/CONCURRENCY.md`:
/// after a successful reclaim, no handle stamped above `floor` may be used
/// again unless it was passed in `keep` (or is reachable from one that was).
pub fn try_reclaim(floor: u64, keep: &[NodeId]) -> Result<ReclaimStats, ReclaimBlocked> {
    let state = state();
    let active_pins = state.active_pins.load(Ordering::SeqCst);
    if active_pins > 0 {
        return Err(ReclaimBlocked { active_pins });
    }
    // Hold every shard for the whole mark + sweep so the reachable set
    // cannot change underneath the marker.  Acquired in index order; all
    // other arena paths hold at most one shard lock, so this cannot
    // deadlock.
    let mut shards: Vec<MutexGuard<'static, Shard>> = (0..NUM_SHARDS).map(lock_shard).collect();
    // Check again under the locks: a thread that pinned after the check
    // above may already have interned fresh nodes (a pin is taken before
    // any shard lock, so it is visible here), and those must not be swept.
    // Every pin taken from now on interns only after the sweep.
    let active_pins = state.active_pins.load(Ordering::SeqCst);
    if active_pins > 0 {
        return Err(ReclaimBlocked { active_pins });
    }

    // Mark phase: everything reachable from `keep`.  Descent stops at nodes
    // at or below the floor — the pre-epoch region is transitively closed
    // (children are always interned before, hence stamped no later than,
    // their parents) and never swept, so there is nothing to protect below
    // it.
    let mut marks: Vec<Vec<bool>> = shards.iter().map(|s| vec![false; s.slots.len()]).collect();
    let mut stack: Vec<NodeId> = keep.to_vec();
    while let Some(id) = stack.pop() {
        let (shard, index) = (id.shard(), id.index());
        if marks[shard][index] {
            continue;
        }
        match &shards[shard].slots[index] {
            Slot::Occupied { generation, .. } if *generation <= floor => continue,
            Slot::Occupied { node, .. } => {
                marks[shard][index] = true;
                if let TreeNode::Node { left, right, .. } = node {
                    stack.push(*left);
                    stack.push(*right);
                }
            }
            Slot::Free => panic!("keep handle {id:?} points at an already-reclaimed node"),
        }
    }

    // Sweep phase: unmarked post-floor slots are freed and their hash-cons
    // table entries removed, so re-interning the same structure later mints
    // a fresh id instead of resurrecting a dangling one.
    let mut stats = ReclaimStats {
        swept: 0,
        kept: 0,
        live_after: 0,
    };
    for (shard, marks) in shards.iter_mut().zip(&marks) {
        for (index, marked) in marks.iter().enumerate() {
            let sweep = match &shard.slots[index] {
                Slot::Occupied { generation, .. } if *generation > floor => {
                    if *marked {
                        stats.kept += 1;
                        false
                    } else {
                        true
                    }
                }
                _ => false,
            };
            if sweep {
                let slot = std::mem::replace(&mut shard.slots[index], Slot::Free);
                if let Slot::Occupied { node, .. } = slot {
                    match node {
                        TreeNode::Leaf(amp) => {
                            shard.leaf_ids.remove(&amp);
                        }
                        TreeNode::Node { var, left, right } => {
                            shard.node_ids.remove(&(var, left, right));
                        }
                    }
                }
                shard.free.push(index as u32);
                shard.live -= 1;
                stats.swept += 1;
            }
        }
        stats.live_after += shard.live;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_shard_and_index() {
        for shard in [0usize, 1, NUM_SHARDS - 1] {
            for index in [0usize, 1, 4096, INDEX_MASK as usize] {
                let id = NodeId::new(shard, index);
                assert_eq!(id.shard(), shard);
                assert_eq!(id.index(), index);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shard overflow")]
    fn node_id_overflow_is_detected() {
        let _ = NodeId::new(0, INDEX_MASK as usize + 1);
    }

    #[test]
    fn interning_is_idempotent_and_readable() {
        let a = intern_leaf(&Algebraic::one());
        let b = intern_leaf(&Algebraic::one());
        assert_eq!(a, b);
        let n1 = intern_node(3, a, b);
        let n2 = intern_node(3, a, b);
        assert_eq!(n1, n2);
        assert_ne!(n1, a);
        match read(n1) {
            TreeNode::Node { var, left, right } => {
                assert_eq!(var, 3);
                assert_eq!(left, a);
                assert_eq!(right, b);
            }
            TreeNode::Leaf(_) => panic!("expected internal node"),
        }
    }

    #[test]
    fn pins_block_reclamation() {
        let floor = generation();
        let pin = pin();
        let err = try_reclaim(floor, &[]).unwrap_err();
        assert!(err.active_pins >= 1);
        assert!(pin.generation() > floor);
        drop(pin);
    }
}
