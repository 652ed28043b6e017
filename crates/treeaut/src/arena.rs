//! How many tree nodes are alive.
//!
//! Every [`crate::Tree`] owns its nodes (see the `tree` module docs): a
//! node is counted when it is built and uncounted when the last tree
//! holding it is dropped, so this count is what long hunt campaigns and the
//! daemon watch to show their memory stays flat.
//!
//! ```
//! use autoq_treeaut::{arena, Tree};
//!
//! let witness = Tree::basis_state(12, 0b0101);
//! assert!(arena::live_node_count() >= witness.node_count());
//! ```

use std::sync::atomic::Ordering;

/// The number of tree nodes currently alive in the process.  Other threads
/// build and drop trees concurrently, so the count is exact only while no
/// other thread holds or builds trees.
pub fn live_node_count() -> usize {
    crate::tree::LIVE_NODES.load(Ordering::Relaxed)
}
