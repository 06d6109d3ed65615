//! How the traversal coroutines see a tree: a [`TreeView`] of two
//! [`IndexedMem`] arenas (inner nodes, leaves) plus the root and the
//! height. Over [`DirectMem`] it is the tree in real memory
//! ([`DirectTreeStore`]); over `isi_memsim::SimMem` views of copied
//! arenas it is the same tree on the simulated machine, so the
//! coroutine in [`crate::lookup`] that ships is the one the
//! microarchitectural breakdowns measure.
//!
//! [`IndexedMem`]: isi_core::mem::IndexedMem

use isi_core::mem::DirectMem;

use crate::node::{InnerNode, LeafNode};
use crate::tree::CsbTree;

/// A CSB+-tree as its lookup coroutines see it. `Copy` when both
/// arenas are (they are views), so each coroutine captures its own.
#[derive(Debug, Clone, Copy)]
pub struct TreeView<MI, ML> {
    /// Inner-node arena.
    pub inners: MI,
    /// Leaf arena.
    pub leaves: ML,
    /// Root node index (into `inners` if `height > 0`, else `leaves`).
    pub root: u32,
    /// Number of inner levels; 0 means the root is a leaf.
    pub height: u32,
}

/// The view over a tree in real memory: node prefetches are the
/// hardware instruction, one per cache line of a node larger than a
/// line ([`DirectMem`]'s rule; a 64-byte `u32` inner node gets one).
pub type DirectTreeStore<'a, K, V> =
    TreeView<DirectMem<'a, InnerNode<K>>, DirectMem<'a, LeafNode<K, V>>>;

impl<'a, K, V> DirectTreeStore<'a, K, V> {
    /// View `tree`.
    pub fn new(tree: &'a CsbTree<K, V>) -> Self {
        Self {
            inners: DirectMem::new(tree.inners()),
            leaves: DirectMem::new(tree.leaves()),
            root: tree.root(),
            height: tree.height(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isi_core::mem::IndexedMem;
    use isi_memsim::{SharedMachine, SimArray};

    fn sample_tree() -> CsbTree<u32, u32> {
        let pairs: Vec<(u32, u32)> = (0..500).map(|i| (i * 2, i)).collect();
        CsbTree::from_sorted(&pairs)
    }

    #[test]
    fn direct_view_exposes_tree_shape() {
        let t = sample_tree();
        let s = DirectTreeStore::new(&t);
        assert_eq!((s.root, s.height), (t.root(), t.height()));
        assert!(s.inners.at(s.root as usize).nkeys > 0);
        s.inners.prefetch(s.root as usize);
        s.leaves.prefetch(0);
        s.inners.prefetch(u32::MAX as usize); // out of bounds: harmless
        s.leaves.prefetch(usize::MAX);
    }

    #[test]
    fn sim_view_charges_every_line_of_a_node() {
        let t = sample_tree();
        let machine = SharedMachine::haswell();
        let leaves = SimArray::new(&machine, t.leaves().to_vec());
        let before = machine.stats();
        assert_eq!(leaves.mem().at(0).keys(), t.leaves()[0].keys());
        // A u32 leaf spans two cache lines (116 bytes from a line start).
        assert_eq!(machine.stats().loads - before.loads, 2);
        leaves.mem().prefetch(1);
        assert!(machine.stats().prefetches >= 2);
    }
}
