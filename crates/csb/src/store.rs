//! Storage backends for tree traversal: direct memory (production /
//! wall-clock benchmarks) and simulated memory (microarchitectural
//! breakdowns), mirroring `isi_core::mem::IndexedMem` at node
//! granularity.

use isi_core::prefetch::prefetch_object_t0;
use isi_memsim::{SharedMachine, SimArray};

use crate::node::{InnerNode, LeafNode};
use crate::tree::CsbTree;

/// Node-granular access to a CSB+-tree: the traversal coroutines in
/// [`crate::lookup`] are generic over this, so one implementation serves
/// real and simulated memory.
pub trait TreeStore<K, V> {
    /// Access inner node `idx` (charges simulated cost for all its
    /// cache lines, if the backend models cost).
    fn inner(&self, idx: u32) -> &InnerNode<K>;
    /// Access leaf node `idx`.
    fn leaf(&self, idx: u32) -> &LeafNode<K, V>;
    /// Prefetch every cache line of inner node `idx`.
    fn prefetch_inner(&self, idx: u32);
    /// Prefetch every cache line of leaf node `idx`.
    fn prefetch_leaf(&self, idx: u32);
    /// Charge pure computation (no-op on real memory).
    #[inline(always)]
    fn compute(&self, cycles: u32) {
        let _ = cycles;
    }
    /// Root node index.
    fn root(&self) -> u32;
    /// Number of inner levels.
    fn height(&self) -> u32;
}

impl<K, V, S: TreeStore<K, V>> TreeStore<K, V> for &S {
    #[inline(always)]
    fn inner(&self, idx: u32) -> &InnerNode<K> {
        (**self).inner(idx)
    }
    #[inline(always)]
    fn leaf(&self, idx: u32) -> &LeafNode<K, V> {
        (**self).leaf(idx)
    }
    #[inline(always)]
    fn prefetch_inner(&self, idx: u32) {
        (**self).prefetch_inner(idx)
    }
    #[inline(always)]
    fn prefetch_leaf(&self, idx: u32) {
        (**self).prefetch_leaf(idx)
    }
    #[inline(always)]
    fn compute(&self, cycles: u32) {
        (**self).compute(cycles)
    }
    #[inline(always)]
    fn root(&self) -> u32 {
        (**self).root()
    }
    #[inline(always)]
    fn height(&self) -> u32 {
        (**self).height()
    }
}

/// Real-memory backend: borrows the tree arenas, prefetches with the
/// hardware instruction. Two words; `Copy`.
pub struct DirectTreeStore<'a, K, V> {
    tree: &'a CsbTree<K, V>,
}

impl<'a, K, V> Clone for DirectTreeStore<'a, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, K, V> Copy for DirectTreeStore<'a, K, V> {}

impl<'a, K, V> DirectTreeStore<'a, K, V> {
    /// Wrap a tree.
    pub fn new(tree: &'a CsbTree<K, V>) -> Self {
        Self { tree }
    }
}

impl<'a, K, V> TreeStore<K, V> for DirectTreeStore<'a, K, V> {
    #[inline(always)]
    fn inner(&self, idx: u32) -> &InnerNode<K> {
        &self.tree.inners[idx as usize]
    }
    #[inline(always)]
    fn leaf(&self, idx: u32) -> &LeafNode<K, V> {
        &self.tree.leaves[idx as usize]
    }
    #[inline(always)]
    fn prefetch_inner(&self, idx: u32) {
        if let Some(node) = self.tree.inners.get(idx as usize) {
            prefetch_object_t0(node as *const _, std::mem::size_of::<InnerNode<K>>());
        }
    }
    #[inline(always)]
    fn prefetch_leaf(&self, idx: u32) {
        if let Some(node) = self.tree.leaves.get(idx as usize) {
            prefetch_object_t0(node as *const _, std::mem::size_of::<LeafNode<K, V>>());
        }
    }
    #[inline(always)]
    fn root(&self) -> u32 {
        self.tree.root()
    }
    #[inline(always)]
    fn height(&self) -> u32 {
        self.tree.height()
    }
}

/// Simulated-memory backend: the tree's arenas are copied into the
/// machine's synthetic address space, so traversals charge cache, TLB
/// and fill-buffer costs — node-granular (a 64-byte inner node is one
/// line; leaves span several).
pub struct SimTreeStore<K, V> {
    inners: SimArray<InnerNode<K>>,
    leaves: SimArray<LeafNode<K, V>>,
    root: u32,
    height: u32,
}

impl<K: Copy, V: Copy> SimTreeStore<K, V> {
    /// Copy `tree`'s arenas into `machine`'s address space.
    pub fn from_tree(machine: &SharedMachine, tree: &CsbTree<K, V>) -> Self {
        Self {
            inners: SimArray::new(machine, tree.inners.clone()),
            leaves: SimArray::new(machine, tree.leaves.clone()),
            root: tree.root(),
            height: tree.height(),
        }
    }
}

impl<K, V> TreeStore<K, V> for SimTreeStore<K, V> {
    fn inner(&self, idx: u32) -> &InnerNode<K> {
        use isi_core::mem::IndexedMem;
        // Charge the access through the cost model, then hand out a
        // reference tied to the arena itself.
        let _ = self.inners.mem().at(idx as usize);
        &self.inners.raw()[idx as usize]
    }
    fn leaf(&self, idx: u32) -> &LeafNode<K, V> {
        use isi_core::mem::IndexedMem;
        let _ = self.leaves.mem().at(idx as usize);
        &self.leaves.raw()[idx as usize]
    }
    fn prefetch_inner(&self, idx: u32) {
        use isi_core::mem::IndexedMem;
        self.inners.mem().prefetch(idx as usize);
    }
    fn prefetch_leaf(&self, idx: u32) {
        use isi_core::mem::IndexedMem;
        self.leaves.mem().prefetch(idx as usize);
    }
    fn compute(&self, cycles: u32) {
        self.inners.machine().compute(cycles);
    }
    fn root(&self) -> u32 {
        self.root
    }
    fn height(&self) -> u32 {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> CsbTree<u32, u32> {
        let pairs: Vec<(u32, u32)> = (0..500).map(|i| (i * 2, i)).collect();
        CsbTree::from_sorted(&pairs)
    }

    #[test]
    fn direct_store_exposes_tree_shape() {
        let t = sample_tree();
        let s = DirectTreeStore::new(&t);
        assert_eq!(s.root(), t.root());
        assert_eq!(s.height(), t.height());
        let root = s.inner(s.root());
        assert!(root.nkeys > 0);
        s.prefetch_inner(s.root());
        s.prefetch_leaf(0);
        s.prefetch_inner(u32::MAX); // out of bounds: harmless
        s.compute(10);
    }

    #[test]
    fn sim_store_charges_costs() {
        let t = sample_tree();
        let machine = SharedMachine::haswell();
        let s = SimTreeStore::from_tree(&machine, &t);
        assert_eq!(s.height(), t.height());
        let before = machine.stats();
        let _ = s.leaf(0);
        let after = machine.stats();
        assert!(after.loads > before.loads, "leaf access must charge loads");
        // A u32 leaf spans two cache lines.
        assert_eq!(after.loads - before.loads, 2);
        s.prefetch_leaf(1);
        assert!(machine.stats().prefetches >= 2);
        s.compute(5);
    }

    #[test]
    fn stores_agree_on_content() {
        let t = sample_tree();
        let machine = SharedMachine::haswell();
        let d = DirectTreeStore::new(&t);
        let s = SimTreeStore::from_tree(&machine, &t);
        let leaf_d = d.leaf(3);
        let leaf_s = s.leaf(3);
        assert_eq!(leaf_d.keys(), leaf_s.keys());
        assert_eq!(d.inner(t.root()).keys(), s.inner(t.root()).keys());
    }
}
