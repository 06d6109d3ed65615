//! Cache-sensitive node layout, after Rao & Ross (SIGMOD 2000).
//!
//! A CSB+-tree keeps all children of a node in one contiguous *node
//! group*, so an inner node stores a single `first_child` index instead
//! of an array of child pointers. The space saved holds more keys per
//! cache line, and a child is reached by `first_child + slot`, which is
//! also what makes the whole node group prefetchable with one address.
//!
//! With `NODE_CAP = 14` keys, a `u32` inner node is exactly one 64-byte
//! cache line (2 + 2 + 4 + 14x4 = 64); leaves span two lines. The
//! coroutine lookup prefetches every line of the touched node (paper
//! Listing 6), so the in-node search never misses.

use isi_core::prefetch::CACHE_LINE;

/// Maximum keys per node; an inner node has at most `NODE_CAP + 1`
/// children.
pub(crate) const NODE_CAP: usize = 14;

/// An inner (branch) node: `nkeys` separator keys and a contiguous group
/// of `nkeys + 1` children starting at `first_child`.
///
/// `keys[i]` is the smallest key reachable under child `i + 1`; child 0
/// holds everything below `keys[0]`.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct InnerNode<K> {
    /// Number of valid separator keys.
    pub nkeys: u16,
    /// Padding/versioning space (keeps the u32 aligned; reserved).
    pub _pad: u16,
    /// Index of child 0 in the next level's arena.
    pub first_child: u32,
    /// Separator keys; entries beyond `nkeys` are undefined.
    pub keys: [K; NODE_CAP],
}

impl<K: Copy + Ord + Default> InnerNode<K> {
    /// An empty inner node pointing at `first_child`.
    pub fn new(first_child: u32) -> Self {
        Self {
            nkeys: 0,
            _pad: 0,
            first_child,
            keys: [K::default(); NODE_CAP],
        }
    }

    /// Valid separator keys.
    #[inline]
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys[..self.nkeys as usize]
    }

    /// Child slot to descend into for `value`: the number of separators
    /// `<= value`. Branch-free in-node search (the paper uses the
    /// non-suspending binary-search coroutine here; for 14 keys a
    /// branch-free linear pass has the same no-speculation property and
    /// fewer instructions).
    #[inline]
    pub(crate) fn child_slot(&self, value: &K) -> usize {
        let mut slot = 0usize;
        for k in self.keys() {
            slot += (k <= value) as usize;
        }
        slot
    }

    /// Number of children (`nkeys + 1`).
    #[inline]
    pub(crate) fn children(&self) -> usize {
        self.nkeys as usize + 1
    }
}

/// A leaf node: sorted keys with parallel values.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct LeafNode<K, V> {
    /// Number of valid entries.
    pub nkeys: u16,
    /// Reserved padding.
    pub _pad: u16,
    /// Sorted keys; entries beyond `nkeys` are undefined.
    pub keys: [K; NODE_CAP],
    /// Values parallel to `keys`.
    pub values: [V; NODE_CAP],
}

// A node that shrank to one cache line would silently fall to the
// single-prefetch arm of `DirectMem::prefetch`.
const _: () = assert!(
    size_of::<InnerNode<u64>>() > CACHE_LINE && size_of::<LeafNode<u32, u32>>() > CACHE_LINE
);

impl<K: Copy + Ord + Default, V: Copy + Default> LeafNode<K, V> {
    /// An empty leaf.
    pub fn new() -> Self {
        Self {
            nkeys: 0,
            _pad: 0,
            keys: [K::default(); NODE_CAP],
            values: [V::default(); NODE_CAP],
        }
    }

    /// Valid keys.
    #[inline]
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys[..self.nkeys as usize]
    }

    /// Valid values.
    #[cfg(test)]
    #[inline]
    pub(crate) fn values(&self) -> &[V] {
        &self.values[..self.nkeys as usize]
    }

    /// Position of `value` in this leaf, if present (branch-free scan).
    #[inline]
    pub(crate) fn find(&self, value: &K) -> Option<usize> {
        let n = self.nkeys as usize;
        let mut lt = 0usize;
        for k in self.keys() {
            lt += (k < value) as usize;
        }
        (lt < n && &self.keys[lt] == value).then_some(lt)
    }

    /// Position where `value` would be inserted to keep the leaf sorted.
    #[inline]
    pub(crate) fn insert_slot(&self, value: &K) -> usize {
        let mut lt = 0usize;
        for k in self.keys() {
            lt += (k < value) as usize;
        }
        lt
    }

    /// Insert at `slot`, shifting the tail right.
    ///
    /// # Panics
    /// Panics if the leaf is full or `slot > nkeys`.
    pub(crate) fn insert_at(&mut self, slot: usize, key: K, value: V) {
        let n = self.nkeys as usize;
        assert!(n < NODE_CAP, "leaf full");
        assert!(slot <= n, "slot out of range");
        self.keys.copy_within(slot..n, slot + 1);
        self.values.copy_within(slot..n, slot + 1);
        self.keys[slot] = key;
        self.values[slot] = value;
        self.nkeys += 1;
    }

    /// Smallest key (the leaf's separator in its parent).
    ///
    /// # Panics
    /// Panics if the leaf is empty.
    #[inline]
    pub(crate) fn min_key(&self) -> K {
        assert!(self.nkeys > 0, "empty leaf has no min key");
        self.keys[0]
    }
}

impl<K: Copy + Ord + Default, V: Copy + Default> Default for LeafNode<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_inner_node_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<InnerNode<u32>>(), 64);
    }

    #[test]
    fn child_slot_routes_correctly() {
        let mut n = InnerNode::<u32>::new(100);
        n.nkeys = 3;
        n.keys[..3].copy_from_slice(&[10, 20, 30]);
        assert_eq!(n.child_slot(&5), 0);
        assert_eq!(n.child_slot(&10), 1); // separator key goes right
        assert_eq!(n.child_slot(&15), 1);
        assert_eq!(n.child_slot(&20), 2);
        assert_eq!(n.child_slot(&99), 3);
        assert_eq!(n.children(), 4);
    }

    #[test]
    fn empty_inner_routes_everything_to_child_zero() {
        let n = InnerNode::<u32>::new(7);
        assert_eq!(n.child_slot(&0), 0);
        assert_eq!(n.child_slot(&u32::MAX), 0);
        assert_eq!(n.children(), 1);
    }

    #[test]
    fn leaf_find_and_insert() {
        let mut l = LeafNode::<u32, u64>::new();
        for (i, k) in [10u32, 30, 50].iter().enumerate() {
            let slot = l.insert_slot(k);
            l.insert_at(slot, *k, (i * 100) as u64);
        }
        // Out-of-order insert lands in the middle.
        let slot = l.insert_slot(&20);
        assert_eq!(slot, 1);
        l.insert_at(slot, 20, 999);
        assert_eq!(l.keys(), &[10, 20, 30, 50]);
        assert_eq!(l.find(&20), Some(1));
        assert_eq!(l.find(&25), None);
        assert_eq!(l.find(&10), Some(0));
        assert_eq!(l.find(&50), Some(3));
        assert_eq!(l.values()[1], 999);
        assert_eq!(l.min_key(), 10);
    }

    #[test]
    fn leaf_find_on_empty() {
        let l = LeafNode::<u32, u32>::new();
        assert_eq!(l.find(&1), None);
        assert_eq!(l.insert_slot(&1), 0);
    }

    #[test]
    #[should_panic(expected = "leaf full")]
    fn leaf_overflow_panics() {
        let mut l = LeafNode::<u32, u32>::new();
        for k in 0..=NODE_CAP as u32 {
            l.insert_at(l.insert_slot(&k), k, k);
        }
    }

    #[test]
    fn duplicate_keys_in_leaf_find_first() {
        // The tree itself never stores duplicates (insert replaces), but
        // the node primitive behaves sanely anyway.
        let mut l = LeafNode::<u32, u32>::new();
        l.insert_at(0, 5, 1);
        l.insert_at(1, 5, 2);
        assert_eq!(l.find(&5), Some(0));
    }
}
