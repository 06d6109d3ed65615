//! The CSB+-tree proper: arena storage, bulk load, insert with
//! node-group splits, point and range queries, and structural
//! validation.
//!
//! Nodes live in two arenas (`inners`, `leaves`) indexed by `u32`. All
//! children of an inner node are contiguous in the next level's arena
//! (the CSB+ node-group invariant), so splitting a child requires
//! *rebuilding the whole group* at the end of the arena — the classic
//! CSB+ insertion cost that Rao & Ross trade for faster lookups. Dead
//! groups are left behind and tracked in `dead_*` counters;
//! [`CsbTree::rebuilt`] compacts the tree when the garbage matters.
//!
//! A bulk load ([`CsbTree::builder`], [`CsbTree::from_sorted`] and with
//! them every rebuild) reserves both arenas at their exact final length
//! and advises them onto transparent huge pages
//! ([`isi_core::topo::advise_huge_pages`]) before filling them. A cold descent touches one node per level, each
//! on a page of its own: 2^23 pairs are 599 187 leaves of 232 B
//! (139 MB) plus ~5 MB of inner nodes, about 35 000 4-KiB pages against
//! a second-level TLB of about 2 000 entries. Where the kernel declines,
//! the arenas are ordinary `Vec`s. Inserts that outgrow a bulk-loaded
//! arena reallocate it without the advice.
//!
//! Deletes are intentionally out of scope: the tree indexes the paper's
//! Delta dictionaries, which are append-only (a delta merge, not a
//! delete, shrinks them — see `isi-columnstore`).

use isi_core::topo::advise_huge_pages;

use crate::node::{InnerNode, LeafNode, NODE_CAP};

/// A cache-sensitive B+-tree mapping `K` to `V`.
///
/// Keys must be `Copy + Ord + Default`; values `Copy + Default`. (The
/// intended use stores dictionary values/codes — plain integers or
/// fixed-width strings.)
#[derive(Debug, Clone)]
pub struct CsbTree<K, V> {
    inners: Vec<InnerNode<K>>,
    leaves: Vec<LeafNode<K, V>>,
    root: u32,
    /// Number of inner levels; 0 means the root is a leaf.
    height: u32,
    len: usize,
    dead_inners: usize,
    dead_leaves: usize,
}

impl<K: Copy + Ord + Default, V: Copy + Default> Default for CsbTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> CsbTree<K, V> {
    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of inner levels (0 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root node index (into `inners` if `height > 0`, else `leaves`).
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The inner-node arena (what a [`crate::store::TreeView`] reads).
    pub fn inners(&self) -> &[InnerNode<K>] {
        &self.inners
    }

    /// The leaf arena.
    pub fn leaves(&self) -> &[LeafNode<K, V>] {
        &self.leaves
    }

    /// Arena nodes orphaned by group splits `(inners, leaves)`.
    pub fn garbage(&self) -> (usize, usize) {
        (self.dead_inners, self.dead_leaves)
    }
}

impl<K: Copy + Ord + Default, V: Copy + Default> CsbTree<K, V> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            inners: Vec::new(),
            leaves: vec![LeafNode::new()],
            root: 0,
            height: 0,
            len: 0,
            dead_inners: 0,
            dead_leaves: 0,
        }
    }

    /// Bulk-load from key-sorted, de-duplicated pairs.
    ///
    /// Leaves are filled to capacity (read-optimized, like a fresh delta
    /// merge); the level above each contiguous run of children becomes
    /// one node group.
    ///
    /// # Panics
    /// Panics if `pairs` is not strictly sorted by key.
    pub fn from_sorted(pairs: &[(K, V)]) -> Self {
        let mut b = Self::builder(pairs.len());
        for &(k, v) in pairs {
            b.push(k, v);
        }
        b.finish()
    }

    /// A bulk loader for `len` pairs, pushed in strictly ascending key
    /// order, as [`from_sorted`](Self::from_sorted) takes them. The
    /// leaf arena is reserved at its final length and advised before
    /// the first push, the inner arena likewise at
    /// [`finish`](CsbTreeBuilder::finish): the fill's page faults are
    /// the first touch, so an advised arena is born on huge pages, and
    /// no push reallocates it off them.
    pub fn builder(len: usize) -> CsbTreeBuilder<K, V> {
        let mut leaves = Vec::with_capacity(len.div_ceil(NODE_CAP));
        advise_huge_pages(leaves.spare_capacity_mut());
        CsbTreeBuilder { leaves, len: 0 }
    }

    /// Descend to the leaf for `key`, recording the inner-node path
    /// (top-down; `path.len() == height`).
    fn descend(&self, key: &K, path: &mut Vec<u32>) -> u32 {
        path.clear();
        let mut idx = self.root;
        for _ in 0..self.height {
            let node = &self.inners[idx as usize];
            path.push(idx);
            idx = node.first_child + node.child_slot(key) as u32;
        }
        idx
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut idx = self.root;
        for _ in 0..self.height {
            let node = &self.inners[idx as usize];
            idx = node.first_child + node.child_slot(key) as u32;
        }
        let leaf = &self.leaves[idx as usize];
        leaf.find(key).map(|pos| leaf.values[pos])
    }

    /// Insert or replace; returns the previous value for `key`, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let mut path = Vec::with_capacity(self.height as usize);
        loop {
            let leaf_idx = self.descend(&key, &mut path);
            let leaf = &mut self.leaves[leaf_idx as usize];
            if let Some(pos) = leaf.find(&key) {
                let old = leaf.values[pos];
                leaf.values[pos] = value;
                return Some(old);
            }
            if (leaf.nkeys as usize) < NODE_CAP {
                let slot = leaf.insert_slot(&key);
                leaf.insert_at(slot, key, value);
                self.len += 1;
                return None;
            }
            // Leaf full: make room, then retry the descent (splits
            // relocate whole node groups, invalidating `path`).
            self.make_room(&path, leaf_idx);
        }
    }

    /// Create space on the path to a full leaf: split the leaf's group
    /// if its parent has key room; otherwise split the lowest full
    /// ancestor (growing a new root when even the root is full).
    fn make_room(&mut self, path: &[u32], leaf_idx: u32) {
        if self.height == 0 {
            // Root is the full leaf: grow a trivial root above it.
            self.grow_root();
            return;
        }
        let parent = *path.last().expect("height > 0 implies non-empty path");
        if (self.inners[parent as usize].nkeys as usize) < NODE_CAP {
            self.split_leaf_group(parent, leaf_idx);
            return;
        }
        // Parent is full. Find the lowest ancestor with key room and
        // split its (full) child group one level below it.
        let mut i = path.len() - 1;
        while i > 0 && self.inners[path[i - 1] as usize].nkeys as usize == NODE_CAP {
            i -= 1;
        }
        if i == 0 {
            // Every ancestor including the root is full.
            self.grow_root();
            return;
        }
        self.split_inner_group(path[i - 1], path[i]);
    }

    /// Copy the root into a fresh single-node group and hang a new empty
    /// root above it, increasing the height by one.
    fn grow_root(&mut self) {
        let old_root = self.root;
        let copied = if self.height == 0 {
            self.dead_leaves += 1;
            let idx = self.leaves.len() as u32;
            self.leaves.push(self.leaves[old_root as usize]);
            idx
        } else {
            self.dead_inners += 1;
            let idx = self.inners.len() as u32;
            self.inners.push(self.inners[old_root as usize]);
            idx
        };
        let new_root = InnerNode::new(copied);
        self.root = self.inners.len() as u32;
        self.inners.push(new_root);
        self.height += 1;
    }

    /// Rebuild `parent`'s leaf group with `full_leaf` split in two.
    /// `parent` must have key room.
    fn split_leaf_group(&mut self, parent: u32, full_leaf: u32) {
        let p = self.inners[parent as usize];
        debug_assert!((p.nkeys as usize) < NODE_CAP);
        let fc = p.first_child;
        let m = p.children();
        let s = (full_leaf - fc) as usize;
        debug_assert!(s < m, "leaf not in parent's group");

        let new_start = self.leaves.len() as u32;
        for j in 0..m {
            if j == s {
                let old = self.leaves[(fc as usize) + j];
                let (left, right) = split_leaf(&old);
                self.leaves.push(left);
                self.leaves.push(right);
            } else {
                self.leaves.push(self.leaves[(fc as usize) + j]);
            }
        }
        self.dead_leaves += m;

        let sep = self.leaves[new_start as usize + s + 1].min_key();
        let p = &mut self.inners[parent as usize];
        p.first_child = new_start;
        let nk = p.nkeys as usize;
        p.keys.copy_within(s..nk, s + 1);
        p.keys[s] = sep;
        p.nkeys += 1;
    }

    /// Rebuild `grandparent`'s inner group with `full_child` split in
    /// two. `grandparent` must have key room; `full_child` must be full.
    fn split_inner_group(&mut self, grandparent: u32, full_child: u32) {
        let gp = self.inners[grandparent as usize];
        debug_assert!((gp.nkeys as usize) < NODE_CAP);
        let fc = gp.first_child;
        let m = gp.children();
        let s = (full_child - fc) as usize;
        debug_assert!(s < m, "child not in grandparent's group");

        let new_start = self.inners.len() as u32;
        let mut sep = None;
        for j in 0..m {
            if j == s {
                let old = self.inners[(fc as usize) + j];
                let (left, promoted, right) = split_inner(&old);
                sep = Some(promoted);
                self.inners.push(left);
                self.inners.push(right);
            } else {
                self.inners.push(self.inners[(fc as usize) + j]);
            }
        }
        self.dead_inners += m;

        let sep = sep.expect("split produced a separator");
        let gp = &mut self.inners[grandparent as usize];
        gp.first_child = new_start;
        let nk = gp.nkeys as usize;
        gp.keys.copy_within(s..nk, s + 1);
        gp.keys[s] = sep;
        gp.nkeys += 1;
    }

    /// In-order traversal of all entries.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        self.walk(self.root, self.height, &mut f);
    }

    fn walk(&self, idx: u32, level: u32, f: &mut impl FnMut(&K, &V)) {
        if level == 0 {
            let leaf = &self.leaves[idx as usize];
            for i in 0..leaf.nkeys as usize {
                f(&leaf.keys[i], &leaf.values[i]);
            }
        } else {
            let node = &self.inners[idx as usize];
            for c in 0..node.children() {
                self.walk(node.first_child + c as u32, level - 1, f);
            }
        }
    }

    /// All entries in key order (convenience for tests and rebuilds).
    pub fn items(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|k, v| out.push((*k, *v)));
        out
    }

    /// Rebuild into a compact, garbage-free, fully-packed tree.
    pub fn rebuilt(&self) -> Self {
        Self::from_sorted(&self.items())
    }

    /// Check every structural invariant; panics with a description on
    /// violation. Used by tests (including property tests) after every
    /// mutation batch.
    pub fn validate(&self) {
        let mut count = 0usize;
        let mut live_inners = 0usize;
        let mut live_leaves = 0usize;
        self.validate_node(
            self.root,
            self.height,
            None,
            None,
            &mut count,
            &mut live_inners,
            &mut live_leaves,
        );
        assert_eq!(count, self.len, "len mismatch");
        assert_eq!(
            live_inners + self.dead_inners,
            self.inners.len(),
            "inner arena accounting"
        );
        assert_eq!(
            live_leaves + self.dead_leaves,
            self.leaves.len(),
            "leaf arena accounting"
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_node(
        &self,
        idx: u32,
        level: u32,
        lo: Option<K>,
        hi: Option<K>,
        count: &mut usize,
        live_inners: &mut usize,
        live_leaves: &mut usize,
    ) {
        if level == 0 {
            *live_leaves += 1;
            let leaf = &self.leaves[idx as usize];
            let keys = leaf.keys();
            for w in keys.windows(2) {
                assert!(w[0] < w[1], "leaf keys not strictly sorted");
            }
            for k in keys {
                if let Some(lo) = &lo {
                    assert!(k >= lo, "leaf key below separator");
                }
                if let Some(hi) = &hi {
                    assert!(k < hi, "leaf key at/above next separator");
                }
            }
            *count += keys.len();
        } else {
            *live_inners += 1;
            let node = &self.inners[idx as usize];
            let keys = node.keys();
            for w in keys.windows(2) {
                assert!(w[0] < w[1], "separators not strictly sorted");
            }
            for c in 0..node.children() {
                let clo = if c == 0 { lo } else { Some(keys[c - 1]) };
                let chi = if c == node.children() - 1 {
                    hi
                } else {
                    Some(keys[c])
                };
                self.validate_node(
                    node.first_child + c as u32,
                    level - 1,
                    clo,
                    chi,
                    count,
                    live_inners,
                    live_leaves,
                );
            }
        }
    }
}

/// A [`CsbTree`] being bulk-loaded, pair by pair, in key order (see
/// [`CsbTree::builder`]).
#[derive(Debug)]
pub struct CsbTreeBuilder<K, V> {
    leaves: Vec<LeafNode<K, V>>,
    len: usize,
}

impl<K: Copy + Ord + Default, V: Copy + Default> CsbTreeBuilder<K, V> {
    /// Append one pair to the last leaf, or to a fresh one when it is
    /// full.
    ///
    /// # Panics
    /// Panics unless `key` is above every key pushed before.
    #[inline]
    pub fn push(&mut self, key: K, value: V) {
        let slot = self.len % NODE_CAP;
        if let Some(leaf) = self.leaves.last() {
            let last = leaf.keys[(slot + NODE_CAP - 1) % NODE_CAP];
            assert!(last < key, "bulk load requires strictly sorted keys");
        }
        if slot == 0 {
            self.leaves.push(LeafNode::new());
        }
        let leaf = self.leaves.last_mut().expect("a leaf with room");
        leaf.keys[slot] = key;
        leaf.values[slot] = value;
        leaf.nkeys = slot as u16 + 1;
        self.len += 1;
    }

    /// Build the inner levels over the filled leaves: the level above
    /// each contiguous run of children becomes one node group.
    pub fn finish(self) -> CsbTree<K, V> {
        let Self { leaves, len } = self;
        if leaves.is_empty() {
            return CsbTree::new();
        }
        let mut inners: Vec<InnerNode<K>> = Vec::with_capacity(inner_count(leaves.len()));
        advise_huge_pages(inners.spare_capacity_mut());

        // Min key of every node on the current level.
        let mut level_mins: Vec<K> = leaves.iter().map(|l| l.min_key()).collect();
        let mut level_start = 0u32; // arena offset of current level (leaves: 0)
        let mut level_len = leaves.len();
        let mut height = 0u32;

        while level_len > 1 {
            let mut next_mins = Vec::with_capacity(level_len / (NODE_CAP + 1) + 1);
            let next_start = inners.len() as u32;
            let mut child = 0usize;
            while child < level_len {
                let group = (level_len - child).min(NODE_CAP + 1);
                let mut node = InnerNode::new(level_start + child as u32);
                node.keys[..group - 1].copy_from_slice(&level_mins[child + 1..child + group]);
                node.nkeys = (group - 1) as u16;
                next_mins.push(level_mins[child]);
                inners.push(node);
                child += group;
            }
            level_start = next_start;
            level_len = inners.len() - next_start as usize;
            level_mins = next_mins;
            height += 1;
        }

        let root = if height == 0 {
            0
        } else {
            (inners.len() - 1) as u32
        };
        CsbTree {
            inners,
            leaves,
            root,
            height,
            len,
            dead_inners: 0,
            dead_leaves: 0,
        }
    }
}

/// Inner nodes a bulk load builds above `leaves` leaves: each
/// level is its children in groups of up to `NODE_CAP + 1`, up to a
/// single root.
fn inner_count(leaves: usize) -> usize {
    let (mut level, mut total) = (leaves, 0);
    while level > 1 {
        level = level.div_ceil(NODE_CAP + 1);
        total += level;
    }
    total
}

/// Split a full leaf into two halves.
fn split_leaf<K: Copy + Ord + Default, V: Copy + Default>(
    old: &LeafNode<K, V>,
) -> (LeafNode<K, V>, LeafNode<K, V>) {
    let n = old.nkeys as usize;
    let half = n / 2;
    let mut left = LeafNode::new();
    let mut right = LeafNode::new();
    left.keys[..half].copy_from_slice(&old.keys[..half]);
    left.values[..half].copy_from_slice(&old.values[..half]);
    left.nkeys = half as u16;
    right.keys[..n - half].copy_from_slice(&old.keys[half..n]);
    right.values[..n - half].copy_from_slice(&old.values[half..n]);
    right.nkeys = (n - half) as u16;
    (left, right)
}

/// Split a full inner node into two, promoting the middle separator.
/// Children are *not* moved: the left half keeps the group prefix, the
/// right half starts `half + 1` children in.
fn split_inner<K: Copy + Ord + Default>(old: &InnerNode<K>) -> (InnerNode<K>, K, InnerNode<K>) {
    let n = old.nkeys as usize;
    debug_assert_eq!(n, NODE_CAP);
    let half = n / 2;
    let promoted = old.keys[half];
    let mut left = InnerNode::new(old.first_child);
    left.keys[..half].copy_from_slice(&old.keys[..half]);
    left.nkeys = half as u16;
    let mut right = InnerNode::new(old.first_child + half as u32 + 1);
    right.keys[..n - half - 1].copy_from_slice(&old.keys[half + 1..n]);
    right.nkeys = (n - half - 1) as u16;
    (left, promoted, right)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t = CsbTree::<u32, u32>::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&5), None);
        assert_eq!(t.height(), 0);
        t.validate();
    }

    #[test]
    fn bulk_load_and_get() {
        let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i * 2, u64::from(i) * 10)).collect();
        let t = CsbTree::from_sorted(&pairs);
        t.validate();
        assert_eq!(t.len(), 1000);
        assert!(t.height() >= 2);
        for (k, v) in &pairs {
            assert_eq!(t.get(k), Some(*v), "k={k}");
        }
        for k in [1u32, 3, 999, 2001, u32::MAX] {
            assert_eq!(t.get(&k), None, "k={k}");
        }
    }

    #[test]
    fn bulk_load_single_leaf() {
        let pairs: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 100)).collect();
        let t = CsbTree::from_sorted(&pairs);
        t.validate();
        assert_eq!(t.height(), 0);
        assert_eq!(t.get(&3), Some(103));
    }

    #[test]
    fn bulk_load_reserves_both_arenas_exactly() {
        // At and one past each level's boundary (14 keys a leaf, 15
        // children a node): an undercount would reallocate an advised
        // arena mid-fill, off its huge pages.
        for n in [0u32, 1, 14, 15, 210, 211, 3_150, 3_151, 47_250, 47_251] {
            let pairs: Vec<(u32, u32)> = (0..n).map(|i| (i, i)).collect();
            let t = CsbTree::from_sorted(&pairs);
            t.validate();
            assert_eq!(t.leaves.capacity(), t.leaves.len(), "leaves, n={n}");
            assert_eq!(t.inners.capacity(), t.inners.len(), "inners, n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn bulk_load_rejects_unsorted() {
        CsbTree::from_sorted(&[(3u32, 0u32), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn bulk_load_rejects_duplicates() {
        CsbTree::from_sorted(&[(3u32, 0u32), (3, 1)]);
    }

    #[test]
    fn insert_into_empty_and_replace() {
        let mut t = CsbTree::<u32, u32>::new();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(5, 51), Some(50));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&5), Some(51));
        t.validate();
    }

    #[test]
    fn ascending_inserts_grow_tree() {
        let mut t = CsbTree::<u32, u32>::new();
        for i in 0..2000 {
            assert_eq!(t.insert(i, i * 3), None);
        }
        t.validate();
        assert_eq!(t.len(), 2000);
        assert!(t.height() >= 2, "height {}", t.height());
        for i in 0..2000 {
            assert_eq!(t.get(&i), Some(i * 3));
        }
        assert_eq!(t.get(&2000), None);
    }

    #[test]
    fn descending_inserts() {
        let mut t = CsbTree::<u32, u32>::new();
        for i in (0..2000).rev() {
            t.insert(i, i);
        }
        t.validate();
        for i in 0..2000 {
            assert_eq!(t.get(&i), Some(i));
        }
    }

    #[test]
    fn pseudorandom_inserts_match_btreemap() {
        let mut t = CsbTree::<u64, u64>::new();
        let mut model = std::collections::BTreeMap::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 3000; // plenty of replacements
            assert_eq!(t.insert(k, x), model.insert(k, x), "k={k}");
        }
        t.validate();
        assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(*v));
        }
        let items = t.items();
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(items, expect);
    }

    #[test]
    fn inserts_into_bulk_loaded_tree() {
        let pairs: Vec<(u32, u32)> = (0..500).map(|i| (i * 4, i)).collect();
        let mut t = CsbTree::from_sorted(&pairs);
        // Fill the gaps; every full leaf must split.
        for i in 0..500 {
            t.insert(i * 4 + 1, i + 10_000);
        }
        t.validate();
        assert_eq!(t.len(), 1000);
        for i in 0..500 {
            assert_eq!(t.get(&(i * 4)), Some(i));
            assert_eq!(t.get(&(i * 4 + 1)), Some(i + 10_000));
        }
        let (gi, gl) = t.garbage();
        assert!(gl > 0, "splits must orphan leaf groups ({gi}, {gl})");
    }

    #[test]
    fn rebuilt_tree_is_garbage_free_and_equal() {
        let mut t = CsbTree::<u32, u32>::new();
        for i in 0..3000 {
            t.insert((i * 2654435761u64 % 100_000) as u32, i as u32);
        }
        let r = t.rebuilt();
        r.validate();
        assert_eq!(r.garbage(), (0, 0));
        assert_eq!(r.items(), t.items());
        assert!(r.leaves.len() <= t.leaves.len());
    }

    #[test]
    fn for_each_visits_in_order() {
        let mut t = CsbTree::<u32, u32>::new();
        for i in [5u32, 1, 9, 3, 7, 2, 8] {
            t.insert(i, i * 10);
        }
        let items = t.items();
        assert_eq!(
            items,
            vec![
                (1, 10),
                (2, 20),
                (3, 30),
                (5, 50),
                (7, 70),
                (8, 80),
                (9, 90)
            ]
        );
    }
}
