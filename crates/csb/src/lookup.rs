//! The tree-lookup coroutine — the paper's Listing 6 — and its bulk
//! drivers.
//!
//! The coroutine descends one level per suspension: it computes the
//! child with an in-node search (no cache misses — the node was
//! prefetched whole), issues a prefetch for every cache line of the
//! child, suspends, and continues in the child after resumption. The
//! root is assumed cache-resident (paper Listing 6 line 4), so the first
//! level is not prefetched.

use std::future::Future;

use isi_core::coro::suspend;
use isi_core::mem::IndexedMem;
use isi_core::sched::{run_interleaved, run_sequential, RunStats};
use isi_search::cost::CORO_SWITCH;

use crate::node::{InnerNode, LeafNode};
use crate::store::TreeView;

/// Simulated cycles for the in-node search + child-address computation.
/// (A suspend/resume switch is charged `CORO_SWITCH`, the binary-search
/// coroutine's: the same state management.)
const NODE_SEARCH_COST: u32 = 12;

/// One level of the descent, the step [`lookup_coro`] and the Delta
/// dictionary's `delta_locate_coro` share: search inner node `idx` for
/// the child covering `value` and, when interleaving, prefetch that
/// child. `below` counts the inner levels under the child (0: it is a
/// leaf). The caller suspends after the step. Measured shapes: a plain
/// function (a nested future cost the interleaved path ~3 %), called
/// from a `while` that counts `below` down (a reversed range kept in
/// the frame cost as much again).
#[inline(always)]
pub fn descend_level<const INTERLEAVE: bool, K, V, MI, ML>(
    tree: &TreeView<MI, ML>,
    idx: u32,
    below: u32,
    value: &K,
) -> u32
where
    K: Copy + Ord + Default,
    MI: IndexedMem<InnerNode<K>>,
    ML: IndexedMem<LeafNode<K, V>>,
{
    let node = tree.inners.at(idx as usize);
    if INTERLEAVE && below + 1 < tree.height {
        // Resume bookkeeping cannot overlap the miss it exposed.
        tree.inners.compute(CORO_SWITCH);
    }
    tree.inners.compute(NODE_SEARCH_COST);
    let child = node.first_child + node.child_slot(value) as u32;
    if INTERLEAVE {
        if below > 0 {
            tree.inners.prefetch(child as usize);
        } else {
            tree.leaves.prefetch(child as usize);
        }
    }
    child
}

/// CSB+-tree lookup coroutine (paper Listing 6), unified
/// sequential/interleaved codepath.
///
/// With `INTERLEAVE = false` this monomorphizes to a plain recursive-
/// descent lookup; with `true`, each level's node is prefetched and the
/// coroutine suspends before touching it. Not an `async fn`: that frame
/// is 112 bytes to this one's 64, ~3 % on the interleaved path.
#[expect(clippy::manual_async_fn, reason = "async fn doubles the frame")]
pub fn lookup_coro<const INTERLEAVE: bool, K, V, MI, ML>(
    store: TreeView<MI, ML>,
    value: K,
) -> impl Future<Output = Option<V>>
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    MI: IndexedMem<InnerNode<K>>,
    ML: IndexedMem<LeafNode<K, V>>,
{
    async move {
        let mut idx = store.root;
        let mut below = store.height;
        while below > 0 {
            below -= 1;
            idx = descend_level::<INTERLEAVE, K, V, MI, ML>(&store, idx, below, &value);
            if INTERLEAVE {
                suspend().await;
            }
        }
        let leaf = store.leaves.at(idx as usize);
        if INTERLEAVE && store.height > 0 {
            store.leaves.compute(CORO_SWITCH);
        }
        store.leaves.compute(NODE_SEARCH_COST);

        leaf.find(&value).map(|pos| leaf.values[pos])
    }
}

/// Bulk lookup, interleaved: `group_size` tree-traversal coroutines
/// time-share the core (paper Listing 7 applied to Listing 6).
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_lookup_interleaved<K, V, MI, ML>(
    store: TreeView<MI, ML>,
    values: &[K],
    group_size: usize,
    out: &mut [Option<V>],
) -> RunStats
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    MI: IndexedMem<InnerNode<K>> + Copy,
    ML: IndexedMem<LeafNode<K, V>> + Copy,
{
    assert_eq!(values.len(), out.len(), "output length mismatch");
    run_interleaved(
        group_size,
        values.iter().copied(),
        |v| lookup_coro::<true, K, V, MI, ML>(store, v),
        |i, r| out[i] = r,
    )
}

/// Bulk lookup, sequential execution of the same coroutine with
/// `INTERLEAVE = false`.
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_lookup_seq<K, V, MI, ML>(
    store: TreeView<MI, ML>,
    values: &[K],
    out: &mut [Option<V>],
) -> RunStats
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    MI: IndexedMem<InnerNode<K>> + Copy,
    ML: IndexedMem<LeafNode<K, V>> + Copy,
{
    assert_eq!(values.len(), out.len(), "output length mismatch");
    run_sequential(
        values.iter().copied(),
        |v| lookup_coro::<false, K, V, MI, ML>(store, v),
        |i, r| out[i] = r,
    )
}

/// Bulk lookup of one batch through [`lookup_coro`], on the calling
/// thread ([`isi_core::sched::run_batch`]): `group_size` in-flight
/// traversals, or, with a `group_size` below two or a batch of one
/// value, the coroutine's non-suspending instantiation.
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_lookup_par<K, V, MI, ML>(
    store: TreeView<MI, ML>,
    values: &[K],
    group_size: usize,
    out: &mut [Option<V>],
) -> RunStats
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    MI: IndexedMem<InnerNode<K>> + Copy,
    ML: IndexedMem<LeafNode<K, V>> + Copy,
{
    isi_core::sched::run_batch(
        group_size,
        values,
        |v| lookup_coro::<false, K, V, MI, ML>(store, v),
        |v| lookup_coro::<true, K, V, MI, ML>(store, v),
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DirectTreeStore;
    use crate::tree::CsbTree;
    use isi_core::coro::run_to_completion;

    fn tree(n: u32) -> CsbTree<u32, u32> {
        CsbTree::from_sorted(&(0..n).map(|i| (i * 3, i)).collect::<Vec<_>>())
    }

    // Frame sizes of the instantiations the store and the benchmark
    // run, pinned at their measured size: every in-flight lookup of a
    // group holds one frame, so growth costs slab lines.
    #[test]
    fn lookup_coro_u64_frame_is_at_most_64_bytes() {
        let t = CsbTree::<u64, u64>::from_sorted(&[(1, 1)]);
        let frame = lookup_coro::<true, u64, u64, _, _>(DirectTreeStore::new(&t), 1);
        assert!(size_of_val(&frame) <= 64, "{} bytes", size_of_val(&frame));
    }

    #[test]
    fn coro_lookup_matches_get_both_modes() {
        let t = tree(2000);
        let store = DirectTreeStore::new(&t);
        for probe in 0..6100u32 {
            let expect = t.get(&probe);
            let seq = run_to_completion(lookup_coro::<false, _, _, _, _>(store, probe));
            let inter = run_to_completion(lookup_coro::<true, _, _, _, _>(store, probe));
            assert_eq!(seq, expect, "probe={probe}");
            assert_eq!(inter, expect, "probe={probe}");
        }
    }

    #[test]
    fn bulk_lookup_all_variants_agree() {
        let t = tree(5000);
        let store = DirectTreeStore::new(&t);
        let probes: Vec<u32> = (0..997).map(|i| i * 17 % 16000).collect();
        let expect: Vec<Option<u32>> = probes.iter().map(|p| t.get(p)).collect();

        let mut seq = vec![None; probes.len()];
        bulk_lookup_seq(store, &probes, &mut seq);
        assert_eq!(seq, expect);

        for group in [1, 4, 6, 16] {
            let mut inter = vec![None; probes.len()];
            bulk_lookup_interleaved(store, &probes, group, &mut inter);
            assert_eq!(inter, expect, "group={group}");
        }
    }

    #[test]
    fn parallel_bulk_lookup_matches_sequential() {
        let t = tree(5000);
        let store = DirectTreeStore::new(&t);
        let probes: Vec<u32> = (0..2311).map(|i| i * 13 % 16000).collect();
        let expect: Vec<Option<u32>> = probes.iter().map(|p| t.get(p)).collect();
        for group in [1, 6] {
            let mut out = vec![None; probes.len()];
            let stats = bulk_lookup_par(store, &probes, group, &mut out);
            assert_eq!(out, expect, "group={group}");
            assert_eq!(stats.lookups, probes.len() as u64);
            assert_eq!(stats.peak_in_flight, group as u64);
        }
    }

    #[test]
    fn suspends_once_per_non_root_level() {
        let t = tree(5000);
        let store = DirectTreeStore::new(&t);
        let mut out = vec![None; 1];
        let stats = bulk_lookup_interleaved(store, &[42], 4, &mut out);
        assert_eq!(stats.switches as u32, t.height(), "one switch per level");
    }

    #[test]
    fn lookup_on_empty_and_tiny_trees() {
        let t = CsbTree::<u32, u32>::new();
        let store = DirectTreeStore::new(&t);
        assert_eq!(t.get(&1), None);
        assert_eq!(
            run_to_completion(lookup_coro::<true, _, _, _, _>(store, 1)),
            None
        );
        assert_eq!(
            run_to_completion(lookup_coro::<false, _, _, _, _>(store, 1)),
            None
        );

        let t = tree(3); // single leaf
        let store = DirectTreeStore::new(&t);
        assert_eq!(
            run_to_completion(lookup_coro::<true, _, _, _, _>(store, 3)),
            Some(1)
        );
    }

    #[test]
    fn works_on_inserted_trees_with_garbage() {
        let mut t = CsbTree::<u32, u32>::new();
        for i in 0..3000u32 {
            t.insert(i.wrapping_mul(2654435761) % 50_000, i);
        }
        t.validate();
        let store = DirectTreeStore::new(&t);
        let mut out = vec![None; 50_000];
        let probes: Vec<u32> = (0..50_000).collect();
        bulk_lookup_interleaved(store, &probes, 6, &mut out);
        for p in 0..50_000u32 {
            assert_eq!(out[p as usize], t.get(&p));
        }
    }
}
