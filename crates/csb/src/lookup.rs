//! Tree-lookup coroutines — the paper's Listing 6, plus an AMAC variant
//! and bulk drivers.
//!
//! The coroutine descends one level per suspension: it computes the
//! child with an in-node search (no cache misses — the node was
//! prefetched whole), issues a prefetch for every cache line of the
//! child, suspends, and continues in the child after resumption. The
//! root is assumed cache-resident (paper Listing 6 line 4), so the first
//! level is not prefetched.

use isi_core::coro::suspend;
use isi_core::sched::{run_interleaved, run_sequential, RunStats};

use crate::store::TreeStore;

/// Simulated cycles for the in-node search + child-address computation.
pub const NODE_SEARCH_COST: u32 = 12;

/// Simulated cycles for one suspend/resume switch (same state-management
/// cost as the binary-search coroutine).
pub const TREE_SWITCH_COST: u32 = isi_search::cost::CORO_SWITCH;

/// CSB+-tree lookup coroutine (paper Listing 6), unified
/// sequential/interleaved codepath.
///
/// With `INTERLEAVE = false` this monomorphizes to a plain recursive-
/// descent lookup; with `true`, each level's node is prefetched and the
/// coroutine suspends before touching it.
pub async fn lookup_coro<const INTERLEAVE: bool, K, V, S>(store: S, value: K) -> Option<V>
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    S: TreeStore<K, V>,
{
    let mut idx = store.root();
    let mut level = store.height();
    let mut resumed = false;
    while level > 0 {
        let node = store.inner(idx);
        if INTERLEAVE && resumed {
            // Resume bookkeeping cannot overlap the miss it exposed.
            store.compute(TREE_SWITCH_COST);
        }
        store.compute(NODE_SEARCH_COST);
        let slot = node.child_slot(&value);
        let next = node.first_child + slot as u32;
        level -= 1;
        if INTERLEAVE {
            if level > 0 {
                store.prefetch_inner(next);
            } else {
                store.prefetch_leaf(next);
            }
            suspend().await;
            resumed = true;
        }
        idx = next;
    }
    let leaf = store.leaf(idx);
    if INTERLEAVE && resumed {
        store.compute(TREE_SWITCH_COST);
    }
    store.compute(NODE_SEARCH_COST);

    leaf.find(&value).map(|pos| leaf.values[pos])
}

/// Sequential point lookup through a store (equivalent to
/// `CsbTree::get`, but charged to the store's cost model).
pub fn lookup_seq<K, V, S>(store: &S, value: K) -> Option<V>
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    S: TreeStore<K, V>,
{
    let mut idx = store.root();
    let mut level = store.height();
    while level > 0 {
        let node = store.inner(idx);
        store.compute(NODE_SEARCH_COST);
        idx = node.first_child + node.child_slot(&value) as u32;
        level -= 1;
    }
    let leaf = store.leaf(idx);
    store.compute(NODE_SEARCH_COST);
    leaf.find(&value).map(|pos| leaf.values[pos])
}

/// Bulk lookup, interleaved: `group_size` tree-traversal coroutines
/// time-share the core (paper Listing 7 applied to Listing 6).
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_lookup_interleaved<K, V, S>(
    store: S,
    values: &[K],
    group_size: usize,
    out: &mut [Option<V>],
) -> RunStats
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    S: TreeStore<K, V> + Copy,
{
    assert_eq!(values.len(), out.len(), "output length mismatch");
    run_interleaved(
        group_size,
        values.iter().copied(),
        |v| lookup_coro::<true, K, V, S>(store, v),
        |i, r| out[i] = r,
    )
}

/// Bulk lookup, sequential execution of the same coroutine with
/// `INTERLEAVE = false`.
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_lookup_seq<K, V, S>(store: S, values: &[K], out: &mut [Option<V>]) -> RunStats
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    S: TreeStore<K, V> + Copy,
{
    assert_eq!(values.len(), out.len(), "output length mismatch");
    run_sequential(
        values.iter().copied(),
        |v| lookup_coro::<false, K, V, S>(store, v),
        |i, r| out[i] = r,
    )
}

/// Morsel-parallel bulk lookup: worker threads claim morsels of the
/// probe batch and drive each through the *same* interleaved tree
/// coroutine ([`lookup_coro`]) with `group_size` in-flight traversals,
/// reusing one frame slab per worker across morsels (see
/// [`isi_core::par`]). A `group_size` of one, or a morsel of a single
/// value, runs the coroutine's non-suspending instantiation instead.
///
/// Returns the merged [`RunStats`] (totals sum; `peak_in_flight` is the
/// per-worker peak).
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_lookup_par<K, V, S>(
    store: S,
    values: &[K],
    group_size: usize,
    cfg: isi_core::par::ParConfig,
    out: &mut [Option<V>],
) -> RunStats
where
    K: Copy + Ord + Default + Sync,
    V: Copy + Default + Send,
    S: TreeStore<K, V> + Copy + Sync,
{
    assert_eq!(values.len(), out.len(), "output length mismatch");
    let sink = isi_core::par::DisjointOut::new(out);
    isi_core::par::run_interleaved_par(
        cfg,
        group_size,
        values,
        |v| lookup_coro::<false, K, V, S>(store, v),
        |v| lookup_coro::<true, K, V, S>(store, v),
        // SAFETY: the scheduler emits each claimed input index exactly
        // once, and claimed morsel ranges are disjoint across workers.
        |i, r| unsafe { sink.write(i, r) },
    )
}

/// AMAC-style tree lookup: the hand-written state machine the coroutine
/// replaces (kept as the comparison baseline; the paper argues they are
/// equivalent in capability and performance).
pub fn bulk_lookup_amac<K, V, S>(store: &S, values: &[K], group_size: usize, out: &mut [Option<V>])
where
    K: Copy + Ord + Default,
    V: Copy + Default,
    S: TreeStore<K, V>,
{
    assert_eq!(values.len(), out.len(), "output length mismatch");
    assert!(group_size > 0, "group_size must be positive");
    if values.is_empty() {
        return;
    }
    #[derive(Clone, Copy)]
    enum Stage {
        Init,
        Descend,
        Leaf,
        Done,
    }
    #[derive(Clone, Copy)]
    struct St<K> {
        value: K,
        input: usize,
        idx: u32,
        level: u32,
        stage: Stage,
    }
    let g = group_size.min(values.len());
    let mut buf: Vec<St<K>> = (0..g)
        .map(|_| St {
            value: values[0],
            input: 0,
            idx: 0,
            level: 0,
            stage: Stage::Init,
        })
        .collect();
    let mut next_input = 0usize;
    let mut not_done = g;
    let mut cursor = 0usize;
    while not_done > 0 {
        let st = &mut buf[cursor];
        match st.stage {
            Stage::Init => {
                if next_input < values.len() {
                    st.value = values[next_input];
                    st.input = next_input;
                    st.idx = store.root();
                    st.level = store.height();
                    next_input += 1;
                    st.stage = if st.level == 0 {
                        Stage::Leaf
                    } else {
                        Stage::Descend
                    };
                } else {
                    st.stage = Stage::Done;
                    not_done -= 1;
                }
            }
            Stage::Descend => {
                let node = store.inner(st.idx);
                store.compute(NODE_SEARCH_COST + TREE_SWITCH_COST);
                let next = node.first_child + node.child_slot(&st.value) as u32;
                st.idx = next;
                st.level -= 1;
                if st.level > 0 {
                    store.prefetch_inner(next);
                } else {
                    store.prefetch_leaf(next);
                    st.stage = Stage::Leaf;
                }
            }
            Stage::Leaf => {
                let leaf = store.leaf(st.idx);
                store.compute(NODE_SEARCH_COST + TREE_SWITCH_COST);
                out[st.input] = leaf.find(&st.value).map(|pos| leaf.values[pos]);
                st.stage = Stage::Init;
            }
            Stage::Done => {}
        }
        cursor += 1;
        if cursor == g {
            cursor = 0;
        }
    }
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

    #[test]
    fn coro_lookup_matches_get_both_modes() {
        let t = tree(2000);
        let store = DirectTreeStore::new(&t);
        for probe in 0..6100u32 {
            let expect = t.get(&probe);
            let seq = run_to_completion(lookup_coro::<false, _, _, _>(store, probe));
            let inter = run_to_completion(lookup_coro::<true, _, _, _>(store, probe));
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

            let mut amac = vec![None; probes.len()];
            bulk_lookup_amac(&store, &probes, group, &mut amac);
            assert_eq!(amac, expect, "amac group={group}");
        }
    }

    #[test]
    fn parallel_bulk_lookup_matches_sequential() {
        let t = tree(5000);
        let store = DirectTreeStore::new(&t);
        let probes: Vec<u32> = (0..2311).map(|i| i * 13 % 16000).collect();
        let expect: Vec<Option<u32>> = probes.iter().map(|p| t.get(p)).collect();
        for threads in [1, 2, 4] {
            let cfg = isi_core::par::ParConfig {
                threads,
                morsel_size: 256,
            };
            let mut out = vec![None; probes.len()];
            let stats = bulk_lookup_par(store, &probes, 6, cfg, &mut out);
            assert_eq!(out, expect, "threads={threads}");
            assert_eq!(stats.lookups, probes.len() as u64);
            assert!(stats.peak_in_flight <= 6);
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
        assert_eq!(
            run_to_completion(lookup_coro::<true, _, _, _>(store, 1)),
            None
        );
        assert_eq!(lookup_seq(&store, 1), None);

        let t = tree(3); // single leaf
        let store = DirectTreeStore::new(&t);
        assert_eq!(
            run_to_completion(lookup_coro::<true, _, _, _>(store, 3)),
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
