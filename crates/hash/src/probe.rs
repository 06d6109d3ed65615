//! Interleaved hash-table probing: the coroutine needs *two kinds* of
//! suspension points (bucket head, then each chain entry), which static
//! techniques like GP cannot express when chain lengths differ — the
//! exact use case that motivated dynamic interleaving (AMAC) and that
//! coroutines express in four added lines.

use std::future::Future;

use isi_core::coro::suspend;
use isi_core::mem::{DirectMem, IndexedMem};
use isi_core::prefetch::prefetch_read_t0;
use isi_core::sched::{run_interleaved, run_sequential, RunStats};

use crate::table::{ChainedHashTable, Entry, HashKey, NONE};

/// Simulated per-hop cost constants (no-ops on real memory).
const PROBE_HOP_COST: u32 = 5;
const PROBE_SWITCH_COST: u32 = isi_search::cost::CORO_SWITCH;

/// Hash-probe coroutine, unified sequential/interleaved codepath, over
/// abstract memory backends — the same probe runs on real memory (via
/// `probe_coro`) or on the `isi-memsim` model (pass `SimMem` views of
/// the bucket and entry arrays), so the Section 6 hash-join experiment
/// can be reproduced both on this machine and on the paper's.
///
/// Suspension points: one before reading the bucket head, one before
/// each chain entry — each a potential cache miss on a large table.
/// Not an `async fn`: for `u64` keys and values over [`DirectMem`] that
/// frame is 112 bytes to this one's 72, and this one probed faster on
/// a cached table (README, "Measured and not built" (6)).
#[expect(clippy::manual_async_fn, reason = "async fn grows the frame")]
pub fn probe_coro_on<const INTERLEAVE: bool, K, V, MB, ME>(
    buckets: MB,
    entries: ME,
    mask: u64,
    key: K,
) -> impl Future<Output = Option<V>>
where
    K: HashKey,
    V: Copy,
    MB: IndexedMem<u32>,
    ME: IndexedMem<Entry<K, V>>,
{
    async move {
        let b = ((key.hash64() >> 32) & mask) as usize;
        if INTERLEAVE {
            buckets.prefetch(b);
            suspend().await;
        }
        buckets.compute(PROBE_HOP_COST);
        let mut e = *buckets.at(b);
        if INTERLEAVE {
            buckets.compute(PROBE_SWITCH_COST);
        }
        while e != NONE {
            if INTERLEAVE {
                entries.prefetch(e as usize);
                suspend().await;
            }
            entries.compute(PROBE_HOP_COST);
            let entry = entries.at(e as usize);
            if INTERLEAVE {
                entries.compute(PROBE_SWITCH_COST);
            }
            if entry.key == key {
                return Some(entry.val);
            }
            e = entry.next;
        }
        None
    }
}

/// [`probe_coro_on`] over [`DirectMem`] views of `table`'s bucket and
/// entry arrays: the probe the service ships is the one the simulator
/// measures.
pub(crate) fn probe_coro<const INTERLEAVE: bool, K: HashKey, V: Copy>(
    table: &ChainedHashTable<K, V>,
    key: K,
) -> impl Future<Output = Option<V>> + '_ {
    probe_coro_on::<INTERLEAVE, K, V, _, _>(
        DirectMem::new(table.buckets()),
        DirectMem::new(table.entries()),
        table.mask(),
        key,
    )
}

/// Probe a batch sequentially (the coroutine never suspends).
///
/// # Panics
/// Panics if `out.len() != keys.len()`.
pub fn bulk_probe_seq<K: HashKey, V: Copy>(
    table: &ChainedHashTable<K, V>,
    keys: &[K],
    out: &mut [Option<V>],
) -> RunStats {
    assert_eq!(keys.len(), out.len(), "output length mismatch");
    run_sequential(
        keys.iter().copied(),
        |k| probe_coro::<false, K, V>(table, k),
        |i, r| out[i] = r,
    )
}

/// Probe a batch with `group_size` interleaved streams.
///
/// # Panics
/// Panics if `out.len() != keys.len()`.
pub fn bulk_probe_interleaved<K: HashKey, V: Copy>(
    table: &ChainedHashTable<K, V>,
    keys: &[K],
    group_size: usize,
    out: &mut [Option<V>],
) -> RunStats {
    assert_eq!(keys.len(), out.len(), "output length mismatch");
    run_interleaved(
        group_size,
        keys.iter().copied(),
        |k| probe_coro::<true, K, V>(table, k),
        |i, r| out[i] = r,
    )
}

/// Probe one batch through [`probe_coro_on`], on the calling thread
/// ([`isi_core::sched::run_batch`]): `group_size` in-flight probes, or,
/// with a `group_size` below two or a batch of one key, the
/// coroutine's non-suspending instantiation.
///
/// # Panics
/// Panics if `out.len() != keys.len()`.
pub fn bulk_probe_par<K: HashKey, V: Copy>(
    table: &ChainedHashTable<K, V>,
    keys: &[K],
    group_size: usize,
    out: &mut [Option<V>],
) -> RunStats {
    isi_core::sched::run_batch(
        group_size,
        keys,
        |k| probe_coro::<false, K, V>(table, k),
        |k| probe_coro::<true, K, V>(table, k),
        out,
    )
}

/// AMAC-style probe: the hand-written state machine (Kocberber et al.
/// demonstrate AMAC on exactly this workload). Kept as the comparison
/// baseline for the coroutine version.
pub fn bulk_probe_amac<K: HashKey, V: Copy>(
    table: &ChainedHashTable<K, V>,
    keys: &[K],
    group_size: usize,
    out: &mut [Option<V>],
) {
    assert_eq!(keys.len(), out.len(), "output length mismatch");
    assert!(group_size > 0, "group_size must be positive");
    if keys.is_empty() {
        return;
    }
    #[derive(Clone, Copy)]
    enum Stage {
        Init,
        Bucket,
        Walk,
        Done,
    }
    #[derive(Clone, Copy)]
    struct St<K> {
        key: K,
        input: usize,
        entry: u32,
        stage: Stage,
    }
    let g = group_size.min(keys.len());
    let buckets = table.buckets();
    let entries = table.entries();
    let mut buf: Vec<St<K>> = (0..g)
        .map(|_| St {
            key: keys[0],
            input: 0,
            entry: NONE,
            stage: Stage::Init,
        })
        .collect();
    let mut next_input = 0;
    let mut not_done = g;
    let mut cursor = 0;
    while not_done > 0 {
        let st = &mut buf[cursor];
        match st.stage {
            Stage::Init => {
                if next_input < keys.len() {
                    st.key = keys[next_input];
                    st.input = next_input;
                    next_input += 1;
                    let b = table.bucket_of(&st.key);
                    prefetch_read_t0(&buckets[b] as *const u32);
                    st.stage = Stage::Bucket;
                } else {
                    st.stage = Stage::Done;
                    not_done -= 1;
                }
            }
            Stage::Bucket => {
                let b = table.bucket_of(&st.key);
                st.entry = buckets[b];
                if st.entry == NONE {
                    out[st.input] = None;
                    st.stage = Stage::Init;
                } else {
                    prefetch_read_t0(&entries[st.entry as usize] as *const Entry<K, V>);
                    st.stage = Stage::Walk;
                }
            }
            Stage::Walk => {
                let entry = &entries[st.entry as usize];
                if entry.key == st.key {
                    out[st.input] = Some(entry.val);
                    st.stage = Stage::Init;
                } else if entry.next == NONE {
                    out[st.input] = None;
                    st.stage = Stage::Init;
                } else {
                    st.entry = entry.next;
                    prefetch_read_t0(&entries[st.entry as usize] as *const Entry<K, V>);
                }
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

    fn table(n: u64) -> ChainedHashTable<u64, u64> {
        let mut t = ChainedHashTable::with_capacity(n as usize);
        for i in 0..n {
            t.insert(i * 2, i);
        }
        t
    }

    // Frame sizes of the instantiations the store and the benchmark
    // run, pinned at their measured size: every in-flight lookup of a
    // group holds one frame, so growth costs slab lines.
    #[test]
    fn probe_coro_u64_frame_is_at_most_72_bytes() {
        let t = table(4);
        let frame = probe_coro::<true, u64, u64>(&t, 1);
        assert!(size_of_val(&frame) <= 72, "{} bytes", size_of_val(&frame));
    }

    #[test]
    fn all_probe_variants_agree() {
        let t = table(10_000);
        let keys: Vec<u64> = (0..3000).map(|i| i * 7 % 25_000).collect();
        let expect: Vec<Option<u64>> = keys.iter().map(|k| t.get(k)).collect();

        let mut seq = vec![None; keys.len()];
        bulk_probe_seq(&t, &keys, &mut seq);
        assert_eq!(seq, expect);

        for group in [1, 6, 10, 32] {
            let mut inter = vec![None; keys.len()];
            bulk_probe_interleaved(&t, &keys, group, &mut inter);
            assert_eq!(inter, expect, "coro group={group}");

            let mut amac = vec![None; keys.len()];
            bulk_probe_amac(&t, &keys, group, &mut amac);
            assert_eq!(amac, expect, "amac group={group}");
        }
    }

    #[test]
    fn parallel_probe_matches_sequential() {
        let t = table(10_000);
        let keys: Vec<u64> = (0..4111).map(|i| i * 11 % 30_000).collect();
        let expect: Vec<Option<u64>> = keys.iter().map(|k| t.get(k)).collect();
        for group in [1, 6] {
            let mut out = vec![None; keys.len()];
            let stats = bulk_probe_par(&t, &keys, group, &mut out);
            assert_eq!(out, expect, "group={group}");
            assert_eq!(stats.lookups, keys.len() as u64);
        }
    }

    #[test]
    fn sequential_probe_never_suspends() {
        let t = table(100);
        let keys = [0u64, 2, 4];
        let mut out = vec![None; 3];
        let stats = bulk_probe_seq(&t, &keys, &mut out);
        assert_eq!(stats.switches, 0);
    }

    #[test]
    fn interleaved_probe_suspends_per_hop() {
        let t = table(100);
        // Key 0 exists: bucket suspension + >=1 entry suspension.
        let mut out = vec![None; 1];
        let stats = bulk_probe_interleaved(&t, &[0u64], 4, &mut out);
        assert!(stats.switches >= 2, "switches = {}", stats.switches);
        assert_eq!(out[0], Some(0));
    }

    #[test]
    fn long_chains_are_probed_correctly() {
        // 8-bucket table with 500 entries: long chains, many hops.
        let mut t = ChainedHashTable::<u32, u32>::with_capacity(1);
        for i in 0..500u32 {
            t.insert(i, i + 1);
        }
        let keys: Vec<u32> = (0..600).collect();
        let expect: Vec<Option<u32>> = keys.iter().map(|k| t.get(k)).collect();
        let mut out = vec![None; keys.len()];
        bulk_probe_interleaved(&t, &keys, 6, &mut out);
        assert_eq!(out, expect);
        let mut out2 = vec![None; keys.len()];
        bulk_probe_amac(&t, &keys, 6, &mut out2);
        assert_eq!(out2, expect);
    }

    #[test]
    fn generic_probe_agrees_with_concrete() {
        use isi_core::coro::run_to_completion;
        use isi_core::mem::DirectMem;
        let t = table(5000);
        let buckets = DirectMem::new(t.buckets());
        let entries = DirectMem::new(t.entries());
        for k in (0..4000u64).map(|i| i * 5) {
            let generic = run_to_completion(probe_coro_on::<true, _, _, _, _>(
                buckets,
                entries,
                t.mask(),
                k,
            ));
            assert_eq!(generic, t.get(&k), "k={k}");
        }
    }

    #[test]
    fn empty_table_and_empty_keys() {
        let t = ChainedHashTable::<u64, u64>::with_capacity(0);
        let mut out = vec![];
        bulk_probe_interleaved(&t, &[], 4, &mut out);
        let mut out = vec![None; 2];
        bulk_probe_interleaved(&t, &[1, 2], 4, &mut out);
        assert_eq!(out, [None, None]);
        bulk_probe_amac(&t, &[1, 2], 4, &mut out);
        assert_eq!(out, [None, None]);
    }
}
