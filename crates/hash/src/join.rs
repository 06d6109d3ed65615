//! A hash-join operator over the chained table: build on the smaller
//! relation, probe with the larger one, with a sequential or interleaved
//! probe phase (the paper's Section 6: "the probe phases of hash joins
//! ... are straightforward candidates for our technique").

use isi_core::coro::suspend;
use isi_core::policy::Interleave;
use isi_core::prefetch::prefetch_read_t0;
use isi_core::sched::run_interleaved;

use crate::table::{ChainedHashTable, Entry, HashKey, NONE};

/// Equi-join `build ⋈ probe` on the tuples' keys. Returns
/// `(key, build_payload, probe_payload)` for every matching pair, in
/// probe order (and chain order within one probe key).
pub fn hash_join<K: HashKey, B: Copy, P: Copy>(
    build: &[(K, B)],
    probe: &[(K, P)],
    mode: Interleave,
) -> Vec<(K, B, P)> {
    let mut table = ChainedHashTable::with_capacity(build.len());
    for (k, b) in build {
        table.insert(*k, *b);
    }

    let mut out: Vec<(K, B, P)> = Vec::new();
    match mode {
        Interleave::Sequential => {
            for (k, p) in probe {
                for b in table.get_all(k) {
                    out.push((*k, b, *p));
                }
            }
        }
        Interleave::Interleaved(group) => {
            // The multi-match probe coroutine returns its matches; the
            // scheduler sink stitches them into output order.
            let mut per_probe: Vec<Vec<B>> = vec![Vec::new(); probe.len()];
            run_interleaved(
                group,
                probe.iter().map(|(k, _)| *k),
                |k| probe_all_coro(&table, k),
                |i, matches| per_probe[i] = matches,
            );
            for (i, (k, p)) in probe.iter().enumerate() {
                for b in &per_probe[i] {
                    out.push((*k, *b, *p));
                }
            }
        }
    }
    out
}

/// Probe coroutine collecting *all* matches for `key` (hash-join
/// semantics; [`crate::probe::probe_coro`] stops at the first).
async fn probe_all_coro<K: HashKey, V: Copy>(table: &ChainedHashTable<K, V>, key: K) -> Vec<V> {
    let b = table.bucket_of(&key);
    let buckets = table.buckets();
    prefetch_read_t0(&buckets[b] as *const u32);
    suspend().await;
    let mut e = buckets[b];
    let entries = table.entries();
    let mut matches = Vec::new();
    while e != NONE {
        prefetch_read_t0(&entries[e as usize] as *const Entry<K, V>);
        suspend().await;
        let entry = &entries[e as usize];
        if entry.key == key {
            matches.push(entry.val);
        }
        e = entry.next;
    }
    matches
}

/// Reference nested-loop join (test oracle).
pub fn nested_loop_join<K: Copy + Eq, B: Copy, P: Copy>(
    build: &[(K, B)],
    probe: &[(K, P)],
) -> Vec<(K, B, P)> {
    let mut out = Vec::new();
    for (kp, p) in probe {
        // Newest-first to match chain order (entries push at head).
        for (kb, b) in build.iter().rev() {
            if kb == kp {
                out.push((*kp, *b, *p));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted<T: Ord + Copy>(mut v: Vec<T>) -> Vec<T> {
        v.sort_unstable();
        v
    }

    #[test]
    fn join_matches_nested_loop_oracle() {
        let build: Vec<(u32, u32)> = (0..500).map(|i| (i % 100, i)).collect();
        let probe: Vec<(u32, char)> = (0..150)
            .map(|i| (i, if i % 2 == 0 { 'x' } else { 'y' }))
            .collect();
        let expect = nested_loop_join(&build, &probe);
        let seq = hash_join(&build, &probe, Interleave::Sequential);
        assert_eq!(seq, expect);
        for group in [1, 6, 16] {
            let inter = hash_join(&build, &probe, Interleave::Interleaved(group));
            assert_eq!(inter, expect, "group={group}");
        }
    }

    #[test]
    fn join_with_no_matches() {
        let build: Vec<(u32, u32)> = vec![(1, 10), (2, 20)];
        let probe: Vec<(u32, u32)> = vec![(3, 30), (4, 40)];
        assert!(hash_join(&build, &probe, Interleave::Sequential).is_empty());
        assert!(hash_join(&build, &probe, Interleave::Interleaved(4)).is_empty());
    }

    #[test]
    fn join_with_empty_inputs() {
        let empty: Vec<(u32, u32)> = vec![];
        let some: Vec<(u32, u32)> = vec![(1, 1)];
        assert!(hash_join(&empty, &some, Interleave::Interleaved(4)).is_empty());
        assert!(hash_join(&some, &empty, Interleave::Interleaved(4)).is_empty());
    }

    #[test]
    fn many_to_many_multiplicity() {
        // 3 build tuples and 2 probe tuples share key 7: 6 output pairs.
        let build = vec![(7u32, 1u32), (7, 2), (7, 3), (8, 9)];
        let probe = vec![(7u32, 'a'), (7, 'b'), (9, 'c')];
        let out = hash_join(&build, &probe, Interleave::Interleaved(2));
        assert_eq!(out.len(), 6);
        let keys: Vec<u32> = out.iter().map(|(k, _, _)| *k).collect();
        assert!(keys.iter().all(|&k| k == 7));
        // Each probe tuple sees all three build payloads.
        let payloads = sorted(
            out.iter()
                .filter(|(_, _, p)| *p == 'a')
                .map(|(_, b, _)| *b)
                .collect(),
        );
        assert_eq!(payloads, vec![1, 2, 3]);
    }
}
