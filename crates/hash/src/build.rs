//! Interleaved hash-table *build* — Kocberber et al. demonstrate AMAC on
//! the build phase of hash joins too, and the paper notes coroutine
//! interleaving therefore "applies also to important hash-join
//! operators" (§6). Inserting entry `i` touches its bucket head (one
//! potential miss); a group-prefetching build overlaps those misses
//! across a window of pending inserts.

use isi_core::prefetch::prefetch_read_t0;

use crate::table::{ChainedHashTable, HashKey};

/// Build a table from `pairs` with group-prefetched bucket accesses:
/// the bucket heads of a window of `group_size` inserts are prefetched
/// before any of them is written.
///
/// # Panics
/// Panics if `group_size == 0`.
pub fn build_gp<K: HashKey, V: Copy>(
    pairs: &[(K, V)],
    group_size: usize,
) -> ChainedHashTable<K, V> {
    assert!(group_size > 0, "group_size must be positive");
    let mut table = ChainedHashTable::with_capacity(pairs.len());
    for window in pairs.chunks(group_size) {
        // Prefetch stage: request every bucket head in the window.
        for (k, _) in window {
            let b = table.bucket_of(k);
            prefetch_read_t0(&table.buckets()[b] as *const u32);
        }
        // Insert stage: by now the heads are (mostly) in flight or
        // resident; linking is read-modify-write on the same line.
        for (k, v) in window {
            table.insert(*k, *v);
        }
    }
    table
}

/// Sequential build (reference and baseline for benchmarks).
pub fn build_seq<K: HashKey, V: Copy>(pairs: &[(K, V)]) -> ChainedHashTable<K, V> {
    let mut table = ChainedHashTable::with_capacity(pairs.len());
    for (k, v) in pairs {
        table.insert(*k, *v);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gp_build_equals_sequential_build() {
        let pairs: Vec<(u64, u32)> = (0..5000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i % 97) as u32))
            .collect();
        let seq = build_seq(&pairs);
        for group in [1, 6, 10, 64] {
            let gp = build_gp(&pairs, group);
            assert_eq!(gp.len(), seq.len(), "group={group}");
            for (k, _) in &pairs {
                assert_eq!(gp.get(k), seq.get(k), "key {k}");
                assert_eq!(gp.get_all(k), seq.get_all(k));
            }
        }
    }

    #[test]
    fn gp_build_preserves_duplicate_order() {
        let pairs = vec![(5u32, 'a'), (5, 'b'), (5, 'c')];
        let t = build_gp(&pairs, 2);
        assert_eq!(t.get_all(&5), vec!['c', 'b', 'a']);
    }

    #[test]
    fn empty_build() {
        let t = build_gp::<u64, u64>(&[], 8);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_rejected() {
        build_gp::<u64, u64>(&[(1, 1)], 0);
    }
}
