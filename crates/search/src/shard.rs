//! [`SortedShard`]: the sorted-column main index of the serving layer
//! (`isi_serve::Main::Sorted`).
//!
//! A key column and an aligned value column, both sorted by key, and
//! the key column's [fence](crate::fence): the first key of each of
//! its 64-byte lines, in Eytzinger order, an eighth of the column,
//! built once the column is filled and kept in the column's own
//! allocation, behind it. The serving layer ranks a batch through the
//! fence ([`SortedShard::rank_batch`]), three levels per suspension
//! and one more suspension for the key line, and resolves
//! rank → value with one equality check. The key column starts on a
//! line, so each fence block is one line.
//!
//! Both allocations are advised onto transparent huge pages before
//! they are filled ([`isi_core::topo::advise_huge_pages`]): the deep
//! probes of a search each land on a page of their own, and a 64 MiB
//! column is 16 384 4-KiB pages against a second-level TLB of about
//! 2 000 entries. Where the kernel declines, the columns are ordinary
//! `Vec`s and nothing else changes.

use isi_core::prefetch::CACHE_LINE;
use isi_core::sched::RunStats;
use isi_core::topo::advise_huge_pages;

use crate::fence::{self, BLOCK};

/// A sorted key column plus aligned value column, servable in bulk by
/// the fenced interleaved lookup ([`rank_batch`](Self::rank_batch)) and
/// by the binary-search drivers over [`keys`](Self::keys).
pub struct SortedShard {
    /// One allocation: `head` padding slots, the sorted key column
    /// (which so starts on a cache line), padding to the next line,
    /// then the column's fence.
    keys: Vec<u64>,
    head: usize,
    vals: Vec<u64>,
}

impl SortedShard {
    /// Build from strictly-sorted, duplicate-free pairs.
    ///
    /// # Panics
    /// Panics if `pairs` is not strictly sorted by key.
    pub fn build(pairs: &[(u64, u64)]) -> Self {
        let mut b = Self::builder(pairs.len());
        for &(k, v) in pairs {
            b.push(k, v);
        }
        b.finish()
    }

    /// A builder for a shard of `len` pairs, pushed in strictly
    /// ascending key order. Both columns are reserved at `len` (the
    /// key column with room to start on a line and for its fence) and
    /// advised before the first push: the pushes' page faults are the
    /// first touch, so an advised column is born on huge pages.
    pub fn builder(len: usize) -> SortedShardBuilder {
        let mut keys =
            Vec::with_capacity(BLOCK - 1 + len.next_multiple_of(BLOCK) + fence::slots(len));
        let mut vals = Vec::with_capacity(len);
        advise_huge_pages(keys.spare_capacity_mut());
        advise_huge_pages(vals.spare_capacity_mut());
        let head = (keys.as_ptr() as usize).wrapping_neg() % CACHE_LINE / size_of::<u64>();
        keys.resize(head, 0);
        SortedShardBuilder { keys, head, vals }
    }

    /// The sorted key column.
    pub fn keys(&self) -> &[u64] {
        &self.keys[self.head..self.head + self.vals.len()]
    }

    /// The value column, aligned with [`keys`](Self::keys).
    pub fn vals(&self) -> &[u64] {
        &self.vals
    }

    /// The fence: the line after the key column's last, on.
    fn fence(&self) -> &[u64] {
        &self.keys[self.head + self.vals.len().next_multiple_of(BLOCK)..]
    }

    /// Rank `values[i]` into `out[i]` through the fence: the largest
    /// index of [`keys`](Self::keys) whose key is `<= value`, clamped
    /// to 0, as [`bulk_rank_coro_par`](crate::par::bulk_rank_coro_par)
    /// ranks over the column. One scheduler run on the calling thread;
    /// an interleaved lookup suspends once per three fence levels and
    /// once for its key line, and the non-suspending instantiation
    /// runs where the group or the batch is below two.
    ///
    /// # Panics
    /// Panics if `out.len() != values.len()`.
    pub fn rank_batch(&self, values: &[u64], group_size: usize, out: &mut [u32]) -> RunStats {
        fence::rank_batch(self.fence(), self.keys(), values, group_size, out)
    }
}

/// A [`SortedShard`] being filled, pair by pair, in key order (see
/// [`SortedShard::builder`]).
pub struct SortedShardBuilder {
    keys: Vec<u64>,
    head: usize,
    vals: Vec<u64>,
}

impl SortedShardBuilder {
    /// Append one pair.
    ///
    /// # Panics
    /// Panics unless `key` is above every key pushed before: a column
    /// out of order would give wrong binary-search answers.
    #[inline]
    pub fn push(&mut self, key: u64, val: u64) {
        if !self.vals.is_empty() {
            assert!(
                self.keys[self.keys.len() - 1] < key,
                "pairs must be strictly sorted by key"
            );
        }
        self.keys.push(key);
        self.vals.push(val);
    }

    /// The finished shard, its fence built from the finished key
    /// column behind it.
    pub fn finish(self) -> SortedShard {
        let Self {
            mut keys,
            head,
            vals,
        } = self;
        keys.resize(head + vals.len().next_multiple_of(BLOCK), 0);
        fence::push_fence(&mut keys, head, vals.len());
        SortedShard { keys, head, vals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isi_core::mem::DirectMem;
    use isi_core::par::ParConfig;

    fn shard(n: u64) -> SortedShard {
        SortedShard::build(&(0..n).map(|i| (i * 3, i + 100)).collect::<Vec<_>>())
    }

    /// Rank `probes` through the fence, check the ranks against the
    /// binary-search driver's over the column, and resolve each rank
    /// to a value, as the serving layer does.
    fn probe(s: &SortedShard, probes: &[u64], group: usize) -> Vec<Option<u64>> {
        let mut ranks = vec![0u32; probes.len()];
        let stats = s.rank_batch(probes, group, &mut ranks);
        assert_eq!(stats.lookups, probes.len() as u64);
        let mut binary = vec![0u32; probes.len()];
        crate::par::bulk_rank_coro_par(
            DirectMem::new(s.keys()),
            probes,
            group,
            ParConfig,
            &mut binary,
        );
        assert_eq!(ranks, binary);
        ranks
            .iter()
            .zip(probes)
            .map(|(&r, &k)| (s.keys().get(r as usize) == Some(&k)).then(|| s.vals()[r as usize]))
            .collect()
    }

    fn get(s: &SortedShard, key: u64) -> Option<u64> {
        s.keys().binary_search(&key).ok().map(|i| s.vals()[i])
    }

    #[test]
    fn get_and_probe_agree() {
        let s = shard(1000);
        let probes: Vec<u64> = (0..1500).map(|i| i * 2).collect();
        let out = probe(&s, &probes, 6);
        for (&k, &r) in probes.iter().zip(&out) {
            assert_eq!(r, get(&s, k), "key={k}");
            assert_eq!(r, (k % 3 == 0 && k < 3000).then(|| k / 3 + 100), "key={k}");
        }
    }

    #[test]
    fn rebuild_roundtrip_and_empty() {
        let pairs: Vec<(u64, u64)> = (0..50).map(|i| (i * 3, i + 100)).collect();
        let s = SortedShard::build(&pairs);
        let read = |s: &SortedShard| -> Vec<(u64, u64)> {
            s.keys()
                .iter()
                .copied()
                .zip(s.vals().iter().copied())
                .collect()
        };
        assert_eq!(read(&s), pairs);
        assert_eq!(read(&SortedShard::build(&read(&s))), pairs);
        let empty = SortedShard::build(&[]);
        assert!(empty.keys().is_empty() && empty.vals().is_empty());
        assert_eq!(get(&empty, 7), None);
        assert_eq!(probe(&empty, &[1, 2], 1), [None, None]);
    }

    #[test]
    fn key_column_and_fence_start_on_a_cache_line() {
        for n in [0, 1, 9, 1000] {
            let s = shard(n);
            assert_eq!(s.keys().as_ptr() as usize % CACHE_LINE, 0, "n={n}");
            assert_eq!(s.fence().as_ptr() as usize % CACHE_LINE, 0, "n={n}");
            assert_eq!(s.keys().len(), n as usize);
            assert_eq!(s.fence().len(), fence::slots(n as usize));
        }
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn build_rejects_unsorted() {
        SortedShard::build(&[(3, 0), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn build_rejects_duplicates() {
        SortedShard::build(&[(3, 0), (3, 1)]);
    }
}
