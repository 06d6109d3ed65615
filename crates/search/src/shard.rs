//! [`SortedShard`]: the sorted-column [`ShardBackend`] — the serving
//! layer's "sorted" main index.
//!
//! A key column and an aligned value column, both sorted by key. Batch
//! lookups rank through the interleaved binary-search coroutines
//! ([`crate::par::bulk_rank_coro_par`]) and resolve rank → value with
//! one equality check.
//!
//! Both columns are advised onto transparent huge pages before they
//! are filled ([`isi_core::topo::advise_huge_pages`]): the deep probes
//! of a binary search each land on a page of their own, and a 64 MiB
//! column is 16 384 4-KiB pages against a second-level TLB of about
//! 2 000 entries. Where the kernel declines, the columns are ordinary
//! `Vec`s and nothing else changes.

use std::sync::Arc;

use isi_core::backend::ShardBackend;
use isi_core::mem::DirectMem;
use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;
use isi_core::topo::advise_huge_pages;

/// A sorted key column plus aligned value column, servable in bulk by
/// the interleaved binary-search drivers.
pub struct SortedShard {
    keys: Vec<u64>,
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
    /// ascending key order. Both columns are reserved at `len` and
    /// advised before the first push: the pushes' page faults are the
    /// first touch, so an advised column is born on huge pages.
    pub fn builder(len: usize) -> SortedShardBuilder {
        let mut keys = Vec::with_capacity(len);
        let mut vals = Vec::with_capacity(len);
        advise_huge_pages(keys.spare_capacity_mut());
        advise_huge_pages(vals.spare_capacity_mut());
        SortedShardBuilder {
            shard: Self { keys, vals },
        }
    }

    /// The sorted key column.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// A [`SortedShard`] being filled, pair by pair, in key order (see
/// [`SortedShard::builder`]).
pub struct SortedShardBuilder {
    shard: SortedShard,
}

impl SortedShardBuilder {
    /// Append one pair.
    ///
    /// # Panics
    /// Panics unless `key` is above every key pushed before: a column
    /// out of order would give wrong binary-search answers.
    #[inline]
    pub fn push(&mut self, key: u64, val: u64) {
        if let Some(&last) = self.shard.keys.last() {
            assert!(last < key, "pairs must be strictly sorted by key");
        }
        self.shard.keys.push(key);
        self.shard.vals.push(val);
    }

    /// The finished shard.
    pub fn finish(self) -> SortedShard {
        self.shard
    }
}

impl ShardBackend for SortedShard {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.keys.binary_search(&key).ok().map(|i| self.vals[i])
    }

    fn probe_batch(
        &self,
        keys: &[u64],
        policy: Interleave,
        par: ParConfig,
        scratch: &mut Vec<u32>,
        out: &mut [Option<u64>],
    ) -> RunStats {
        assert_eq!(keys.len(), out.len(), "output length mismatch");
        if self.keys.is_empty() {
            out.fill(None);
            return RunStats::default();
        }
        // Rank via the interleaved binary-search coroutines, then
        // resolve rank -> value with one equality check. The resolve
        // loop's loads are independent of each other, so the value
        // lines' misses overlap without help (fetching the value inside
        // the coroutine was prototyped: 298 vs 303 ns/key, no gain).
        let mem = DirectMem::new(&self.keys);
        scratch.clear();
        scratch.resize(keys.len(), 0);
        let stats = crate::par::bulk_rank_coro_par(mem, keys, policy.group_or_one(), par, scratch);
        for ((o, &r), &k) in out.iter_mut().zip(scratch.iter()).zip(keys) {
            *o = (self.keys[r as usize] == k).then(|| self.vals[r as usize]);
        }
        stats
    }

    fn rebuild(&self, pairs: &[(u64, u64)]) -> Arc<dyn ShardBackend> {
        Arc::new(Self::build(pairs))
    }

    fn pairs(&self) -> Vec<(u64, u64)> {
        self.keys
            .iter()
            .copied()
            .zip(self.vals.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(n: u64) -> SortedShard {
        SortedShard::build(&(0..n).map(|i| (i * 3, i + 100)).collect::<Vec<_>>())
    }

    #[test]
    fn get_and_probe_agree() {
        let s = shard(1000);
        let probes: Vec<u64> = (0..1500).map(|i| i * 2).collect();
        let mut out = vec![None; probes.len()];
        let mut scratch = Vec::new();
        let stats = s.probe_batch(
            &probes,
            Interleave::Interleaved(6),
            ParConfig::with_threads(2),
            &mut scratch,
            &mut out,
        );
        assert_eq!(stats.lookups, probes.len() as u64);
        for (&k, &r) in probes.iter().zip(&out) {
            assert_eq!(r, s.get(k), "key={k}");
        }
    }

    #[test]
    fn rebuild_roundtrip_and_empty() {
        let pairs: Vec<(u64, u64)> = (0..50).map(|i| (i * 3, i + 100)).collect();
        let s = SortedShard::build(&pairs);
        assert_eq!(s.pairs(), pairs);
        assert_eq!(s.rebuild(&pairs).pairs(), pairs);
        let empty = SortedShard::build(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.get(7), None);
        let mut out = vec![None; 2];
        let mut scratch = Vec::new();
        empty.probe_batch(
            &[1, 2],
            Interleave::Sequential,
            ParConfig::default(),
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, [None, None]);
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
