//! [`HashShard`]: the chained-hash-table [`ShardBackend`] — the
//! serving layer's "hash" main index.
//!
//! Batch lookups chase bucket chains through the interleaved probe
//! coroutines ([`crate::probe::bulk_probe_par`], the paper's
//! Section 6). A shard is built from pairs in ascending key order, and
//! the table's entry arena keeps insertion order, so
//! [`pairs`](ShardBackend::pairs) reads the arena as it is: the bucket
//! chains are what scatter the keys, not the arena.

use std::sync::Arc;

use isi_core::backend::ShardBackend;
use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;

use crate::table::ChainedHashTable;

/// A chained hash table over `u64 → u64`, servable in bulk by the
/// interleaved probe drivers.
pub struct HashShard {
    table: ChainedHashTable<u64, u64>,
}

impl HashShard {
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
    /// ascending key order. The table is sized and advised for `len`
    /// entries before the first push
    /// ([`ChainedHashTable::with_capacity`]).
    pub fn builder(len: usize) -> HashShardBuilder {
        HashShardBuilder {
            table: ChainedHashTable::with_capacity(len),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &ChainedHashTable<u64, u64> {
        &self.table
    }
}

/// A [`HashShard`] being filled, pair by pair, in key order (see
/// [`HashShard::builder`]).
pub struct HashShardBuilder {
    table: ChainedHashTable<u64, u64>,
}

impl HashShardBuilder {
    /// Insert one pair.
    ///
    /// # Panics
    /// Panics unless `key` is above every key pushed before. The table
    /// itself keeps duplicates (hash-join semantics), so ascending
    /// order is what keeps a shard's keys unique and its `len` exact.
    #[inline]
    pub fn push(&mut self, key: u64, val: u64) {
        if let Some(last) = self.table.entries().last() {
            assert!(last.key < key, "pairs must be strictly sorted by key");
        }
        self.table.insert(key, val);
    }

    /// The finished shard.
    pub fn finish(self) -> HashShard {
        HashShard { table: self.table }
    }
}

impl ShardBackend for HashShard {
    fn len(&self) -> usize {
        self.table.len()
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.table.get(&key)
    }

    fn probe_batch(
        &self,
        keys: &[u64],
        policy: Interleave,
        par: ParConfig,
        _scratch: &mut Vec<u32>,
        out: &mut [Option<u64>],
    ) -> RunStats {
        crate::probe::bulk_probe_par(&self.table, keys, policy.group_or_one(), par, out)
    }

    fn rebuild(&self, pairs: &[(u64, u64)]) -> Arc<dyn ShardBackend> {
        Arc::new(Self::build(pairs))
    }

    fn pairs(&self) -> Vec<(u64, u64)> {
        // The builder took the pairs in ascending order, and the arena
        // keeps insertion order.
        self.table
            .entries()
            .iter()
            .map(|e| (e.key, e.val))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(n: u64) -> HashShard {
        HashShard::build(&(0..n).map(|i| (i * 3, i + 100)).collect::<Vec<_>>())
    }

    #[test]
    fn get_and_probe_agree() {
        let s = shard(2000);
        let probes: Vec<u64> = (0..2500).map(|i| i * 2).collect();
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
        // pairs() must come out sorted even though the buckets aren't.
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i * 3, i + 100)).collect();
        let s = HashShard::build(&pairs);
        assert_eq!(s.pairs(), pairs);
        assert_eq!(s.rebuild(&pairs).pairs(), pairs);
        let empty = HashShard::build(&[]);
        assert!(empty.is_empty());
        assert!(empty.pairs().is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn build_rejects_unsorted() {
        HashShard::build(&[(3, 0), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn build_rejects_duplicates() {
        HashShard::build(&[(3, 0), (3, 1)]);
    }
}
