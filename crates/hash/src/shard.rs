//! [`HashShard`]: the chained-hash-table main index of the serving
//! layer (`isi_serve::Main::Hash`).
//!
//! The serving layer chases a batch's bucket chains through the
//! interleaved probe coroutines ([`crate::bulk_probe_par`], the paper's
//! Section 6). A shard is built from pairs in ascending key order, and
//! the table's entry arena keeps insertion order, so the arena read as
//! it is lists the pairs in key order: the bucket chains are what
//! scatter the keys, not the arena.

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

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(n: u64) -> HashShard {
        HashShard::build(&(0..n).map(|i| (i * 3, i + 100)).collect::<Vec<_>>())
    }

    fn probe(s: &HashShard, probes: &[u64], group: usize) -> Vec<Option<u64>> {
        let mut out = vec![Some(u64::MAX); probes.len()];
        let stats = crate::bulk_probe_par(s.table(), probes, group, &mut out);
        assert_eq!(stats.lookups, probes.len() as u64);
        out
    }

    /// The pairs as the serving layer reads them back: the arena as it
    /// is.
    fn pairs(s: &HashShard) -> Vec<(u64, u64)> {
        s.table().entries().iter().map(|e| (e.key, e.val)).collect()
    }

    #[test]
    fn get_and_probe_agree() {
        let s = shard(2000);
        let probes: Vec<u64> = (0..2500).map(|i| i * 2).collect();
        let out = probe(&s, &probes, 6);
        for (&k, &r) in probes.iter().zip(&out) {
            assert_eq!(r, s.table().get(&k), "key={k}");
            assert_eq!(r, (k % 3 == 0 && k < 6000).then(|| k / 3 + 100), "key={k}");
        }
    }

    #[test]
    fn rebuild_roundtrip_and_empty() {
        // The arena must read back sorted even though the buckets aren't.
        let pairs_in: Vec<(u64, u64)> = (0..500).map(|i| (i * 3, i + 100)).collect();
        let s = HashShard::build(&pairs_in);
        assert_eq!(pairs(&s), pairs_in);
        assert_eq!(pairs(&HashShard::build(&pairs(&s))), pairs_in);
        let empty = HashShard::build(&[]);
        assert!(empty.table().is_empty());
        assert!(pairs(&empty).is_empty());
        assert_eq!(probe(&empty, &[9], 4), [None]);
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
