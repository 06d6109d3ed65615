//! [`SortedShard`]: the sorted-column main index of the serving layer
//! (`isi_serve::Main::Sorted`).
//!
//! A key column and an aligned value column, both sorted by key. The
//! serving layer ranks a batch through the interleaved binary-search
//! coroutines ([`crate::par::bulk_rank_coro_par`]) and resolves
//! rank → value with one equality check.
//!
//! Both columns are advised onto transparent huge pages before they
//! are filled ([`isi_core::topo::advise_huge_pages`]): the deep probes
//! of a binary search each land on a page of their own, and a 64 MiB
//! column is 16 384 4-KiB pages against a second-level TLB of about
//! 2 000 entries. Where the kernel declines, the columns are ordinary
//! `Vec`s and nothing else changes.

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

    /// The value column, aligned with [`keys`](Self::keys).
    pub fn vals(&self) -> &[u64] {
        &self.vals
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

#[cfg(test)]
mod tests {
    use super::*;
    use isi_core::mem::DirectMem;
    use isi_core::par::ParConfig;

    fn shard(n: u64) -> SortedShard {
        SortedShard::build(&(0..n).map(|i| (i * 3, i + 100)).collect::<Vec<_>>())
    }

    /// Rank `probes` through the interleaved driver and resolve each
    /// rank to a value, as the serving layer does.
    fn probe(s: &SortedShard, probes: &[u64], group: usize) -> Vec<Option<u64>> {
        let mut ranks = vec![0u32; probes.len()];
        let stats = crate::par::bulk_rank_coro_par(
            DirectMem::new(s.keys()),
            probes,
            group,
            ParConfig,
            &mut ranks,
        );
        assert_eq!(stats.lookups, probes.len() as u64);
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
