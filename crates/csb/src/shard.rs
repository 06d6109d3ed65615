//! [`CsbShard`]: the CSB+-tree main index of the serving layer
//! (`isi_serve::Main::Csb`).
//!
//! The serving layer descends the tree for a batch through the
//! interleaved traversal coroutines ([`crate::bulk_lookup_par`], the
//! paper's Listing 6); builds and rebuilds bulk-load a fresh
//! fully-packed tree ([`CsbTree::from_sorted`]) whose arenas are
//! advised onto huge pages, as [`isi_search::SortedShard`]'s columns
//! are.

use crate::tree::CsbTree;

/// A CSB+-tree over `u64 → u64`, servable in bulk by the interleaved
/// tree-descent drivers.
pub struct CsbShard {
    tree: CsbTree<u64, u64>,
}

impl CsbShard {
    /// Bulk-load from strictly-sorted, duplicate-free pairs.
    ///
    /// # Panics
    /// Panics if `pairs` is not strictly sorted by key.
    pub fn build(pairs: &[(u64, u64)]) -> Self {
        Self {
            tree: CsbTree::from_sorted(pairs),
        }
    }

    /// A shard over a tree bulk-loaded elsewhere ([`CsbTree::builder`]).
    pub fn from_tree(tree: CsbTree<u64, u64>) -> Self {
        Self { tree }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &CsbTree<u64, u64> {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DirectTreeStore;
    use isi_core::par::ParConfig;

    fn shard(n: u64) -> CsbShard {
        CsbShard::build(&(0..n).map(|i| (i * 3, i + 100)).collect::<Vec<_>>())
    }

    fn probe(s: &CsbShard, probes: &[u64], group: usize, threads: usize) -> Vec<Option<u64>> {
        let mut out = vec![Some(u64::MAX); probes.len()];
        let stats = crate::bulk_lookup_par(
            DirectTreeStore::new(s.tree()),
            probes,
            group,
            ParConfig::with_threads(threads),
            &mut out,
        );
        assert_eq!(stats.lookups, probes.len() as u64);
        out
    }

    #[test]
    fn get_and_probe_agree() {
        let s = shard(2000);
        let probes: Vec<u64> = (0..2500).map(|i| i * 2).collect();
        let out = probe(&s, &probes, 6, 2);
        for (&k, &r) in probes.iter().zip(&out) {
            assert_eq!(r, s.tree().get(&k), "key={k}");
            assert_eq!(r, (k % 3 == 0 && k < 6000).then(|| k / 3 + 100), "key={k}");
        }
    }

    #[test]
    fn rebuild_roundtrip_and_empty() {
        let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i * 3, i + 100)).collect();
        let s = CsbShard::build(&pairs);
        assert_eq!(s.tree().items(), pairs);
        assert_eq!(CsbShard::build(&s.tree().items()).tree().items(), pairs);
        let empty = CsbShard::build(&[]);
        assert!(empty.tree().is_empty());
        assert_eq!(probe(&empty, &[9], 4, 1), [None]);
    }
}
