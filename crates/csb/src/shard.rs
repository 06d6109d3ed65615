//! [`CsbShard`]: the CSB+-tree [`ShardBackend`] — the serving layer's
//! "csb" main index.
//!
//! Batch lookups descend the tree through the interleaved traversal
//! coroutines ([`crate::lookup::bulk_lookup_par`], the paper's
//! Listing 6); builds and rebuilds bulk-load a fresh fully-packed tree
//! ([`CsbTree::from_sorted`]) whose arenas are advised onto huge pages,
//! as [`isi_search::shard::SortedShard`]'s columns are.

use std::sync::Arc;

use isi_core::backend::ShardBackend;
use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;

use crate::store::DirectTreeStore;
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

impl ShardBackend for CsbShard {
    fn len(&self) -> usize {
        self.tree.len()
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.tree.get(&key)
    }

    fn probe_batch(
        &self,
        keys: &[u64],
        policy: Interleave,
        par: ParConfig,
        _scratch: &mut Vec<u32>,
        out: &mut [Option<u64>],
    ) -> RunStats {
        crate::lookup::bulk_lookup_par(
            DirectTreeStore::new(&self.tree),
            keys,
            policy.group_or_one(),
            par,
            out,
        )
    }

    fn rebuild(&self, pairs: &[(u64, u64)]) -> Arc<dyn ShardBackend> {
        Arc::new(Self::build(pairs))
    }

    fn pairs(&self) -> Vec<(u64, u64)> {
        self.tree.items()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(n: u64) -> CsbShard {
        CsbShard::build(&(0..n).map(|i| (i * 3, i + 100)).collect::<Vec<_>>())
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
        let pairs: Vec<(u64, u64)> = (0..64).map(|i| (i * 3, i + 100)).collect();
        let s = CsbShard::build(&pairs);
        assert_eq!(s.pairs(), pairs);
        assert_eq!(s.rebuild(&pairs).pairs(), pairs);
        let empty = CsbShard::build(&[]);
        assert!(empty.is_empty());
        let mut out = vec![None; 1];
        let mut scratch = Vec::new();
        empty.probe_batch(
            &[9],
            Interleave::Interleaved(4),
            ParConfig::default(),
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, [None]);
    }
}
