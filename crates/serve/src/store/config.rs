//! What a store is built with: the index structure behind every
//! shard's main, the sizes that decide when its merges run, and where
//! it logs.

use std::path::PathBuf;
use std::sync::Arc;

use isi_core::backend::ShardBackend;
use isi_csb::{CsbShard, CsbTree, CsbTreeBuilder};
use isi_durable::FsyncMode;
use isi_hash::{HashShard, HashShardBuilder};
use isi_search::{SortedShard, SortedShardBuilder};

/// Which index structure backs every shard's main of a
/// [`ShardedStore`](super::ShardedStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Sorted key column + aligned value column; lookups are
    /// interleaved binary-search ranks resolved by an equality check.
    Sorted,
    /// A CSB+-tree per shard; lookups are interleaved tree descents.
    Csb,
    /// A chained hash table per shard; lookups are interleaved probes.
    Hash,
}

impl Backend {
    /// All backends, in sweep order.
    pub const ALL: [Backend; 3] = [Backend::Sorted, Backend::Csb, Backend::Hash];

    /// Stable lowercase name (labels test output).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sorted => "sorted",
            Backend::Csb => "csb",
            Backend::Hash => "hash",
        }
    }

    /// Build one shard's main from strictly-sorted, duplicate-free
    /// pairs.
    ///
    /// # Panics
    /// Panics if `pairs` is not strictly sorted by key.
    pub fn build_shard(self, pairs: &[(u64, u64)]) -> Arc<dyn ShardBackend> {
        let mut mains = self.build_mains(&[pairs.len()], pairs, |_| 0);
        mains.pop().expect("one main")
    }

    /// Build every shard's main in one pass over strictly-sorted,
    /// duplicate-free `pairs`: each pair goes to the builder of shard
    /// `route(key)`, which was reserved for the `lens[shard]` pairs it
    /// gets. This is the only place the backend choice is matched on;
    /// everything after construction dispatches through the
    /// [`ShardBackend`] trait.
    pub(super) fn build_mains(
        self,
        lens: &[usize],
        pairs: &[(u64, u64)],
        route: impl Fn(u64) -> usize,
    ) -> Vec<Arc<dyn ShardBackend>> {
        match self {
            Backend::Sorted => fill(
                lens,
                pairs,
                route,
                SortedShard::builder,
                SortedShardBuilder::push,
                |b| Arc::new(b.finish()),
            ),
            Backend::Csb => fill(
                lens,
                pairs,
                route,
                CsbTree::builder,
                CsbTreeBuilder::push,
                |b| Arc::new(CsbShard::from_tree(b.finish())),
            ),
            Backend::Hash => fill(
                lens,
                pairs,
                route,
                HashShard::builder,
                HashShardBuilder::push,
                |b| Arc::new(b.finish()),
            ),
        }
    }
}

/// The fill pass: one builder a shard, each pair pushed to the one its
/// shard indexes. The backend is fixed per call, so the loop carries
/// no branch on the shard and none on the backend.
fn fill<B>(
    lens: &[usize],
    pairs: &[(u64, u64)],
    route: impl Fn(u64) -> usize,
    builder: impl Fn(usize) -> B,
    push: impl Fn(&mut B, u64, u64),
    finish: impl Fn(B) -> Arc<dyn ShardBackend>,
) -> Vec<Arc<dyn ShardBackend>> {
    let mut builders: Vec<B> = lens.iter().map(|&len| builder(len)).collect();
    for &(k, v) in pairs {
        push(&mut builders[route(k)], k, v);
    }
    builders.into_iter().map(finish).collect()
}

/// Store tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Entries (upserts + tombstones) in one shard's run stack, the
    /// mid tier not counted, that trigger a merge of that shard. `1`
    /// requests a merge on every write. A merge folds the stack into
    /// the mid tier, which costs what the mid holds; the mid in turn
    /// is folded into the main once it holds `major_len` entries
    /// (`max(merge_threshold, √(merge_threshold · main length))`), so
    /// a larger threshold means fewer merges of both kinds, a longer
    /// overlay on the read path, and more to replay: recovery reads
    /// back at most a mid tier plus a residual of WAL records. Writers
    /// to a shard whose stack holds four times this many entries block
    /// until the merger has folded it — the room for bursts, and for
    /// the occasional major merge.
    pub merge_threshold: usize,
    /// Published delta runs a shard may stack above the mid tier
    /// before the write path folds them into one (the fold is
    /// amortized O(threshold) total and never touches the mid).
    /// `1` restores a single always-folded run (every write pays the
    /// fold); `usize::MAX` never folds outside merges. Must be ≥ 1.
    pub max_runs: usize,
    /// Directory for the per-shard write-ahead logs and snapshots.
    /// `None` (the default) disables durability entirely — no WAL, no
    /// snapshots, no recovery, zero write-path I/O. `Some(dir)` makes
    /// [`ShardedStore::build_with`](super::ShardedStore::build_with)
    /// initialize a fresh store there (clobbering any previous one)
    /// and [`ShardedStore::recover`](super::ShardedStore::recover)
    /// reload the store that directory holds.
    pub wal_dir: Option<PathBuf>,
}

impl StoreConfig {
    /// Merges after `merge_threshold` entries, eight runs a stack;
    /// durability off.
    pub fn with_threshold(merge_threshold: usize) -> Self {
        Self {
            merge_threshold,
            max_runs: 8,
            wal_dir: None,
        }
    }

    /// This configuration with the given delta run-stack depth bound.
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// This configuration with durability on: per-shard WALs and
    /// snapshots under `dir`, every WAL record fsynced before its run
    /// returns. [`FsyncMode`] has that one value; the parameter stays
    /// only because the benchmark passes it.
    pub fn durable(mut self, dir: impl Into<PathBuf>, _fsync: FsyncMode) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }
}

impl Default for StoreConfig {
    /// Merges after 4096 delta entries.
    fn default() -> Self {
        Self::with_threshold(4096)
    }
}
