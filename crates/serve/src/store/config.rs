//! What a store is built with: the index structure behind every
//! shard's main, the sizes that decide when its merges run, and where
//! it logs.

use std::path::PathBuf;
use std::sync::Arc;

use isi_core::backend::ShardBackend;
use isi_csb::CsbShard;
use isi_durable::FsyncMode;
use isi_hash::HashShard;
use isi_search::SortedShard;

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
    /// pairs. This is the only place the backend choice is matched on;
    /// everything after construction dispatches through the
    /// [`ShardBackend`] trait.
    pub fn build_shard(self, pairs: &[(u64, u64)]) -> Arc<dyn ShardBackend> {
        match self {
            Backend::Sorted => Arc::new(SortedShard::build(pairs)),
            Backend::Csb => Arc::new(CsbShard::build(pairs)),
            Backend::Hash => Arc::new(HashShard::build(pairs)),
        }
    }
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
