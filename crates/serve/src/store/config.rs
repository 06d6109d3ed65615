//! What a store is built with: the index structure behind every
//! shard's main, the main itself, the sizes that decide when its
//! merges run, and where it logs.

use std::iter::zip;
use std::path::PathBuf;

use isi_core::mem::DirectMem;
use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;
use isi_csb::{CsbShard, CsbTree, CsbTreeBuilder, DirectTreeStore};
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
    pub fn build_shard(self, pairs: &[(u64, u64)]) -> Main {
        let mut mains = self.build_mains(&[pairs.len()], pairs, |_| 0);
        mains.pop().expect("one main")
    }

    /// Build every shard's main in one pass over strictly-sorted,
    /// duplicate-free `pairs`: each pair goes to the builder of shard
    /// `route(key)`, which was reserved for the `lens[shard]` pairs it
    /// gets.
    pub(super) fn build_mains(
        self,
        lens: &[usize],
        pairs: &[(u64, u64)],
        route: impl Fn(u64) -> usize,
    ) -> Vec<Main> {
        match self {
            Backend::Sorted => fill(
                lens,
                pairs,
                route,
                SortedShard::builder,
                SortedShardBuilder::push,
                |b| Main::Sorted(b.finish()),
            ),
            Backend::Csb => fill(
                lens,
                pairs,
                route,
                CsbTree::builder,
                CsbTreeBuilder::push,
                |b| Main::Csb(CsbShard::from_tree(b.finish())),
            ),
            Backend::Hash => fill(
                lens,
                pairs,
                route,
                HashShard::builder,
                HashShardBuilder::push,
                |b| Main::Hash(b.finish()),
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
    finish: impl Fn(B) -> Main,
) -> Vec<Main> {
    let mut builders: Vec<B> = lens.iter().map(|&len| builder(len)).collect();
    for &(k, v) in pairs {
        push(&mut builders[route(k)], k, v);
    }
    builders.into_iter().map(finish).collect()
}

/// One shard's immutable main index, of the kind its [`Backend`]
/// names: batched point probes through that index's chunk-parallel
/// interleaved driver, its pairs in key order, and merge-time rebuilds.
///
/// A main is **immutable once built**: every method takes `&self`,
/// concurrent readers need no synchronization, and a merge replaces a
/// main by building a successor of the same kind. That is what lets
/// the store snapshot a main with a plain `Arc` clone and let in-flight
/// batches finish on the version they started with while a merge
/// publishes the next one.
pub enum Main {
    /// See [`Backend::Sorted`].
    Sorted(SortedShard),
    /// See [`Backend::Csb`].
    Csb(CsbShard),
    /// See [`Backend::Hash`].
    Hash(HashShard),
}

impl Main {
    /// Number of pairs stored.
    pub fn len(&self) -> usize {
        match self {
            Main::Sorted(s) => s.keys().len(),
            Main::Csb(s) => s.tree().len(),
            Main::Hash(s) => s.table().len(),
        }
    }

    /// True if no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequential point lookup — the oracle the batched path must
    /// agree with.
    pub fn get(&self, key: u64) -> Option<u64> {
        match self {
            Main::Sorted(s) => s.keys().binary_search(&key).ok().map(|i| s.vals()[i]),
            Main::Csb(s) => s.tree().get(&key),
            Main::Hash(s) => s.table().get(&key),
        }
    }

    /// Look up `keys[i]` into `out[i]` through the index's
    /// chunk-parallel interleaved driver, returning the engine's merged
    /// [`RunStats`] (`lookups == keys.len()`, also on an empty main).
    ///
    /// `scratch` is caller-owned scratch space (the sorted main stores
    /// ranks there); reusing one vector across calls means a batch
    /// allocates nothing per key. An interleaved engine run allocates
    /// its frame slab once; a one-key batch allocates nothing in the
    /// engine.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    pub fn probe_batch(
        &self,
        keys: &[u64],
        policy: Interleave,
        par: ParConfig,
        scratch: &mut Vec<u32>,
        out: &mut [Option<u64>],
    ) -> RunStats {
        assert_eq!(keys.len(), out.len(), "output length mismatch");
        let group = policy.group_or_one();
        match self {
            Main::Sorted(s) => {
                // Rank via the interleaved binary-search coroutines,
                // then resolve rank -> value with one equality check.
                // An empty column ranks every key 0 without a load, so
                // the engine runs (and counts) every key there too. The
                // resolve loop's loads are independent of each other,
                // so the value lines' misses overlap without help
                // (fetching the value inside the coroutine was
                // prototyped: 298 vs 303 ns/key, no gain).
                let (col, vals) = (s.keys(), s.vals());
                scratch.clear();
                scratch.resize(keys.len(), 0);
                let stats = isi_search::par::bulk_rank_coro_par(
                    DirectMem::new(col),
                    keys,
                    group,
                    par,
                    scratch,
                );
                for ((o, &r), &k) in out.iter_mut().zip(scratch.iter()).zip(keys) {
                    *o = (col.get(r as usize) == Some(&k)).then(|| vals[r as usize]);
                }
                stats
            }
            Main::Csb(s) => {
                isi_csb::bulk_lookup_par(DirectTreeStore::new(s.tree()), keys, group, par, out)
            }
            Main::Hash(s) => isi_hash::bulk_probe_par(s.table(), keys, group, par, out),
        }
    }

    /// Every pair in ascending key order (a major merge's input).
    pub(crate) fn pairs(&self) -> Vec<(u64, u64)> {
        match self {
            Main::Sorted(s) => zip(s.keys(), s.vals()).map(|(&k, &v)| (k, v)).collect(),
            Main::Csb(s) => s.tree().items(),
            // The builder took the pairs in ascending order, and the
            // arena keeps insertion order.
            Main::Hash(s) => s.table().entries().iter().map(|e| (e.key, e.val)).collect(),
        }
    }

    /// The index structure this main is.
    pub(crate) fn backend(&self) -> Backend {
        match self {
            Main::Sorted(_) => Backend::Sorted,
            Main::Csb(_) => Backend::Csb,
            Main::Hash(_) => Backend::Hash,
        }
    }

    /// A replacement main of the same kind, built from strictly-sorted,
    /// duplicate-free pairs (a major merge's output).
    pub(crate) fn rebuild(&self, pairs: &[(u64, u64)]) -> Main {
        self.backend().build_shard(pairs)
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
