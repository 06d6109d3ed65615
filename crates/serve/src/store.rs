//! [`ShardedStore`]: a writable, hash-partitioned key/value store
//! whose shards are served by the [`ShardBackend`] index drivers.
//!
//! Each shard is a **Main/Delta pair**, the columnstore resolution of
//! the read-optimized vs write-optimized tension:
//!
//! * the **main** is an immutable [`ShardBackend`] — a **sorted
//!   column** ([`isi_search::SortedShard`]), a **CSB+-tree**
//!   ([`isi_csb::CsbShard`], Listing 6 traversal coroutines), or a
//!   **chained hash table** ([`isi_hash::HashShard`], Section 6 probe
//!   coroutines) — probed in bulk through the morsel-parallel
//!   interleaved engine and scanned in key order;
//! * the **delta** is a **stack of immutable sorted runs** of
//!   `(key, Option<value>)` overrides (`None` = tombstone) with
//!   last-write-wins semantics — each write run is sorted once and
//!   pushed as one shared run, reads resolve newest-run-first, and
//!   the runs above the bottom one (the mid tier, below) fold into a
//!   single run past [`StoreConfig::max_runs`].
//!
//! **Reads are planned.** A batch is first resolved against the delta
//! into a [`BatchPlan`](crate::plan::BatchPlan): delta-decided keys
//! never reach the engine, so the engine always runs a dense batch of
//! genuinely memory-bound probes (see [`crate::plan`]). Range scans
//! ([`ShardedStore::scan_range`]) merge-join the backend's ordered
//! scan with the sorted delta run, overrides winning and tombstones
//! eliding their keys.
//!
//! **Maintenance is decoupled from serving, and its cost follows the
//! delta.** Under the run stack each shard keeps a **mid tier**: one
//! immutable sorted run of overrides (tombstones kept), the oldest run
//! of the stack, so every read path above sees it as just that.
//! Writes go to the runs above it; when those reach
//! [`StoreConfig::merge_threshold`] entries, the writer *enqueues a
//! merge job* and returns. The per-store **background merger thread**
//! pins the stack and folds it into a fresh mid tier. Usually that is
//! all — a **minor merge**: it publishes `(same main, new mid,
//! residual runs)` through an [`EpochCell`] swap, O(mid), no
//! [`ShardBackend::pairs`], no rebuild, no file-system call (the WAL
//! keeps its records). Only when the folded mid has reached
//! `major_len` (a size worked out from the threshold and the main's
//! length) does the same job go on to a **major merge**: rebuild the
//! main (via [`ShardBackend::rebuild`]) with the mid folded in and its
//! tombstones dropped, snapshot it when the store is durable, truncate
//! the WAL to the residual, publish `(new main, no mid, residual
//! runs)`. Either way the merge pins the runs it snapshotted (the
//! write path folds only above them, and never the mid), so the
//! residual is what was written meanwhile and nothing else. While a
//! merge runs the stack keeps absorbing writes up to a hard bound of
//! four thresholds; writers to that shard block past it until the
//! merger catches up. A merger that panics fails the
//! store closed: writers and [`ShardedStore::quiesce`] panic with
//! "merger failed", none waits for a merge that will not come.
//! Readers snapshot one `Arc<ShardVersion>` per operation, so they
//! always see a *consistent* main+delta pair: an in-flight dispatch
//! batch keeps reading the version it started on while a merge
//! publishes the next one, and a merge can never tear a read (the
//! swap is a single pointer store). [`MergeMode::Foreground`] runs the
//! same merge routine inline in the triggering write: the
//! deterministic mode of the kill-at-every-fs-op matrix and the
//! allocation tests.
//!
//! Shard routing uses the *top* bits of the key's Fibonacci hash. The
//! hash-table backend buckets on bits 32 and up of the same hash
//! (`(hash64 >> 32) & mask`), so the two partitions stay independent
//! as long as a shard's bucket count stays below
//! 2^(32 − shard_bits); sharing bits with the bucket index would
//! leave every shard's table using only a fraction of its buckets.

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use isi_core::backend::ShardBackend;
use isi_core::epoch::EpochCell;
use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;
use isi_core::stats::LatencyHist;
use isi_core::sync::{CondvarExt, MutexExt};
use isi_csb::CsbShard;
use isi_durable::{self as durable, DiskFs, Fs, FsyncMode};
use isi_hash::table::HashKey;
use isi_hash::HashShard;
use isi_obs::{Counter, Obs, SpanTimer, Stage, TraceKind};
use isi_search::SortedShard;

use crate::plan::BatchPlan;

/// Which index structure backs every shard's main of a [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Sorted key column + aligned value column; lookups are
    /// interleaved binary-search ranks resolved by an equality check.
    Sorted,
    /// A CSB+-tree per shard; lookups are interleaved tree descents.
    Csb,
    /// A chained hash table per shard; lookups are interleaved probes
    /// and range scans sort the arena on demand.
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

/// Where delta-to-main merges run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// The default: a threshold-crossing write enqueues a merge job
    /// for the store's background merger thread and returns
    /// immediately; the delta keeps absorbing writes, up to four
    /// thresholds of them, while the merge is in flight.
    Background,
    /// The threshold-crossing write performs the merge inline (its
    /// latency absorbs it) and publishes the merged version in the
    /// same swap. Every file-system operation then happens at a fixed
    /// point of the write schedule, which is what the
    /// kill-at-every-fs-op crash matrix and the allocation tests run
    /// on.
    Foreground,
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
    /// back at most a mid tier plus a residual of WAL records. In
    /// [`MergeMode::Background`] writers to a shard whose stack holds
    /// four times this many entries block until the merger has folded
    /// it — the room for bursts, and for the occasional major merge.
    pub merge_threshold: usize,
    /// Where merges run.
    pub merge_mode: MergeMode,
    /// Published delta runs a shard may stack above the mid tier
    /// before the write path folds them into one (the fold is
    /// amortized O(threshold) total and never touches the mid).
    /// `1` restores a single always-folded run (every write pays the
    /// fold); `usize::MAX` never folds outside merges. Must be ≥ 1.
    pub max_runs: usize,
    /// Directory for the per-shard write-ahead logs and snapshots.
    /// `None` (the default) disables durability entirely — no WAL, no
    /// snapshots, no recovery, zero write-path I/O. `Some(dir)` makes
    /// [`ShardedStore::build_with`] initialize a fresh store there
    /// (clobbering any previous one) and
    /// [`ShardedStore::recover`] reload the store that directory holds.
    pub wal_dir: Option<PathBuf>,
    /// When WAL appends are fsynced. Ignored unless `wal_dir` is set
    /// (or an [`Fs`] is injected via the `_with_fs` constructors).
    pub fsync: FsyncMode,
}

impl StoreConfig {
    /// Background merges with the given threshold; durability off.
    pub fn with_threshold(merge_threshold: usize) -> Self {
        Self {
            merge_threshold,
            merge_mode: MergeMode::Background,
            max_runs: 8,
            wal_dir: None,
            fsync: FsyncMode::Group,
        }
    }

    /// This configuration with merges forced inline on the write path.
    pub fn foreground(mut self) -> Self {
        self.merge_mode = MergeMode::Foreground;
        self
    }

    /// This configuration with the given delta run-stack depth bound.
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// This configuration with durability on: per-shard WALs and
    /// snapshots under `dir`, fsynced per `fsync`.
    pub fn durable(mut self, dir: impl Into<PathBuf>, fsync: FsyncMode) -> Self {
        self.wal_dir = Some(dir.into());
        self.fsync = fsync;
        self
    }
}

impl Default for StoreConfig {
    /// Background merges after 4096 delta entries.
    fn default() -> Self {
        Self::with_threshold(4096)
    }
}

/// One immutable sorted run of per-key overrides: `Some(v)` upserts
/// the key to `v`, `None` is a tombstone. Strictly sorted by key.
type DeltaRun = Arc<[(u64, Option<u64>)]>;

/// The append-friendly overlay: an immutable **run-stack** of sorted
/// override runs, newest run last. Each dispatched write run is sorted
/// once (last-write-wins within the run, O(run log run)) and pushed as
/// one shared [`DeltaRun`]; publishing a new [`ShardVersion`] clones
/// only the small `Vec` of `Arc` handles, never the entries — prior
/// runs are shared, which is what kills the old per-write
/// clone-the-whole-delta quadratic. Reads consult runs newest-first.
///
/// The bottom run may be the shard's **mid tier**: what the merges
/// since the last major one have folded the stack into. To a read it
/// is the oldest run and nothing more; to the write side it is not
/// part of the count: [`len`](Self::len), the threshold, the hard
/// bound, `max_runs` and the write-path fold all concern the runs
/// *above* it. When those exceed [`StoreConfig::max_runs`]
/// the write path folds them into a single run (amortized
/// O(threshold) total, not per-write) and leaves the mid where it is:
/// a fold that took it along would copy it every few writes.
#[derive(Clone, Default)]
struct Delta {
    /// Override runs, oldest first / newest last.
    runs: Vec<DeltaRun>,
    /// `runs[0]` is the mid tier.
    mid: bool,
    /// Sum of the lengths of the runs above the mid tier — an upper
    /// bound on the distinct keys they override (a key rewritten in a
    /// newer run counts twice until a fold collapses it). Threshold
    /// and backpressure checks use this conservative count; folds and
    /// merges restore exactness.
    entries: usize,
}

impl Delta {
    /// The override for `key`: `Some(Some(v))` = upserted to `v`,
    /// `Some(None)` = tombstoned, `None` = no override (fall through
    /// to the main). Newest run wins.
    fn get(&self, key: u64) -> Option<Option<u64>> {
        self.runs.iter().rev().find_map(|run| {
            run.binary_search_by_key(&key, |e| e.0)
                .ok()
                .map(|i| run[i].1)
        })
    }

    /// The stack a merge publishes: `mid` as the mid tier and `above`
    /// as the one run on top of it, each already sorted and
    /// duplicate-free, each left out when empty. The count is exact
    /// by construction.
    fn tiers(mid: Vec<(u64, Option<u64>)>, above: Vec<(u64, Option<u64>)>) -> Self {
        let mut delta = Self {
            mid: !mid.is_empty(),
            entries: above.len(),
            runs: Vec::new(),
        };
        for run in [mid, above] {
            if !run.is_empty() {
                delta.runs.push(run.into());
            }
        }
        delta
    }

    /// Cheap copy sharing every immutable run: O(runs) `Arc` handle
    /// clones, never the entries. This is the write path's whole
    /// point — the old clone-the-entries delta copied O(delta) pairs
    /// per write run (quadratic over a write burst).
    fn share(&self) -> Self {
        self.clone()
    }

    /// Push a freshly sorted run on top of the stack (newest).
    fn push_run(&mut self, run: DeltaRun) {
        self.entries += run.len();
        self.runs.push(run);
    }

    /// How many runs at the bottom of the stack are the mid tier (0
    /// or 1).
    fn mid_runs(&self) -> usize {
        self.mid as usize
    }

    /// Entries in the mid tier.
    fn mid_len(&self) -> usize {
        if self.mid {
            self.runs[0].len()
        } else {
            0
        }
    }

    /// Replace the runs above the oldest `keep` by their fold (one
    /// run, newest winning each key); the oldest `keep` runs stay as
    /// they are. The write path keeps the mid tier and what a merge
    /// has pinned.
    fn fold_above(&mut self, keep: usize) {
        let top = Delta {
            runs: self.runs.split_off(keep),
            ..Delta::default()
        }
        .fold();
        if !top.is_empty() {
            self.runs.push(top.into());
        }
        self.entries = self.runs[self.mid_runs()..].iter().map(|r| r.len()).sum();
    }

    /// Fold the whole stack, mid tier included, into one sorted,
    /// duplicate-free run, newest run winning each key. Works from the
    /// newest run down, so the oldest run — the mid tier, which can be
    /// as long as all the others together many times over — is walked
    /// once: O(mid + above × runs).
    fn fold(&self) -> Vec<(u64, Option<u64>)> {
        let mut it = self.runs.iter().rev();
        let mut acc: Vec<(u64, Option<u64>)> = match it.next() {
            Some(run) => run.to_vec(),
            None => return Vec::new(),
        };
        for run in it {
            acc = merge_overrides(&acc, run);
        }
        acc
    }

    /// Fold only the overrides with `lo <= key <= hi` (the range-scan
    /// slice), newest run winning.
    fn fold_range(&self, lo: u64, hi: u64) -> Vec<(u64, Option<u64>)> {
        let mut acc: Vec<(u64, Option<u64>)> = Vec::new();
        for run in &self.runs {
            let a = run.partition_point(|e| e.0 < lo);
            let b = run.partition_point(|e| e.0 <= hi);
            if a == b {
                continue;
            }
            acc = if acc.is_empty() {
                run[a..b].to_vec()
            } else {
                merge_overrides(&run[a..b], &acc)
            };
        }
        acc
    }

    /// Number of overrides (upserts + tombstones) above the mid tier,
    /// counted per run — an upper bound on the distinct keys they
    /// override.
    fn len(&self) -> usize {
        self.entries
    }

    /// No override at all, in the mid tier or above it.
    fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// One published, immutable version of a shard: the main index plus
/// the delta overlay that has accumulated on top of it. Readers
/// snapshot the whole pair atomically through the shard's
/// [`EpochCell`].
struct ShardVersion {
    /// Shared with successor versions until a merge replaces it.
    main: Arc<dyn ShardBackend>,
    delta: Delta,
}

/// Per-shard write-side state (serialized by the shard's write lock).
#[derive(Default)]
struct WriteState {
    /// A merge job for this shard is queued or running; gates
    /// duplicate enqueues.
    pending: bool,
    /// How many of the published stack's oldest runs above the mid
    /// tier the merge in flight has pinned (0 = no merge in flight;
    /// the mid tier needs no pin, the write path never folds it). The
    /// write path folds only the runs above them: a fold across the
    /// cut would replace the pinned runs by a fresh one, and the
    /// merge's identity residual would then keep every entry it has
    /// just merged — a merge that drains nothing.
    pinned: usize,
    /// Sequence of the last WAL record appended for this shard (0 =
    /// none since the covering snapshot at build). Monotone; holding
    /// the write lock across append + publish keeps WAL order equal
    /// to publication order.
    wal_seq: u64,
}

/// Per-shard merge and run-stack counters, registered in the store's
/// [`Obs`] so monitoring reads ([`ShardedStore::merges`] and friends)
/// are lock-free snapshots that never wait behind a rebuild.
/// Registration order is the ≤ side of each invariant first
/// (`bg_merges` and `major_merges` before `merges`, `compactions`
/// before `delta_runs`) and every bump hits the ≥ side first, so
/// `bg_merges ≤ merges`, `major_merges ≤ merges` and `compactions ≤
/// delta_runs` hold in *every* snapshot (the registry's coherence
/// contract). Merge wall latency, minor and major alike, lands in the
/// shard's [`Stage::Merge`] histogram.
struct MergeCounters {
    /// Merges published, of either kind.
    merges: Counter,
    bg_merges: Counter,
    /// Those of them that rebuilt the main.
    major_merges: Counter,
    /// Delta runs published by the write path (one per effective
    /// shard sub-run).
    delta_runs: Counter,
    /// Run-stack folds the write path performed past
    /// [`StoreConfig::max_runs`] (each fold needs at least one
    /// published run, so `compactions ≤ delta_runs`).
    compactions: Counter,
}

struct Shard {
    version: EpochCell<ShardVersion>,
    /// Serializes writers to this shard.
    write: Mutex<WriteState>,
    /// Writers blocked at the hard bound ([`max_delta`]) wait here;
    /// the merger notifies after publishing a drained version.
    delta_space: Condvar,
}

/// The background merger's work queue (guarded by `StoreInner::merge_q`).
#[derive(Default)]
struct MergeQueue {
    /// Shard indices with a merge due, in trigger order.
    queue: VecDeque<usize>,
    /// The merger popped a job and has not finished it yet.
    in_flight: bool,
    /// Set by `Drop`: finish the queue, then exit.
    shutdown: bool,
}

/// The store's attached durability layer: the file system holding the
/// per-shard WALs and snapshots, plus write-path I/O accounting.
/// I/O errors on the write and merge paths panic with context (the
/// store is crash-only: an inconsistent log is worse than no store),
/// while [`ShardedStore::recover`] returns errors — recovery runs
/// before anything was promised to callers.
struct DurableState {
    fs: Arc<dyn Fs>,
    fsync: FsyncMode,
    /// WAL records appended by the write path. Registered *after*
    /// `wal_syncs` and bumped *before* it, so `wal_syncs ≤
    /// wal_records` holds in every registry snapshot.
    wal_records: Counter,
    /// Write-path fsyncs issued (excludes merge-time snapshot syncs).
    wal_syncs: Counter,
}

impl DurableState {
    /// Append one record to `shard`'s WAL and fsync it per the mode
    /// (no sync in [`FsyncMode::Off`]). Caller holds the shard write
    /// lock, which orders appends by sequence. Append and fsync time
    /// land in the shard's [`Stage::WalAppend`] / [`Stage::WalFsync`]
    /// histograms; each fsync emits a [`TraceKind::WalSync`] event.
    fn log_run(&self, obs: &Obs, shard: usize, seq: u64, ops: &[(u64, Option<u64>)]) {
        let name = durable::wal_name(shard);
        let rec = durable::encode_record(seq, ops);
        let t = SpanTimer::start();
        self.fs
            .append(&name, &rec)
            .unwrap_or_else(|e| panic!("WAL append failed for shard {shard}: {e}"));
        obs.record_stage(shard, Stage::WalAppend, t.elapsed_ns());
        self.wal_records.inc();
        if self.fsync != FsyncMode::Off {
            let t = SpanTimer::start();
            self.fs
                .sync(&name)
                .unwrap_or_else(|e| panic!("WAL fsync failed for shard {shard}: {e}"));
            let dur = t.elapsed_ns();
            obs.record_stage(shard, Stage::WalFsync, dur);
            obs.trace().emit(
                shard,
                TraceKind::WalSync,
                t.start_ns(),
                dur,
                ops.len() as u64,
                0,
            );
            self.wal_syncs.inc();
        }
    }

    /// Serialize and fsync a snapshot of `merged` (covering WAL
    /// sequence `seq`) to the shard's temp file. The bulky half of a
    /// durable merge publish — the background merger runs it *outside*
    /// the shard write lock.
    fn stage_snapshot(&self, shard: usize, seq: u64, merged: &[(u64, u64)]) -> String {
        durable::write_snapshot_tmp(&*self.fs, shard, seq, merged)
            .unwrap_or_else(|e| panic!("snapshot write failed for shard {shard}: {e}"))
    }

    /// Commit a staged snapshot and rewrite the WAL down to `residual`
    /// (one record at `wal_seq`) — strictly in that order, so a crash
    /// between the two replays the old WAL's extra records
    /// idempotently on top of the new snapshot. Caller holds the shard
    /// write lock: nothing may append between the truncation decision
    /// and the rewrite.
    fn commit_and_truncate(
        &self,
        shard: usize,
        snap_seq: u64,
        tmp: &str,
        wal_seq: u64,
        residual: &[(u64, Option<u64>)],
    ) {
        durable::commit_snapshot(&*self.fs, shard, snap_seq, tmp)
            .unwrap_or_else(|e| panic!("snapshot commit failed for shard {shard}: {e}"));
        durable::rewrite_wal(&*self.fs, shard, wal_seq, residual)
            .unwrap_or_else(|e| panic!("WAL rewrite failed for shard {shard}: {e}"));
    }
}

/// State shared between the store handle and its merger thread.
struct StoreInner {
    shard_bits: u32,
    cfg: StoreConfig,
    shards: Vec<Shard>,
    /// Live key count (upserts − tombstoned keys), maintained by the
    /// write path.
    live: AtomicUsize,
    /// `Some` when the store logs to a WAL directory (or injected fs).
    durable: Option<DurableState>,
    merge_q: Mutex<MergeQueue>,
    /// Merger waits here for jobs.
    merge_work: Condvar,
    /// [`ShardedStore::quiesce`] waits here for the queue to drain.
    merge_done: Condvar,
    /// Store-side observability: `store_*` metrics, per-shard stage
    /// histograms (plan/engine/range scan/WAL/merge) and trace rings.
    /// Cumulative for the store's lifetime, like the counters it
    /// replaced.
    obs: Obs,
    /// Per-shard merge counters registered in `obs` (see
    /// [`MergeCounters`]).
    merge_counters: Vec<MergeCounters>,
    /// `store_merger_failed`: nonzero once the merger thread has
    /// panicked. No merge will run again, so the store takes no more
    /// writes (see [`StoreInner::merger_loop`]).
    merger_failed: Counter,
}

/// Reusable scratch for [`ShardedStore::lookup_batch`]: rank space for
/// the sorted backend, the batch plan's buffers, and the residual
/// result staging area. Keeping one per dispatcher thread makes the
/// steady-state dispatch path allocation-free, matching the engine's
/// frame-slab discipline.
#[derive(Default)]
pub struct LookupScratch {
    ranks: Vec<u32>,
    plan: BatchPlan,
    residual_out: Vec<Option<u64>>,
}

/// Reusable scratch for [`ShardedStore::apply_write_run_with`]: the
/// per-shard op-index buckets a multi-op run is grouped into. Keeping
/// one per dispatcher thread makes steady-state write dispatch
/// allocation-free outside the run publish itself.
#[derive(Default)]
pub struct WriteScratch {
    by_shard: Vec<Vec<usize>>,
}

/// What one planned batch did: engine counters for the residual run,
/// plus how the plan split the batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Merged interleaved-engine counters for the residual probe run
    /// (`engine.lookups == residual`).
    pub engine: RunStats,
    /// Keys the delta decided without touching the engine.
    pub delta_hits: u64,
    /// Keys that reached the engine.
    pub residual: u64,
}

/// A writable key/value store hash-partitioned into power-of-two
/// shards, each shard a Main/Delta pair behind a [`ShardBackend`]
/// (see the [module docs](self)).
///
/// Point reads, batch lookups and range scans take `&self` and never
/// block behind writes or merges; `put`/`remove` also take `&self`
/// (interior mutability), serialize per shard, and block only when a
/// shard's delta is four thresholds deep.
pub struct ShardedStore {
    inner: Arc<StoreInner>,
    /// `Some` in background mode; joined (after a drain) on drop.
    merger: Option<JoinHandle<()>>,
}

impl ShardedStore {
    /// Build with the default [`StoreConfig`].
    ///
    /// Duplicate keys in `pairs` resolve **last-write-wins** (the
    /// later pair in slice order supersedes the earlier), matching the
    /// upsert path.
    ///
    /// # Panics
    /// Panics if `num_shards` is not a power of two (including 0).
    pub fn build(backend: Backend, num_shards: usize, pairs: &[(u64, u64)]) -> Self {
        Self::build_with(backend, num_shards, pairs, StoreConfig::default())
    }

    /// Build from key/value pairs with explicit tuning knobs. With
    /// [`StoreConfig::wal_dir`] set, this **initializes a fresh
    /// durable store** in that directory (creating it if needed and
    /// superseding whatever store it held); use [`recover`](Self::recover)
    /// to reload an existing one instead.
    ///
    /// # Panics
    /// Panics if `num_shards` is not a power of two (including 0), if
    /// `cfg.merge_threshold` or `cfg.max_runs` is 0, or if the WAL
    /// directory cannot be created or initialized.
    pub fn build_with(
        backend: Backend,
        num_shards: usize,
        pairs: &[(u64, u64)],
        cfg: StoreConfig,
    ) -> Self {
        let fs: Option<Arc<dyn Fs>> = cfg.wal_dir.as_ref().map(|dir| {
            let disk = DiskFs::create(dir)
                .unwrap_or_else(|e| panic!("create WAL dir {}: {e}", dir.display()));
            Arc::new(disk) as Arc<dyn Fs>
        });
        Self::build_inner(backend, num_shards, pairs, cfg, fs)
    }

    /// [`build_with`](Self::build_with), but durable onto an injected
    /// [`Fs`] (tests use [`isi_durable::MemFs`] / [`isi_durable::FaultFs`])
    /// instead of a real directory; `cfg.wal_dir` is ignored.
    pub fn build_with_fs(
        backend: Backend,
        num_shards: usize,
        pairs: &[(u64, u64)],
        cfg: StoreConfig,
        fs: Arc<dyn Fs>,
    ) -> Self {
        Self::build_inner(backend, num_shards, pairs, cfg, Some(fs))
    }

    fn build_inner(
        backend: Backend,
        num_shards: usize,
        pairs: &[(u64, u64)],
        cfg: StoreConfig,
        fs: Option<Arc<dyn Fs>>,
    ) -> Self {
        assert!(
            num_shards.is_power_of_two(),
            "num_shards must be a power of two, got {num_shards}"
        );
        Self::validate(&cfg);
        let shard_bits = num_shards.trailing_zeros();
        let mut parts: Vec<Vec<(u64, u64)>> = (0..num_shards).map(|_| Vec::new()).collect();
        for &(k, v) in pairs {
            parts[shard_route(k, shard_bits)].push((k, v));
        }
        let mut live = 0usize;
        let parts: Vec<Vec<(u64, u64)>> = parts
            .into_iter()
            .map(|mut part| {
                // Stable sort keeps equal keys in input order; the
                // last occurrence of each key wins.
                part.sort_by_key(|&(k, _)| k);
                let mut dedup: Vec<(u64, u64)> = Vec::with_capacity(part.len());
                for &(k, v) in &part {
                    match dedup.last_mut() {
                        Some(last) if last.0 == k => last.1 = v,
                        _ => dedup.push((k, v)),
                    }
                }
                live += dedup.len();
                dedup
            })
            .collect();
        if let Some(fs) = &fs {
            // Meta + one seq-0 snapshot and empty WAL per shard; a
            // crash mid-init leaves no recoverable meta, i.e. no store.
            durable::init_store(&**fs, &parts)
                .unwrap_or_else(|e| panic!("initialize durable store: {e}"));
        }
        let shards = parts
            .iter()
            .map(|dedup| Shard {
                version: EpochCell::new(ShardVersion {
                    main: backend.build_shard(dedup),
                    delta: Delta::default(),
                }),
                write: Mutex::new(WriteState::default()),
                delta_space: Condvar::new(),
            })
            .collect();
        Self::assemble(shard_bits, cfg, shards, live, fs)
    }

    /// Reload the durable store in [`StoreConfig::wal_dir`]: per
    /// shard, the newest valid snapshot plus a replay of the WAL tail
    /// into the mid tier (a tail that is due for a major merge gets
    /// it at once). Torn or corrupt WAL tails are repaired (cleanly
    /// discarded), stale snapshots and temp files deleted. The shard
    /// count comes from the store's meta file, not from `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.wal_dir` is `None` or `cfg` is invalid.
    pub fn recover(backend: Backend, cfg: StoreConfig) -> io::Result<Self> {
        let dir = cfg.wal_dir.as_ref().expect("recover requires cfg.wal_dir");
        let fs: Arc<dyn Fs> = Arc::new(DiskFs::open(dir)?);
        Self::recover_with_fs(backend, cfg, fs)
    }

    /// [`recover`](Self::recover) from an injected [`Fs`] (tests
    /// recover from a [`isi_durable::MemFs`] crash image).
    pub fn recover_with_fs(
        backend: Backend,
        cfg: StoreConfig,
        fs: Arc<dyn Fs>,
    ) -> io::Result<Self> {
        Self::validate(&cfg);
        let num_shards = durable::read_meta(&*fs)? as usize;
        if !num_shards.is_power_of_two() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("store meta names {num_shards} shards (not a power of two)"),
            ));
        }
        let shard_bits = num_shards.trailing_zeros();
        let mut live = 0usize;
        let mut shards = Vec::with_capacity(num_shards);
        let mut refill = Vec::new();
        for si in 0..num_shards {
            let rec = durable::recover_shard(&*fs, si)?;
            // Replay the WAL tail in append order into one folded run
            // (records replay absolute upserts, later records win).
            // The log holds what the minor merges since the last
            // snapshot folded plus a residual, so the run is that
            // snapshot's mid tier again.
            let mut tail: Vec<(u64, Option<u64>)> = Vec::new();
            for record in &rec.tail {
                tail.extend_from_slice(&record.ops);
            }
            sort_lww(&mut tail);
            live += merged_len(&rec.pairs, &tail);
            if tail.len() >= major_len(cfg.merge_threshold, rec.pairs.len()) {
                refill.push(si);
            }
            shards.push(Shard {
                version: EpochCell::new(ShardVersion {
                    main: backend.build_shard(&rec.pairs),
                    delta: Delta::tiers(tail, Vec::new()),
                }),
                write: Mutex::new(WriteState {
                    wal_seq: rec.next_seq,
                    ..WriteState::default()
                }),
                delta_space: Condvar::new(),
            });
        }
        let store = Self::assemble(shard_bits, cfg, shards, live, Some(fs));
        // Shards whose replayed mid tier is already due for a major
        // merge get it now rather than a threshold of writes later.
        for si in refill {
            match store.inner.cfg.merge_mode {
                MergeMode::Background => {
                    let mut w = store.inner.shards[si].write.plock("shard write state");
                    store.inner.request_merge(si, &mut w);
                }
                MergeMode::Foreground => store.inner.merge_shard(si),
            }
        }
        Ok(store)
    }

    fn validate(cfg: &StoreConfig) {
        assert!(cfg.merge_threshold > 0, "merge_threshold must be positive");
        assert!(cfg.max_runs >= 1, "max_runs must be >= 1");
    }

    fn assemble(
        shard_bits: u32,
        cfg: StoreConfig,
        shards: Vec<Shard>,
        live: usize,
        fs: Option<Arc<dyn Fs>>,
    ) -> Self {
        let merge_mode = cfg.merge_mode;
        let obs = Obs::new("store", shards.len());
        // Coherent-snapshot registration order: the ≤ side of each
        // invariant first (wal_syncs ≤ wal_records, bg_merges and
        // major_merges ≤ merges); see the isi_obs registry docs.
        let durable = fs.map(|fs| {
            let wal_syncs = obs.registry().counter("store_wal_syncs", &[]);
            let wal_records = obs.registry().counter("store_wal_records", &[]);
            DurableState {
                fsync: cfg.fsync,
                fs,
                wal_records,
                wal_syncs,
            }
        });
        let merge_counters = (0..shards.len())
            .map(|si| {
                let shard = si.to_string();
                let labels = [("shard", shard.as_str())];
                let bg_merges = obs.registry().counter("store_bg_merges", &labels);
                let major_merges = obs.registry().counter("store_major_merges", &labels);
                let merges = obs.registry().counter("store_merges", &labels);
                let compactions = obs.registry().counter("store_compactions", &labels);
                let delta_runs = obs.registry().counter("store_delta_runs", &labels);
                MergeCounters {
                    merges,
                    bg_merges,
                    major_merges,
                    delta_runs,
                    compactions,
                }
            })
            .collect();
        let merger_failed = obs.registry().counter("store_merger_failed", &[]);
        let inner = Arc::new(StoreInner {
            shard_bits,
            cfg,
            shards,
            live: AtomicUsize::new(live),
            durable,
            merge_q: Mutex::new(MergeQueue::default()),
            merge_work: Condvar::new(),
            merge_done: Condvar::new(),
            obs,
            merge_counters,
            merger_failed,
        });
        let merger = (merge_mode == MergeMode::Background).then(|| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("isi-merger".into())
                .spawn(move || inner.merger_loop())
                .expect("spawn merger thread")
        });
        Self { inner, merger }
    }

    /// The tuning knobs the store was built with.
    pub fn config(&self) -> &StoreConfig {
        &self.inner.cfg
    }

    /// True when the store logs writes to a WAL (a
    /// [`StoreConfig::wal_dir`] or an injected [`Fs`]).
    pub fn is_durable(&self) -> bool {
        self.inner.durable.is_some()
    }

    /// Write-path durability counters: `(WAL records appended, WAL
    /// fsyncs issued)` since build. `(0, 0)` when durability is off —
    /// and under [`FsyncMode::Group`] the sync count per record is
    /// what group commit amortizes. Read through one coherent registry
    /// snapshot, so `syncs ≤ records` always (the old field-by-field
    /// reads could observe the sync of a record they hadn't counted).
    pub fn wal_stats(&self) -> (u64, u64) {
        if self.inner.durable.is_none() {
            return (0, 0);
        }
        let snap = self.inner.obs.snapshot();
        (
            snap.counter_sum("store_wal_records"),
            snap.counter_sum("store_wal_syncs"),
        )
    }

    /// The store's observability bundle: `store_*` metrics, per-shard
    /// stage histograms, and the store-side trace rings (merges, WAL
    /// syncs, delta backpressure).
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Number of live keys (pairs minus tombstoned keys).
    pub fn len(&self) -> usize {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// True if the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard that owns `key`.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        shard_route(key, self.inner.shard_bits)
    }

    /// Current delta entries above the mid tiers, across all shards
    /// (each `< merge_threshold` per shard once
    /// [`quiesce`](Self::quiesce)d).
    pub fn delta_len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.version.load().delta.len())
            .sum()
    }

    /// Current mid-tier entries across all shards: what minor merges
    /// have folded since each shard's last major merge (each below
    /// that shard's major-merge size once [`quiesce`](Self::quiesce)d).
    pub fn mid_len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.version.load().delta.mid_len())
            .sum()
    }

    /// Merges published since build, minor and major, across all
    /// shards (both modes).
    pub fn merges(&self) -> u64 {
        self.inner.obs.snapshot().counter_sum("store_merges")
    }

    /// Those of the [`merges`](Self::merges) that were major: rebuilt
    /// a shard's main, snapshotted it and truncated its WAL.
    pub fn major_merges(&self) -> u64 {
        self.inner.obs.snapshot().counter_sum("store_major_merges")
    }

    /// Merges performed by the background merger thread (≤
    /// [`merges`](Self::merges); the difference is foreground-mode
    /// inline merges).
    pub fn bg_merges(&self) -> u64 {
        self.inner.obs.snapshot().counter_sum("store_bg_merges")
    }

    /// Delta runs published by the write path since build, across all
    /// shards (one per effective shard sub-run of a write run).
    pub fn delta_runs(&self) -> u64 {
        self.inner.obs.snapshot().counter_sum("store_delta_runs")
    }

    /// Run-stack folds performed by the write path since build (≤
    /// [`delta_runs`](Self::delta_runs); each fold collapses a stack
    /// that exceeded [`StoreConfig::max_runs`] into one run).
    pub fn compactions(&self) -> u64 {
        self.inner.obs.snapshot().counter_sum("store_compactions")
    }

    /// Merge jobs queued or in flight right now (a point-in-time
    /// gauge; 0 once [`quiesce`](Self::quiesce)d).
    pub fn merge_backlog(&self) -> usize {
        let q = self.inner.merge_q.plock("merge queue");
        q.queue.len() + q.in_flight as usize
    }

    /// Merge wall-latency histogram (nanoseconds), across all shards
    /// (the union of the per-shard [`Stage::Merge`] histograms).
    pub fn merge_latency(&self) -> LatencyHist {
        let mut hist = LatencyHist::new();
        for si in 0..self.inner.shards.len() {
            hist.merge(&self.inner.obs.stage_hist(si, Stage::Merge));
        }
        hist
    }

    /// Version-swap count of `shard` (one per write, since every write
    /// publishes a new version; background merges add one more swap
    /// each when they publish).
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.inner.shards[shard].version.epoch()
    }

    /// Block until every queued merge job (including jobs enqueued by
    /// merges re-triggering themselves) has been published. Writers
    /// racing `quiesce` can enqueue more work; this waits for the
    /// queue observed drain, which is the fixpoint once writers stop.
    /// Returns immediately in foreground mode.
    ///
    /// # Panics
    /// Panics with "merger failed" if the merger thread has panicked:
    /// the queue will never drain.
    pub fn quiesce(&self) {
        let mut q = self.inner.merge_q.plock("merge queue");
        loop {
            if self.inner.merger_failed.get() > 0 {
                // Release first: a rejection poisons no lock.
                drop(q);
                panic!("merger failed: queued merges will never be published");
            }
            if q.queue.is_empty() && !q.in_flight {
                return;
            }
            q = self.inner.merge_done.pwait(q, "merge queue (drain)");
        }
    }

    /// Sequential point lookup — the oracle the batched path must
    /// agree with. Reads one consistent [`ShardVersion`] snapshot:
    /// delta override first, main otherwise.
    pub fn get(&self, key: u64) -> Option<u64> {
        let v = self.inner.shards[self.shard_of(key)].version.load();
        match v.delta.get(key) {
            Some(over) => over,
            None => v.main.get(key),
        }
    }

    /// Upsert `key = val`; returns the previously visible value
    /// (last-write-wins). May enqueue (background) or perform
    /// (foreground) a merge of the owning shard. A one-op
    /// [`apply_write_run`](Self::apply_write_run).
    pub fn put(&self, key: u64, val: u64) -> Option<u64> {
        let mut prevs = [None];
        self.write_shard_run(self.shard_of(key), &[(key, Some(val))], &[0], &mut prevs);
        prevs[0]
    }

    /// Remove `key`; returns the value it held, if any. A miss is a
    /// no-op (no tombstone is recorded for a key that is nowhere).
    pub fn remove(&self, key: u64) -> Option<u64> {
        let mut prevs = [None];
        self.write_shard_run(self.shard_of(key), &[(key, None)], &[0], &mut prevs);
        prevs[0]
    }

    /// Apply one dispatched **write run** — the group-commit unit.
    /// `ops[i]` is an upsert (`Some`) or remove (`None`); `prevs` is
    /// cleared and receives, per op, the value visible immediately
    /// before it (last-write-wins *within* the run, so a duplicate key
    /// sees its predecessor's value).
    ///
    /// Ops are grouped by owning shard (ops to different shards
    /// commute; per-shard admission order is preserved). Each shard's
    /// sub-run holds the write lock once, sorts its ops into **one**
    /// immutable delta run (last-write-wins within the run), appends
    /// **one** WAL record fsynced **once** ([`FsyncMode::Group`]) and
    /// publishes **one** new version — when
    /// this returns, every op in the run is durable and visible, so
    /// callers may acknowledge the whole run.
    ///
    /// Allocates per-shard grouping buffers; dispatch loops should
    /// prefer [`apply_write_run_with`](Self::apply_write_run_with)
    /// with a long-lived [`WriteScratch`].
    pub fn apply_write_run(&self, ops: &[(u64, Option<u64>)], prevs: &mut Vec<Option<u64>>) {
        self.apply_write_run_with(ops, prevs, &mut WriteScratch::default());
    }

    /// [`apply_write_run`](Self::apply_write_run), grouping ops by
    /// shard through a caller-held reusable [`WriteScratch`] so the
    /// steady-state dispatch path performs no grouping allocations.
    pub fn apply_write_run_with(
        &self,
        ops: &[(u64, Option<u64>)],
        prevs: &mut Vec<Option<u64>>,
        scratch: &mut WriteScratch,
    ) {
        prevs.clear();
        prevs.resize(ops.len(), None);
        match ops.len() {
            0 => return,
            1 => {
                self.write_shard_run(self.shard_of(ops[0].0), ops, &[0], prevs);
                return;
            }
            _ => {}
        }
        scratch.by_shard.resize_with(self.num_shards(), Vec::new);
        for bucket in &mut scratch.by_shard {
            bucket.clear();
        }
        for (i, &(key, _)) in ops.iter().enumerate() {
            scratch.by_shard[self.shard_of(key)].push(i);
        }
        for (si, idxs) in scratch.by_shard.iter().enumerate() {
            if !idxs.is_empty() {
                self.write_shard_run(si, ops, idxs, prevs);
            }
        }
    }

    /// The shared write path: apply `ops[idxs]` (all routed to `si`)
    /// to the shard's delta and publish one new version. At
    /// `merge_threshold` the run requests maintenance — a job for the
    /// background merger, or an inline merge in foreground mode. In
    /// background mode the run blocks only when the shard's delta has
    /// hit the hard bound ([`max_delta`]). With durability on, the run's
    /// WAL record is appended and fsynced *before* the publish.
    fn write_shard_run(
        &self,
        si: usize,
        ops: &[(u64, Option<u64>)],
        idxs: &[usize],
        prevs: &mut [Option<u64>],
    ) {
        let inner = &*self.inner;
        let shard = &inner.shards[si];
        let mut w = shard.write.plock("shard write state");
        if inner.cfg.merge_mode == MergeMode::Background {
            let bound = max_delta(inner.cfg.merge_threshold);
            // Hard bound: past it this shard's writers wait for
            // the merger (which takes this lock to pin and to publish,
            // but we release it while waiting on the condvar). A run
            // may overshoot the bound by its own length — bounded by
            // the dispatcher batch size.
            let t = SpanTimer::start();
            let mut waited = false;
            loop {
                if inner.merger_failed.get() > 0 {
                    // Release first: a rejection poisons no lock.
                    drop(w);
                    panic!("merger failed: shard {si} takes no more writes");
                }
                if shard.version.load().delta.len() < bound {
                    break;
                }
                waited = true;
                w = shard
                    .delta_space
                    .pwait(w, "shard write state (delta backpressure)");
            }
            if waited {
                let dur = t.elapsed_ns();
                inner.obs.record_stage(si, Stage::Backpressure, dur);
                inner
                    .obs
                    .trace()
                    .emit(si, TraceKind::Backpressure, t.start_ns(), dur, 1, 0);
            }
        }
        let cur = shard.version.load();
        // Build this sub-run as its own sorted run instead of cloning
        // the delta: O(run log run) per publish, independent of how
        // full the delta is (the old clone + per-op sorted insert was
        // ~delta²/2 entry copies per threshold fill).
        let mut run: Vec<(u64, Option<u64>)> = Vec::with_capacity(idxs.len());
        let mut live_delta = 0isize;
        for &i in idxs {
            let (key, val) = ops[i];
            // Within the pending run the latest op for the key wins;
            // runs are dispatcher-batch sized, so the backwards scan
            // is short.
            let pending = run.iter().rev().find(|e| e.0 == key).map(|e| e.1);
            let prev = match pending {
                Some(over) => over,
                None => match cur.delta.get(key) {
                    Some(over) => over,
                    None => cur.main.get(key),
                },
            };
            prevs[i] = prev;
            // Removing an invisible key needs no tombstone (and must
            // not grow the delta, or idempotent removes would force
            // merges) — and nothing to make durable either. If an
            // override exists it is already a tombstone (that is the
            // only way `prev` is `None` with an override present), so
            // the elision never loses a deletion.
            if val.is_none() && prev.is_none() {
                continue;
            }
            run.push((key, val));
            match (prev.is_some(), val.is_some()) {
                (false, true) => live_delta += 1,
                (true, false) => live_delta -= 1,
                _ => {}
            }
        }
        if run.is_empty() {
            return; // fully elided: no record, no epoch bump
        }
        // Last-write-wins within the run: stable sort keeps equal keys
        // in op order, dedup keeps the last.
        sort_lww(&mut run);
        // Ack ⇒ durable: the WAL record hits disk before the publish,
        // and the publish happens before any caller acknowledges.
        // Replay is absolute upserts, so logging the deduped run is
        // state-equivalent to logging every op.
        if let Some(d) = &inner.durable {
            w.wal_seq += 1;
            d.log_run(&inner.obs, si, w.wal_seq, &run);
        }
        let counters = &inner.merge_counters[si];
        let mut delta = cur.delta.share();
        delta.push_run(run.into());
        // `delta_runs` before `compactions` (the registry registers
        // compactions first), so compactions ≤ delta_runs in every
        // snapshot.
        counters.delta_runs.inc();
        // The fold starts above the mid tier and above what a merge
        // has pinned.
        let keep = delta.mid_runs() + w.pinned;
        if delta.runs.len() - keep > inner.cfg.max_runs {
            delta.fold_above(keep);
            counters.compactions.inc();
        }
        let crossed = delta.len() >= inner.cfg.merge_threshold;
        if crossed && inner.cfg.merge_mode == MergeMode::Foreground {
            // Inline merge of the stack this write completes: the
            // merger's routine, under the shard write lock throughout
            // (so only same-shard *writers* wait, and nothing lands
            // meanwhile: the residual is empty), published with the
            // write in one epoch swap.
            let t0 = SpanTimer::start();
            let folded = inner.fold_pinned(si, &cur.main, &delta, w.wal_seq, t0);
            inner.publish_merge(si, &mut w, &delta, &delta, folded, t0);
        } else {
            shard.version.store(Arc::new(ShardVersion {
                main: Arc::clone(&cur.main),
                delta,
            }));
            if crossed && !w.pending {
                inner.request_merge(si, &mut w);
            }
        }
        match live_delta.cmp(&0) {
            std::cmp::Ordering::Greater => {
                inner.live.fetch_add(live_delta as usize, Ordering::Relaxed);
            }
            std::cmp::Ordering::Less => {
                inner
                    .live
                    .fetch_sub(live_delta.unsigned_abs(), Ordering::Relaxed);
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Run a batch of lookups that all route to `shard`, scattering
    /// `out[i]` = lookup result of `keys[i]`.
    ///
    /// The whole batch reads **one** [`ShardVersion`] snapshot and is
    /// **planned** first (see [`crate::plan`]): keys the delta decides
    /// are answered from the sorted run, and only the residual reaches
    /// the morsel-parallel interleaved engine. A merge publishing
    /// mid-batch cannot produce torn results — this batch finishes on
    /// the version it started with.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()` or if some key does not
    /// route to `shard` (batch formation bug in the caller).
    pub fn lookup_batch(
        &self,
        shard: usize,
        keys: &[u64],
        policy: Interleave,
        par: ParConfig,
        scratch: &mut LookupScratch,
        out: &mut [Option<u64>],
    ) -> BatchOutcome {
        assert_eq!(keys.len(), out.len(), "output length mismatch");
        debug_assert!(
            keys.iter().all(|&k| self.shard_of(k) == shard),
            "batch contains keys routed to another shard"
        );
        let v = self.inner.shards[shard].version.load();
        let obs = &self.inner.obs;
        if v.delta.is_empty() {
            // Every key is residual: probe straight into `out` without
            // a scatter pass.
            let t = SpanTimer::start();
            let engine = v
                .main
                .probe_batch(keys, policy, par, &mut scratch.ranks, out);
            obs.record_stage(shard, Stage::Engine, t.elapsed_ns());
            return BatchOutcome {
                engine,
                delta_hits: 0,
                residual: keys.len() as u64,
            };
        }
        let t = SpanTimer::start();
        scratch.plan.resolve(&v.delta.runs, keys);
        for &(i, res) in &scratch.plan.decided {
            out[i as usize] = res;
        }
        obs.record_stage(shard, Stage::Plan, t.elapsed_ns());
        let residual = scratch.plan.residual();
        let engine = if residual == 0 {
            RunStats::default()
        } else {
            let t = SpanTimer::start();
            scratch.residual_out.clear();
            scratch.residual_out.resize(residual as usize, None);
            let engine = v.main.probe_batch(
                &scratch.plan.residual_keys,
                policy,
                par,
                &mut scratch.ranks,
                &mut scratch.residual_out,
            );
            for (&i, &r) in scratch
                .plan
                .residual_idx
                .iter()
                .zip(scratch.residual_out.iter())
            {
                out[i as usize] = r;
            }
            obs.record_stage(shard, Stage::Engine, t.elapsed_ns());
            engine
        };
        BatchOutcome {
            engine,
            delta_hits: scratch.plan.delta_hits(),
            residual,
        }
    }

    /// All live pairs of `shard` with `lo <= key <= hi`, in ascending
    /// key order: the backend's ordered scan merge-joined with the
    /// sorted delta run (overrides win, tombstones elide their keys).
    /// Reads one consistent [`ShardVersion`] snapshot; an inverted
    /// range returns nothing.
    pub fn scan_range(&self, shard: usize, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        let t = SpanTimer::start();
        let v = self.inner.shards[shard].version.load();
        let mut main = Vec::new();
        v.main.scan_range(lo, hi, &mut main);
        let out = if v.delta.is_empty() {
            main
        } else {
            // Fold the run-stack's [lo, hi] slices (newest wins) into
            // one sorted run, then merge-join with the backend scan.
            let d = v.delta.fold_range(lo, hi);
            if d.is_empty() {
                main
            } else {
                merge_pairs(&main, &d)
            }
        };
        self.inner
            .obs
            .record_stage(shard, Stage::RangeScan, t.elapsed_ns());
        out
    }

    /// All live pairs with `lo <= key <= hi` across every shard, in
    /// ascending key order. Each shard contributes one consistent
    /// snapshot; the cross-shard cut is not atomic (same contract as
    /// issuing one `get` per shard).
    pub fn get_range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for shard in 0..self.num_shards() {
            out.extend(self.scan_range(shard, lo, hi));
        }
        // Hash partitioning interleaves shard key sets arbitrarily, so
        // the per-shard sorted runs need one global reorder.
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        if let Some(handle) = self.merger.take() {
            {
                let mut q = self.inner.merge_q.plock("merge queue");
                q.shutdown = true;
                self.inner.merge_work.notify_all();
            }
            let joined = handle.join();
            // Re-raising the merger's panic while this thread already
            // unwinds would abort the process.
            if !std::thread::panicking() {
                joined.expect("merger thread panicked");
            }
        }
        // Clean-shutdown durability: flush every WAL so even
        // FsyncMode::Off loses nothing on an orderly exit (only on a
        // crash). Best effort — Drop must not panic.
        if let Some(d) = &self.inner.durable {
            for si in 0..self.inner.shards.len() {
                let _ = d.fs.sync(&durable::wal_name(si));
            }
            let _ = d.fs.sync_dir();
        }
    }
}

/// What the long half of a merge made of the stack it pinned (see
/// [`StoreInner::fold_pinned`]).
struct Folded {
    /// The shard's next main: the pinned version's own after a minor
    /// merge, the rebuilt one after a major.
    main: Arc<dyn ShardBackend>,
    /// The shard's next mid tier: the fold of the pinned stack after a
    /// minor merge, empty after a major one (it went into the main).
    mid: Vec<(u64, Option<u64>)>,
    /// A durable major merge's staged snapshot: the WAL sequence it
    /// covers and its temp file.
    staged: Option<(u64, String)>,
    major: bool,
}

/// Marks the store failed if the merger thread unwinds out of its loop
/// (a merge panicked: a snapshot on a full disk, say) and wakes
/// everyone who waits for a merge — [`ShardedStore::quiesce`] on
/// `merge_done`, writers at the hard bound on their shard's
/// `delta_space` — so that they panic instead of waiting for good.
struct FailClosed<'a>(&'a StoreInner);

impl Drop for FailClosed<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let inner = self.0;
        inner.merger_failed.inc();
        // This runs during an unwind, where a second panic would abort
        // the process, and it only fails the store closed — the right
        // end for a state the merge left mid-protocol too. So it
        // ignores poison (the exception `isi_core::sync` names). Each
        // lock is taken once before its condvar is notified: a waiter
        // that read the counter before the bump is parked by then.
        let mut q = inner.merge_q.lock().unwrap_or_else(PoisonError::into_inner);
        q.in_flight = false;
        drop(q);
        inner.merge_done.notify_all();
        for shard in &inner.shards {
            drop(shard.write.lock().unwrap_or_else(PoisonError::into_inner));
            shard.delta_space.notify_all();
        }
    }
}

impl StoreInner {
    /// Queue a merge of shard `si` for the background merger. Caller
    /// holds the shard's write lock (`w`) and knows no other job for
    /// the shard is queued: `pending` was clear, or the caller is the
    /// job.
    fn request_merge(&self, si: usize, w: &mut WriteState) {
        w.pending = true;
        let mut q = self.merge_q.plock("merge queue");
        q.queue.push_back(si);
        self.merge_work.notify_one();
    }

    /// The background merger: drain merge jobs until shutdown (then
    /// finish what is queued and exit). A merge that panics takes the
    /// thread with it; [`FailClosed`] then fails the store closed.
    fn merger_loop(&self) {
        let _fail_closed = FailClosed(self);
        loop {
            let si = {
                let mut q = self.merge_q.plock("merge queue");
                loop {
                    if let Some(si) = q.queue.pop_front() {
                        q.in_flight = true;
                        break si;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.merge_work.pwait(q, "merge queue (worker idle)");
                }
            };
            self.merge_shard(si);
            let mut q = self.merge_q.plock("merge queue");
            q.in_flight = false;
            self.merge_done.notify_all();
        }
    }

    /// One merge job for shard `si`: pin its stack, fold it off the
    /// write lock ([`fold_pinned`](Self::fold_pinned)), publish under
    /// it ([`publish_merge`](Self::publish_merge)) — the writes that
    /// landed meanwhile survive as the residual.
    fn merge_shard(&self, si: usize) {
        let shard = &self.shards[si];
        let t0 = SpanTimer::start();
        // Snapshot outside the write lock: the fold (and a major
        // merge's rebuild) is the long part, and writers must keep
        // landing in the delta meanwhile. The brief lock pins
        // (version, wal_seq) to a consistent cut — every record with
        // seq ≤ seq0 is reflected in v0 (records append and publish in
        // order under this lock), so a snapshot of v0 stamped seq0
        // over-covers nothing. Replay may *re*-apply a record that
        // raced in between the two loads; replay upserts are absolute,
        // so over-replay is idempotent.
        let (v0, seq0) = {
            let mut w = shard.write.plock("shard write state");
            let v0 = shard.version.load();
            w.pinned = v0.delta.runs.len() - v0.delta.mid_runs();
            (v0, w.wal_seq)
        };
        if v0.delta.is_empty() {
            let mut w = shard.write.plock("shard write state");
            w.pending = false;
            shard.delta_space.notify_all();
            return;
        }
        let folded = self.fold_pinned(si, &v0.main, &v0.delta, seq0, t0);
        let mut w = shard.write.plock("shard write state");
        let cur = shard.version.load();
        let residual_len = self.publish_merge(si, &mut w, &v0.delta, &cur.delta, folded, t0);
        if residual_len >= self.cfg.merge_threshold {
            // Still over threshold (writers were busy): merge again.
            // `pending` stays true to keep gating duplicate enqueues.
            self.request_merge(si, &mut w);
        } else {
            w.pending = false;
        }
        shard.delta_space.notify_all();
    }

    /// The long half of a merge of shard `si`, which needs no lock:
    /// fold the `pinned` stack (mid tier and runs) over `main` into
    /// the shard's next mid tier. That is a **minor merge**, and the
    /// whole of it, while the fold stays short of
    /// [`major_len`]; a fold that has reached it goes into the main
    /// instead, a **major merge**: rebuild the main with the fold
    /// applied (tombstones drop out here) and, with durability on,
    /// stage the result as the shard's next snapshot, covering WAL
    /// sequence `seq0`. The merger calls this off the write lock,
    /// the foreground write path under it.
    fn fold_pinned(
        &self,
        si: usize,
        main: &Arc<dyn ShardBackend>,
        pinned: &Delta,
        seq0: u64,
        t0: SpanTimer,
    ) -> Folded {
        let mid = pinned.fold();
        let major = mid.len() >= major_len(self.cfg.merge_threshold, main.len());
        self.obs.trace().emit(
            si,
            TraceKind::MergeStart,
            t0.start_ns(),
            0,
            pinned.len() as u64,
            major as u64,
        );
        if !major {
            return Folded {
                main: Arc::clone(main),
                mid,
                staged: None,
                major,
            };
        }
        let merged = merge_pairs(&main.pairs(), &mid);
        // The bulky snapshot serialization also runs outside the write
        // lock; only the single merger thread touches the temp file.
        let staged = self
            .durable
            .as_ref()
            .map(|d| (seq0, d.stage_snapshot(si, seq0, &merged)));
        Folded {
            main: main.rebuild(&merged),
            mid: Vec::new(),
            staged,
            major,
        }
    }

    /// The short half of a merge, under the shard's write lock (`w`):
    /// publish `folded` — what [`fold_pinned`](Self::fold_pinned) made
    /// of the `pinned` stack — with what `cur`, the stack as it stands
    /// now, holds beyond that on top. A minor merge touches nothing
    /// else; a durable major merge commits its snapshot and truncates
    /// the WAL down to the residual first. Returns the residual's
    /// length.
    fn publish_merge(
        &self,
        si: usize,
        w: &mut WriteState,
        pinned: &Delta,
        cur: &Delta,
        folded: Folded,
        t0: SpanTimer,
    ) -> usize {
        // Residual by **run identity**: a run of the current stack is
        // already reflected in the fold iff it is one of the runs the
        // merge pinned (runs are immutable and shared, so `Arc`
        // pointer equality decides membership). Runs pushed — or
        // compacted into fresh runs — meanwhile survive; their
        // overrides are the per-key newest, so re-applying any
        // pinned-era override they carry on top of the fold is
        // idempotent. The surviving runs fold into one residual run,
        // making the published count exact again.
        let residual: Vec<(u64, Option<u64>)> = Delta {
            runs: cur
                .runs
                .iter()
                .filter(|r| !pinned.runs.iter().any(|r0| Arc::ptr_eq(r, r0)))
                .cloned()
                .collect(),
            ..Delta::default()
        }
        .fold();
        if let (Some(d), Some((seq0, tmp))) = (&self.durable, &folded.staged) {
            // Snapshot first, truncate second — and the WAL rewrite
            // holds the residual at the *current* frontier, so a
            // crash+recover replays exactly it on top of the snapshot.
            d.commit_and_truncate(si, *seq0, tmp, w.wal_seq, &residual);
        }
        w.pinned = 0;
        let (mid_len, residual_len) = (folded.mid.len(), residual.len());
        self.shards[si].version.store(Arc::new(ShardVersion {
            main: folded.main,
            delta: Delta::tiers(folded.mid, residual),
        }));
        // `merges` before `bg_merges` and `major_merges`: with those
        // two registered first, every snapshot sees each ≤ merges.
        let counters = &self.merge_counters[si];
        counters.merges.inc();
        if self.cfg.merge_mode == MergeMode::Background {
            counters.bg_merges.inc();
        }
        if folded.major {
            counters.major_merges.inc();
        }
        let dur = t0.elapsed_ns();
        self.obs.record_stage(si, Stage::Merge, dur);
        self.obs.trace().emit(
            si,
            TraceKind::MergePublish,
            t0.start_ns(),
            dur,
            mid_len as u64,
            residual_len as u64,
        );
        residual_len
    }
}

/// The mid-tier length at which a shard's next merge is a major one.
/// Up to there every merge copies the mid, so a threshold's worth of
/// writes costs `mid` entries copied; a major merge costs the main's
/// `main_len` pairs once per `mid / merge_threshold` thresholds. The
/// two meet where `mid² = merge_threshold · main_len`: a shorter mid
/// would rebuild the main more often than the copying it saves is
/// worth, a longer one would copy more per threshold than its share
/// of a rebuild, and put a longer search in front of every read and a
/// longer replay in front of every recovery. Never below the
/// threshold: a mid of one merge's worth is the old merge-every-time.
fn major_len(merge_threshold: usize, main_len: usize) -> usize {
    merge_threshold.max(merge_threshold.saturating_mul(main_len).isqrt())
}

/// The hard bound on a shard's run stack above the mid tier in
/// [`MergeMode::Background`]: four thresholds, the room for bursts and
/// for the occasional major merge while the merger is busy. Foreground
/// mode has no use for it (the stack never outlives the triggering
/// write).
fn max_delta(merge_threshold: usize) -> usize {
    merge_threshold.saturating_mul(4)
}

/// Sort a freshly built override run by key and resolve duplicates
/// last-write-wins: the stable sort keeps equal keys in op order, the
/// in-place dedup keeps the last of each group. O(run log run).
fn sort_lww(run: &mut Vec<(u64, Option<u64>)>) {
    run.sort_by_key(|e| e.0);
    let mut w = 0;
    for r in 0..run.len() {
        if r + 1 == run.len() || run[r + 1].0 != run[r].0 {
            run[w] = run[r];
            w += 1;
        }
    }
    run.truncate(w);
}

/// Merge two strictly-sorted override runs into one, the `newer` run
/// winning every shared key (tombstones are overrides too and are
/// kept). The run-stack fold applies this pairwise, oldest to newest.
fn merge_overrides(
    newer: &[(u64, Option<u64>)],
    older: &[(u64, Option<u64>)],
) -> Vec<(u64, Option<u64>)> {
    let mut out = Vec::with_capacity(newer.len() + older.len());
    let (mut i, mut j) = (0, 0);
    while i < newer.len() && j < older.len() {
        match newer[i].0.cmp(&older[j].0) {
            std::cmp::Ordering::Less => {
                out.push(newer[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(older[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(newer[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&newer[i..]);
    out.extend_from_slice(&older[j..]);
    out
}

/// Merge-join a shard's sorted main pairs with its sorted delta run:
/// delta overrides win, tombstones drop the key. Both inputs are
/// strictly sorted by key; so is the output.
fn merge_pairs(main: &[(u64, u64)], delta: &[(u64, Option<u64>)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(main.len() + delta.len());
    let (mut i, mut j) = (0, 0);
    while i < main.len() && j < delta.len() {
        let (mk, mv) = main[i];
        let (dk, dv) = delta[j];
        if mk < dk {
            out.push((mk, mv));
            i += 1;
        } else {
            if let Some(v) = dv {
                out.push((dk, v));
            }
            j += 1;
            if mk == dk {
                i += 1;
            }
        }
    }
    out.extend_from_slice(&main[i..]);
    for &(k, v) in &delta[j..] {
        if let Some(v) = v {
            out.push((k, v));
        }
    }
    out
}

/// How many pairs [`merge_pairs`] would return, by the same walk and
/// without building them (recovery only needs the live count, and a
/// shard's pairs are tens of megabytes).
fn merged_len(main: &[(u64, u64)], delta: &[(u64, Option<u64>)]) -> usize {
    let mut len = main.len();
    let mut i = 0;
    for &(dk, dv) in delta {
        while i < main.len() && main[i].0 < dk {
            i += 1;
        }
        let stored = i < main.len() && main[i].0 == dk;
        match (stored, dv.is_some()) {
            (false, true) => len += 1,
            (true, false) => len -= 1,
            _ => {}
        }
    }
    len
}

/// Top-bits shard routing: shard = high `bits` bits of the Fibonacci
/// hash (0 when `bits == 0`).
#[inline]
fn shard_route(key: u64, bits: u32) -> usize {
    if bits == 0 {
        0
    } else {
        (key.hash64() >> (64 - bits)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::mpsc;

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i * 3, i + 1000)).collect()
    }

    /// Both merge modes, for tests whose invariants hold in each.
    const MODES: [MergeMode; 2] = [MergeMode::Background, MergeMode::Foreground];

    fn cfg(threshold: usize, mode: MergeMode) -> StoreConfig {
        let base = StoreConfig::with_threshold(threshold);
        match mode {
            MergeMode::Background => base,
            MergeMode::Foreground => base.foreground(),
        }
    }

    #[test]
    fn routing_covers_all_shards_and_is_stable() {
        let store = ShardedStore::build(Backend::Sorted, 4, &pairs(4096));
        let mut per_shard = [0usize; 4];
        for i in 0..4096u64 {
            let s = store.shard_of(i * 3);
            per_shard[s] += 1;
        }
        // Fibonacci hashing spreads uniformly: no shard is empty or
        // grossly overloaded on 4k keys.
        for (s, &n) in per_shard.iter().enumerate() {
            assert!(n > 512, "shard {s} underloaded: {n}");
        }
        assert_eq!(per_shard.iter().sum::<usize>(), 4096);
    }

    #[test]
    fn get_agrees_across_backends_and_shard_counts() {
        let data = pairs(2000);
        for backend in Backend::ALL {
            for shards in [1, 2, 4, 8] {
                let store = ShardedStore::build(backend, shards, &data);
                assert_eq!(store.len(), 2000);
                assert_eq!(store.num_shards(), shards);
                for probe in 0..3100u64 {
                    let expect = (probe % 3 == 0 && probe < 6000).then(|| probe / 3 + 1000);
                    assert_eq!(
                        store.get(probe),
                        expect,
                        "{}/{shards} probe={probe}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_lookup_matches_get() {
        let data = pairs(5000);
        let probes: Vec<u64> = (0..2500).map(|i| i * 7 % 16_000).collect();
        for backend in Backend::ALL {
            for shards in [1, 4] {
                let store = ShardedStore::build(backend, shards, &data);
                // Form per-shard batches exactly as the service does.
                let mut batches: Vec<Vec<u64>> = vec![Vec::new(); shards];
                for &p in &probes {
                    batches[store.shard_of(p)].push(p);
                }
                let mut scratch = LookupScratch::default();
                for (s, batch) in batches.iter().enumerate() {
                    let mut out = vec![None; batch.len()];
                    for policy in [Interleave::Sequential, Interleave::from_group(6)] {
                        let outcome = store.lookup_batch(
                            s,
                            batch,
                            policy,
                            ParConfig::with_threads(2),
                            &mut scratch,
                            &mut out,
                        );
                        // Read-only store: nothing is delta-decided.
                        assert_eq!(outcome.engine.lookups, batch.len() as u64);
                        assert_eq!(outcome.delta_hits, 0);
                        assert_eq!(outcome.residual, batch.len() as u64);
                        for (k, r) in batch.iter().zip(&out) {
                            assert_eq!(*r, store.get(*k), "{}/{shards}", backend.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_batch_skips_delta_decided_keys() {
        for backend in Backend::ALL {
            let store = ShardedStore::build_with(
                backend,
                1,
                &pairs(500),
                StoreConfig::with_threshold(1 << 20),
            );
            // Override / tombstone a slice of the probe space; these
            // keys must be answered by the plan, not the engine.
            for k in 0..40u64 {
                if k % 4 == 0 {
                    store.remove(k * 3);
                } else {
                    store.put(k * 3, 7_000 + k);
                }
            }
            let probes: Vec<u64> = (0..200u64).map(|i| i * 3).collect();
            let mut out = vec![None; probes.len()];
            let mut scratch = LookupScratch::default();
            let outcome = store.lookup_batch(
                0,
                &probes,
                Interleave::from_group(6),
                ParConfig::with_threads(1),
                &mut scratch,
                &mut out,
            );
            assert_eq!(outcome.delta_hits, 40, "{}", backend.name());
            assert_eq!(outcome.residual, 160);
            assert_eq!(outcome.engine.lookups, 160);
            for (&k, &r) in probes.iter().zip(&out) {
                assert_eq!(r, store.get(k), "{} key={k}", backend.name());
            }
        }
    }

    #[test]
    fn empty_store_and_empty_batches() {
        for backend in Backend::ALL {
            let store = ShardedStore::build(backend, 2, &[]);
            assert!(store.is_empty());
            assert_eq!(store.get(7), None);
            let mut out = vec![None; 2];
            // Keys must route to the queried shard; find two that do.
            let ks: Vec<u64> = (0..100)
                .filter(|&k| store.shard_of(k) == 0)
                .take(2)
                .collect();
            let mut scratch = LookupScratch::default();
            store.lookup_batch(
                0,
                &ks,
                Interleave::from_group(4),
                ParConfig::default(),
                &mut scratch,
                &mut out,
            );
            assert_eq!(out, [None, None]);
            let outcome = store.lookup_batch(
                1,
                &[],
                Interleave::Sequential,
                ParConfig::default(),
                &mut scratch,
                &mut out[..0],
            );
            assert_eq!(outcome.engine, RunStats::default());
            assert_eq!(store.get_range(0, u64::MAX), Vec::new());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_shards() {
        ShardedStore::build(Backend::Sorted, 3, &[]);
    }

    #[test]
    #[should_panic(expected = "merge_threshold must be positive")]
    fn rejects_zero_merge_threshold() {
        ShardedStore::build_with(Backend::Sorted, 1, &[], StoreConfig::with_threshold(0));
    }

    #[test]
    fn build_duplicates_resolve_last_write_wins() {
        for backend in Backend::ALL {
            let store = ShardedStore::build(
                backend,
                2,
                &[(5, 1), (9, 7), (5, 2), (5, 3), (11, 4), (9, 8)],
            );
            assert_eq!(store.len(), 3, "{}", backend.name());
            assert_eq!(store.get(5), Some(3));
            assert_eq!(store.get(9), Some(8));
            assert_eq!(store.get(11), Some(4));
        }
    }

    #[test]
    fn put_remove_agree_with_oracle_across_thresholds_and_modes() {
        // A deterministic mixed schedule over a small key space,
        // checked op-by-op against a HashMap, across all backends,
        // merge thresholds (including merge-every-write) and both
        // merge modes. Visible state never depends on merge timing.
        for backend in Backend::ALL {
            for threshold in [1usize, 4, 1 << 20] {
                for mode in MODES {
                    let store =
                        ShardedStore::build_with(backend, 2, &pairs(300), cfg(threshold, mode));
                    let mut oracle: HashMap<u64, u64> = pairs(300).into_iter().collect();
                    for i in 0..1200u64 {
                        let key = i * 17 % 1000;
                        let tag = format!("{}/t{threshold}/{mode:?} i={i}", backend.name());
                        match i % 5 {
                            0 | 1 => {
                                assert_eq!(store.put(key, i), oracle.insert(key, i), "{tag}");
                            }
                            2 => {
                                assert_eq!(store.remove(key), oracle.remove(&key), "{tag}");
                            }
                            _ => {
                                assert_eq!(store.get(key), oracle.get(&key).copied(), "{tag}");
                            }
                        }
                        assert_eq!(store.len(), oracle.len(), "{tag}");
                    }
                    // Once quiesced, every shard's residual delta is
                    // below the threshold.
                    store.quiesce();
                    assert!(store.delta_len() < threshold.max(1) * store.num_shards());
                    if threshold == 1 {
                        // Merge-every-write: the drained delta is
                        // empty. Foreground merges synchronously, so
                        // every effective write merged; background
                        // merges coalesce but must have run.
                        assert_eq!(store.delta_len(), 0);
                        match mode {
                            MergeMode::Foreground => {
                                assert!(store.merges() >= 480, "merges={}", store.merges());
                                assert_eq!(store.bg_merges(), 0);
                            }
                            MergeMode::Background => {
                                assert!(store.merges() >= 1);
                                assert_eq!(store.bg_merges(), store.merges());
                            }
                        }
                        assert_eq!(store.merge_latency().count(), store.merges());
                        assert_eq!(store.merge_backlog(), 0);
                    }
                    // Full scan agreement after the schedule.
                    for probe in 0..1000u64 {
                        assert_eq!(store.get(probe), oracle.get(&probe).copied());
                    }
                    let mut want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
                    want.sort_unstable();
                    assert_eq!(store.get_range(0, u64::MAX), want);
                }
            }
        }
    }

    #[test]
    fn batch_lookups_see_writes_and_tombstones() {
        for backend in Backend::ALL {
            let store =
                ShardedStore::build_with(backend, 2, &pairs(500), StoreConfig::with_threshold(64));
            store.put(0, 999); // overwrite
            store.put(7, 123); // fresh key (7 % 3 != 0)
            store.remove(3); // tombstone an existing key
            let probes: Vec<u64> = (0..600u64).collect();
            let mut batches: Vec<Vec<u64>> = vec![Vec::new(); 2];
            for &p in &probes {
                batches[store.shard_of(p)].push(p);
            }
            let mut scratch = LookupScratch::default();
            let mut delta_hits = 0;
            for (s, batch) in batches.iter().enumerate() {
                let mut out = vec![None; batch.len()];
                let outcome = store.lookup_batch(
                    s,
                    batch,
                    Interleave::from_group(6),
                    ParConfig::with_threads(1),
                    &mut scratch,
                    &mut out,
                );
                delta_hits += outcome.delta_hits;
                for (&k, &r) in batch.iter().zip(&out) {
                    assert_eq!(r, store.get(k), "{} key={k}", backend.name());
                }
            }
            // The three written keys are each probed exactly once and
            // decided by the plan, not the engine.
            assert_eq!(delta_hits, 3, "{}", backend.name());
            assert_eq!(store.get(0), Some(999));
            assert_eq!(store.get(7), Some(123));
            assert_eq!(store.get(3), None);
        }
    }

    #[test]
    fn scan_range_merges_delta_and_elides_tombstones() {
        for backend in Backend::ALL {
            for shards in [1usize, 4] {
                let store = ShardedStore::build_with(
                    backend,
                    shards,
                    &pairs(400),
                    StoreConfig::with_threshold(1 << 20),
                );
                let mut oracle: BTreeMap<u64, u64> = pairs(400).into_iter().collect();
                // Overrides, fresh keys and tombstones, delta-resident.
                for k in 0..120u64 {
                    match k % 3 {
                        0 => {
                            store.put(k * 2, 50_000 + k);
                            oracle.insert(k * 2, 50_000 + k);
                        }
                        1 => {
                            store.remove(k * 3);
                            oracle.remove(&(k * 3));
                        }
                        _ => {
                            store.put(100_000 + k, k);
                            oracle.insert(100_000 + k, k);
                        }
                    }
                }
                for (lo, hi) in [
                    (0u64, 0u64),
                    (0, 100),
                    (37, 613),
                    (99_990, 100_200),
                    (0, u64::MAX),
                    (500, 400),
                ] {
                    let want: Vec<(u64, u64)> = oracle
                        .range(lo..=hi.max(lo))
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    let want = if lo > hi { Vec::new() } else { want };
                    assert_eq!(
                        store.get_range(lo, hi),
                        want,
                        "{}/{shards} [{lo}, {hi}]",
                        backend.name()
                    );
                }
                // Per-shard scans partition the global range.
                let mut union: Vec<(u64, u64)> = (0..shards)
                    .flat_map(|s| store.scan_range(s, 0, u64::MAX))
                    .collect();
                union.sort_unstable();
                let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(union, want);
            }
        }
    }

    #[test]
    fn run_stack_folds_past_max_runs_and_preserves_overrides() {
        // max_runs 2, never merging: the 3rd push folds the stack into
        // one run. Overwrites and tombstones straddle run boundaries
        // and must resolve newest-run-first before and after the fold.
        let store = ShardedStore::build_with(
            Backend::Sorted,
            1,
            &pairs(10),
            StoreConfig::with_threshold(1 << 20)
                .with_max_runs(2)
                .foreground(),
        );
        assert_eq!(store.put(0, 1), Some(1000)); // run 1 overrides main
        assert_eq!(store.put(3, 2), Some(1001)); // run 2
        assert_eq!(store.delta_runs(), 2);
        assert_eq!(store.compactions(), 0);
        assert_eq!(store.delta_len(), 2);
        assert_eq!(store.remove(0), Some(1)); // run 3 → fold
        assert_eq!(store.delta_runs(), 3);
        assert_eq!(store.compactions(), 1);
        // Folded: one run, exact count (tombstones still count).
        assert_eq!(store.delta_len(), 2);
        assert_eq!(store.get(0), None);
        assert_eq!(store.get(3), Some(2));
        // A re-override after the fold double-counts until the next
        // fold collapses it back to the distinct-key count.
        assert_eq!(store.put(0, 9), None);
        assert_eq!(store.delta_len(), 3);
        assert_eq!(store.get(0), Some(9));
        assert_eq!(store.put(6, 7), Some(1002)); // 3rd run again → fold
        assert_eq!(store.compactions(), 2);
        assert_eq!(store.delta_len(), 3); // (0, 9), (3, 2), (6, 7)
        assert_eq!(store.get(0), Some(9));
        assert_eq!(store.get_range(0, 8), vec![(0, 9), (3, 2), (6, 7)]);
        assert_eq!(store.merges(), 0);
    }

    #[test]
    fn foreground_merges_swap_epochs_and_drain_the_delta() {
        // Foreground mode keeps the old deterministic accounting:
        // every write swaps the version, every 8th write merges
        // inline.
        let store = ShardedStore::build_with(
            Backend::Csb,
            1,
            &pairs(100),
            StoreConfig::with_threshold(8).foreground(),
        );
        assert_eq!(store.shard_epoch(0), 0);
        for i in 0..64u64 {
            store.put(10_000 + i, i);
        }
        assert_eq!(store.shard_epoch(0), 64);
        assert_eq!(store.merges(), 8);
        assert_eq!(store.bg_merges(), 0);
        assert_eq!(store.delta_len(), 0);
        assert_eq!(store.len(), 164);
        for i in 0..64u64 {
            assert_eq!(store.get(10_000 + i), Some(i));
        }
    }

    #[test]
    fn background_merges_run_off_the_write_path_and_drain() {
        let store =
            ShardedStore::build_with(Backend::Csb, 1, &pairs(100), StoreConfig::with_threshold(8));
        for i in 0..64u64 {
            store.put(10_000 + i, i);
        }
        store.quiesce();
        // Coalescing makes the exact count timing-dependent, but the
        // merger must have run, drained the delta below the threshold,
        // and left every write visible.
        assert!(store.merges() >= 1);
        assert_eq!(store.bg_merges(), store.merges());
        assert!(store.delta_len() < 8, "delta={}", store.delta_len());
        assert_eq!(store.merge_backlog(), 0);
        assert_eq!(store.len(), 164);
        for i in 0..64u64 {
            assert_eq!(store.get(10_000 + i), Some(i));
        }
    }

    /// An [`Fs`] whose first write of a snapshot temp file, once
    /// armed, reports in and then waits to be let go: the major merge
    /// that staged it stays in flight, rebuilt but unpublished, for as
    /// long as the test likes.
    struct GateFs<F = durable::MemFs> {
        fs: F,
        gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
    }

    impl<F: Fs> Fs for GateFs<F> {
        fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
            self.fs.append(name, data)
        }
        fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
            if name == durable::snap_tmp_name(0) {
                if let Some((entered, release)) = self.gate.plock("gate").take() {
                    // A test that has failed meanwhile has dropped
                    // its ends: carry on, so that it can join us.
                    let _ = entered.send(());
                    let _ = release.recv();
                }
            }
            self.fs.write_all(name, data)
        }
        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            self.fs.read(name)
        }
        fn sync(&self, name: &str) -> io::Result<()> {
            self.fs.sync(name)
        }
        fn rename(&self, from: &str, to: &str) -> io::Result<()> {
            self.fs.rename(from, to)
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            self.fs.remove(name)
        }
        fn list(&self) -> io::Result<Vec<String>> {
            self.fs.list()
        }
        fn sync_dir(&self) -> io::Result<()> {
            self.fs.sync_dir()
        }
    }

    #[test]
    fn a_merge_drains_what_it_pinned_though_the_write_path_folds_meanwhile() {
        // Threshold 8 over a main of 8, so that the first merge is
        // already a major one; max_runs 2. Eight writes start it, and
        // the gate holds it between rebuild and publish; six more writes
        // land meanwhile, each its own run, so the write path folds
        // twice. The folds must leave the pinned runs alone:
        // the publish then drops exactly those eight entries, the six
        // newer ones are the residual, and no second merge is due. A
        // fold across the cut hands the merge back everything it has
        // just merged (residual 14, merge again).
        let fs = Arc::new(GateFs {
            fs: durable::MemFs::new(),
            gate: Mutex::new(None),
        });
        let store = ShardedStore::build_with_fs(
            Backend::Sorted,
            1,
            &pairs(8),
            StoreConfig::with_threshold(8).with_max_runs(2),
            Arc::clone(&fs) as Arc<dyn Fs>,
        );
        // Declared after the store, so dropped before it: should an
        // assertion fail, the merger is let go before the store joins it.
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *fs.gate.plock("gate") = Some((entered_tx, release_rx));
        for i in 0..8u64 {
            store.put(10_000 + i, i);
        }
        entered.recv().expect("the merge stages its snapshot");
        let folds = store.compactions();
        for i in 8..14u64 {
            store.put(10_000 + i, i);
        }
        assert_eq!(store.compactions() - folds, 2, "six runs above the cut");
        assert_eq!(store.delta_len(), 14);
        release.send(()).expect("merger is waiting");
        store.quiesce();
        assert_eq!((store.merges(), store.major_merges()), (1, 1));
        assert_eq!((store.delta_len(), store.mid_len()), (6, 0));
        for i in 0..14u64 {
            assert_eq!(store.get(10_000 + i), Some(i));
        }
        // What is on disk agrees: snapshot of the eight, log of the six.
        drop(store);
        let recovered = ShardedStore::recover_with_fs(
            Backend::Sorted,
            StoreConfig::with_threshold(8),
            fs as Arc<dyn Fs>,
        )
        .expect("recover");
        assert_eq!(recovered.len(), 22);
        for i in 0..14u64 {
            assert_eq!(recovered.get(10_000 + i), Some(i));
        }
    }

    /// The shard's main and, if it has one, its mid tier.
    fn tiers(store: &ShardedStore, si: usize) -> (Arc<dyn ShardBackend>, Option<DeltaRun>) {
        let v = store.inner.shards[si].version.load();
        (
            Arc::clone(&v.main),
            v.delta.mid.then(|| Arc::clone(&v.delta.runs[0])),
        )
    }

    #[test]
    fn minor_merges_keep_the_main_and_a_major_merge_empties_the_mid() {
        // Threshold 4 over a main of 64: the mid is due at √(4·64) =
        // 16 entries, so of every four merges three are minor — same
        // main, by identity, a longer mid — and the fourth rebuilds
        // the main and leaves no mid. Tombstones of stored keys sit in
        // the mid until then, hide the main's pairs, and are gone with
        // the rebuild.
        for mode in MODES {
            let store = ShardedStore::build_with(Backend::Csb, 1, &pairs(64), cfg(4, mode));
            let (main0, mid0) = tiers(&store, 0);
            assert!(mid0.is_none());
            let mut writes = 0u64;
            for round in 1..=3u64 {
                store.remove(round * 3); // stored: 1000 + round
                for i in 0..3u64 {
                    store.put(10_000 + round * 4 + i, i);
                }
                writes += 4;
                store.quiesce();
                let (main, mid) = tiers(&store, 0);
                assert!(
                    Arc::ptr_eq(&main, &main0),
                    "{mode:?}: merge {round} rebuilt"
                );
                assert_eq!(mid.map(|m| m.len()), Some(4 * round as usize));
                assert_eq!((store.merges(), store.major_merges()), (round, 0));
                assert_eq!(
                    (store.delta_len(), store.mid_len()),
                    (0, 4 * round as usize)
                );
                assert_eq!(store.get(round * 3), None, "tombstone in the mid");
                assert_eq!(store.len(), 64 + 2 * round as usize);
            }
            for i in 0..4u64 {
                store.put(20_000 + i, i);
            }
            writes += 4;
            store.quiesce();
            let (main, mid) = tiers(&store, 0);
            assert!(!Arc::ptr_eq(&main, &main0), "{mode:?}: the mid was due");
            assert!(mid.is_none());
            assert_eq!((store.merges(), store.major_merges()), (4, 1));
            assert_eq!((store.delta_len(), store.mid_len()), (0, 0));
            // The tombstones went into the rebuild, not past it.
            assert_eq!(main.len(), 64 + 16 - 2 * 3);
            assert_eq!(store.len(), main.len());
            for round in 1..=3u64 {
                assert_eq!(store.get(round * 3), None);
                assert_eq!(store.get(10_000 + round * 4), Some(0));
            }
            // However long it goes on, a major merge takes a full mid:
            // at least `major_len` writes each.
            for i in 0..400u64 {
                store.put(30_000 + i, i);
                writes += 1;
            }
            store.quiesce();
            let cap = major_len(4, 64) as u64;
            assert_eq!(cap, 16);
            assert!(store.major_merges() >= 2, "{mode:?}");
            assert!(
                store.major_merges() <= writes / cap + 1,
                "{mode:?}: {} major merges in {writes} writes",
                store.major_merges()
            );
            assert!(store.merges() > store.major_merges());
            assert_eq!(store.merge_latency().count(), store.merges());
            assert_eq!(store.len(), main.len() + 400);
        }
    }

    #[test]
    fn the_write_path_fold_never_takes_the_mid_along() {
        // Threshold 8 over a main of 1024 (mid due at 90), max_runs 2:
        // one minor merge makes a mid of 8, then every third write
        // folds the runs above it. The mid stays the run it was — the
        // same allocation — so what a fold costs does not grow with
        // it; a fold from the bottom of the stack would copy it every
        // third write.
        let store = ShardedStore::build_with(
            Backend::Sorted,
            1,
            &pairs(1024),
            StoreConfig::with_threshold(8).with_max_runs(2).foreground(),
        );
        for i in 0..8u64 {
            store.put(10_000 + i, i);
        }
        assert_eq!((store.merges(), store.mid_len()), (1, 8));
        let mid = tiers(&store, 0).1.expect("a mid tier");
        let folds = store.compactions();
        for i in 0..7u64 {
            store.put(20_000 + i, i);
            let now = tiers(&store, 0).1.expect("still a mid tier");
            assert!(Arc::ptr_eq(&now, &mid), "write {i} replaced the mid");
        }
        assert_eq!(store.compactions() - folds, 3);
        assert_eq!((store.delta_len(), store.mid_len()), (7, 8));
        assert_eq!(store.merges(), 1);
        // The next write completes a threshold, and the merge folds
        // all of it into a new mid.
        store.put(20_007, 7);
        assert_eq!((store.merges(), store.major_merges()), (2, 0));
        assert_eq!((store.delta_len(), store.mid_len()), (0, 16));
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&str>()
                .map_or_else(|_| "?".into(), |s| (*s).into()),
        }
    }

    #[test]
    fn a_panicking_merger_fails_the_store_closed() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::time::Duration;
        // Threshold 4 over a main of 4 (every merge is major), room
        // for 16. Four writes start a merge, which the gate holds at
        // its snapshot; twelve more fill the delta, so a 17th write
        // parks on `delta_space` and a `quiesce` on `merge_done`. Then
        // the disk fills up and the gate opens: the snapshot write
        // fails, the merger panics — and both waiters must come back,
        // panicking, instead of waiting for a publish that will never
        // happen.
        let fs = Arc::new(GateFs {
            fs: durable::FaultFs::new(durable::FaultPlan::default()),
            gate: Mutex::new(None),
        });
        let store = Arc::new(ShardedStore::build_with_fs(
            Backend::Sorted,
            1,
            &pairs(4),
            StoreConfig::with_threshold(4),
            Arc::clone(&fs) as Arc<dyn Fs>,
        ));
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        *fs.gate.plock("gate") = Some((entered_tx, release_rx));
        for i in 0..4u64 {
            store.put(10_000 + i, i);
        }
        entered.recv().expect("the merge stages its snapshot");
        for i in 4..16u64 {
            store.put(10_000 + i, i);
        }
        assert_eq!(store.delta_len(), max_delta(4));
        let (done_tx, done) = mpsc::channel();
        for waiter in ["put", "quiesce"] {
            let (store, done_tx) = (Arc::clone(&store), done_tx.clone());
            std::thread::spawn(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| match waiter {
                    "put" => drop(store.put(10_016, 16)),
                    _ => store.quiesce(),
                }));
                // Before reporting in: the test takes the store back.
                drop(store);
                let _ = done_tx.send((waiter, outcome.map_err(panic_message)));
            });
        }
        fs.fs.fill_disk();
        release.send(()).expect("merger is waiting");
        for _ in 0..2 {
            let (waiter, outcome) = done
                .recv_timeout(Duration::from_secs(30))
                .expect("a waiter hung on the dead merger");
            let msg = outcome.expect_err("nothing was merged");
            assert!(msg.contains("merger failed"), "{waiter}: {msg}");
        }
        assert_eq!(store.obs().snapshot().counter_sum("store_merger_failed"), 1);
        // Failed is for good: later callers are turned away at once,
        // and the lock they were turned away under is not poisoned.
        for _ in 0..2 {
            let msg = catch_unwind(AssertUnwindSafe(|| store.put(1, 1)))
                .map_err(panic_message)
                .expect_err("write on a failed store");
            assert!(msg.contains("merger failed"), "{msg}");
        }
        assert_eq!(store.get(10_015), Some(15), "reads go on");
        // Dropping the store reports the merger's panic (and would not
        // while already unwinding).
        let store = Arc::try_unwrap(store).unwrap_or_else(|_| panic!("waiters are done"));
        let msg = catch_unwind(AssertUnwindSafe(|| drop(store)))
            .map_err(panic_message)
            .expect_err("the merger's panic is re-raised");
        assert!(msg.contains("merger thread panicked"), "{msg}");
    }

    #[test]
    fn writers_block_at_max_delta_but_make_progress() {
        // Tiny threshold, so a hard bound of 8: concurrent writers
        // must hit that wall constantly and still complete with the
        // right final state (the merger keeps draining under them).
        let store = ShardedStore::build_with(
            Backend::Sorted,
            1,
            &pairs(50),
            StoreConfig::with_threshold(2),
        );
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..150u64 {
                        store.put(20_000 + t * 1000 + i, i);
                    }
                });
            }
        });
        store.quiesce();
        assert!(store.delta_len() < 2);
        assert_eq!(store.len(), 350);
        for t in 0..2u64 {
            for i in 0..150u64 {
                assert_eq!(store.get(20_000 + t * 1000 + i), Some(i));
            }
        }
    }

    #[test]
    fn concurrent_reads_during_merges_are_consistent() {
        // A writer bumps one key through merge-every-write while
        // readers hammer point gets and batch lookups. Reads must be
        // monotone for the hot key (versions publish in order) and
        // rock-stable for an untouched key — across merges, never torn.
        // Background mode adds the merger thread as a second publisher
        // racing the writer.
        const N: u64 = 300;
        for backend in Backend::ALL {
            for mode in MODES {
                let store =
                    ShardedStore::build_with(backend, 1, &[(2, 1_000_000), (4, 42)], cfg(1, mode));
                std::thread::scope(|scope| {
                    let writer = scope.spawn(|| {
                        for v in 1_000_001..=1_000_000 + N {
                            store.put(2, v);
                        }
                    });
                    for _ in 0..2 {
                        scope.spawn(|| {
                            let mut scratch = LookupScratch::default();
                            let mut out = [None, None];
                            let mut last = 1_000_000u64;
                            while last < 1_000_000 + N {
                                let got = store.get(2).expect("hot key must always exist");
                                assert!(got >= last, "hot key went backwards: {got} < {last}");
                                last = got;
                                store.lookup_batch(
                                    0,
                                    &[2, 4],
                                    Interleave::from_group(4),
                                    ParConfig::with_threads(1),
                                    &mut scratch,
                                    &mut out,
                                );
                                let batch_hot = out[0].expect("hot key must always exist");
                                assert!(batch_hot >= last, "batch read went backwards");
                                assert_eq!(out[1], Some(42), "cold key must never move");
                                last = last.max(batch_hot);
                            }
                        });
                    }
                    writer.join().unwrap();
                });
                store.quiesce();
                assert_eq!(store.get(2), Some(1_000_000 + N));
                match mode {
                    MergeMode::Foreground => {
                        assert_eq!(store.merges(), N, "{}", backend.name());
                    }
                    MergeMode::Background => {
                        assert!(store.merges() >= 1, "{}", backend.name());
                        assert_eq!(store.delta_len(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn scans_race_background_merges_without_tearing() {
        // A writer churns keys ≥ 10_000 through constant background
        // merges; scans over the untouched region must return exactly
        // the static pairs every time, and full-range scans must stay
        // sorted and duplicate-free (one consistent snapshot per
        // shard).
        let base = pairs(200); // keys 0..600
        let store =
            ShardedStore::build_with(Backend::Sorted, 2, &base, StoreConfig::with_threshold(1));
        let want_static: Vec<(u64, u64)> = base.clone();
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..300u64 {
                    store.put(10_000 + (i % 40), i);
                }
                done.store(1, Ordering::Release);
            });
            scope.spawn(|| {
                while done.load(Ordering::Acquire) == 0 {
                    assert_eq!(store.get_range(0, 599), want_static);
                    let all = store.get_range(0, u64::MAX);
                    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "unsorted or dup");
                }
            });
        });
        store.quiesce();
        let all = store.get_range(0, u64::MAX);
        assert_eq!(all.len(), 240);
    }
}
