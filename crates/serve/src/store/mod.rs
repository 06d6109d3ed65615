//! [`ShardedStore`]: a writable, hash-partitioned key/value store
//! whose shards are served by the index drivers behind [`Main`].
//!
//! Each shard is a **Main/Delta pair**, the columnstore resolution of
//! the read-optimized vs write-optimized tension:
//!
//! * the **main** is an immutable [`Main`] — a **sorted
//!   column** ([`isi_search::SortedShard`]), a **CSB+-tree**
//!   ([`isi_csb::CsbShard`], Listing 6 traversal coroutines), or a
//!   **chained hash table** ([`isi_hash::HashShard`], Section 6 probe
//!   coroutines) — probed in bulk through the interleaved engine, one
//!   scheduler run per batch on the thread that runs the shard;
//! * the **delta** is a **stack of immutable sorted runs** of
//!   `(key, Option<value>)` overrides (`None` = tombstone) with
//!   last-write-wins semantics — each write run is sorted once and
//!   pushed as one shared run, reads resolve newest-run-first, and
//!   the runs above the bottom one (the mid tier, below) fold into a
//!   single run past [`StoreConfig::max_runs`].
//!
//! **Reads are planned.** A batch is first resolved against the delta
//! into a [`BatchPlan`]: delta-decided keys
//! never reach the engine, so the engine always runs a dense batch of
//! genuinely memory-bound probes (see [`crate::plan`]).
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
//! `Main::pairs`, no rebuild, no file-system call (the WAL
//! keeps its records). Only when the folded mid has reached
//! `major_len` (a size worked out from the threshold and the main's
//! length), or the shard's WAL has logged twice that many ops since
//! it was last cut, does the same job go on to a **major merge**:
//! rebuild the main (via `Main::rebuild`) with the mid folded in and its
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
//! always see a *consistent* main+delta pair, and monitoring a
//! consistent set of counts: an in-flight dispatch
//! batch keeps reading the version it started on while a merge
//! publishes the next one, and a merge can never tear a read (the
//! swap is a single pointer store). The merger is the only place a
//! merge runs: a write never absorbs one, and tests that need a
//! deterministic order of merges (the kill-at-every-fs-op crash matrix)
//! [`quiesce`](ShardedStore::quiesce) after each write.
//!
//! Shard routing uses the *top* bits of the key's Fibonacci hash. The
//! hash-table backend buckets on bits 32 and up of the same hash
//! (`(hash64 >> 32) & mask`), so the two partitions stay independent
//! as long as a shard's bucket count stays below
//! 2^(32 − shard_bits); sharing bits with the bucket index would
//! leave every shard's table using only a fraction of its buckets.
//!
//! This file is the store's read and write paths. Around it: `config`
//! (what a store is built with), `delta` (the run stack, which alone
//! sees its fields), `wal` (logging, snapshots, recovery) and `merge`
//! (the merger's queue, thread and merge routine).

mod config;
mod delta;
mod merge;
#[cfg(test)]
mod tests;
mod wal;

use std::ops::Add;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use isi_core::epoch::EpochCell;
use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;
use isi_core::stats::LatencyHist;
use isi_core::sync::{CondvarExt, MutexExt};
use isi_durable::{self as durable, DiskFs, Fs};
use isi_hash::HashKey;
use isi_obs::{now_ns, Obs, SpanTimer, Stage, TraceKind};

use crate::plan::BatchPlan;
use crate::service::ServeStats;

pub use config::{Backend, Main, StoreConfig};
use delta::{sort_lww, Delta};
use merge::{max_delta, wal_bound, MergeQueue};
use wal::DurableState;

/// One published, immutable version of a shard: the main index, the
/// delta overlay that has accumulated on top of it, and the counts of
/// what made them. Readers snapshot the whole of it atomically through
/// the shard's [`EpochCell`].
struct ShardVersion {
    /// Shared with successor versions until a merge replaces it.
    main: Arc<Main>,
    delta: Delta,
    counts: Counts,
}

/// What a shard has done since build. Each publish, under the shard's
/// write lock, carries its version's counts into the next one and
/// bumps them there, so a read that loads one version sees both sides
/// of every invariant at once: `compactions ≤ delta_runs`,
/// `major_merges ≤ merges`. Monitoring sums them over the shards
/// ([`ShardedStore::counts`]) without taking a write lock. Merge wall latency, minor and major alike, lands in the
/// shard's [`Stage::Merge`] histogram instead.
#[derive(Clone, Copy, Default)]
struct Counts {
    /// Live keys: pairs minus tombstoned keys.
    live: u64,
    /// Delta runs published by the write path (one per effective
    /// shard sub-run).
    delta_runs: u64,
    /// Run-stack folds the write path performed past
    /// [`StoreConfig::max_runs`] (each needs a run published first).
    compactions: u64,
    /// Merges published, of either kind.
    merges: u64,
    /// Those of them that rebuilt the main.
    major_merges: u64,
    /// WAL records appended by the write path, each synced before
    /// the version that counts it is published.
    wal_records: u64,
}

impl Add for Counts {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            live: self.live + o.live,
            delta_runs: self.delta_runs + o.delta_runs,
            compactions: self.compactions + o.compactions,
            merges: self.merges + o.merges,
            major_merges: self.major_merges + o.major_merges,
            wal_records: self.wal_records + o.wal_records,
        }
    }
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
    /// Ops in the shard's WAL since its last rewrite: the replayed
    /// tail's after recovery, a major merge's residual's after it, one
    /// more per op logged. At [`wal_bound`] the next merge is major,
    /// so a WAL of overwrites to a few hot keys, which never grow the
    /// mid tier to its major size, is still cut.
    wal_ops: usize,
}

struct Shard {
    version: EpochCell<ShardVersion>,
    /// Serializes writers to this shard.
    write: Mutex<WriteState>,
    /// Writers blocked at the hard bound ([`max_delta`]) wait here;
    /// the merger notifies after publishing a drained version.
    delta_space: Condvar,
}

/// State shared between the store handle and its merger thread.
struct StoreInner {
    shard_bits: u32,
    cfg: StoreConfig,
    shards: Vec<Shard>,
    /// `Some` when the store logs to a WAL directory (or injected fs).
    durable: Option<DurableState>,
    merge_q: Mutex<MergeQueue>,
    /// Merger waits here for jobs.
    merge_work: Condvar,
    /// [`ShardedStore::quiesce`] waits here for the queue to drain.
    merge_done: Condvar,
    /// Store-side observability: per-shard stage histograms
    /// (plan/engine/WAL/merge/backpressure) and trace rings.
    /// Cumulative for the store's lifetime.
    obs: Obs,
    /// Set once the merger thread has panicked: no merge will run
    /// again, so the store takes no more writes (see
    /// [`StoreInner::merger_loop`]). It is set while the merger
    /// unwinds, outside every lock, and the locks taken after it order
    /// it for their waiters.
    merger_failed: AtomicBool,
}

/// Reusable scratch for [`ShardedStore::lookup_batch`]: rank space for
/// the sorted backend, the batch plan's buffers, and the residual
/// result staging area. Keeping one per shard's executor token means
/// a batch allocates nothing per key: an interleaved engine run
/// allocates its frame slab once, and a one-key batch allocates
/// nothing in the engine.
#[derive(Default)]
pub struct LookupScratch {
    ranks: Vec<u32>,
    plan: BatchPlan,
    residual_out: Vec<Option<u64>>,
}

/// Reusable scratch for [`ShardedStore::apply_write_run_with`]: the
/// per-shard op-index buckets a multi-op run is grouped into. Keeping
/// one per shard's executor token makes steady-state write runs
/// allocation-free outside the run publish itself.
#[derive(Default)]
pub struct WriteScratch {
    by_shard: Vec<Vec<usize>>,
}

/// What one planned batch did: engine counters for the residual run,
/// plus how the plan split the batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Merged interleaved-engine counters for the residual probe run;
    /// `engine.lookups` is the keys that reached the engine.
    pub engine: RunStats,
    /// Keys the delta decided without touching the engine.
    pub delta_hits: u64,
}

/// A writable key/value store hash-partitioned into power-of-two
/// shards, each shard a [`Main`]/Delta pair.
///
/// Point reads and batch lookups take `&self` and never
/// block behind writes or merges; `put`/`remove` also take `&self`
/// (interior mutability), serialize per shard, and block only when a
/// shard's delta is four thresholds deep.
pub struct ShardedStore {
    inner: Arc<StoreInner>,
    /// The merger thread. `Drop` takes it to join it, after the queue
    /// drains: the only time this is `None`.
    merger: Option<JoinHandle<()>>,
}

impl ShardedStore {
    /// Build with the default [`StoreConfig`].
    ///
    /// Duplicate keys in `pairs` resolve **last-write-wins** (the
    /// later pair in slice order supersedes the earlier), matching the
    /// upsert path.
    ///
    /// The build makes two passes over `pairs`: one counts each
    /// shard's pairs, one pushes every pair into its shard's main,
    /// which was reserved at that count. So on strictly ascending
    /// input the build holds **`pairs` plus the finished mains** and
    /// nothing else the size of the data; any other input is first
    /// copied once and sorted, which adds one more `pairs`-sized
    /// buffer while the mains are built.
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
        let route = |k: u64| shard_route(k, shard_bits);
        let (mut lens, ascending) = count_routed(pairs, num_shards, route);
        // Input out of order, or with a key repeated, is copied once
        // and normalised; then the counts are redone. From here on one
        // path runs, over strictly ascending pairs.
        let normalised;
        let pairs = if ascending {
            pairs
        } else {
            let mut run = pairs.to_vec();
            sort_lww(&mut run);
            normalised = run;
            lens = count_routed(&normalised, num_shards, route).0;
            &normalised[..]
        };
        if let Some(fs) = &fs {
            // Meta + one seq-0 snapshot and empty WAL per shard; a
            // crash mid-init leaves no recoverable meta, i.e. no store.
            durable::wal::init_store(&**fs, &lens, pairs, route)
                .unwrap_or_else(|e| panic!("initialize durable store: {e}"));
        }
        let shards = backend
            .build_mains(&lens, pairs, route)
            .into_iter()
            .map(|main| Shard {
                version: EpochCell::new(ShardVersion {
                    counts: Counts {
                        live: main.len() as u64,
                        ..Counts::default()
                    },
                    main: Arc::new(main),
                    delta: Delta::default(),
                }),
                write: Mutex::new(WriteState::default()),
                delta_space: Condvar::new(),
            })
            .collect();
        Self::assemble(shard_bits, cfg, shards, fs)
    }

    fn validate(cfg: &StoreConfig) {
        assert!(cfg.merge_threshold > 0, "merge_threshold must be positive");
        assert!(cfg.max_runs >= 1, "max_runs must be >= 1");
    }

    fn assemble(
        shard_bits: u32,
        cfg: StoreConfig,
        shards: Vec<Shard>,
        fs: Option<Arc<dyn Fs>>,
    ) -> Self {
        let inner = Arc::new(StoreInner {
            shard_bits,
            cfg,
            obs: Obs::new(shards.len()),
            shards,
            durable: fs.map(|fs| DurableState { fs }),
            merge_q: Mutex::new(MergeQueue::default()),
            merge_work: Condvar::new(),
            merge_done: Condvar::new(),
            merger_failed: AtomicBool::new(false),
        });
        let merger = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("isi-merger".into())
                .spawn(move || inner.merger_loop())
                .expect("spawn merger thread")
        };
        Self {
            inner,
            merger: Some(merger),
        }
    }

    /// True when the store logs writes to a WAL (a
    /// [`StoreConfig::wal_dir`] or an injected [`Fs`]).
    pub fn is_durable(&self) -> bool {
        self.inner.durable.is_some()
    }

    /// Every shard's [`Counts`] as of its current version, summed: one
    /// version load a shard, no lock held.
    fn counts(&self) -> Counts {
        self.inner
            .shards
            .iter()
            .map(|s| s.version.load().counts)
            .fold(Counts::default(), Add::add)
    }

    /// `(WAL records appended, write-path syncs)` since build; `(0, 0)`
    /// when durability is off. The write path syncs each record
    /// exactly once, before it publishes the version that counts it,
    /// so the syncs (`wal_syncs`) are the records and are not counted
    /// apart: both halves are the record count. The pair stays while
    /// the benchmark destructures it. What group commit amortizes is
    /// records per write.
    pub fn wal_stats(&self) -> (u64, u64) {
        let records = self.counts().wal_records;
        (records, records)
    }

    /// Add the store's write-side counts into `total`, all from one
    /// version of each shard (see [`Counts`]).
    pub(crate) fn add_counters_to(&self, total: &mut ServeStats) {
        let c = self.counts();
        total.wal_records = c.wal_records;
        total.merges += c.merges;
        total.compactions += c.compactions;
        total.delta_runs += c.delta_runs;
    }

    /// The store's observability bundle: per-shard stage histograms
    /// and the store-side trace rings (merges, WAL syncs, delta
    /// backpressure).
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Number of live keys (pairs minus tombstoned keys).
    pub fn len(&self) -> usize {
        self.counts().live as usize
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
    /// shards.
    pub fn merges(&self) -> u64 {
        self.counts().merges
    }

    /// Those of the [`merges`](Self::merges) that were major: rebuilt
    /// a shard's main, snapshotted it and truncated its WAL.
    pub fn major_merges(&self) -> u64 {
        self.counts().major_merges
    }

    /// Delta runs published by the write path since build, across all
    /// shards (one per effective shard sub-run of a write run).
    #[cfg(test)]
    pub(crate) fn delta_runs(&self) -> u64 {
        self.counts().delta_runs
    }

    /// Run-stack folds performed by the write path since build (≤
    /// the delta runs published; each fold collapses a stack
    /// that exceeded [`StoreConfig::max_runs`] into one run).
    pub fn compactions(&self) -> u64 {
        self.counts().compactions
    }

    /// Merge jobs queued or in flight right now (a point-in-time
    /// gauge; 0 once [`quiesce`](Self::quiesce)d).
    pub(crate) fn merge_backlog(&self) -> usize {
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

    /// Block until every queued merge job (including jobs enqueued by
    /// merges re-triggering themselves) has been published. Writers
    /// racing `quiesce` can enqueue more work; this waits for the
    /// queue observed drain, which is the fixpoint once writers stop.
    ///
    /// # Panics
    /// Panics with "merger failed" if the merger thread has panicked:
    /// the queue will never drain.
    pub fn quiesce(&self) {
        let mut q = self.inner.merge_q.plock("merge queue");
        loop {
            if self.inner.merger_failed.load(Ordering::Relaxed) {
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
    /// agree with. Reads one consistent `ShardVersion` snapshot:
    /// delta override first, main otherwise.
    pub fn get(&self, key: u64) -> Option<u64> {
        let v = self.inner.shards[self.shard_of(key)].version.load();
        match v.delta.get(key) {
            Some(over) => over,
            None => v.main.get(key),
        }
    }

    /// Upsert `key = val`; returns the previously visible value
    /// (last-write-wins). May enqueue a merge of the owning shard. A
    /// one-op [`apply_write_run_with`](Self::apply_write_run_with).
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
    /// **one** WAL record fsynced **once** (group commit) and
    /// publishes **one** new version — when this returns, every op in
    /// the run is durable and visible, so callers may acknowledge the
    /// whole run.
    ///
    /// The grouping buffers live in the caller-held `scratch`, so the
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
    /// to the shard's delta and publish one new version, its counts
    /// bumped. At `merge_threshold`, or once the shard's WAL holds
    /// [`wal_bound`] ops, the run queues a job for the merger; it
    /// blocks only when the shard's delta has hit the hard bound
    /// ([`max_delta`]). With durability on, the run's WAL record is
    /// appended and fsynced *before* the publish.
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
        let bound = max_delta(inner.cfg.merge_threshold);
        // Hard bound: past it this shard's writers wait for the merger
        // (which takes this lock to pin and to publish, but we release
        // it while waiting on the condvar). A run may overshoot the
        // bound by its own length — bounded by the service's
        // `max_batch`.
        let t = SpanTimer::start();
        let mut waited = false;
        loop {
            if inner.merger_failed.load(Ordering::Relaxed) {
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
        let cur = shard.version.load();
        // Build this sub-run as its own sorted run instead of cloning
        // the delta: O(run log run) per publish, independent of how
        // full the delta is (the old clone + per-op sorted insert was
        // ~delta²/2 entry copies per threshold fill).
        let mut run: Vec<(u64, Option<u64>)> = Vec::with_capacity(idxs.len());
        let mut counts = cur.counts;
        for &i in idxs {
            let (key, val) = ops[i];
            // Within the pending run the latest op for the key wins;
            // runs are at most one service batch long, so the
            // backwards scan is short.
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
                (false, true) => counts.live += 1,
                (true, false) => counts.live -= 1,
                _ => {}
            }
        }
        if run.is_empty() {
            return; // fully elided: no record, no publish
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
            w.wal_ops += run.len();
            counts.wal_records += 1;
        }
        let mut delta = cur.delta.share();
        delta.push_run(run.into());
        counts.delta_runs += 1;
        if delta.fold_past(inner.cfg.max_runs, w.pinned) {
            counts.compactions += 1;
        }
        let crossed = delta.len() >= inner.cfg.merge_threshold
            || w.wal_ops >= wal_bound(inner.cfg.merge_threshold, cur.main.len());
        shard.version.store(Arc::new(ShardVersion {
            main: Arc::clone(&cur.main),
            delta,
            counts,
        }));
        if crossed && !w.pending {
            inner.request_merge(si, &mut w);
        }
    }

    /// Run a batch of lookups that all route to `shard`, scattering
    /// `out[i]` = lookup result of `keys[i]`.
    ///
    /// The whole batch reads **one** `ShardVersion` snapshot and is
    /// **planned** first (see [`BatchPlan`](crate::BatchPlan)): keys the delta decides
    /// are answered from the sorted run, and only the residual reaches
    /// the interleaved engine, one scheduler run on the calling thread.
    /// `_par` is ignored; it stays while the benchmark passes it
    /// ([`ParConfig`]). A merge publishing
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
        _par: ParConfig,
        scratch: &mut LookupScratch,
        out: &mut [Option<u64>],
    ) -> BatchOutcome {
        self.lookup_batch_from(shard, keys, policy, scratch, out, now_ns())
            .0
    }

    /// [`lookup_batch`](Self::lookup_batch), its first span starting at
    /// `start_ns` (the caller's [`now_ns`] reading), and the reading
    /// that ended its last span, for the caller to end its own on. The
    /// end of `Plan` starts `Engine`: one clock read per span.
    pub(crate) fn lookup_batch_from(
        &self,
        shard: usize,
        keys: &[u64],
        policy: Interleave,
        scratch: &mut LookupScratch,
        out: &mut [Option<u64>],
        start_ns: u64,
    ) -> (BatchOutcome, u64) {
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
            let engine = v
                .main
                .probe_batch(keys, policy, ParConfig, &mut scratch.ranks, out);
            let end = now_ns();
            obs.record_stage(shard, Stage::Engine, end.saturating_sub(start_ns));
            let outcome = BatchOutcome {
                engine,
                delta_hits: 0,
            };
            return (outcome, end);
        }
        scratch.plan.resolve(v.delta.runs(), keys);
        for &(i, res) in &scratch.plan.decided {
            out[i as usize] = res;
        }
        let planned = now_ns();
        obs.record_stage(shard, Stage::Plan, planned.saturating_sub(start_ns));
        let residual = scratch.plan.residual();
        let (engine, end) = if residual == 0 {
            (RunStats::default(), planned)
        } else {
            scratch.residual_out.clear();
            scratch.residual_out.resize(residual as usize, None);
            let engine = v.main.probe_batch(
                &scratch.plan.residual_keys,
                policy,
                ParConfig,
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
            let end = now_ns();
            obs.record_stage(shard, Stage::Engine, end.saturating_sub(planned));
            (engine, end)
        };
        let outcome = BatchOutcome {
            engine,
            delta_hits: scratch.plan.delta_hits(),
        };
        (outcome, end)
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
        // Clean-shutdown durability: every record was synced when its
        // run was applied; this flush makes sure again that an orderly
        // exit leaves every log durable. Best effort — Drop must not
        // panic.
        if let Some(d) = &self.inner.durable {
            for si in 0..self.inner.shards.len() {
                let _ = d.fs.sync(&durable::wal::wal_name(si));
            }
            let _ = d.fs.sync_dir();
        }
    }
}

/// The build's count pass: how many of `pairs` each of `num_shards`
/// shards gets under `route`, and whether the keys are strictly
/// ascending (no key out of order, none repeated).
fn count_routed(
    pairs: &[(u64, u64)],
    num_shards: usize,
    route: impl Fn(u64) -> usize,
) -> (Vec<usize>, bool) {
    let mut lens = vec![0; num_shards];
    let mut ascending = true;
    let mut prev = None;
    for &(k, _) in pairs {
        lens[route(k)] += 1;
        ascending &= prev < Some(k);
        prev = Some(k);
    }
    (lens, ascending)
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
