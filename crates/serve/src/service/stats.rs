//! The service's counters: one shard's fields, and the aggregate a
//! caller reads.

use isi_core::sched::RunStats;
use isi_core::stats::LatencyHist;
use isi_obs::{AtomicHist, Counter};

/// One shard's service counters.
///
/// [`add_to`](Self::add_to) fixes the read order, and that order is
/// load-bearing (see [`Counter`]): a runner bumps `batches` before
/// `full_flushes` and `caller_runs`, and reads load those two first,
/// so no read shows either of them above `batches`. Likewise a read
/// run adds its `delta_hits` before its `gets` and `many_keys`, which
/// are read first: every read key a read counts is in `delta_hits` or
/// in the engine lookups `stats` merges last.
#[derive(Default)]
pub(super) struct ShardCounters {
    pub(super) full_flushes: Counter,
    pub(super) caller_runs: Counter,
    pub(super) batches: Counter,
    pub(super) requests: Counter,
    pub(super) gets: Counter,
    pub(super) puts: Counter,
    pub(super) removes: Counter,
    pub(super) many_keys: Counter,
    pub(super) delta_hits: Counter,
    pub(super) cache_hits: Counter,
    /// Per *admitted* entry (enqueue → response routed), nanoseconds;
    /// cache hits are counted in `cache_hits` only.
    pub(super) latency: AtomicHist,
}

impl ShardCounters {
    /// Add this shard's counters into `total`, the ≤ side of each
    /// invariant first.
    pub(super) fn add_to(&self, total: &mut ServeStats) {
        total.full_flushes += self.full_flushes.get();
        total.caller_runs += self.caller_runs.get();
        total.batches += self.batches.get();
        total.requests += self.requests.get();
        total.gets += self.gets.get();
        total.puts += self.puts.get();
        total.removes += self.removes.get();
        total.many_keys += self.many_keys.get();
        total.delta_hits += self.delta_hits.get();
        total.cache_hits += self.cache_hits.get();
        total.latency.merge(&self.latency.snapshot());
    }
}

/// Aggregated service metrics (summed over shards, plus the store's
/// write-side counters).
///
/// **Admission entries vs client calls.** [`requests`](Self::requests)
/// counts *admission entries* — what the runners actually answer.
/// A single-key `get`/`put`/`remove` is one entry (a `get` run on an
/// idle shard without queuing counts as one entry and one batch, with
/// a zero admission wait); a `get_many` call
/// fans out into one entry *per shard it touches* (so one `get_many`
/// whose keys land on all shards of an 8-shard store adds 8 to
/// `requests`). Cache hits never reach a queue and are counted
/// only in [`cache_hits`](Self::cache_hits). The client-call view is
/// `gets + cache_hits` single-key reads, `many_keys` keys through
/// `get_many`, plus the write counters.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Admission entries answered (one per shard touched for
    /// `get_many`; a `get` run directly on an idle shard counts as
    /// one); cache hits are in `cache_hits` only.
    pub requests: u64,
    /// Single-key reads answered via admission.
    pub gets: u64,
    /// Upserts applied.
    pub puts: u64,
    /// Removes applied.
    pub removes: u64,
    /// Keys answered through `get_many` entries.
    pub many_keys: u64,
    /// `get`s answered by the hot-key cache, without admission.
    pub cache_hits: u64,
    /// Executed read keys decided by the delta in the plan stage —
    /// these never reached the engine.
    pub delta_hits: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches cut at `max_batch` entries (the backlog held at least
    /// that many).
    pub full_flushes: u64,
    /// Batches executed by a submitting thread; the other
    /// `batches - caller_runs` ran on a shard's helper.
    pub caller_runs: u64,
    /// Latency per *admitted* entry (enqueue → response routed), ns;
    /// cache hits record none, so on Zipf `get`s `p50()` is the *miss*
    /// latency.
    pub latency: LatencyHist,
    /// Merged interleaved-engine counters across all batches
    /// (`engine.lookups` counts only residual keys — the batch minus
    /// `delta_hits`).
    pub engine: RunStats,
    /// Merges the store has published since build, minor (run stack
    /// into the mid tier) and major (mid tier into the main), both
    /// modes.
    pub merges: u64,
    /// Merges performed by the store's background merger thread
    /// (= `merges` in background mode, 0 in foreground mode).
    pub bg_merges: u64,
    /// Merge jobs queued or in flight at the moment `stats()` was
    /// called (a point-in-time gauge, not a counter).
    pub merge_backlog: u64,
    /// Merge wall latency (nanoseconds).
    pub merge_latency: LatencyHist,
    /// Current delta entries above the mid tiers, across all shards
    /// of the store (run lengths summed — an upper bound on the
    /// distinct keys they override).
    pub delta_keys: u64,
    /// Delta runs the store's write path published since build (one
    /// per effective shard sub-run of a write run).
    pub delta_runs: u64,
    /// Run-stack folds the write path performed past
    /// `StoreConfig::max_runs` (≤ `delta_runs`).
    pub compactions: u64,
    /// WAL records the store's write path appended (0 with durability
    /// off). Group commit packs a whole write run into one record.
    pub wal_records: u64,
    /// Write-path WAL fsyncs the store issued (0 with durability off
    /// or `FsyncMode::Off`); `wal_records / wal_syncs` ≈ the group
    /// size the fsync cost was amortized over.
    pub wal_syncs: u64,
}

impl ServeStats {
    /// Mean entries per executed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}
