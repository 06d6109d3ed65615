//! The service's counters: [`ServeStats`], which a shard keeps its
//! own share of under its queue lock and `stats` sums.

use isi_core::sched::RunStats;
use isi_core::stats::LatencyHist;

/// Aggregated service metrics (summed over shards, plus the store's
/// write-side counters).
///
/// The store's fields (`merges`, `delta_runs`, `compactions`,
/// `wal_records`, `wal_syncs`) are summed from one published version
/// per shard, which carries them, so their invariants hold in every
/// read (see [`stats`](super::LookupService::stats)).
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
    /// Latency per *admitted* entry (enqueue → its run's lookup
    /// returned or write run applied), ns; a `get` run directly on an
    /// idle shard spans token taken → lookup returned, on the readings
    /// that bound the store's spans. Cache hits record none, so on
    /// Zipf `get`s `p50()` is the *miss* latency.
    pub latency: LatencyHist,
    /// Merged interleaved-engine counters across all batches
    /// (`engine.lookups` counts only residual keys — the batch minus
    /// `delta_hits`).
    pub engine: RunStats,
    /// Merges the store's merger has published since build, minor (run
    /// stack into the mid tier) and major (mid tier into the main).
    pub merges: u64,
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
    /// Write-path WAL fsyncs the store issued (0 with durability off),
    /// one per record: group commit amortizes them over the writes
    /// each record packs.
    pub wal_syncs: u64,
}

impl ServeStats {
    /// Add one shard's service counters (its `QueueState::stats`) into
    /// `self`; the store's fields are the store's to fill.
    pub(super) fn add_shard(&mut self, shard: &ServeStats) {
        self.requests += shard.requests;
        self.gets += shard.gets;
        self.puts += shard.puts;
        self.removes += shard.removes;
        self.many_keys += shard.many_keys;
        self.cache_hits += shard.cache_hits;
        self.delta_hits += shard.delta_hits;
        self.batches += shard.batches;
        self.full_flushes += shard.full_flushes;
        self.caller_runs += shard.caller_runs;
        self.latency.merge(&shard.latency);
        self.engine.merge(&shard.engine);
    }

    /// Mean entries per executed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}
