//! [`ShardBackend`]: the contract between the serving layer and the
//! index structures that can serve one shard's immutable main.
//!
//! The serving layer (`isi-serve`) partitions a `u64 → u64` key/value
//! store into shards whose read-optimized **main** index is one of the
//! workspace's interleaved-friendly structures — a sorted column, a
//! CSB+-tree, or a chained hash table. This trait is the one
//! object-safe surface the store dispatches through, implemented next
//! to each index (`isi_search::shard`, `isi_csb::shard`,
//! `isi_hash::shard`):
//!
//! * [`probe_batch`](ShardBackend::probe_batch) — the hot path: drive
//!   a dense key batch through the index's chunk-parallel interleaved
//!   bulk driver (`bulk_rank_coro_par` / `bulk_lookup_par` /
//!   `bulk_probe_par`) — each one call to
//!   [`run_interleaved_par`](crate::par::run_interleaved_par) with the
//!   index's coroutine; which instantiation runs and how results reach
//!   `out` are the engine's business, not the driver's.
//! * [`pairs`](ShardBackend::pairs) — every pair in key order, the
//!   input of a major merge.
//! * [`rebuild`](ShardBackend::rebuild) — build a replacement backend
//!   of the same kind from merged pairs; the maintenance layer calls
//!   this off the serve path and publishes the result through an
//!   [`EpochCell`](crate::epoch::EpochCell) swap.
//!
//! A backend is **immutable once built**: all methods take `&self`,
//! concurrent readers need no synchronization, and mutation happens
//! only by building a successor via `rebuild`. That immutability is
//! what lets the serving layer snapshot a backend with a plain `Arc`
//! clone and let in-flight batches finish on the version they started
//! with while a merge publishes the next one.

use std::sync::Arc;

use crate::par::ParConfig;
use crate::policy::Interleave;
use crate::sched::RunStats;

/// One shard's immutable main index: batched point probes through the
/// interleaved engine, its pairs in key order, and merge-time rebuilds.
///
/// See the [module docs](self) for the immutability contract.
pub trait ShardBackend: Send + Sync {
    /// Number of pairs stored.
    fn len(&self) -> usize;

    /// True if no pairs are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequential point lookup — the oracle the batched path must
    /// agree with.
    fn get(&self, key: u64) -> Option<u64>;

    /// Look up `keys[i]` into `out[i]` through the chunk-parallel
    /// interleaved engine, returning the engine's merged [`RunStats`].
    ///
    /// `scratch` is caller-owned scratch space (the sorted backend
    /// stores ranks there); reusing one vector across calls means a
    /// batch allocates nothing per key. An interleaved engine run
    /// allocates its frame slab once; a one-key batch allocates
    /// nothing in the engine.
    ///
    /// # Panics
    /// Panics if `out.len() != keys.len()`.
    fn probe_batch(
        &self,
        keys: &[u64],
        policy: Interleave,
        par: ParConfig,
        scratch: &mut Vec<u32>,
        out: &mut [Option<u64>],
    ) -> RunStats;

    /// Build a replacement backend of the same kind from
    /// strictly-sorted, duplicate-free pairs (a delta merge's output).
    fn rebuild(&self, pairs: &[(u64, u64)]) -> Arc<dyn ShardBackend>;

    /// Every pair in ascending key order (merge input).
    fn pairs(&self) -> Vec<(u64, u64)>;
}
