//! # isi-serve — a sharded, writable, admission-batched lookup service
//!
//! The paper shows that interleaving instruction streams hides the
//! cache-miss latency of index lookups — but only when lookups arrive
//! in *batches*. A serving workload delivers the opposite shape: many
//! concurrent clients, each holding one key, some of them writing.
//! This crate closes the gap with the production pattern the
//! batch-only APIs were missing:
//!
//! 1. **Shard** — a [`ShardedStore`]
//!    hash-partitions the data across power-of-two shards. Each shard
//!    is a **Main/Delta pair**: an immutable [`Main`] (sorted column,
//!    CSB+-tree, or chained hash table, one arm of a closed enum —
//!    batched probes and merge-time rebuilds), plus a small delta of
//!    upserts and tombstones held as a **stack of immutable sorted
//!    runs** — one run per dispatched write run, newest run wins,
//!    folded into a single run past
//!    [`StoreConfig::max_runs`](store::StoreConfig).
//! 2. **Admit & batch** — in a [`LookupService`]
//!    `get`/`put`/`remove` enqueue into the owning shard's bounded FIFO
//!    admission queue (blocking when full — backpressure), while
//!    [`get_many`](service::LookupService::get_many) pre-partitions
//!    client-side and submits one entry per shard. Each shard has one
//!    **executor token** inside its queue state, and taking it out
//!    under the queue lock is the right to run the shard: **the thread
//!    that finds the shard idle runs its own request** — no hand-off,
//!    no wake-up — until its entry is answered, then hands the token
//!    back (a `get` that finds it idle does not even queue an entry).
//!    A thread that finds the token taken waits on its ticket;
//!    one helper thread per shard drains whatever no submitter will
//!    run (the backlog a client leaves behind, fan-out slices, the
//!    queue at `close`). There is no flush timer: batches of up to
//!    [`max_batch`](ServeConfig::max_batch) entries form from
//!    the backlog that builds up while a batch executes. Per-shard
//!    FIFO, serialized by the token, gives every client
//!    read-your-writes.
//! 3. **Plan & execute** — the token holder resolves
//!    each read run against the delta into a
//!    [`BatchPlan`] (delta-decided keys skip the
//!    engine), drives the dense residual through the interleaved
//!    engine ([`run_batch`](isi_core::sched::run_batch): one scheduler
//!    run, on the token holder's thread; shards run in parallel on
//!    theirs), applies writes in
//!    admission order between read runs, and routes each
//!    result back through its ticket. A per-shard hot-key cache (4-way,
//!    1 MiB, allocated at start) in the queue state answers repeat
//!    `get`s without admission; only the token holder fills it or
//!    invalidates it, under the queue lock, the shard's only one.
//! 4. **Maintain in the background** — a threshold-crossing write
//!    *enqueues a merge job*; the store's background merger thread
//!    folds that shard's run stack into its mid tier (a minor merge:
//!    no rebuild, no I/O) and, once the mid tier has grown to its
//!    size, rebuilds the shard's main with it (a major merge). The mid
//!    tier carries a blocked Bloom filter over its keys, built with it
//!    off the write lock, so a read searches the tier only where the
//!    filter admits the key: an absent key costs one cache line. Either
//!    is published through an
//!    [`EpochCell`](isi_core::epoch::EpochCell) swap while the delta
//!    keeps absorbing writes up to a hard bound of four thresholds.
//!    In-flight batches finish on the version they started with; no
//!    request's latency absorbs a merge.
//! 5. **Survive crashes (opt-in)** — with
//!    [`StoreConfig::wal_dir`](store::StoreConfig) set, every
//!    dispatched write run appends **one checksummed WAL record** to
//!    its shard's log and fsyncs **once per run** before any ticket in
//!    the run resolves (group commit: batching amortizes the fsync
//!    exactly like it amortizes the interleaved engine). Major merges double as **snapshots**: the merger's
//!    rebuilt pairs are serialized, fsynced, atomically renamed, and
//!    the WAL truncates to the residual delta.
//!    [`ShardedStore::recover`](store::ShardedStore::recover) reloads
//!    newest-valid-snapshot + WAL-tail replay per shard, discarding
//!    torn or bit-flipped tails by CRC — see [`isi_durable`] for the
//!    formats, the crash-ordering invariants, and the fault-injection
//!    harness that exercises them.
//! 6. **Measure** — [`ServeStats`] copies each shard's service
//!    counters (plain fields under its queue lock, bumped where their
//!    paths hold it anyway, with the admission→response
//!    [`LatencyHist`](isi_core::stats::LatencyHist)) in one critical
//!    section, and the store's counts from one published version per
//!    shard, which its write lock bumped with the publish, so it is
//!    coherent; each pipeline
//!    stage (admission wait, plan, engine, writeback, commit, WAL
//!    append/fsync, merge) records a per-shard latency histogram
//!    ([`LookupService::stage_breakdown`](service::LookupService::stage_breakdown)),
//!    and [`ServeConfig::trace_events`](service::ServeConfig) turns on
//!    a bounded structured-event ring exportable as chrome://tracing
//!    JSON
//!    ([`export_chrome_trace`](service::LookupService::export_chrome_trace)).
//!    With tracing off, the instrumentation is a few atomic bumps per
//!    batch.
//!
//! ```
//! use isi_serve::{Backend, LookupService, ServeConfig, ShardedStore};
//!
//! let pairs: Vec<(u64, u64)> = (0..10_000).map(|i| (i * 2, i)).collect();
//! let store = ShardedStore::build(Backend::Csb, 4, &pairs);
//! let svc = LookupService::start(store, ServeConfig::default());
//!
//! // Any number of client threads may call these concurrently; each
//! // request rides an interleaved batch on its shard.
//! assert_eq!(svc.get(84), Some(42));
//! assert_eq!(svc.put(84, 7), Some(42)); // upsert, returns previous
//! assert_eq!(svc.get(84), Some(7)); // read-your-writes
//! assert_eq!(svc.remove(85), None);
//!
//! // Multi-key lookup: partitioned by shard client-side, one
//! // admission entry per shard, results in input order.
//! assert_eq!(
//!     svc.get_many(&[84, 2, 3]),
//!     vec![Some(7), Some(1), None],
//! );
//! assert_eq!(svc.stats().many_keys, 3);
//! ```

mod plan;
mod service;
mod store;

pub use isi_durable::FsyncMode;
pub use isi_obs::{Obs, Stage};
pub use plan::BatchPlan;
pub use service::{LookupService, ServeConfig, ServeStats};
pub use store::{
    Backend, BatchOutcome, LookupScratch, Main, ShardedStore, StoreConfig, WriteScratch,
};
