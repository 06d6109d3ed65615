//! Durability for the sharded store: per-shard write-ahead logs with
//! group commit, epoch-stamped shard snapshots, crash recovery, and a
//! fault-injecting file system for testing all of it.
//!
//! The serving layer (`isi_serve`) batches writes into *runs* — a
//! shard's runner (the calling thread or the shard's helper) drains
//! its admission queue and applies consecutive writes in one store
//! call. This crate turns that batching into
//! **group commit**: one checksummed, length-prefixed WAL record per
//! run, fsynced once per run before any ticket in the run is
//! acknowledged. Major merges publish **snapshots** (a minor merge
//! folds the run stack into the mid tier and touches no file): a
//! major merge already rebuilds a shard's main index, so the rebuilt
//! pairs are serialized to a temp file, fsynced, atomically renamed,
//! and the WAL is rewritten down to the residual delta. **Recovery** is newest-valid-snapshot + WAL-tail replay, per
//! shard; torn, truncated or bit-flipped tail records are detected by
//! CRC and cleanly discarded, never panicked on.
//!
//! Everything goes through the object-safe [`Fs`] trait so tests can
//! swap the real directory-backed [`DiskFs`] for the in-memory
//! [`MemFs`] (which models what survives a crash: synced bytes and
//! sync-dir'd directory entries) or the [`FaultFs`] wrapper (which
//! drops fsyncs, tears unsynced tails at arbitrary byte offsets, and
//! captures a crash image at any chosen operation in the protocol).
//!
//! ## Crash-ordering invariants
//!
//! 1. **Ack ⇒ durable**: a write run's WAL record is appended *and
//!    fsynced* before the run returns, so an acknowledged write
//!    survives any later crash.
//! 2. **Snapshot before truncate**: the WAL is only rewritten after
//!    the covering snapshot is fsynced and its rename is sync-dir'd.
//!    A crash between the two leaves the old WAL, whose records are
//!    filtered by snapshot sequence on replay (replay is idempotent).
//! 3. **Records are atomic**: a record either replays whole or is
//!    discarded whole — the CRC covers the length prefix, sequence
//!    and payload, so a torn append can never half-apply.
//! 4. **Recovery sequence is monotone**: the recovered write frontier
//!    (snapshot seq ⊔ last valid WAL record seq) never moves backwards
//!    across crash/recover cycles, because nothing durable is deleted
//!    until its replacement is durable.

mod crc;
mod fault;
mod fs;
pub mod wal;

pub use crc::crc32;
pub use fault::{FaultFs, FaultPlan};
pub use fs::{DiskFs, Fs, MemFs};

/// When WAL appends are fsynced: always, one record and one fsync
/// **per dispatched write run**.
///
/// One value, so nothing matches on it. The type stays while the
/// benchmark names it (`StoreConfig::durable(dir, FsyncMode::Group)`);
/// it and that parameter go together with the benchmark's mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsyncMode {
    /// Group commit: batching amortizes the fsync exactly like it
    /// amortizes the interleaved read engine.
    Group,
}
