//! Durability and recovery: the store's handle on its WAL directory,
//! and rebuilding a store from what that directory holds.

use std::io;
use std::sync::{Arc, Condvar, Mutex};

use isi_core::epoch::EpochCell;
use isi_core::sync::MutexExt;
use isi_durable::{self as durable, DiskFs, Fs};
use isi_obs::{Obs, SpanTimer, Stage, TraceKind};

use super::delta::{merged_len, sort_lww, Delta};
use super::merge::{major_len, wal_bound};
use super::{Backend, Counts, Shard, ShardVersion, ShardedStore, StoreConfig, WriteState};

/// The store's attached durability layer: the file system holding the
/// per-shard WALs and snapshots. The write path counts its records in
/// the version it publishes ([`Counts`]). I/O errors on the
/// write and merge paths panic with context (the store is crash-only:
/// an inconsistent log is worse than no store), while
/// [`ShardedStore::recover`] returns errors — recovery runs before
/// anything was promised to callers.
pub(super) struct DurableState {
    pub(super) fs: Arc<dyn Fs>,
}

impl DurableState {
    /// Append one record to `shard`'s WAL and sync it ([`Fs::sync`], a
    /// data sync). Caller holds the shard write lock, which orders
    /// appends by sequence. Append and sync time land in the shard's
    /// [`Stage::WalAppend`] / [`Stage::WalFsync`] histograms; each sync
    /// emits a [`TraceKind::WalSync`] event.
    pub(super) fn log_run(&self, obs: &Obs, shard: usize, seq: u64, ops: &[(u64, Option<u64>)]) {
        let name = durable::wal::wal_name(shard);
        let rec = durable::wal::encode_record(seq, ops);
        let t = SpanTimer::start();
        self.fs
            .append(&name, &rec)
            .unwrap_or_else(|e| panic!("WAL append failed for shard {shard}: {e}"));
        obs.record_stage(shard, Stage::WalAppend, t.elapsed_ns());
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
    }

    /// Serialize and fsync a snapshot of `merged` (covering WAL
    /// sequence `seq`) to the shard's temp file. The bulky half of a
    /// durable merge publish — the background merger runs it *outside*
    /// the shard write lock.
    pub(super) fn stage_snapshot(&self, shard: usize, seq: u64, merged: &[(u64, u64)]) -> String {
        durable::wal::write_snapshot_tmp(&*self.fs, shard, seq, merged)
            .unwrap_or_else(|e| panic!("snapshot write failed for shard {shard}: {e}"))
    }

    /// Commit a staged snapshot and rewrite the WAL down to `residual`
    /// (one record at `wal_seq`) — strictly in that order, so a crash
    /// between the two replays the old WAL's extra records
    /// idempotently on top of the new snapshot. Caller holds the shard
    /// write lock: nothing may append between the truncation decision
    /// and the rewrite.
    pub(super) fn commit_and_truncate(
        &self,
        shard: usize,
        snap_seq: u64,
        tmp: &str,
        wal_seq: u64,
        residual: &[(u64, Option<u64>)],
    ) {
        durable::wal::commit_snapshot(&*self.fs, shard, snap_seq, tmp)
            .unwrap_or_else(|e| panic!("snapshot commit failed for shard {shard}: {e}"));
        durable::wal::rewrite_wal(&*self.fs, shard, wal_seq, residual)
            .unwrap_or_else(|e| panic!("WAL rewrite failed for shard {shard}: {e}"));
    }
}

impl ShardedStore {
    /// Reload the durable store in [`StoreConfig::wal_dir`]: per
    /// shard, the newest valid snapshot plus a replay of the WAL tail
    /// into the mid tier (a tail that is due for a major merge, by its
    /// length or by its op count, gets it at once). Torn or corrupt
    /// WAL tails are repaired (cleanly discarded), stale snapshots and
    /// temp files deleted. The shard count comes from the store's meta
    /// file, not from `cfg`.
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
        let num_shards = durable::wal::read_meta(&*fs)? as usize;
        if !num_shards.is_power_of_two() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("store meta names {num_shards} shards (not a power of two)"),
            ));
        }
        let shard_bits = num_shards.trailing_zeros();
        let mut shards = Vec::with_capacity(num_shards);
        let mut refill = Vec::new();
        for si in 0..num_shards {
            let rec = durable::wal::recover_shard(&*fs, si)?;
            // Replay the WAL tail in append order into one folded run
            // (records replay absolute upserts, later records win).
            // The log holds what the minor merges since the last
            // snapshot folded plus a residual, so the run is that
            // snapshot's mid tier again.
            let mut tail: Vec<(u64, Option<u64>)> = Vec::new();
            for record in &rec.tail {
                tail.extend_from_slice(&record.ops);
            }
            let wal_ops = tail.len();
            sort_lww(&mut tail);
            let main_len = rec.pairs.len();
            if tail.len() >= major_len(cfg.merge_threshold, main_len)
                || wal_ops >= wal_bound(cfg.merge_threshold, main_len)
            {
                refill.push(si);
            }
            shards.push(Shard {
                version: EpochCell::new(ShardVersion {
                    counts: Counts {
                        live: merged_len(&rec.pairs, &tail) as u64,
                        ..Counts::default()
                    },
                    main: Arc::new(backend.build_shard(&rec.pairs)),
                    delta: Delta::tiers(tail, Vec::new()),
                }),
                write: Mutex::new(WriteState {
                    wal_seq: rec.next_seq,
                    wal_ops,
                    ..WriteState::default()
                }),
                delta_space: Condvar::new(),
            });
        }
        let store = Self::assemble(shard_bits, cfg, shards, Some(fs));
        // Shards whose replayed mid tier or WAL is already due for a
        // major merge get it now rather than a threshold of writes
        // later.
        for si in refill {
            let mut w = store.inner.shards[si].write.plock("shard write state");
            store.inner.request_merge(si, &mut w);
        }
        Ok(store)
    }
}
