//! Merging: the background merger's queue and thread, and its merge
//! routine — pin, fold off the lock, publish under it.

use std::collections::VecDeque;
use std::sync::{Arc, PoisonError};

use isi_core::backend::ShardBackend;
use isi_core::sync::{CondvarExt, MutexExt};
use isi_obs::{SpanTimer, Stage, TraceKind};

use super::delta::{merge_pairs, Delta};
use super::{ShardVersion, StoreInner, WriteState};

/// The background merger's work queue (guarded by `StoreInner::merge_q`).
#[derive(Default)]
pub(super) struct MergeQueue {
    /// Shard indices with a merge due, in trigger order.
    pub(super) queue: VecDeque<usize>,
    /// The merger popped a job and has not finished it yet.
    pub(super) in_flight: bool,
    /// Set by `Drop`: finish the queue, then exit.
    pub(super) shutdown: bool,
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
///
/// [`ShardedStore::quiesce`]: super::ShardedStore::quiesce
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
        #[expect(clippy::disallowed_methods, reason = "unwind-time cleanup")]
        let mut q = inner.merge_q.lock().unwrap_or_else(PoisonError::into_inner);
        q.in_flight = false;
        drop(q);
        inner.merge_done.notify_all();
        for shard in &inner.shards {
            #[expect(clippy::disallowed_methods, reason = "unwind-time cleanup")]
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
    pub(super) fn request_merge(&self, si: usize, w: &mut WriteState) {
        w.pending = true;
        let mut q = self.merge_q.plock("merge queue");
        q.queue.push_back(si);
        self.merge_work.notify_one();
    }

    /// The background merger: drain merge jobs until shutdown (then
    /// finish what is queued and exit). A merge that panics takes the
    /// thread with it; [`FailClosed`] then fails the store closed.
    pub(super) fn merger_loop(&self) {
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
            w.pinned = v0.delta.runs_above_mid();
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
    /// sequence `seq0`.
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
        // What landed while the merge ran survives as one residual
        // run, which makes the published count exact again.
        let residual = cur.residual_of(pinned);
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
        // `merges` before `major_merges`: a read that loads the latter
        // first sees it ≤ merges.
        let counters = &self.merge_counters[si];
        counters.merges.inc();
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
pub(super) fn major_len(merge_threshold: usize, main_len: usize) -> usize {
    merge_threshold.max(merge_threshold.saturating_mul(main_len).isqrt())
}

/// The hard bound on a shard's run stack above the mid tier: four
/// thresholds, the room for bursts and for the occasional major merge
/// while the merger is busy.
pub(super) fn max_delta(merge_threshold: usize) -> usize {
    merge_threshold.saturating_mul(4)
}
