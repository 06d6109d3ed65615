//! Executing one batch cut from a shard's queue, and the counting a
//! lone `get` run without a queue entry shares with it.

use std::sync::MutexGuard;

use isi_core::sync::MutexExt;
use isi_obs::{now_ns, SpanTimer, Stage, TraceKind};

use super::queue::{Entry, Exec, Op, QueueState, ShardCtx, ShardState};
use super::ServeStats;
use crate::store::BatchOutcome;

/// Count one answered admission entry whose result was ready at
/// `done_ns` (its latency sample ends there).
fn count_entry(stats: &mut ServeStats, entry: &Entry, done_ns: u64) {
    stats.requests += 1;
    stats
        .latency
        .record(done_ns.saturating_sub(entry.enqueued.start_ns()));
    match &entry.op {
        Op::Get { .. } => stats.gets += 1,
        Op::GetMany { keys, .. } => stats.many_keys += keys.len() as u64,
        Op::Write { val: Some(_), .. } => stats.puts += 1,
        Op::Write { val: None, .. } => stats.removes += 1,
    }
}

/// Close a read run whose lookups returned `outcome`: under the queue
/// lock, fill the hot-key cache with its single-key results (`gets`)
/// and add its `delta_hits` and engine counters. Returns with the lock
/// held, for the caller to count the run's requests in the same
/// critical section. The fill happens before the answers go out: the
/// token holder is the only mutator of the shard, so the results are
/// current until the next write applied under the token.
pub(super) fn close_read_run<'a>(
    state: &'a ShardState,
    gets: impl IntoIterator<Item = (u64, Option<u64>)>,
    outcome: &BatchOutcome,
) -> MutexGuard<'a, QueueState> {
    let mut q = state.q.plock("admission queue");
    let QueueState { cache, stats, .. } = &mut *q;
    for (key, result) in gets {
        cache.insert(key, result);
    }
    cache.end_run(stats.cache_hits);
    stats.delta_hits += outcome.delta_hits;
    stats.engine.merge(&outcome.engine);
    q
}

/// Execute the batch drained into `bufs.batch` in admission order:
/// maximal runs of consecutive point reads are planned against the
/// delta and the residual goes through the interleaved engine as one
/// batch; maximal runs of consecutive writes apply between them (each
/// write invalidating its hot-cache slot *before* its ticket is
/// fulfilled). Writes only append to the delta — a threshold crossing
/// enqueues a background merge job, it never rebuilds here.
///
/// An entry's counters and latency sample land under the queue lock
/// *before* its ticket is fulfilled — a read's where its run is closed,
/// a write's where its run invalidates the cache — so the moment a
/// client's wait returns, [`LookupService::stats`] already includes
/// its request. No lock is held across engine runs or store writes (a
/// write can trigger a whole-shard merge rebuild), so a monitoring
/// thread reading stats never blocks behind the slow work itself.
///
/// Stage spans recorded here: `admission_wait` per entry at drain,
/// `writeback` around each write run (store call + cache
/// invalidation), `commit` around each fulfill pass. The store records
/// `plan`/`engine`/`wal_*`/`merge` inside its own calls.
///
/// [`LookupService::stats`]: super::LookupService::stats
pub(super) fn execute_batch(ctx: ShardCtx<'_>, bufs: &mut Exec, full: bool) {
    let ShardCtx {
        store,
        shard,
        state,
        cfg,
        obs,
    } = ctx;
    let batch_t = SpanTimer::start();
    // Queue residency ended when the batch span started (one clock
    // reading serves both); what follows is execution.
    for entry in &bufs.batch {
        let waited = batch_t.start_ns().saturating_sub(entry.enqueued.start_ns());
        obs.record_stage(shard, Stage::AdmissionWait, waited);
    }
    let mut i = 0;
    while i < bufs.batch.len() {
        // Collect the maximal read run starting at i.
        bufs.run_keys.clear();
        bufs.run_spans.clear();
        while i < bufs.batch.len() {
            match &bufs.batch[i].op {
                Op::Get { key, .. } => {
                    bufs.run_spans.push((i, bufs.run_keys.len(), 1));
                    bufs.run_keys.push(*key);
                }
                Op::GetMany { keys, .. } => {
                    bufs.run_spans.push((i, bufs.run_keys.len(), keys.len()));
                    bufs.run_keys.extend_from_slice(keys);
                }
                _ => break,
            }
            i += 1;
        }
        if !bufs.run_keys.is_empty() {
            bufs.out.clear();
            bufs.out.resize(bufs.run_keys.len(), None);
            let (outcome, looked_up) = store.lookup_batch_from(
                shard,
                &bufs.run_keys,
                cfg.policy,
                &mut bufs.scratch,
                &mut bufs.out,
                now_ns(),
            );
            let gets = bufs.run_spans.iter().filter_map(|&(ei, start, _)| {
                let Op::Get { key, .. } = &bufs.batch[ei].op else {
                    return None;
                };
                Some((*key, bufs.out[start]))
            });
            let mut q = close_read_run(state, gets, &outcome);
            for &(ei, _, _) in &bufs.run_spans {
                count_entry(&mut q.stats, &bufs.batch[ei], looked_up);
            }
            drop(q);
            let commit_t = SpanTimer::start();
            for &(ei, start, len) in &bufs.run_spans {
                match &bufs.batch[ei].op {
                    Op::Get { ticket, .. } => ticket.fulfill(bufs.out[start]),
                    Op::GetMany { ticket, .. } => {
                        ticket.fulfill(bufs.out[start..start + len].to_vec());
                    }
                    _ => unreachable!("write in read run"),
                }
            }
            obs.record_stage(shard, Stage::Commit, commit_t.elapsed_ns());
        }
        // Apply the write run that ended the read run, in admission
        // order: one `apply_write_run_with` call, which on a durable store
        // is one WAL record + one data sync (group commit) covering every
        // op in the run before any of its tickets resolve. The store
        // call may block briefly at the delta's hard bound; no lock is
        // held across it.
        bufs.write_ops.clear();
        bufs.write_idx.clear();
        while let Some(Op::Write { key, val, .. }) = bufs.batch.get(i).map(|e| &e.op) {
            bufs.write_ops.push((*key, *val));
            bufs.write_idx.push(i);
            i += 1;
        }
        if bufs.write_ops.is_empty() {
            continue;
        }
        let wb_t = SpanTimer::start();
        store.apply_write_run_with(
            &bufs.write_ops,
            &mut bufs.write_prevs,
            &mut bufs.write_scratch,
        );
        // Invalidate before fulfilling: a client whose write just acked
        // must not then read a stale cached value.
        let mut q = state.q.plock("admission queue");
        for &(key, _) in &bufs.write_ops {
            q.cache.invalidate(key);
        }
        // One reading ends the writeback span and the run's latency
        // samples.
        let applied = now_ns();
        for &ei in &bufs.write_idx {
            count_entry(&mut q.stats, &bufs.batch[ei], applied);
        }
        drop(q);
        obs.trace().emit_now(
            shard,
            TraceKind::CacheInvalidate,
            bufs.write_ops.len() as u64,
            0,
        );
        obs.record_stage(
            shard,
            Stage::Writeback,
            applied.saturating_sub(wb_t.start_ns()),
        );
        let commit_t = SpanTimer::start();
        for (&ei, &prev) in bufs.write_idx.iter().zip(&bufs.write_prevs) {
            let Op::Write { ticket, .. } = &bufs.batch[ei].op else {
                unreachable!("read in write run")
            };
            ticket.fulfill(prev);
        }
        obs.record_stage(shard, Stage::Commit, commit_t.elapsed_ns());
    }
    // Arguments are evaluated before `emit` tests the flag: read the
    // clock only for a trace that will keep the event.
    if obs.trace().is_enabled() {
        obs.trace().emit(
            shard,
            TraceKind::BatchFlush,
            batch_t.start_ns(),
            batch_t.elapsed_ns(),
            bufs.batch.len() as u64,
            u64::from(full),
        );
    }
}
