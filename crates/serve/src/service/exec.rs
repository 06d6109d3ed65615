//! Executing one batch cut from a shard's queue, and the counting a
//! lone `get` run without a queue entry shares with it.

use std::sync::MutexGuard;

use isi_core::sync::MutexExt;
use isi_obs::{SpanTimer, Stage, TraceKind};

use super::queue::{Exec, Op, QueueState, Runner, ShardCtx, ShardState};
use crate::store::BatchOutcome;

/// Count one executed batch. `batches` bumps before the counters it
/// bounds (the read-order counterpart is `ShardCounters::add_to`).
pub(super) fn count_batch(state: &ShardState, full: bool, who: Runner) {
    state.m.batches.inc();
    if full {
        state.m.full_flushes.inc();
    }
    if who == Runner::Caller {
        state.m.caller_runs.inc();
    }
}

/// Close a read run whose lookups returned `outcome`: add its
/// `delta_hits`, then, under the queue lock, fill the hot-key cache
/// with its single-key results (`gets`) and merge its engine counters.
/// Returns with the lock held.
///
/// Both happen before the run's requests are counted, so `stats`
/// never shows a read key not yet in `engine.lookups` or
/// `delta_hits`. The fill happens before the answers go out: the
/// token holder is the only mutator of the shard, so the results are
/// current until the next write applied under the token.
pub(super) fn close_read_run<'a>(
    state: &'a ShardState,
    gets: impl IntoIterator<Item = (u64, Option<u64>)>,
    outcome: &BatchOutcome,
) -> MutexGuard<'a, QueueState> {
    state.m.delta_hits.add(outcome.delta_hits);
    let mut q = state.q.plock("admission queue");
    for (key, result) in gets {
        q.cache.insert(key, result);
    }
    q.cache.end_run(state.m.cache_hits.get());
    q.engine.merge(&outcome.engine);
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
/// An entry's counters and latency sample land *before* its ticket is
/// fulfilled (the counters are lock-free `Release` bumps, the stats
/// snapshot reads `Acquire`), so the moment a client's wait returns,
/// [`LookupService::stats`] already includes its request. No lock is
/// held across engine runs or store writes (a write can trigger a
/// whole-shard merge rebuild), so a monitoring thread reading stats
/// never blocks behind the slow work itself.
///
/// Stage spans recorded here: `admission_wait` per entry at drain,
/// `writeback` around each write run (store call + cache
/// invalidation), `commit` around each fulfill pass. The store records
/// `plan`/`engine`/`wal_*`/`merge` inside its own calls.
///
/// [`LookupService::stats`]: super::LookupService::stats
pub(super) fn execute_batch(ctx: ShardCtx<'_>, bufs: &mut Exec, full: bool, who: Runner) {
    let ShardCtx {
        store,
        shard,
        state,
        cfg,
        obs,
    } = ctx;
    let batch_t = SpanTimer::start();
    // Count the batch up front: no ticket from this batch can resolve
    // before the batch itself is visible in the stats.
    count_batch(state, full, who);
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
            let outcome = store.lookup_batch(
                shard,
                &bufs.run_keys,
                cfg.policy,
                cfg.par,
                &mut bufs.scratch,
                &mut bufs.out,
            );
            let gets = bufs.run_spans.iter().filter_map(|&(ei, start, _)| {
                let Op::Get { key, .. } = &bufs.batch[ei].op else {
                    return None;
                };
                Some((*key, bufs.out[start]))
            });
            drop(close_read_run(state, gets, &outcome));
            let commit_t = SpanTimer::start();
            for &(ei, start, len) in &bufs.run_spans {
                let entry = &bufs.batch[ei];
                // Counters and the latency sample land before the
                // fulfill: a client whose wait returned is already in
                // the stats.
                state.m.requests.inc();
                state.m.latency.record(entry.enqueued.elapsed_ns());
                match &entry.op {
                    Op::Get { ticket, .. } => {
                        state.m.gets.inc();
                        ticket.fulfill(bufs.out[start]);
                    }
                    Op::GetMany { ticket, .. } => {
                        state.m.many_keys.add(len as u64);
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
        drop(q);
        obs.trace().emit_now(
            shard,
            TraceKind::CacheInvalidate,
            bufs.write_ops.len() as u64,
            0,
        );
        obs.record_stage(shard, Stage::Writeback, wb_t.elapsed_ns());
        let commit_t = SpanTimer::start();
        for (&ei, &prev) in bufs.write_idx.iter().zip(&bufs.write_prevs) {
            let entry = &bufs.batch[ei];
            state.m.requests.inc();
            state.m.latency.record(entry.enqueued.elapsed_ns());
            let Op::Write { val, ticket, .. } = &entry.op else {
                unreachable!("read in write run")
            };
            if val.is_some() {
                state.m.puts.inc();
            } else {
                state.m.removes.inc();
            }
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
