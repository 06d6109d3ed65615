//! A shard's admission queue, its executor token and the one way to
//! run it, for submitting threads and the shard's helper alike.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use isi_core::sched::RunStats;
use isi_core::sync::{CondvarExt, MutexExt};
use isi_obs::{Obs, SpanTimer};

use super::cache::HotCache;
use super::exec::execute_batch;
use super::stats::ShardCounters;
use super::ticket::Ticket;
use super::ServeConfig;
use crate::store::{LookupScratch, ShardedStore, WriteScratch};

/// The ticket type of one shard's `get_many` slice: one result per
/// submitted key, in submission order.
pub(super) type ManyTicket = Arc<Ticket<Vec<Option<u64>>>>;

/// One queued operation.
pub(super) enum Op {
    Get {
        key: u64,
        ticket: Arc<Ticket<Option<u64>>>,
    },
    /// `put` (`val` is `Some`) or `remove` (`None`): the store's write
    /// op as it goes into a write run.
    Write {
        key: u64,
        val: Option<u64>,
        ticket: Arc<Ticket<Option<u64>>>,
    },
    /// One shard's slice of a client `get_many` call: all keys route
    /// to this shard; the ticket receives one result per key, in key
    /// order.
    GetMany { keys: Vec<u64>, ticket: ManyTicket },
}

impl Op {
    /// Abandon the entry's ticket (see [`Ticket::abandon`]).
    pub(super) fn abandon(&self) {
        match self {
            Op::Get { ticket, .. } | Op::Write { ticket, .. } => ticket.abandon(),
            Op::GetMany { ticket, .. } => ticket.abandon(),
        }
    }
}

/// One admission entry: the operation and its admission time.
pub(super) struct Entry {
    pub(super) op: Op,
    pub(super) enqueued: SpanTimer,
}

/// A shard's mutable service state, all behind its one mutex: the
/// admission queue, the executor token, and the two things only the
/// token holder mutates — the hot-key cache and the engine counters.
pub(super) struct QueueState {
    pub(super) reqs: VecDeque<Entry>,
    pub(super) open: bool,
    /// The shard's executor token. Taking it out (under this lock) is
    /// the right to run the shard; `None` while some thread does.
    pub(super) exec: Option<Box<Exec>>,
    /// Probed by `get` before it enqueues, in the same critical section.
    pub(super) cache: HotCache,
    /// Merged once per read run, with the cache fill; read by `stats`.
    pub(super) engine: RunStats,
}

/// One shard's state (the only lock a shard has; tickets have their
/// own), its wakeup channels and its counters.
pub(super) struct ShardState {
    pub(super) q: Mutex<QueueState>,
    /// The helper parks here until entries are queued while the token
    /// is present (or the queue closes).
    pub(super) work: Condvar,
    /// Producers wait here for queue space (backpressure).
    pub(super) space: Condvar,
    /// This shard's counters (see [`ShardCounters`]); lock-free, so a
    /// cache hit counts itself after releasing the queue lock.
    pub(super) m: ShardCounters,
}

/// A shard's executor token: the reusable batch buffers. It lives in
/// [`QueueState::exec`]; whoever takes it out owns the shard until
/// handing it back, so exactly one thread at a time executes a shard's
/// batches.
pub(super) struct Exec {
    pub(super) batch: Vec<Entry>,
    /// Keys of the current read run.
    pub(super) run_keys: Vec<u64>,
    /// `(entry index, start offset in run_keys, key count)` per read
    /// entry of the current run.
    pub(super) run_spans: Vec<(usize, usize, usize)>,
    pub(super) out: Vec<Option<u64>>,
    pub(super) scratch: LookupScratch,
    /// Ops of the current write run (the group-commit unit).
    pub(super) write_ops: Vec<(u64, Option<u64>)>,
    /// Entry index per op of the current write run.
    pub(super) write_idx: Vec<usize>,
    /// Previously visible value per op, filled by the store.
    pub(super) write_prevs: Vec<Option<u64>>,
    /// Per-shard grouping scratch for the store's write path.
    pub(super) write_scratch: WriteScratch,
}

impl Exec {
    pub(super) fn new(cfg: &ServeConfig) -> Self {
        let n = cfg.max_batch;
        Self {
            batch: Vec::with_capacity(n),
            run_keys: Vec::with_capacity(n),
            run_spans: Vec::with_capacity(n),
            out: Vec::with_capacity(n),
            scratch: LookupScratch::default(),
            write_ops: Vec::with_capacity(n),
            write_idx: Vec::with_capacity(n),
            write_prevs: Vec::with_capacity(n),
            write_scratch: WriteScratch::default(),
        }
    }
}

/// Who holds the token for a batch.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Runner {
    /// A submitting thread, until its own entry is answered.
    Caller,
    /// The shard's helper thread, until the queue is empty.
    Helper,
}

/// The token while it is out of the queue state. Handing it back
/// normally empties `exec`; if it is still here on drop, the runner is
/// unwinding out of a batch (or out of a lone `get`'s lookup) and the
/// shard fails closed: every ticket of the batch and of the queue is
/// abandoned (their waiters panic, none hangs), later submits find the
/// queue closed, and the helper is woken so that it exits and `close`
/// can join it.
pub(super) struct Running<'a> {
    pub(super) state: &'a ShardState,
    pub(super) exec: Option<Box<Exec>>,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let Some(exec) = self.exec.take() else {
            return;
        };
        for entry in &exec.batch {
            entry.op.abandon();
        }
        // This runs during an unwind, where a second panic would abort
        // the process, and it only fails the queue closed — the right
        // end for a state some other panic left mid-protocol too. So
        // it ignores poison (the exception `isi_core::sync` names).
        #[expect(clippy::disallowed_methods, reason = "unwind-time cleanup")]
        let mut q = self.state.q.lock().unwrap_or_else(PoisonError::into_inner);
        q.open = false;
        for entry in q.reqs.drain(..) {
            entry.op.abandon();
        }
        // Nothing runs on a closed, empty queue; the token goes back so
        // the helper's exit condition is the ordinary one.
        q.exec = Some(exec);
        drop(q);
        self.state.work.notify_all();
        self.state.space.notify_all();
    }
}

/// Everything running one shard needs, by reference: the service hands
/// one out per call, each helper thread builds its own.
#[derive(Clone, Copy)]
pub(super) struct ShardCtx<'a> {
    pub(super) store: &'a ShardedStore,
    pub(super) shard: usize,
    pub(super) state: &'a ShardState,
    pub(super) cfg: ServeConfig,
    pub(super) obs: &'a Obs,
}

/// The per-shard helper thread: park until entries are queued while
/// the token is present, drain the queue, repeat; exit once the queue
/// is closed, empty and the token is back.
pub(super) fn helper_loop(ctx: ShardCtx<'_>) {
    let mut q = ctx.state.q.plock("admission queue");
    loop {
        q = ctx.run(q, Runner::Helper, &|| false);
        if !q.open && q.reqs.is_empty() && q.exec.is_some() {
            return;
        }
        q = ctx.state.work.pwait(q, "admission queue (helper parked)");
    }
}

impl<'a> ShardCtx<'a> {
    /// The one way to run a shard, for clients and the helper alike.
    /// Called with the queue lock held and `done()` known to be false
    /// (a client's own entry is still queued or executing elsewhere):
    /// if entries are queued and the token is present, take the token
    /// and execute batches of up to `max_batch` entries (the lock
    /// released around each) until the queue is empty or `done()` —
    /// checked under the lock before every further batch, so a client
    /// never starts a batch once its own entry has been answered. Then
    /// hand the token back under the lock. Returns at once if the
    /// token is taken: its holder sees the caller's entry at the
    /// latest on hand-back.
    pub(super) fn run(
        self,
        mut q: MutexGuard<'a, QueueState>,
        who: Runner,
        done: &dyn Fn() -> bool,
    ) -> MutexGuard<'a, QueueState> {
        if q.reqs.is_empty() {
            return q;
        }
        let Some(exec) = q.exec.take() else {
            return q;
        };
        let mut running = Running {
            state: self.state,
            exec: Some(exec),
        };
        let max_batch = self.cfg.max_batch;
        loop {
            let exec = running.exec.as_mut().expect("token held until hand-back");
            let queued = q.reqs.len();
            exec.batch.extend(q.reqs.drain(..queued.min(max_batch)));
            if queued >= self.cfg.queue_cap {
                // Producers park only on a full queue, so only a batch
                // cut from a full queue can have any to wake.
                self.state.space.notify_all();
            }
            drop(q);
            execute_batch(self, exec, queued >= max_batch, who);
            // Answered entries (and their tickets) go now, not under
            // the lock and not when the next batch is cut.
            exec.batch.clear();
            q = self.state.q.plock("admission queue");
            if q.reqs.is_empty() || done() {
                break;
            }
        }
        self.hand_back(&mut q, running.exec.take(), who);
        q
    }

    /// Put the token back (queue lock held). The helper parks only
    /// with the queue empty or the token gone, so a client returning
    /// the token to a non-empty (or closing) queue must wake it; the
    /// helper itself re-checks both before it parks.
    pub(super) fn hand_back(self, q: &mut QueueState, exec: Option<Box<Exec>>, who: Runner) {
        q.exec = exec;
        if who == Runner::Caller && (!q.reqs.is_empty() || !q.open) {
            self.state.work.notify_one();
        }
    }
}
