//! Model of caller-runs admission in `isi_serve::service`: the bounded
//! FIFO queue, the per-shard executor token and the helper thread.
//!
//! Every producer pushes its entry under the queue mutex (parking on
//! `space` while the queue is at capacity). A **caller** then takes
//! the token if it is present and executes batches — the lock
//! released around each — until its own entry is answered, and hands
//! the token back under the lock; a **fan-out** producer leaves its
//! entry to the helper and notifies it only if the token is present.
//! The helper (the main virtual thread) parks on `work` until entries
//! are queued while the token is present, drains until the queue is
//! empty, and exits once the queue is closed. `close` is played by the
//! last producer to finish, in the critical section that ends its
//! request — the explorer enumerates every schedule without pruning,
//! and a fourth thread does not fit its bound.
//!
//! What the model keeps from the real code is the order of
//! lock/take/drain/unlock/execute/lock/hand-back/notify operations.
//! The invariant is the one the hand-back rule exists for: **no entry
//! is queued while the token is free and the helper is parked with no
//! wake-up on its way** — such an entry would wait for ever. It is
//! asserted wherever a thread is about to release the queue lock; a
//! lost wake-up that slips past it still shows up as a deadlock, which
//! the checker reports with a replay seed. The final asserts check
//! that exactly the produced entries were answered.
//!
//! * [`backpressure_no_deadlock`] — capacity 1, two callers: a batch
//!   cut from a full queue must wake the parked producer.
//! * [`token_handback_no_stranded_entry`] — roomy queue, one entry per
//!   batch, two callers: whoever finds the token taken relies on the
//!   holder's hand-back.
//! * [`fan_out_no_stranded_entry`] — a caller and a fan-out producer:
//!   the fan-out entry relies on the conditional helper notify or on
//!   the caller's hand-back, whichever applies.
//! * [`handback_without_notify`] — **known-bad**: the token goes back
//!   without re-checking the queue, so an entry that arrived while the
//!   holder was executing is stranded.
//!
//! A `get` that misses the cache on an idle shard takes the token
//! without queuing an entry (the direct path, modelled in
//! [`cache`](super::cache)) and hands it back through the same
//! `hand_back`, so to this protocol it is a caller whose one-entry
//! batch was already drained: entries queued behind it are re-checked
//! and the helper notified exactly as here.

use std::sync::Arc;

use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::vt;

struct State {
    items: Vec<usize>,
    open: bool,
    /// The executor token is in the queue state (nobody runs).
    token: bool,
    /// Producers whose request has returned.
    finished: usize,
    /// One "ticket" per producer: its entry was executed. The real
    /// tickets live outside the queue lock, but a runner only ever
    /// probes one under it, so the model publishes a batch's answers
    /// when its runner re-takes the lock — every probe sees the same.
    answered: Vec<bool>,
    /// Ghost: the helper is parked on `work`.
    helper_parked: bool,
    /// Ghost: a notify was issued for the parked helper and it has not
    /// run since.
    wakeup_pending: bool,
}

/// One entry per batch: the smallest batch limit is the one under
/// which a caller hands the token back with entries still queued.
const MAX_BATCH: usize = 1;

struct Shard {
    q: Mutex<State>,
    /// The helper parks here.
    work: Condvar,
    /// Producers park here when the queue is at capacity.
    space: Condvar,
    capacity: usize,
    /// The hand-back re-checks the queue and notifies the helper
    /// (false only in the known-bad variant).
    handback_notifies: bool,
}

#[derive(Clone, Copy)]
enum Who {
    Caller(usize),
    Helper,
}

impl Shard {
    fn notify_helper(&self, q: &mut State) {
        if q.helper_parked {
            q.wakeup_pending = true;
        }
        self.work.notify_one();
    }

    /// Called wherever the queue lock is about to be released.
    fn assert_no_stranded_entry(&self, q: &State) {
        let stranded = q.token && !q.items.is_empty() && q.helper_parked && !q.wakeup_pending;
        assert!(
            !stranded,
            "stranded entry: {:?} queued with the token free and the helper parked un-notified",
            q.items
        );
    }

    /// `ShardCtx::run`: take the token if it is free and there is work,
    /// execute batches until the queue is empty or the caller's own
    /// entry is answered, hand the token back.
    fn run<'a>(&'a self, mut q: MutexGuard<'a, State>, who: Who) -> MutexGuard<'a, State> {
        let done = |q: &State| match who {
            Who::Caller(own) => q.answered[own],
            Who::Helper => false,
        };
        if q.items.is_empty() || !q.token {
            return q;
        }
        q.token = false;
        loop {
            let queued = q.items.len();
            let batch: Vec<usize> = q.items.drain(..queued.min(MAX_BATCH)).collect();
            if queued >= self.capacity {
                self.space.notify_all();
            }
            self.assert_no_stranded_entry(&q);
            drop(q);
            // The batch executes here, outside the lock.
            q = self.q.lock();
            for item in batch {
                q.answered[item] = true;
            }
            if q.items.is_empty() || done(&q) {
                break;
            }
        }
        q.token = true;
        if self.handback_notifies
            && matches!(who, Who::Caller(_))
            && (!q.items.is_empty() || !q.open)
        {
            self.notify_helper(&mut q);
        }
        // Checked here, not only at the unlock: the `close` that the
        // last producer plays right after would mask a missing notify.
        self.assert_no_stranded_entry(&q);
        q
    }
}

/// Shared body. Producer `p` is a caller unless `fan_out` names it.
fn token_model(capacity: usize, fan_out: Option<usize>, handback_notifies: bool) {
    const PRODUCERS: usize = 2;
    let shard = Arc::new(Shard {
        q: Mutex::new(State {
            items: Vec::new(),
            open: true,
            token: true,
            finished: 0,
            answered: vec![false; PRODUCERS],
            helper_parked: false,
            wakeup_pending: false,
        }),
        work: Condvar::new(),
        space: Condvar::new(),
        capacity,
        handback_notifies,
    });

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let shard = Arc::clone(&shard);
            vt::spawn(move || {
                let mut q = shard.q.lock();
                while q.items.len() >= shard.capacity {
                    q = shard.space.wait(q);
                }
                q.items.push(p);
                if fan_out == Some(p) {
                    // Left to the helper; a taken token needs no
                    // wake-up, its holder's hand-back sees the entry.
                    if q.token {
                        shard.notify_helper(&mut q);
                    }
                } else {
                    q = shard.run(q, Who::Caller(p));
                }
                q.finished += 1;
                if q.finished == PRODUCERS {
                    // `close`: whatever is still queued is the helper's
                    // to answer.
                    q.open = false;
                    shard.notify_helper(&mut q);
                }
                shard.assert_no_stranded_entry(&q);
            })
        })
        .collect();

    // The helper.
    let mut q = shard.q.lock();
    loop {
        q = shard.run(q, Who::Helper);
        if !q.open && q.items.is_empty() && q.token {
            break;
        }
        q.helper_parked = true;
        shard.assert_no_stranded_entry(&q);
        q = shard.work.wait(q);
        q.helper_parked = false;
        q.wakeup_pending = false;
    }
    drop(q);

    for p in producers {
        p.join();
    }
    let q = shard.q.lock();
    assert!(
        q.answered.iter().all(|&a| a),
        "entries never executed: {:?}",
        q.answered
    );
}

/// Capacity-1 queue with two callers: backpressure engages, nothing
/// deadlocks, both entries are answered.
pub fn backpressure_no_deadlock() {
    token_model(1, None, true);
}

/// Two callers, one entry per batch: an entry queued behind a running
/// caller is never left with the token free and nobody notified.
pub fn token_handback_no_stranded_entry() {
    token_model(4, None, true);
}

/// A caller and a fan-out producer (a `get_many` slice left to the
/// helper): the same invariant holds in every interleaving.
pub fn fan_out_no_stranded_entry() {
    token_model(4, Some(1), true);
}

/// The broken hand-back (known-bad): the token goes back without the
/// queue re-check and helper notify — some interleaving strands the
/// entry that arrived while the holder was executing.
pub fn handback_without_notify() {
    token_model(4, None, false);
}
