//! Model of the hot-key cache protocol in `isi_serve::service`.
//!
//! The serving layer answers repeated hot-key lookups from a small
//! per-shard cache in front of the authoritative shard state. The
//! cache lives in the shard's queue state, behind the one mutex that
//! also guards the admission queue and the executor token:
//!
//! - a client's `get` probes the cache and, on a miss, enqueues its
//!   entry in the same critical section — or, if the queue is empty
//!   and the token present, takes the token there instead (the
//!   **direct path**: no entry), reads the store outside the lock,
//!   and refills the cache under it *before* handing the token back;
//! - the token holder executes entries outside the lock, and refills
//!   the cache under it after a read, *before* answering the read;
//! - after applying a write it **invalidates the cached entry under
//!   the lock before acknowledging** the write. Otherwise there is a
//!   window where the client has been told "your write is applied"
//!   but its next lookup still returns the pre-write value from the
//!   cache — a read-your-own-writes violation.
//!
//! A probe that hits also sets the way's referenced bit, under the
//! same lock. That bit only decides which key a later fill evicts,
//! never what a cached key answers, so the protocol is unchanged and
//! the model keeps one key and no replacement state.
//!
//! Two clients share one hot key: a reader whose `get` misses the
//! empty cache (so it may take the token and fill the slot with the
//! old value), and a writer that `put`s the new value and then reads
//! it. To keep the model to two threads, whoever takes the token
//! drains the queue before handing it back — the helper's part of the
//! protocol, which the [`queue`](super::queue) model checks on its own.
//!
//! [`invalidate_before_ack`] models the protocol the serve path
//! implements (invalidate, *then* ack; refill, *then* hand back):
//! across every interleaving, the writer's read after its ack returns
//! its own write. Two known-bad variants are expected to violate — the
//! test suite asserts the explorer finds the stale read and that its
//! seed replays: [`ack_before_invalidate`] flips the write's two
//! steps, and [`refill_after_handback`] lets the direct path hand the
//! token back before it refills, so a put acknowledged in between is
//! overwritten in the cache by the value read before it.

use std::sync::Arc;

use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::vt;

/// The shard state behind the queue mutex.
struct Queue {
    /// Cached value of the hot key (`None`: empty slot).
    cache: Option<u64>,
    /// Queued entries: `(client, None)` is a `get`, `(client,
    /// Some(v))` a `put` of `v`.
    reqs: Vec<(usize, Option<u64>)>,
    /// The executor token is in the queue state (nobody runs).
    token: bool,
}

struct Shard {
    q: Mutex<Queue>,
    /// Authoritative value; only the token holder touches it, outside
    /// the queue lock.
    store: Mutex<u64>,
    /// One response slot per client, and the channel its waiter parks
    /// on (the real tickets are one mutex each).
    tickets: Mutex<[Option<u64>; 2]>,
    answered: Condvar,
    invalidate_first: bool,
    /// The direct path refills the cache before it hands the token
    /// back (false only in the known-bad variant).
    refill_first: bool,
}

const READER: usize = 0;
const WRITER: usize = 1;

impl Shard {
    /// `get`: probe, then — on a miss — take the direct path on an
    /// idle shard, or enqueue, under the same guard.
    fn get(&self, client: usize) -> u64 {
        let mut q = self.q.lock();
        if let Some(v) = q.cache {
            return v;
        }
        if !q.reqs.is_empty() || !q.token {
            return self.submit(q, client, None);
        }
        q.token = false;
        drop(q);
        let v = *self.store.lock();
        let mut q = self.q.lock();
        if self.refill_first {
            q.cache = Some(v);
        }
        // Hand back: whatever queued meanwhile is drained first.
        q.token = true;
        drop(self.run(q));
        if !self.refill_first {
            self.q.lock().cache = Some(v);
        }
        v
    }

    /// Push the entry, run the shard if its token is present, then
    /// wait for the answer.
    fn submit(&self, mut q: MutexGuard<'_, Queue>, client: usize, op: Option<u64>) -> u64 {
        q.reqs.push((client, op));
        drop(self.run(q));
        let mut tickets = self.tickets.lock();
        loop {
            if let Some(v) = tickets[client].take() {
                return v;
            }
            tickets = self.answered.wait(tickets);
        }
    }

    /// Take the token if it is present, execute entries outside the
    /// lock until the queue is empty, hand the token back.
    fn run<'a>(&'a self, mut q: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        if q.reqs.is_empty() || !q.token {
            return q;
        }
        q.token = false;
        while !q.reqs.is_empty() {
            let batch: Vec<_> = q.reqs.drain(..).collect();
            drop(q);
            for (client, op) in batch {
                self.execute(client, op);
            }
            q = self.q.lock();
        }
        q.token = true;
        q
    }

    /// One entry, by the token holder.
    fn execute(&self, client: usize, op: Option<u64>) {
        let Some(v) = op else {
            let v = *self.store.lock();
            self.q.lock().cache = Some(v);
            self.answer(client, v);
            return;
        };
        *self.store.lock() = v;
        if self.invalidate_first {
            self.q.lock().cache = None;
            self.answer(client, v);
        } else {
            self.answer(client, v);
            self.q.lock().cache = None;
        }
    }

    fn answer(&self, client: usize, v: u64) {
        self.tickets.lock()[client] = Some(v);
        self.answered.notify_all();
    }
}

/// Shared body: the writer puts 2 over the stored 1 while the reader's
/// `get` races it; once its put returns, the writer must read 2.
fn cache_model(invalidate_first: bool, refill_first: bool) {
    let shard = Arc::new(Shard {
        q: Mutex::new(Queue {
            cache: None,
            reqs: Vec::new(),
            token: true,
        }),
        store: Mutex::new(1),
        tickets: Mutex::new([None; 2]),
        answered: Condvar::new(),
        invalidate_first,
        refill_first,
    });

    let reader = {
        let shard = Arc::clone(&shard);
        vt::spawn(move || {
            let v = shard.get(READER);
            assert!(v == 1 || v == 2, "read a value never written: {v}");
        })
    };

    // The writer (main virtual thread): `put`, then read its own write.
    let q = shard.q.lock();
    shard.submit(q, WRITER, Some(2));
    let v = shard.get(WRITER);
    assert_eq!(v, 2, "stale read after own-write ack");
    reader.join();
}

/// The implemented protocol: invalidate the cache entry, then ack;
/// refill, then hand the token back.
pub fn invalidate_before_ack() {
    cache_model(true, true);
}

/// The broken ordering (known-bad): ack first, invalidate later —
/// some interleaving serves the stale cached value after the ack.
pub fn ack_before_invalidate() {
    cache_model(false, true);
}

/// The broken direct path (known-bad): the token goes back before the
/// refill — a put can be applied, invalidated and acked in between,
/// and the refill then caches the value read before it.
pub fn refill_after_handback() {
    cache_model(true, false);
}
