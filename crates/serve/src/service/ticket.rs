//! The one-shot response slot a submitter waits on.

use std::sync::{Condvar, Mutex, PoisonError};

use isi_core::sync::{CondvarExt, MutexExt};

/// A one-shot response slot; the submitter blocks on `wait`, the
/// shard's runner fills it with `fulfill` — or with `abandon` when it
/// unwinds before answering.
pub(super) struct Ticket<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

struct Slot<T> {
    answer: Option<Answer<T>>,
    /// The waiter sleeps on `ready`. A submitter that ran its own
    /// entry finds the answer without ever sleeping, and its runner
    /// (itself) skips the wake-up call.
    parked: bool,
}

enum Answer<T> {
    Value(T),
    /// The shard's runner unwound with this entry unanswered.
    Abandoned,
}

impl<T> Ticket<T> {
    pub(super) fn new() -> Self {
        Self {
            slot: Mutex::new(Slot {
                answer: None,
                parked: false,
            }),
            ready: Condvar::new(),
        }
    }

    pub(super) fn fulfill(&self, result: T) {
        let mut slot = self.slot.plock("ticket slot");
        slot.answer = Some(Answer::Value(result));
        if slot.parked {
            self.ready.notify_one();
        }
    }

    /// Fail the wait of an entry that will never be executed. A ticket
    /// that was already answered keeps its answer.
    pub(super) fn abandon(&self) {
        // Runs from a drop guard while a runner unwinds, so it must not
        // panic; nothing panics while holding a slot, so a poisoned
        // one is still whole.
        #[expect(clippy::disallowed_methods, reason = "unwind-time cleanup")]
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.answer.is_none() {
            slot.answer = Some(Answer::Abandoned);
            if slot.parked {
                self.ready.notify_one();
            }
        }
    }

    pub(super) fn is_answered(&self) -> bool {
        self.slot.plock("ticket slot").answer.is_some()
    }

    /// # Panics
    /// Panics with "shard failed" if the entry was abandoned.
    pub(super) fn wait(&self) -> T {
        let mut slot = self.slot.plock("ticket slot");
        loop {
            match slot.answer.take() {
                Some(Answer::Value(result)) => return result,
                Some(Answer::Abandoned) => {
                    drop(slot);
                    panic!("shard failed: its runner panicked before answering this request");
                }
                None => {
                    slot.parked = true;
                    slot = self.ready.pwait(slot, "ticket slot (await result)");
                }
            }
        }
    }
}
