//! Virtual threads: the `std::thread` look-alike for model code.
//!
//! [`spawn`] creates a *virtual* thread — backed by an OS thread, but
//! scheduled exclusively by the model checker's `crate::rt` runtime,
//! so only one runs at a time and every handoff is a recorded
//! decision. [`JoinHandle::join`] parks the joiner in the runtime
//! (observable as blocking, so a join cycle is reported as a
//! deadlock, not a hang).

use std::sync::Arc;

use crate::rt::{self, Controller};

/// Handle to a spawned virtual thread.
pub struct JoinHandle {
    ctl: Arc<Controller>,
    tid: usize,
}

impl JoinHandle {
    /// Park until the thread finishes.
    ///
    /// Panics in the model (assertion failures) do not propagate
    /// through `join`; they abort the whole execution and are
    /// reported as the violation.
    pub fn join(self) {
        let (ctl, tid) = rt::current();
        debug_assert!(Arc::ptr_eq(&ctl, &self.ctl), "join across executions");
        ctl.join_thread(tid, self.tid);
    }
}

/// Spawn a virtual thread running `f`.
///
/// The spawn itself is a scheduling point: the child may run to
/// completion before the parent's next operation, or not start until
/// after the parent finishes — the explorer tries both.
pub fn spawn<F>(f: F) -> JoinHandle
where
    F: FnOnce() + Send + 'static,
{
    let (ctl, parent) = rt::current();
    let tid = ctl.spawn(parent, Box::new(f));
    JoinHandle { ctl, tid }
}
