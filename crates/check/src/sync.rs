//! Shimmed synchronization primitives: `std::sync` look-alikes whose
//! every operation is a scheduling point of the model checker.
//!
//! Model code uses these exactly like their `std` counterparts —
//! `Mutex`/`MutexGuard`, `RwLock`, `Condvar`, and
//! sequentially-consistent atomics — but each operation first hands
//! control to the schedule explorer ([`crate::explore::explore`]), so every
//! interleaving the bounds allow is actually executed. Blocking
//! operations park the virtual thread in the runtime instead of the
//! OS, which is what lets the checker *see* deadlocks and lost
//! wakeups instead of hanging on them.
//!
//! Two deliberate simplifications versus `std` (and versus loom):
//!
//! * **Atomics are sequentially consistent.** The checker explores
//!   thread interleavings, not weak-memory reorderings; an `Ordering`
//!   parameter is accepted and ignored. Protocols relying on relaxed
//!   ordering subtleties need a weaker-memory checker (that is what
//!   the nightly ThreadSanitizer CI job is for).
//! * **No spurious wakeups.** `Condvar::wait` returns only on notify.
//!   Code that is incorrect without the re-check loop will instead show
//!   up as an assertion/deadlock under some explored notify ordering.
//!
//! Poisoning does not exist here: a panicking model thread aborts the
//! whole execution and is reported as a violation, so guards never
//! observe a poisoned lock.

use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::sync::{RwLock as StdRwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::rt::{self, Controller, Resource};

/// Re-exported so models can `use crate::sync::Ordering` the way
/// real code uses `std::sync::atomic::Ordering` (the value is ignored
/// — see the [module docs](self)).
pub(crate) use std::sync::atomic::Ordering;

/// A mutual-exclusion lock whose acquire is a scheduling point and
/// whose contention parks the virtual thread in the model runtime.
pub struct Mutex<T> {
    ctl: Arc<Controller>,
    id: usize,
    /// The data lives in a real mutex, but the model-level lock
    /// serializes access, so this acquire never contends.
    data: StdMutex<T>,
}

/// RAII guard for [`Mutex`]; releases the model-level lock on drop.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a model mutex (must run inside a model execution).
    pub fn new(value: T) -> Self {
        let (ctl, _) = rt::current();
        let id = ctl.alloc_resource(Resource::Mutex {
            locked: false,
            waiters: Vec::new(),
        });
        Self {
            ctl,
            id,
            data: StdMutex::new(value),
        }
    }

    /// Acquire, parking the virtual thread while another holds it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let (ctl, tid) = rt::current();
        ctl.mutex_lock(tid, self.id, false);
        self.guard()
    }

    fn guard(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            lock: self,
            inner: Some(self.data.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock before the model-level lock so the
        // next model-level owner finds the std mutex free.
        self.inner.take();
        self.lock.ctl.mutex_unlock(self.lock.id);
    }
}

/// A readers-writer lock with model-level scheduling (see [`Mutex`]).
pub(crate) struct RwLock<T> {
    ctl: Arc<Controller>,
    id: usize,
    data: StdRwLock<T>,
}

/// Shared-access guard for [`RwLock`].
pub(crate) struct ReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<RwLockReadGuard<'a, T>>,
}

/// Exclusive-access guard for [`RwLock`].
pub(crate) struct WriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    inner: Option<RwLockWriteGuard<'a, T>>,
}

impl<T> RwLock<T> {
    /// Create a model rwlock (must run inside a model execution).
    pub(crate) fn new(value: T) -> Self {
        let (ctl, _) = rt::current();
        let id = ctl.alloc_resource(Resource::RwLock {
            readers: 0,
            writer: false,
            waiters: Vec::new(),
        });
        Self {
            ctl,
            id,
            data: StdRwLock::new(value),
        }
    }

    /// Shared-acquire; parks while a writer holds the lock.
    pub(crate) fn read(&self) -> ReadGuard<'_, T> {
        let (ctl, tid) = rt::current();
        ctl.rwlock_lock(tid, self.id, false);
        ReadGuard {
            lock: self,
            inner: Some(self.data.read().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Exclusive-acquire; parks while any reader or writer holds it.
    pub(crate) fn write(&self) -> WriteGuard<'_, T> {
        let (ctl, tid) = rt::current();
        ctl.rwlock_lock(tid, self.id, true);
        WriteGuard {
            lock: self,
            inner: Some(self.data.write().unwrap_or_else(|e| e.into_inner())),
        }
    }
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        self.lock.ctl.rwlock_unlock(self.lock.id, false);
    }
}

impl<T> std::ops::Deref for WriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard live")
    }
}

impl<T> std::ops::DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard live")
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        self.lock.ctl.rwlock_unlock(self.lock.id, true);
    }
}

/// A condition variable whose wait/notify orderings the explorer
/// enumerates.
pub(crate) struct Condvar {
    id: usize,
}

impl Condvar {
    /// Create a model condvar (must run inside a model execution).
    pub(crate) fn new() -> Self {
        let (ctl, _) = rt::current();
        let id = ctl.alloc_resource(Resource::Condvar {
            waiters: Vec::new(),
        });
        Self { id }
    }

    /// Release `guard`'s mutex, park until notified, reacquire.
    pub(crate) fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let (ctl, tid) = rt::current();
        let mutex = guard.lock;
        // Drop the data lock, atomically release the model lock and
        // park; then reacquire both.
        guard.inner.take();
        std::mem::forget(guard); // model-level release happens inside condvar_wait
        ctl.condvar_wait(tid, self.id, mutex.id);
        ctl.mutex_lock(tid, mutex.id, true);
        mutex.guard()
    }

    /// Wake one waiter. Which one is a scheduling decision.
    pub(crate) fn notify_one(&self) {
        let (ctl, tid) = rt::current();
        ctl.condvar_notify(tid, self.id, false);
    }

    /// Wake every waiter.
    pub(crate) fn notify_all(&self) {
        let (ctl, tid) = rt::current();
        ctl.condvar_notify(tid, self.id, true);
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

/// Model atomics: every access is a scheduling point; all orderings
/// execute as sequentially consistent (see the [module docs](self)).
pub(crate) mod atomic {
    use super::Ordering;
    use crate::rt;

    /// A model `AtomicU64` (see the [module docs](super)).
    pub(crate) struct AtomicU64 {
        v: std::sync::atomic::AtomicU64,
    }

    impl AtomicU64 {
        /// Wrap an initial value (no scheduling point).
        pub(crate) fn new(v: u64) -> Self {
            Self {
                v: std::sync::atomic::AtomicU64::new(v),
            }
        }

        /// Atomic load (scheduling point; SeqCst).
        pub(crate) fn load(&self, _order: Ordering) -> u64 {
            let (ctl, tid) = rt::current();
            ctl.sched_point(tid);
            self.v.load(Ordering::SeqCst)
        }

        /// Atomic store (scheduling point; SeqCst).
        pub(crate) fn store(&self, val: u64, _order: Ordering) {
            let (ctl, tid) = rt::current();
            ctl.sched_point(tid);
            self.v.store(val, Ordering::SeqCst);
        }

        /// Atomic fetch-add (scheduling point; SeqCst).
        pub(crate) fn fetch_add(&self, val: u64, _order: Ordering) -> u64 {
            let (ctl, tid) = rt::current();
            ctl.sched_point(tid);
            self.v.fetch_add(val, Ordering::SeqCst)
        }
    }
}
