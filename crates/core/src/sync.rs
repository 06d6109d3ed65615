//! Poison-aware lock helpers: the workspace policy for panicking
//! lock acquisition.
//!
//! `Mutex::lock().unwrap()` turns a poisoned lock into an opaque
//! `PoisonError` panic with no hint of *which* lock was involved or
//! what protocol it protects. In a system with per-shard dispatcher
//! threads and a background merger, that turns one panicking thread
//! into a cascade of inscrutable secondary panics — or worse, a
//! silently wedged merger waiting on a condvar whose notifier died.
//!
//! The policy here is explicit: **propagate a tagged panic**. A
//! poisoned lock means some thread already panicked while holding it,
//! so the shared state may be mid-protocol and must not be trusted;
//! continuing is wrong, and swallowing the poison
//! (`unwrap_or_else(PoisonError::into_inner)`) would do exactly that.
//! Instead these helpers re-panic with the caller-supplied context
//! tag, so the secondary panic names the lock and the protocol it
//! guards, and the original panic remains the root cause in the
//! backtrace.
//!
//! The one exception is cleanup that runs *during* an unwind and only
//! fails the shared state closed (`crates/serve`: a ticket's `abandon`,
//! the executor token's drop guard and the merger thread's). A second
//! panic there would abort the process, and closing is the right end
//! for a mid-protocol state as well, so those three take the guard out
//! of the `PoisonError`. Nothing else may: in particular, code that rejects a
//! request releases its guard *before* it panics, so that rejection
//! never poisons a lock.
//!
//! Clippy enforces that `crates/serve` and `crates/durable` acquire
//! every lock through these helpers: their `clippy.toml`s list
//! `Mutex::lock`, `RwLock::{read, write}` and `Condvar::{wait,
//! wait_timeout}` under `disallowed-methods` (nothing there waits with
//! a timeout, so no helper wraps one), and each of the four
//! lock calls in the three exempt cleanups above carries an `expect`
//! of that lint with its reason — which warns if the call it excuses
//! goes away.

use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Poison-aware [`Mutex`] acquisition (see the [module docs](self)).
pub trait MutexExt<T> {
    /// Lock, panicking with `ctx` if the mutex is poisoned.
    fn plock(&self, ctx: &'static str) -> MutexGuard<'_, T>;
}

impl<T> MutexExt<T> for Mutex<T> {
    #[track_caller]
    fn plock(&self, ctx: &'static str) -> MutexGuard<'_, T> {
        self.lock()
            .unwrap_or_else(|_| panic!("{ctx}: mutex poisoned by a panicked thread"))
    }
}

/// Poison-aware [`RwLock`] acquisition (see the [module docs](self)).
pub trait RwLockExt<T> {
    /// Shared-lock, panicking with `ctx` if the lock is poisoned.
    fn pread(&self, ctx: &'static str) -> RwLockReadGuard<'_, T>;
    /// Exclusive-lock, panicking with `ctx` if the lock is poisoned.
    fn pwrite(&self, ctx: &'static str) -> RwLockWriteGuard<'_, T>;
}

impl<T> RwLockExt<T> for RwLock<T> {
    #[track_caller]
    fn pread(&self, ctx: &'static str) -> RwLockReadGuard<'_, T> {
        self.read()
            .unwrap_or_else(|_| panic!("{ctx}: rwlock poisoned by a panicked thread"))
    }

    #[track_caller]
    fn pwrite(&self, ctx: &'static str) -> RwLockWriteGuard<'_, T> {
        self.write()
            .unwrap_or_else(|_| panic!("{ctx}: rwlock poisoned by a panicked thread"))
    }
}

/// Poison-aware [`Condvar`] waits (see the [module docs](self)).
///
/// A condvar wait re-acquires the mutex on wakeup, so it can observe
/// poison exactly like a lock call; the same tagged-panic policy
/// applies.
pub trait CondvarExt {
    /// Wait on `guard`, panicking with `ctx` if the mutex was poisoned
    /// while parked.
    fn pwait<'a, T>(&self, guard: MutexGuard<'a, T>, ctx: &'static str) -> MutexGuard<'a, T>;
}

impl CondvarExt for Condvar {
    #[track_caller]
    fn pwait<'a, T>(&self, guard: MutexGuard<'a, T>, ctx: &'static str) -> MutexGuard<'a, T> {
        self.wait(guard)
            .unwrap_or_else(|_| panic!("{ctx}: mutex poisoned by a panicked thread"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn helpers_behave_like_plain_locks_when_healthy() {
        let m = Mutex::new(5);
        *m.plock("test mutex") += 1;
        assert_eq!(*m.plock("test mutex"), 6);

        let rw = RwLock::new(7);
        assert_eq!(*rw.pread("test rwlock"), 7);
        *rw.pwrite("test rwlock") = 8;
        assert_eq!(*rw.pread("test rwlock"), 8);
    }

    #[test]
    fn pwait_wakes_on_notify() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let other = Arc::clone(&state);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*other;
            *m.plock("flag") = true;
            cv.notify_one();
        });
        let (m, cv) = &*state;
        let mut flag = m.plock("flag");
        while !*flag {
            flag = cv.pwait(flag, "flag");
        }
        t.join().unwrap();
    }

    #[test]
    fn poisoned_mutex_panics_with_the_tag() {
        let m = Arc::new(Mutex::new(0));
        let clone = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = clone.plock("victim");
            panic!("poisoner");
        })
        .join();
        let err = std::panic::catch_unwind(|| m.plock("shard queue")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("shard queue"), "panic lost its tag: {msg}");
        assert!(msg.contains("poisoned"), "panic lost the cause: {msg}");
    }

    #[test]
    fn poisoned_rwlock_panics_with_the_tag() {
        let rw = Arc::new(RwLock::new(0));
        let clone = Arc::clone(&rw);
        let _ = std::thread::spawn(move || {
            let _guard = clone.pwrite("victim");
            panic!("poisoner");
        })
        .join();
        let err = std::panic::catch_unwind(|| drop(rw.pread("epoch cell"))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("epoch cell"), "panic lost its tag: {msg}");
        let err = std::panic::catch_unwind(|| drop(rw.pwrite("epoch cell"))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("epoch cell"), "panic lost its tag: {msg}");
    }
}
