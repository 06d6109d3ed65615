//! Coroutine primitives: the yield-once [`suspend`] future, a no-op waker,
//! and [`CoroHandle`] — the resume / is-done / get-result handle API of the
//! paper's Section 4.
//!
//! Rust `async fn` is a stackless coroutine in exactly the sense of the
//! C++ coroutines TS the paper builds on: the compiler splits the body at
//! suspension points and stores live variables in a state-machine frame.
//! Two differences matter for interleaving:
//!
//! * Rust frames are plain values (no mandatory heap allocation), so the
//!   scheduler can keep a group of frames in a fixed slab — this is the
//!   frame-recycling optimization the paper had to apply by hand.
//! * Resumption is `Future::poll`. Interleaving does not need a real event
//!   source, so we poll with a [no-op waker](noop_waker) and treat
//!   `Poll::Pending` as "suspended, resume me on the next round-robin
//!   pass".

#![expect(unsafe_code, reason = "builds the no-op Waker from a raw vtable")]

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// A future that suspends exactly once, then completes.
///
/// This is the Rust spelling of the paper's `co_await suspend_always()`
/// (Listing 5, line 11): the coroutine yields control to the scheduler
/// right after issuing a prefetch, and continues past the `.await` when
/// resumed.
#[derive(Debug, Default)]
pub struct Suspend {
    yielded: bool,
}

impl Future for Suspend {
    type Output = ();

    #[inline(always)]
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            Poll::Pending
        }
    }
}

/// Suspend the current coroutine once: `suspend().await`.
#[inline(always)]
pub fn suspend() -> Suspend {
    Suspend::default()
}

const NOOP_VTABLE: RawWakerVTable = RawWakerVTable::new(
    |_| RawWaker::new(std::ptr::null(), &NOOP_VTABLE),
    |_| {},
    |_| {},
    |_| {},
);

/// A waker that does nothing.
///
/// Interleaved execution is cooperative time-sharing, not event-driven
/// I/O: a suspended lookup is always ready to be resumed, so wake-ups
/// carry no information and the scheduler simply polls round-robin.
#[inline]
pub fn noop_waker() -> Waker {
    // SAFETY: all vtable functions are no-ops (or clone the same no-op
    // waker), and the data pointer is never dereferenced, so every
    // RawWaker contract holds trivially.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &NOOP_VTABLE)) }
}

/// Poll `fut` once with a no-op waker. Returns `Poll::Ready(output)` if it
/// completed, `Poll::Pending` if it suspended.
#[inline(always)]
pub fn resume<F: Future>(fut: Pin<&mut F>) -> Poll<F::Output> {
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    fut.poll(&mut cx)
}

/// Drive a future to completion on the current thread, resuming through
/// every suspension. The synchronous analogue of calling a coroutine with
/// `interleave = false` and looping on `resume()`.
#[inline]
pub fn run_to_completion<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    loop {
        if let Poll::Ready(out) = resume(fut.as_mut()) {
            return out;
        }
    }
}

/// An owning coroutine handle with the paper's API: `resume()`,
/// `is_done()`, `get_result()` (Section 4, "Binary search as a
/// coroutine").
///
/// This is the ergonomic, heap-pinned handle used in examples and tests.
/// The hot-path schedulers in [`crate::sched`] avoid the allocation by
/// storing frames inline in a slab; `CoroHandle` exists to demonstrate the
/// one-lookup-at-a-time API the paper describes.
pub struct CoroHandle<F: Future> {
    fut: Pin<Box<F>>,
    result: Option<F::Output>,
}

impl<F: Future> CoroHandle<F> {
    /// Create a handle for a not-yet-started coroutine.
    pub fn new(fut: F) -> Self {
        Self {
            fut: Box::pin(fut),
            result: None,
        }
    }

    /// Resume the coroutine (or start it, on first call). Returns `true`
    /// if the coroutine completed during this resumption.
    ///
    /// Resuming a completed coroutine is a no-op returning `true` (unlike
    /// C++, where it is undefined behaviour — one fewer footgun in the
    /// Rust spelling).
    pub fn resume(&mut self) -> bool {
        if self.result.is_some() {
            return true;
        }
        match resume(self.fut.as_mut()) {
            Poll::Ready(out) => {
                self.result = Some(out);
                true
            }
            Poll::Pending => false,
        }
    }

    /// True if the coroutine has run to completion.
    pub fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// Take the coroutine result.
    ///
    /// # Panics
    /// Panics if the coroutine has not completed — mirrors the paper's
    /// contract that `getResult` is only called after `isDone()`.
    pub fn get_result(&mut self) -> F::Output {
        self.result
            .take()
            .expect("get_result() called before the coroutine completed")
    }

    /// Drive this coroutine to completion and return its result.
    pub fn finish(mut self) -> F::Output {
        while !self.resume() {}
        self.get_result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    async fn yields_n(n: u32) -> u32 {
        let mut sum = 0;
        for i in 0..n {
            sum += i;
            suspend().await;
        }
        sum
    }

    #[test]
    fn suspend_yields_exactly_once() {
        let mut s = std::pin::pin!(suspend());
        assert_eq!(resume(s.as_mut()), Poll::Pending);
        assert_eq!(resume(s.as_mut()), Poll::Ready(()));
        // Further polls stay ready (future is fused).
        assert_eq!(resume(s.as_mut()), Poll::Ready(()));
    }

    #[test]
    fn run_to_completion_resumes_through_all_suspensions() {
        assert_eq!(run_to_completion(yields_n(0)), 0);
        assert_eq!(run_to_completion(yields_n(5)), 1 + 2 + 3 + 4);
    }

    #[test]
    fn handle_api_matches_paper_contract() {
        let mut h = CoroHandle::new(yields_n(3));
        assert!(!h.is_done());
        // Three suspensions -> three `false` resumes, then completion.
        assert!(!h.resume());
        assert!(!h.resume());
        assert!(!h.resume());
        assert!(h.resume());
        assert!(h.is_done());
        assert_eq!(h.get_result(), 3);
    }

    #[test]
    fn handle_resume_after_done_is_noop() {
        let mut h = CoroHandle::new(yields_n(0));
        assert!(h.resume());
        assert!(h.resume()); // safe, unlike C++
        assert_eq!(h.get_result(), 0);
    }

    #[test]
    #[should_panic(expected = "before the coroutine completed")]
    fn get_result_before_done_panics() {
        let mut h = CoroHandle::new(yields_n(2));
        let _ = h.get_result();
    }

    #[test]
    fn finish_returns_result() {
        assert_eq!(CoroHandle::new(yields_n(4)).finish(), 6);
    }

    #[test]
    fn noop_waker_clone_and_wake_do_nothing() {
        let w = noop_waker();
        let w2 = w.clone();
        w.wake_by_ref();
        w2.wake();
    }

    #[test]
    fn non_suspending_coroutine_completes_on_first_poll() {
        // Paper Section 4: with interleave=false the coroutine behaves
        // like the original function — a single resume completes it.
        async fn immediate() -> u32 {
            42
        }
        let mut h = CoroHandle::new(immediate());
        assert!(h.resume());
        assert_eq!(h.get_result(), 42);
    }
}
