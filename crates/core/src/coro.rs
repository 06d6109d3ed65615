//! Coroutine primitives: the yield-once [`suspend`] future and
//! [`resume`], one step of the paper's resume / is-done / get-result
//! handle API (Section 4).
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
//!   source, so we poll with std's no-op waker ([`Waker::noop`]) and treat
//!   `Poll::Pending` as "suspended, resume me on the next round-robin
//!   pass". The paper's `resume()` / `isDone()` / `getResult()` triple is
//!   [`resume`] returning `Poll::Pending` or `Poll::Ready(result)`.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

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

/// Poll `fut` once with a no-op waker. Returns `Poll::Ready(output)` if it
/// completed, `Poll::Pending` if it suspended.
///
/// Interleaved execution is cooperative time-sharing, not event-driven
/// I/O: a suspended lookup is always ready to be resumed, so wake-ups
/// carry no information and the waker does nothing.
#[inline(always)]
pub fn resume<F: Future>(fut: Pin<&mut F>) -> Poll<F::Output> {
    fut.poll(&mut Context::from_waker(Waker::noop()))
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
    fn non_suspending_coroutine_completes_on_first_poll() {
        // Paper Section 4: with interleave=false the coroutine behaves
        // like the original function — a single resume completes it.
        async fn immediate() -> u32 {
            42
        }
        let mut fut = std::pin::pin!(immediate());
        assert_eq!(resume(fut.as_mut()), Poll::Ready(42));
    }
}
