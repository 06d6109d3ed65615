//! Thread-parallel execution of interleaved bulk lookups.
//!
//! The paper's Section 5 multithreading discussion observes that
//! instruction-stream interleaving composes with thread-level
//! parallelism: each hardware thread hides its own cache-miss latency
//! within its slice of the batch. This module supplies that composition
//! without changing a single lookup coroutine:
//!
//! * the input batch and the output slice are split into one contiguous
//!   **chunk** per thread (`slice::chunks` zipped with `chunks_mut`), so
//!   every thread owns its slice of `out` and the borrow checker sees
//!   the disjointness — no `unsafe`;
//! * chunk 0 runs on the calling thread and the others on scoped
//!   threads; with one thread a batch is exactly one scheduler run on
//!   the caller, with no spawn and no synchronization;
//! * every chunk runs through the *existing* interleaved scheduler
//!   ([`run_interleaved`]), and a group of one, or a chunk shorter than
//!   two lookups, has nothing to interleave with: it runs the lookup's
//!   *non-suspending* instantiation through [`run_sequential`] — the
//!   paper's point that one coroutine compiles to both code paths,
//!   decided here once for every index;
//! * per-chunk [`RunStats`] are merged at the join
//!   ([`RunStats::merge`]).
//!
//! Everything is `std`: scoped threads, no work queues, no new
//! dependencies.

use std::future::Future;

use crate::sched::{run_interleaved, run_sequential, RunStats};

/// The thread count of the parallel drivers.
///
/// `threads == 0` means "use [`std::thread::available_parallelism`]".
/// The struct is `Copy` so call sites can pass it by value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParConfig {
    /// Threads, one contiguous chunk each (0 = one per available
    /// hardware thread).
    pub threads: usize,
}

impl ParConfig {
    /// `threads` threads.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// Resolved thread count: explicit, or the machine's available
    /// parallelism (at least 1).
    pub(crate) fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Chunk-parallel interleaved execution — the parallel analogue of
/// [`run_interleaved`].
///
/// The batch is split into contiguous chunks of
/// `inputs.len().div_ceil(min(threads, inputs.len()))` lookups (the last
/// may be shorter), so at most one chunk per thread. Each chunk runs
/// through [`run_interleaved`] with `group_size` in-flight coroutines
/// built by `make` — the same coroutines, the same memory backends, the
/// same single codepath as the sequential engine. Where that would be
/// one coroutine at a time (a `group_size` below two, or a chunk of a
/// single lookup) the chunk runs `make_seq`'s futures through
/// [`run_sequential`] instead: callers pass the lookup's
/// `INTERLEAVE = false` instantiation there, which never suspends, so
/// such a run costs no slab, no switch, and reports `switches == 0`.
///
/// `out[i]` receives the result of `inputs[i]`; each chunk writes its
/// own slice of `out`, so no driver above carries a sink of its own.
///
/// Returns the merged [`RunStats`]: totals sum, `peak_in_flight` is the
/// maximum over chunks.
///
/// # Panics
/// Panics if `out.len() != inputs.len()`. A lookup that panics, on any
/// thread, panics this call on the calling thread once every chunk has
/// stopped.
pub fn run_interleaved_par<T, Fs, F, Ms, Mk>(
    cfg: ParConfig,
    group_size: usize,
    inputs: &[T],
    make_seq: Ms,
    make: Mk,
    out: &mut [F::Output],
) -> RunStats
where
    T: Copy + Sync,
    Fs: Future<Output = F::Output>,
    F: Future,
    F::Output: Send,
    Ms: Fn(T) -> Fs + Sync,
    Mk: Fn(T) -> F + Sync,
{
    assert_eq!(inputs.len(), out.len(), "output length mismatch");
    if inputs.is_empty() {
        return RunStats::default();
    }
    let run = |(inputs, out): (&[T], &mut [F::Output])| {
        let sink = |i: usize, r| out[i] = r;
        let items = inputs.iter().copied();
        // A group beyond the chunk's length only reserves frames
        // nothing will occupy.
        let group = group_size.min(inputs.len());
        if group < 2 {
            run_sequential(items, &make_seq, sink)
        } else {
            run_interleaved(group, items, &make, sink)
        }
    };
    let chunk = inputs
        .len()
        .div_ceil(cfg.effective_threads().min(inputs.len()));
    let mut chunks = inputs.chunks(chunk).zip(out.chunks_mut(chunk));
    let first = chunks.next().expect("a non-empty batch has a chunk");
    if chunk == inputs.len() {
        return run(first);
    }
    std::thread::scope(|scope| {
        let run = &run;
        let others: Vec<_> = chunks.map(|c| scope.spawn(move || run(c))).collect();
        let mut merged = run(first);
        for handle in others {
            let stats = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            merged.merge(&stats);
        }
        merged
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::suspend;
    use std::sync::atomic::{AtomicUsize, Ordering};

    async fn lookup(v: u32) -> u32 {
        for _ in 0..(v % 5) {
            suspend().await;
        }
        v.wrapping_mul(3)
    }

    /// `lookup`'s non-suspending instantiation.
    async fn lookup_seq(v: u32) -> u32 {
        v.wrapping_mul(3)
    }

    fn par_out(values: &[u32], threads: usize, group: usize) -> (Vec<u32>, RunStats) {
        let mut out = vec![0u32; values.len()];
        let cfg = ParConfig::with_threads(threads);
        let stats = run_interleaved_par(cfg, group, values, lookup_seq, lookup, &mut out);
        (out, stats)
    }

    #[test]
    fn parallel_matches_sequential_across_thread_counts() {
        // Shrunk under Miri: interpreted coroutines are ~100x slower.
        let n: u32 = if cfg!(miri) { 300 } else { 10_000 };
        let values: Vec<u32> = (0..n).map(|i| i * 7 % 997).collect();
        let mut expect = vec![0u32; values.len()];
        run_interleaved(6, values.iter().copied(), lookup, |i, r| expect[i] = r);
        for threads in [1, 2, 3, 4, 8] {
            let (out, stats) = par_out(&values, threads, 6);
            assert_eq!(out, expect, "threads={threads}");
            assert_eq!(stats.lookups, values.len() as u64);
        }
    }

    #[test]
    fn merged_stats_match_sequential_totals() {
        // Totals (lookups, resumes, switches) are partition-invariant:
        // every input suspends a fixed number of times regardless of
        // which chunk runs it.
        let values: Vec<u32> = (0..5_000).collect();
        let seq = run_interleaved(6, values.iter().copied(), lookup, |_, _| {});
        let (_, par) = par_out(&values, 4, 6);
        assert_eq!(par.lookups, seq.lookups);
        assert_eq!(par.resumes, seq.resumes);
        assert_eq!(par.switches, seq.switches);
        // Peak is per chunk: bounded by the group size.
        assert!(par.peak_in_flight <= 6);
    }

    #[test]
    fn empty_input_returns_empty_stats_without_spawning() {
        let (out, stats) = par_out(&[], 8, 4);
        assert!(out.is_empty());
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn threads_are_clamped_to_input_count() {
        // 3 inputs on 8 threads: three one-lookup chunks, each of which
        // runs the non-suspending instantiation.
        let values = [1u32, 2, 3];
        let (out, stats) = par_out(&values, 8, 4);
        assert_eq!(out, [3, 6, 9]);
        assert_eq!((stats.lookups, stats.switches), (3, 0));
    }

    /// Output cell that counts its own drops.
    struct Counted<'a> {
        id: usize,
        drops: &'a [AtomicUsize],
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn sink_sees_every_global_index_exactly_once() {
        // A write drops the slot's previous value: after the run every
        // initial value (ids `0..n`) has been dropped once — a slot
        // never written would leave a zero — and no result (ids
        // `n..2n`) has been dropped — a slot written twice would have
        // dropped its first.
        let check = |n: usize, threads, group| {
            let values: Vec<u32> = (0..n as u32).collect();
            let drops: Vec<AtomicUsize> = (0..2 * n).map(|_| AtomicUsize::new(0)).collect();
            let cell = |id| Counted { id, drops: &drops };
            let mut out: Vec<Counted> = (0..n).map(cell).collect();
            run_interleaved_par(
                ParConfig::with_threads(threads),
                group,
                &values,
                |v| async move { cell(n + v as usize) },
                |v| async move {
                    for _ in 0..(v % 3) {
                        suspend().await;
                    }
                    cell(n + v as usize)
                },
                &mut out,
            );
            let at = format!("n={n} threads={threads} group={group}");
            let dropped: Vec<usize> = drops.iter().map(|d| d.load(Ordering::Relaxed)).collect();
            assert_eq!(dropped[..n], vec![1; n], "initial values, {at}");
            assert_eq!(dropped[n..], vec![0; n], "results, {at}");
            assert!(out.iter().enumerate().all(|(i, c)| c.id == n + i), "{at}");
        };
        for threads in [1, 2, 3, 4] {
            for group in [0, 1, 6] {
                check(1_000, threads, group);
                // One lookup per chunk.
                check(threads, threads, group);
            }
        }
    }

    #[test]
    fn one_at_a_time_runs_the_non_suspending_instantiation() {
        // A group of one, and one-lookup chunks under any group: same
        // results, and not one switch — `lookup` would have suspended
        // 2 000 times over 1 000 inputs.
        let values: Vec<u32> = (0..1_000).collect();
        let expect: Vec<u32> = values.iter().map(|v| v.wrapping_mul(3)).collect();
        for threads in [1, 2] {
            for group in [0, 1] {
                let (out, stats) = par_out(&values, threads, group);
                assert_eq!(out, expect, "threads={threads} group={group}");
                assert_eq!(
                    (stats.lookups, stats.resumes, stats.switches),
                    (1_000, 1_000, 0)
                );
                assert_eq!(stats.peak_in_flight, 1);
            }
        }
        for threads in [2, 4] {
            let few = &values[1..=threads];
            let (out, stats) = par_out(few, threads, 6);
            assert_eq!(out, expect[1..=threads], "threads={threads}");
            assert_eq!((stats.switches, stats.peak_in_flight), (0, 1));
        }
        // Two lookups in a chunk are enough to interleave: inputs 0..8
        // suspend 0+1+2+3+4+0+1+2 times.
        let (_, stats) = par_out(&values[..8], 4, 6);
        assert_eq!((stats.switches, stats.peak_in_flight), (13, 2));
    }

    #[test]
    fn a_panicking_lookup_panics_the_caller() {
        // The lookup of input 7 panics on the second of two threads; the
        // call must unwind on the calling thread with the lookup's own
        // message, once the scope has joined the first chunk.
        let values: Vec<u32> = (0..10).collect();
        let caught = std::panic::catch_unwind(|| {
            let mut out = vec![0u32; values.len()];
            run_interleaved_par(
                ParConfig::with_threads(2),
                4,
                &values,
                lookup_seq,
                |v| async move {
                    suspend().await;
                    assert_ne!(v, 7, "lookup 7 failed");
                    v
                },
                &mut out,
            );
        });
        let panic = caught.expect_err("the lookup's panic must reach the caller");
        let msg = panic
            .downcast_ref::<String>()
            .expect("assert_ne! panics with a formatted message");
        assert!(msg.contains("lookup 7 failed"), "{msg}");
    }

    #[test]
    fn config_resolution() {
        assert!(ParConfig::default().effective_threads() >= 1);
        assert_eq!(ParConfig::with_threads(5).effective_threads(), 5);
    }
}
