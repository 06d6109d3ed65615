//! Morsel-driven parallel execution of interleaved bulk lookups.
//!
//! The paper's Section 5 multithreading discussion observes that
//! instruction-stream interleaving composes with thread-level
//! parallelism: each hardware thread hides its own cache-miss latency
//! within its slice of the batch. This module supplies that composition
//! without changing a single lookup coroutine:
//!
//! * the input batch is partitioned into contiguous **morsels**
//!   (cache-friendly ranges of a few thousand lookups, after Leis et
//!   al.'s morsel-driven parallelism);
//! * a pool of scoped worker threads claims morsels from a shared
//!   [`MorselCursor`] — an atomic fetch-add, so fast workers steal work
//!   from slow ones and skew cannot strand a thread;
//! * every worker drives its morsels through the *existing* interleaved
//!   scheduler ([`run_interleaved_indexed`]), reusing one
//!   [`FrameSlab`] across all the morsels it claims, so the
//!   zero-allocation-per-lookup slab discipline of the sequential
//!   engine holds across morsel boundaries too;
//! * a group of one, or a morsel shorter than two lookups, has nothing
//!   to interleave with: it runs the lookup's *non-suspending*
//!   instantiation through [`run_sequential`] — the paper's point that
//!   one coroutine compiles to both code paths, decided here once for
//!   every index;
//! * results scatter into the caller's output slice from the worker
//!   threads — `out[i]` is input `i`'s result; the one `unsafe` write
//!   this needs lives here ([`run_interleaved_par`]), so the index
//!   crates above hand over a slice and forbid `unsafe` outright;
//! * per-worker [`RunStats`] are merged at the join
//!   ([`RunStats::merge`]).
//!
//! Everything is `std`: scoped threads, one atomic counter, no work
//! queues, no new dependencies.

#![expect(unsafe_code, reason = "workers scatter into disjoint slots")]

use std::future::Future;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::sched::{run_interleaved_indexed, run_sequential, FrameSlab, RunStats};

/// Default morsel size (lookups per work-stealing unit).
///
/// Large enough that the atomic claim and the per-morsel group
/// drain/refill are amortized to noise, small enough that tail
/// imbalance is bounded by one morsel per worker.
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// Thread-count and morsel-size knobs for the parallel drivers.
///
/// `threads == 0` means "use [`std::thread::available_parallelism`]";
/// `morsel_size == 0` means [`DEFAULT_MORSEL_SIZE`]. The struct is
/// `Copy` so call sites can pass it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker threads (0 = one per available hardware thread).
    pub threads: usize,
    /// Lookups per morsel (0 = [`DEFAULT_MORSEL_SIZE`]).
    pub morsel_size: usize,
}

impl ParConfig {
    /// `threads` workers with the default morsel size.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            morsel_size: 0,
        }
    }

    /// Resolved worker count: explicit, or the machine's available
    /// parallelism (at least 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Resolved morsel size (never 0).
    pub fn effective_morsel_size(&self) -> usize {
        if self.morsel_size > 0 {
            self.morsel_size
        } else {
            DEFAULT_MORSEL_SIZE
        }
    }
}

impl Default for ParConfig {
    /// All-default: machine parallelism, [`DEFAULT_MORSEL_SIZE`].
    fn default() -> Self {
        Self {
            threads: 0,
            morsel_size: 0,
        }
    }
}

/// Work-stealing dispenser of contiguous input ranges.
///
/// One atomic fetch-add per claim; ranges are disjoint and cover
/// `0..total` exactly. Workers loop on [`claim`](MorselCursor::claim)
/// until it returns `None`, which naturally balances skewed
/// per-morsel costs.
pub struct MorselCursor {
    next: AtomicUsize,
    total: usize,
    morsel: usize,
}

impl MorselCursor {
    /// Cursor over `total` items in morsels of `morsel_size`
    /// (clamped to at least 1).
    pub fn new(total: usize, morsel_size: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            total,
            morsel: morsel_size.max(1),
        }
    }

    /// Claim the next unprocessed range, or `None` when the input is
    /// exhausted. Safe to call from any number of threads.
    pub fn claim(&self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.morsel, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + self.morsel).min(self.total))
    }

    /// Number of morsels this cursor will hand out in total.
    pub fn num_morsels(&self) -> usize {
        self.total.div_ceil(self.morsel)
    }
}

/// Shared mutable output buffer for scatter writes from worker threads.
///
/// The morsel protocol guarantees each index belongs to exactly one
/// claimed range and each range to exactly one worker, so writes never
/// alias — but the borrow checker cannot see through the dynamic
/// claiming, hence the unsafe `write` below. Private to this module:
/// [`run_interleaved_par`] is its one user and upholds the disjointness
/// contract; everything else (bounds, lifetime) is checked.
struct DisjointOut<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper only allows writes, under the caller-upheld
// contract that concurrently touched indices are disjoint; `T: Send`
// is required because values of `T` are moved into the buffer from
// worker threads (and old values dropped there).
unsafe impl<T: Send> Send for DisjointOut<'_, T> {}
// SAFETY: sharing `&DisjointOut` gives a thread `write` and nothing
// that reads a `T`, so the same disjointness contract covers it, and
// `T: Send` is again all it needs (no `&T` is ever shared).
unsafe impl<T: Send> Sync for DisjointOut<'_, T> {}

impl<'a, T> DisjointOut<'a, T> {
    /// Wrap an output slice. The exclusive borrow is held for `'a`, so
    /// no one else can observe the buffer while workers scatter into it.
    fn new(out: &'a mut [T]) -> Self {
        Self {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            _borrow: PhantomData,
        }
    }

    /// Write `value` at `idx` (bounds-checked).
    ///
    /// # Safety
    /// No other thread may read or write `idx` concurrently.
    /// [`run_interleaved_par`] satisfies this by writing only indices
    /// inside ranges claimed from a [`MorselCursor`].
    unsafe fn write(&self, idx: usize, value: T) {
        assert!(idx < self.len, "DisjointOut index {idx} out of bounds");
        // SAFETY: in-bounds by the assert; exclusive by the caller's
        // disjointness contract.
        unsafe { *self.ptr.add(idx) = value };
    }
}

/// Run `threads` workers — `worker(0)` on the calling thread, the rest
/// as scoped spawns — and collect their results. Running worker 0
/// inline means `threads == 1` is exactly the sequential engine (no
/// spawn, no synchronization) and a pool of N costs N-1 spawns with no
/// thread ever parked in `join` while work remains.
pub fn run_workers<R, W>(threads: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        return vec![worker(0)];
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        let mut results = vec![worker(0)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel lookup worker panicked")),
        );
        results
    })
}

/// Morsel-parallel interleaved execution — the parallel analogue of
/// [`run_interleaved`](crate::sched::run_interleaved).
///
/// Each worker owns one [`FrameSlab`] for its whole lifetime and drives
/// every morsel it claims through [`run_interleaved_indexed`] with
/// `group_size` in-flight coroutines built by `make` — the same
/// coroutines, the same memory backends, the same single codepath as
/// the sequential engine. Where that would be one coroutine at a time
/// (a `group_size` below two, or a morsel of a single lookup) the
/// worker runs `make_seq`'s futures through [`run_sequential`] instead:
/// callers pass the lookup's `INTERLEAVE = false` instantiation there,
/// which never suspends, so such a run costs no slab, no switch, and
/// reports `switches == 0`.
///
/// `out[i]` receives the result of `inputs[i]`. The scatter is this
/// function's: workers write from their own threads, in completion
/// order within a morsel, each index exactly once — the one fact the
/// `unsafe` write below rests on, so no driver above carries a sink of
/// its own.
///
/// Returns the merged [`RunStats`]: totals sum, `peak_in_flight` is the
/// maximum over workers.
///
/// # Panics
/// Panics if `out.len() != inputs.len()`.
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
    let out = DisjointOut::new(out);
    // SAFETY: both schedulers emit each index they are given exactly
    // once, every index they are given lies in a range claimed from
    // the cursor, and claimed ranges are disjoint across workers — so
    // no two writes, on this thread or another, share an `i`.
    let sink = |i: usize, r: F::Output| unsafe { out.write(i, r) };
    let cursor = MorselCursor::new(inputs.len(), cfg.effective_morsel_size());
    let threads = cfg.effective_threads().min(cursor.num_morsels());
    let per_worker = run_workers(threads, |_| {
        let mut slab = FrameSlab::new();
        let mut local = RunStats::default();
        while let Some(range) = cursor.claim() {
            // A group beyond the morsel's length only reserves frames
            // nothing will occupy.
            let group = group_size.min(range.len());
            let stats = if group < 2 {
                let base = range.start;
                run_sequential(range.map(|i| inputs[i]), &make_seq, |i, r| {
                    sink(base + i, r)
                })
            } else {
                run_interleaved_indexed(
                    &mut slab,
                    group,
                    range.map(|i| (i, inputs[i])),
                    &make,
                    &sink,
                )
            };
            local.merge(&stats);
        }
        local
    });
    let mut merged = RunStats::default();
    for s in &per_worker {
        merged.merge(s);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::suspend;
    use crate::sched::run_interleaved;
    use std::collections::HashSet;

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

    fn par_out(values: &[u32], cfg: ParConfig, group: usize) -> (Vec<u32>, RunStats) {
        let mut out = vec![0u32; values.len()];
        let stats = run_interleaved_par(cfg, group, values, lookup_seq, lookup, &mut out);
        (out, stats)
    }

    #[test]
    fn cursor_ranges_are_disjoint_and_exhaustive() {
        let cursor = MorselCursor::new(1000, 64);
        assert_eq!(cursor.num_morsels(), 16);
        let mut seen = HashSet::new();
        let mut claims = 0;
        while let Some(r) = cursor.claim() {
            claims += 1;
            for i in r {
                assert!(seen.insert(i), "index {i} claimed twice");
            }
        }
        assert_eq!(claims, 16);
        assert_eq!(seen.len(), 1000);
        // Exhausted cursors stay exhausted.
        assert_eq!(cursor.claim(), None);
    }

    #[test]
    fn cursor_handles_empty_and_tiny_inputs() {
        let cursor = MorselCursor::new(0, 64);
        assert_eq!(cursor.num_morsels(), 0);
        assert_eq!(cursor.claim(), None);
        let cursor = MorselCursor::new(3, 64);
        assert_eq!(cursor.claim(), Some(0..3));
        assert_eq!(cursor.claim(), None);
        // morsel_size 0 is clamped.
        let cursor = MorselCursor::new(2, 0);
        assert_eq!(cursor.claim(), Some(0..1));
    }

    #[test]
    fn parallel_matches_sequential_across_thread_counts() {
        // Shrunk under Miri: interpreted coroutines are ~100x slower.
        let n: u32 = if cfg!(miri) { 300 } else { 10_000 };
        let values: Vec<u32> = (0..n).map(|i| i * 7 % 997).collect();
        let mut expect = vec![0u32; values.len()];
        run_interleaved(6, values.iter().copied(), lookup, |i, r| expect[i] = r);
        for threads in [1, 2, 4, 8] {
            let cfg = ParConfig {
                threads,
                morsel_size: 512,
            };
            let (out, stats) = par_out(&values, cfg, 6);
            assert_eq!(out, expect, "threads={threads}");
            assert_eq!(stats.lookups, values.len() as u64);
        }
    }

    #[test]
    fn merged_stats_match_sequential_totals() {
        // Totals (lookups, resumes, switches) are partition-invariant:
        // every input suspends a fixed number of times regardless of
        // which worker or morsel runs it.
        let values: Vec<u32> = (0..5_000).collect();
        let seq = run_interleaved(6, values.iter().copied(), lookup, |_, _| {});
        let cfg = ParConfig {
            threads: 4,
            morsel_size: 256,
        };
        let (_, par) = par_out(&values, cfg, 6);
        assert_eq!(par.lookups, seq.lookups);
        assert_eq!(par.resumes, seq.resumes);
        assert_eq!(par.switches, seq.switches);
        // Peak is per worker: bounded by the group size.
        assert!(par.peak_in_flight <= 6);
    }

    #[test]
    fn empty_input_returns_empty_stats_without_spawning() {
        let (out, stats) = par_out(&[], ParConfig::with_threads(8), 4);
        assert!(out.is_empty());
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn threads_are_clamped_to_morsel_count() {
        // 10 inputs in one morsel: only one worker has work; the rest
        // must not be spawned (run_workers is handed threads=1).
        let values: Vec<u32> = (0..10).collect();
        let cfg = ParConfig {
            threads: 8,
            morsel_size: 4096,
        };
        let (out, stats) = par_out(&values, cfg, 4);
        assert_eq!(out, values.iter().map(|v| v * 3).collect::<Vec<_>>());
        assert_eq!(stats.lookups, 10);
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
        // `DisjointOut::write` is sound only if no index is written
        // twice. A write drops the slot's previous value: after the run
        // every initial value (ids `0..n`) has been dropped once — a
        // slot never written would leave a zero — and no result (ids
        // `n..2n`) has been dropped — a slot written twice would have
        // dropped its first.
        let n = 1_000;
        let values: Vec<u32> = (0..n as u32).collect();
        let check = |threads, group, morsel_size| {
            let drops: Vec<AtomicUsize> = (0..2 * n).map(|_| AtomicUsize::new(0)).collect();
            let cell = |id| Counted { id, drops: &drops };
            let mut out: Vec<Counted> = (0..n).map(cell).collect();
            run_interleaved_par(
                ParConfig {
                    threads,
                    morsel_size,
                },
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
            let at = format!("threads={threads} group={group} morsel={morsel_size}");
            let dropped: Vec<usize> = drops.iter().map(|d| d.load(Ordering::Relaxed)).collect();
            assert_eq!(dropped[..n], vec![1; n], "initial values, {at}");
            assert_eq!(dropped[n..], vec![0; n], "results, {at}");
            assert!(out.iter().enumerate().all(|(i, c)| c.id == n + i), "{at}");
        };
        for threads in [1, 2, 4] {
            for group in [0, 1, 6] {
                check(threads, group, 1);
                check(threads, group, 64);
            }
        }
    }

    #[test]
    fn one_at_a_time_runs_the_non_suspending_instantiation() {
        // A group of one, and single-lookup morsels under any group:
        // same results, and not one switch — `lookup` would have
        // suspended 2 000 times over these inputs.
        let values: Vec<u32> = (0..1_000).collect();
        let expect: Vec<u32> = values.iter().map(|v| v.wrapping_mul(3)).collect();
        for (group, morsel_size) in [(1, 64), (0, 64), (6, 1)] {
            let cfg = ParConfig {
                threads: 2,
                morsel_size,
            };
            let (out, stats) = par_out(&values, cfg, group);
            assert_eq!(out, expect, "group={group} morsel={morsel_size}");
            assert_eq!(
                (stats.lookups, stats.resumes, stats.switches),
                (1_000, 1_000, 0)
            );
            assert_eq!(stats.peak_in_flight, 1);
        }
        // Two lookups in a morsel are enough to interleave.
        let (_, stats) = par_out(
            &values,
            ParConfig {
                threads: 1,
                morsel_size: 2,
            },
            6,
        );
        assert_eq!((stats.switches, stats.peak_in_flight), (2_000, 2));
    }

    #[test]
    fn config_resolution() {
        let cfg = ParConfig::default();
        assert!(cfg.effective_threads() >= 1);
        assert_eq!(cfg.effective_morsel_size(), DEFAULT_MORSEL_SIZE);
        let cfg = ParConfig {
            threads: 3,
            morsel_size: 7,
        };
        assert_eq!(cfg.effective_threads(), 3);
        assert_eq!(cfg.effective_morsel_size(), 7);
        assert_eq!(ParConfig::with_threads(5).effective_threads(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn disjoint_out_bounds_checked() {
        let mut buf = [0u32; 4];
        let out = DisjointOut::new(&mut buf);
        // SAFETY: deliberately out of bounds — the call must panic on
        // the bounds check before any write happens (should_panic).
        unsafe { out.write(4, 1) };
    }
}
