//! The sequential and interleaved schedulers of the paper's Listing 7.
//!
//! Both schedulers are agnostic to the lookup coroutine: they take a
//! factory closure that turns an input item into a lookup future, and a
//! sink closure that receives `(input_index, result)` pairs. Any index
//! lookup — binary search, CSB+-tree traversal, hash probe — plugs in
//! unchanged, which is the paper's key maintainability claim.
//!
//! [`run_interleaved`] keeps the group's coroutine frames in a fixed-size
//! slab and reuses a completed lookup's slot for the next input. This is
//! the frame-recycling optimization that the paper applied manually
//! because MSVC could not yet elide frame allocations (Section 4,
//! "performance considerations"); in Rust the frames are plain values, so
//! the slab version performs **zero** heap allocations per lookup.
//! [`run_interleaved_boxed`] deliberately boxes every coroutine instead,
//! as an ablation quantifying what frame recycling buys.

#![expect(unsafe_code, reason = "polls frames pinned in the slab")]

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::coro::noop_waker;

/// Counters reported by a scheduler run. All counts are totals over the
/// whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of lookups completed.
    pub lookups: u64,
    /// Number of `poll` calls (paper: resumptions). For sequential
    /// execution of non-suspending coroutines this equals `lookups`.
    pub resumes: u64,
    /// Number of instruction-stream switches, i.e. resumptions of a
    /// coroutine that had previously suspended.
    pub switches: u64,
    /// Peak number of in-flight (started, not completed) lookups.
    pub peak_in_flight: u64,
}

impl RunStats {
    /// Fold another run's counters into this one: `lookups`, `resumes`
    /// and `switches` are totals and sum; `peak_in_flight` is a maximum
    /// and maxes. Used when a bulk run is split across morsels and
    /// worker threads (see [`crate::par`]) — note the merged
    /// `peak_in_flight` is therefore the peak of any *single* worker,
    /// not the machine-wide total.
    #[inline]
    pub fn merge(&mut self, other: &RunStats) {
        self.lookups += other.lookups;
        self.resumes += other.resumes;
        self.switches += other.switches;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
    }

    /// The counters as stable `(name, value)` pairs, for exporters
    /// (`isi_obs` renders these as engine gauges) — one place owns the
    /// names so metric output cannot drift from the struct.
    pub fn counters(&self) -> [(&'static str, u64); 4] {
        [
            ("lookups", self.lookups),
            ("resumes", self.resumes),
            ("switches", self.switches),
            ("peak_in_flight", self.peak_in_flight),
        ]
    }
}

/// Run the lookups one after another — the paper's `runSequential`.
///
/// Each coroutine is created and driven to completion before the next
/// starts. Lookup coroutines instantiated with `INTERLEAVE = false` never
/// suspend, so this compiles down to a plain loop over ordinary function
/// calls; coroutines that do suspend are still driven correctly (they are
/// resumed immediately), so the scheduler works for either mode.
///
/// `sink` receives `(input_index, result)` in input order.
pub fn run_sequential<I, F, S>(
    inputs: I,
    mut make: impl FnMut(I::Item) -> F,
    mut sink: S,
) -> RunStats
where
    I: IntoIterator,
    F: Future,
    S: FnMut(usize, F::Output),
{
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    let mut stats = RunStats {
        peak_in_flight: 1,
        ..RunStats::default()
    };
    let mut any = false;
    for (i, item) in inputs.into_iter().enumerate() {
        any = true;
        let mut fut = std::pin::pin!(make(item));
        loop {
            stats.resumes += 1;
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(out) => {
                    stats.lookups += 1;
                    sink(i, out);
                    break;
                }
                Poll::Pending => stats.switches += 1,
            }
        }
    }
    if !any {
        stats.peak_in_flight = 0;
    }
    stats
}

/// A slab slot holding one in-flight lookup: the originating input index
/// and its coroutine frame, stored inline.
struct Slot<F> {
    input_index: usize,
    fut: F,
}

/// A reusable slab of coroutine-frame slots for [`run_interleaved_indexed`].
///
/// [`run_interleaved`] allocates one of these per call; callers that run
/// many batches of the *same* lookup type (e.g. the morsel-parallel
/// drivers in [`crate::par`]) create one slab per worker and reuse it
/// across batches, so steady-state execution performs no heap
/// allocations at all — the slab's buffer is allocated once and its
/// capacity is retained between runs.
pub struct FrameSlab<F> {
    slots: Vec<Option<Slot<F>>>,
}

impl<F> FrameSlab<F> {
    /// An empty slab; the buffer is allocated lazily by the first run.
    pub fn new() -> Self {
        Self { slots: Vec::new() }
    }

    /// Current buffer capacity in slots (0 before the first run).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

impl<F> Default for FrameSlab<F> {
    fn default() -> Self {
        Self::new()
    }
}

/// Core of the interleaved scheduler, factored out so the coroutine
/// frame slab can be reused across calls and so inputs can carry
/// caller-chosen indices (a morsel of a larger batch passes its global
/// positions; see [`crate::par`]).
///
/// Semantics are identical to [`run_interleaved`] except that the sink
/// receives the index paired with each input item rather than a
/// 0-based enumeration.
pub fn run_interleaved_indexed<T, F, S>(
    slab: &mut FrameSlab<F>,
    group_size: usize,
    inputs: impl IntoIterator<Item = (usize, T)>,
    mut make: impl FnMut(T) -> F,
    mut sink: S,
) -> RunStats
where
    F: Future,
    S: FnMut(usize, F::Output),
{
    let group_size = group_size.max(1);
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    let mut stats = RunStats::default();

    let mut inputs = inputs.into_iter();

    // Reset the slab and guarantee capacity while it holds no futures:
    // any growth happens here, before the first poll.
    let slots = &mut slab.slots;
    slots.clear();
    if slots.capacity() < group_size {
        slots.reserve(group_size);
    }
    for _ in 0..group_size {
        match inputs.next() {
            Some((i, item)) => slots.push(Some(Slot {
                input_index: i,
                fut: make(item),
            })),
            None => break,
        }
    }
    let mut not_done = slots.len();
    stats.peak_in_flight = not_done as u64;

    // Round-robin over the slab until every lookup has completed.
    while not_done > 0 {
        for slot in slots.iter_mut() {
            let Some(s) = slot.as_mut() else { continue };
            // SAFETY: the future lives inside the slab `Vec`, whose
            // capacity was ensured above while the `Vec` was empty and
            // which is never grown afterwards (pushes stop at
            // `group_size <= capacity`), and an occupied slot is only
            // ever overwritten *after* its future completed and was
            // dropped in place. Hence the future never moves between
            // its first poll and its drop, satisfying `Pin`'s contract.
            let fut = unsafe { Pin::new_unchecked(&mut s.fut) };
            stats.resumes += 1;
            match fut.poll(&mut cx) {
                Poll::Pending => {
                    stats.switches += 1;
                }
                Poll::Ready(out) => {
                    stats.lookups += 1;
                    sink(s.input_index, out);
                    // Frame recycling: start the next lookup in this slot.
                    match inputs.next() {
                        Some((i, item)) => {
                            *slot = Some(Slot {
                                input_index: i,
                                fut: make(item),
                            });
                        }
                        None => {
                            *slot = None;
                            not_done -= 1;
                        }
                    }
                }
            }
        }
    }
    stats
}

/// Run the lookups `group_size` at a time, switching streams at every
/// suspension — the paper's `runInterleaved` (Listing 7).
///
/// A slab of `group_size` slots holds the coroutine frames inline. The
/// scheduler cycles round-robin over the slots, resuming each unfinished
/// lookup; when a lookup completes, its result is emitted and its slot is
/// immediately refilled with the next input (frame recycling). The run
/// ends when all inputs have completed.
///
/// Results are emitted in completion order; the sink receives the input
/// index alongside each result so callers can scatter into an output
/// array (as the paper's pseudocode does with `store result to results`).
///
/// `group_size == 0` is treated as `1`. A `group_size` of 1 degenerates to
/// sequential execution plus switch overhead — the paper notes this
/// configuration "makes no sense" for performance but it is valid.
pub fn run_interleaved<I, F, S>(
    group_size: usize,
    inputs: I,
    make: impl FnMut(I::Item) -> F,
    sink: S,
) -> RunStats
where
    I: IntoIterator,
    F: Future,
    S: FnMut(usize, F::Output),
{
    let mut slab = FrameSlab::new();
    run_interleaved_indexed(
        &mut slab,
        group_size,
        inputs.into_iter().enumerate(),
        make,
        sink,
    )
}

/// Ablation variant of [`run_interleaved`] that heap-allocates (boxes)
/// every coroutine frame instead of recycling slab slots.
///
/// This reproduces the behaviour of a compiler that cannot elide or reuse
/// coroutine frame allocations — the situation the paper faced with MSVC
/// v14.1 — and is benchmarked against the slab scheduler to quantify the
/// cost (see `crates/bench/benches/binary_search.rs`).
pub fn run_interleaved_boxed<I, F, S>(
    group_size: usize,
    inputs: I,
    mut make: impl FnMut(I::Item) -> F,
    mut sink: S,
) -> RunStats
where
    I: IntoIterator,
    F: Future,
    S: FnMut(usize, F::Output),
{
    let group_size = group_size.max(1);
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    let mut stats = RunStats::default();

    let mut inputs = inputs.into_iter().enumerate();
    let mut slots: Vec<Option<(usize, Pin<Box<F>>)>> = Vec::with_capacity(group_size);
    for _ in 0..group_size {
        match inputs.next() {
            Some((i, item)) => slots.push(Some((i, Box::pin(make(item))))),
            None => break,
        }
    }
    let mut not_done = slots.len();
    stats.peak_in_flight = not_done as u64;

    while not_done > 0 {
        for slot in slots.iter_mut() {
            let Some((idx, fut)) = slot.as_mut() else {
                continue;
            };
            stats.resumes += 1;
            match fut.as_mut().poll(&mut cx) {
                Poll::Pending => stats.switches += 1,
                Poll::Ready(out) => {
                    stats.lookups += 1;
                    sink(*idx, out);
                    match inputs.next() {
                        // A fresh allocation per lookup — deliberately.
                        Some((i, item)) => *slot = Some((i, Box::pin(make(item)))),
                        None => {
                            *slot = None;
                            not_done -= 1;
                        }
                    }
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::suspend;

    /// A lookup that suspends `value % 4` times and returns `value * 2`.
    async fn lookup(value: u32) -> u32 {
        for _ in 0..(value % 4) {
            suspend().await;
        }
        value * 2
    }

    fn collect_seq(values: &[u32]) -> Vec<u32> {
        let mut out = vec![0; values.len()];
        run_sequential(values.iter().copied(), lookup, |i, r| out[i] = r);
        out
    }

    fn collect_inter(group: usize, values: &[u32]) -> Vec<u32> {
        let mut out = vec![0; values.len()];
        run_interleaved(group, values.iter().copied(), lookup, |i, r| out[i] = r);
        out
    }

    #[test]
    fn sequential_matches_direct_computation() {
        let values: Vec<u32> = (0..100).collect();
        let expect: Vec<u32> = values.iter().map(|v| v * 2).collect();
        assert_eq!(collect_seq(&values), expect);
    }

    #[test]
    fn interleaved_matches_sequential_for_all_group_sizes() {
        let values: Vec<u32> = (0..57).rev().collect();
        let expect = collect_seq(&values);
        for group in [1, 2, 3, 5, 6, 10, 57, 100] {
            assert_eq!(collect_inter(group, &values), expect, "group={group}");
        }
    }

    #[test]
    fn boxed_scheduler_agrees_with_slab_scheduler() {
        let values: Vec<u32> = (0..41).collect();
        let expect = collect_seq(&values);
        for group in [1, 4, 8] {
            let mut out = vec![0; values.len()];
            run_interleaved_boxed(group, values.iter().copied(), lookup, |i, r| out[i] = r);
            assert_eq!(out, expect, "group={group}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let stats = run_sequential(std::iter::empty::<u32>(), lookup, |_, _| panic!());
        assert_eq!(stats.lookups, 0);
        assert_eq!(stats.peak_in_flight, 0);
        let stats = run_interleaved(8, std::iter::empty::<u32>(), lookup, |_, _| panic!());
        assert_eq!(stats.lookups, 0);
    }

    #[test]
    fn group_larger_than_input() {
        let values = [3u32, 1];
        let mut out = vec![0; 2];
        let stats = run_interleaved(64, values.iter().copied(), lookup, |i, r| out[i] = r);
        assert_eq!(out, [6, 2]);
        assert_eq!(stats.peak_in_flight, 2);
    }

    #[test]
    fn group_zero_is_clamped_to_one() {
        let values = [2u32, 5, 9];
        let mut out = vec![0; 3];
        run_interleaved(0, values.iter().copied(), lookup, |i, r| out[i] = r);
        assert_eq!(out, [4, 10, 18]);
    }

    #[test]
    fn stats_count_switches_and_lookups() {
        // value % 4 suspensions each: 0,1,2,3 -> 6 switches total.
        let values = [0u32, 1, 2, 3];
        let stats = run_sequential(values.iter().copied(), lookup, |_, _| {});
        assert_eq!(stats.lookups, 4);
        assert_eq!(stats.switches, 6);
        assert_eq!(stats.resumes, 4 + 6);

        let stats = run_interleaved(2, values.iter().copied(), lookup, |_, _| {});
        assert_eq!(stats.lookups, 4);
        assert_eq!(stats.switches, 6);
        assert_eq!(stats.peak_in_flight, 2);
    }

    #[test]
    fn non_suspending_coroutines_complete_in_one_round() {
        async fn immediate(v: u32) -> u32 {
            v + 1
        }
        let values: Vec<u32> = (0..10).collect();
        let mut out = vec![0; 10];
        let stats = run_interleaved(4, values.iter().copied(), immediate, |i, r| out[i] = r);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        assert_eq!(stats.switches, 0);
        assert_eq!(stats.resumes, 10);
    }

    #[test]
    fn completion_order_can_differ_but_indices_are_correct() {
        // Lookup 0 suspends 3 times, lookup 1 none: with group 2, lookup 1
        // completes first. The sink must still see correct indices.
        async fn l(v: u32) -> u32 {
            for _ in 0..v {
                suspend().await;
            }
            v
        }
        let mut order = Vec::new();
        run_interleaved(2, [3u32, 0].iter().copied(), l, |i, r| order.push((i, r)));
        assert_eq!(order, vec![(1, 0), (0, 3)]);
    }

    #[test]
    fn slab_is_reusable_across_runs_without_regrowing() {
        let values: Vec<u32> = (0..40).collect();
        let expect = collect_seq(&values);
        let mut slab = FrameSlab::new();
        for round in 0..3 {
            let mut out = vec![0; values.len()];
            run_interleaved_indexed(
                &mut slab,
                8,
                values.iter().copied().enumerate(),
                lookup,
                |i, r| out[i] = r,
            );
            assert_eq!(out, expect, "round={round}");
        }
        // Capacity settled after the first run and never regrew.
        assert_eq!(slab.capacity(), 8);
        // A smaller group reuses the same buffer.
        let mut out = vec![0; values.len()];
        run_interleaved_indexed(
            &mut slab,
            3,
            values.iter().copied().enumerate(),
            lookup,
            |i, r| out[i] = r,
        );
        assert_eq!(out, expect);
        assert_eq!(slab.capacity(), 8);
    }

    #[test]
    fn indexed_runner_passes_caller_indices_through() {
        // A morsel covering global positions 100..104.
        let values = [3u32, 1, 0, 2];
        let mut slab = FrameSlab::new();
        let mut got = Vec::new();
        run_interleaved_indexed(
            &mut slab,
            2,
            values
                .iter()
                .copied()
                .enumerate()
                .map(|(i, v)| (100 + i, v)),
            lookup,
            |i, r| got.push((i, r)),
        );
        got.sort_unstable();
        assert_eq!(got, vec![(100, 6), (101, 2), (102, 0), (103, 4)]);
    }

    #[test]
    fn merge_sums_totals_and_maxes_peak() {
        let mut a = RunStats {
            lookups: 10,
            resumes: 30,
            switches: 20,
            peak_in_flight: 6,
        };
        let b = RunStats {
            lookups: 7,
            resumes: 9,
            switches: 2,
            peak_in_flight: 8,
        };
        a.merge(&b);
        assert_eq!(
            a,
            RunStats {
                lookups: 17,
                resumes: 39,
                switches: 22,
                peak_in_flight: 8,
            }
        );
        // Merging the empty stats is the identity.
        let before = a;
        a.merge(&RunStats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn deeply_suspending_lookup_terminates() {
        async fn deep(_: u32) -> u32 {
            // Shrunk under Miri (interpreted): depth, not count, matters.
            for _ in 0..if cfg!(miri) { 200 } else { 10_000 } {
                suspend().await;
            }
            7
        }
        let mut out = 0;
        run_interleaved(3, [0u32].iter().copied(), deep, |_, r| out = r);
        assert_eq!(out, 7);
    }
}
