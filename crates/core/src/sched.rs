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
//! a run allocates its slab once and performs **zero** heap allocations
//! per lookup. To measure what recycling buys, run the same scheduler
//! over boxed frames, `make = |x| Box::pin(lookup(x))`: a `Pin<Box<F>>`
//! is itself a future, and refilling its slot frees the old box and
//! allocates a new one.
//!
//! Like the paper's `runInterleaved`, the steady state is a round-robin
//! resume loop and nothing else: the slab is dense (no `Option` to test
//! per slot while inputs remain), a finished slot is refilled in place,
//! and the run's counters live in locals until it returns.
//!
//! [`run_batch`] is the bulk driver on top: it runs one batch through
//! one of the two schedulers, on the caller, into an output slice.

#![expect(unsafe_code, reason = "polls frames pinned in the slab")]

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

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
    /// coroutine that had previously suspended. Every poll either
    /// suspends or completes a lookup, so this is `resumes − lookups`;
    /// the schedulers compute it that way, once per run.
    pub switches: u64,
    /// Peak number of in-flight (started, not completed) lookups.
    pub peak_in_flight: u64,
}

impl RunStats {
    /// The counters of a run that polled `resumes` times and completed
    /// `lookups` lookups, at most `peak_in_flight` at a time.
    fn of_run(lookups: u64, resumes: u64, peak_in_flight: u64) -> Self {
        Self {
            lookups,
            resumes,
            switches: resumes - lookups,
            peak_in_flight,
        }
    }

    /// Fold another run's counters into this one: `lookups`, `resumes`
    /// and `switches` are totals and sum; `peak_in_flight` is a maximum
    /// and maxes. Used to total many runs (a service shard's batches),
    /// so the merged `peak_in_flight` is the peak of any *single* run.
    #[inline]
    pub fn merge(&mut self, other: &RunStats) {
        self.lookups += other.lookups;
        self.resumes += other.resumes;
        self.switches += other.switches;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
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
    let mut cx = Context::from_waker(Waker::noop());
    let (mut lookups, mut resumes) = (0u64, 0u64);
    for (i, item) in inputs.into_iter().enumerate() {
        let mut fut = std::pin::pin!(make(item));
        let out = loop {
            resumes += 1;
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                break out;
            }
        };
        lookups += 1;
        sink(i, out);
    }
    RunStats::of_run(lookups, resumes, u64::from(lookups > 0))
}

/// The input index of a slot whose lookup completed after the inputs
/// ran out: the drain loop skips it. Input indices are positions in the
/// input sequence, so they never reach it.
const DONE: usize = usize::MAX;

/// A slab slot: one lookup's input index and its coroutine frame,
/// stored inline.
struct Slot<F> {
    input_index: usize,
    fut: F,
}

impl<F> Slot<F> {
    /// The slot's frame, pinned in the slab.
    #[inline(always)]
    fn frame(&mut self) -> Pin<&mut F> {
        // SAFETY: the frame lives inside the slab `Vec`, whose capacity
        // was ensured while the `Vec` was empty and which never grows
        // during a run (pushes stop at `group_size <= capacity`). A
        // frame is replaced only through this pin (`Pin::set`, which
        // drops it in place) and otherwise dropped in place by the
        // `Vec`'s drop. Hence a frame never moves between its first
        // poll and its drop, satisfying `Pin`'s contract.
        unsafe { Pin::new_unchecked(&mut self.fut) }
    }
}

/// Core of the interleaved scheduler: runs `inputs`, each paired with
/// its input index, through `slots`, an empty `Vec` that becomes the
/// run's frame slab. An index of `usize::MAX` is reserved.
///
/// The slab is dense: each of its `group_size` slots always holds a
/// frame, with no `Option` around it. A finished lookup's slot is
/// refilled in place; once the inputs run out it keeps its spent frame,
/// marked `DONE`, until the caller drops the `Vec`, so every frame is
/// dropped once. The loop stays in its own function over a borrowed
/// slab: folded into [`run_interleaved`] over an owned `Vec`, it
/// measured 15–20 % slower on the binary-search kernel.
///
/// The run has two loops. The *steady* loop runs while inputs remain:
/// every slot holds a live frame, so a pass polls each slot with no
/// test, and a finished lookup's slot is refilled in place
/// (`Pin::set(make(item))` drops the spent frame where it lies). The
/// pass in which the inputs run out is completed by the steady loop, a
/// slot finishing from then on is marked `DONE`, and the *drain* loop
/// polls the remaining live slots round robin, skipping `DONE` ones.
/// The poll order is therefore exactly that of a round robin over
/// `group_size` optional slots, each refilled when its lookup completes
/// and emptied once nothing is left to refill it with. `resumes` and
/// `lookups` are counted in locals; `switches` is derived at the end.
fn run_slots<T, F, S>(
    slots: &mut Vec<Slot<F>>,
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
    let mut cx = Context::from_waker(Waker::noop());
    let mut inputs = inputs.into_iter().fuse();

    // Allocate the slab while it holds no frames: any growth happens
    // here, before the first poll.
    slots.reserve(group_size);
    slots.extend(
        inputs
            .by_ref()
            .take(group_size)
            .map(|(input_index, item)| Slot {
                input_index,
                fut: make(item),
            }),
    );
    let peak_in_flight = slots.len() as u64;
    let mut live = slots.len();
    let (mut lookups, mut resumes) = (0u64, 0u64);

    // Steady state: a full slab means inputs may remain.
    let mut refilling = live == group_size;
    while refilling {
        for slot in slots.iter_mut() {
            resumes += 1;
            if let Poll::Ready(out) = slot.frame().poll(&mut cx) {
                lookups += 1;
                sink(slot.input_index, out);
                // Frame recycling: start the next lookup in this slot.
                if let Some((i, item)) = inputs.next() {
                    slot.input_index = i;
                    slot.frame().set(make(item));
                } else {
                    slot.input_index = DONE;
                    live -= 1;
                    refilling = false;
                }
            }
        }
    }

    // Drain: no inputs left; poll what is still in flight.
    while live > 0 {
        for slot in slots.iter_mut() {
            if slot.input_index == DONE {
                continue;
            }
            resumes += 1;
            if let Poll::Ready(out) = slot.frame().poll(&mut cx) {
                lookups += 1;
                sink(slot.input_index, out);
                slot.input_index = DONE;
                live -= 1;
            }
        }
    }
    RunStats::of_run(lookups, resumes, peak_in_flight)
}

/// Run the lookups `group_size` at a time, switching streams at every
/// suspension — the paper's `runInterleaved` (Listing 7).
///
/// A slab of `group_size` slots, allocated once per call, holds the
/// coroutine frames inline. The scheduler cycles round-robin over the
/// slots, resuming each unfinished lookup; when a lookup completes, its
/// result is emitted and its slot is immediately refilled with the next
/// input (frame recycling). The run ends when all inputs have completed.
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
    run_slots(
        &mut Vec::new(),
        group_size,
        inputs.into_iter().enumerate(),
        make,
        sink,
    )
}

/// The bulk driver every index runs a batch through: one scheduler run
/// on the calling thread, `out[i]` = the result of `inputs[i]`.
///
/// With `group_size` or `inputs.len()` below two there is nothing to
/// interleave with: the batch runs `make_seq`'s futures through
/// [`run_sequential`]. Callers pass the lookup's `INTERLEAVE = false`
/// instantiation there, which never suspends, so such a run costs no
/// slab, no switch, and reports `switches == 0` — the paper's point
/// that one coroutine compiles to both code paths, decided here once
/// for every index. Otherwise `make`'s futures run through
/// [`run_interleaved`] with `min(group_size, inputs.len())` in flight.
///
/// Thread parallelism is not this function's: a service runs one batch
/// per shard, on the shard's own thread.
///
/// # Panics
/// Panics if `out.len() != inputs.len()`. A lookup that panics unwinds
/// through this call.
pub fn run_batch<T, Fs, F>(
    group_size: usize,
    inputs: &[T],
    make_seq: impl FnMut(T) -> Fs,
    make: impl FnMut(T) -> F,
    out: &mut [F::Output],
) -> RunStats
where
    T: Copy,
    Fs: Future<Output = F::Output>,
    F: Future,
{
    assert_eq!(inputs.len(), out.len(), "output length mismatch");
    let items = inputs.iter().copied();
    let sink = |i: usize, r| out[i] = r;
    // A group beyond the batch only reserves frames nothing occupies.
    let group = group_size.min(inputs.len());
    if group < 2 {
        run_sequential(items, make_seq, sink)
    } else {
        run_interleaved(group, items, make, sink)
    }
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
            let boxed = |v| Box::pin(lookup(v));
            run_interleaved(group, values.iter().copied(), boxed, |i, r| out[i] = r);
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
