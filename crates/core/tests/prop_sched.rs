//! Property-based tests for the schedulers: for *any* set of coroutines
//! with arbitrary suspension counts and any group size, interleaved
//! execution must produce exactly the same input-indexed results as
//! sequential execution, complete every lookup exactly once, count
//! switches exactly, poll in the round-robin order the simulated tables
//! depend on, and drop every frame it creates exactly once.

use std::cell::RefCell;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::task::{Context, Poll};

use proptest::prelude::*;

use isi_core::coro::suspend;
use isi_core::sched::{
    run_interleaved, run_interleaved_indexed, run_sequential, FrameSlab, RunStats,
};

/// A coroutine that suspends `susp` times and returns `tag`.
async fn worker(susp: u8, tag: u32) -> u32 {
    for _ in 0..susp {
        suspend().await;
    }
    tag
}

/// What the frames of one run did: the input index of every poll, in
/// order, and how often each created frame (by creation serial) was
/// dropped.
#[derive(Default)]
struct Log {
    polls: Vec<usize>,
    drops: Vec<u32>,
}

/// A lookup frame that records each poll and its own drop, and panics
/// when polled with `panic_at` suspensions left, if one is given.
struct Probe<'a> {
    index: usize,
    left: u8,
    serial: usize,
    panic_at: Option<u8>,
    log: &'a RefCell<Log>,
}

impl<'a> Probe<'a> {
    fn new(log: &'a RefCell<Log>, index: usize, susp: u8, panic_at: Option<u8>) -> Self {
        let mut l = log.borrow_mut();
        l.drops.push(0);
        Probe {
            index,
            left: susp,
            serial: l.drops.len() - 1,
            panic_at,
            log,
        }
    }
}

impl Future for Probe<'_> {
    type Output = usize;

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<usize> {
        self.log.borrow_mut().polls.push(self.index);
        if self.panic_at == Some(self.left) {
            panic!("lookup {} panics mid-run", self.index);
        }
        if self.left == 0 {
            return Poll::Ready(self.index);
        }
        self.left -= 1;
        Poll::Pending
    }
}

impl Drop for Probe<'_> {
    fn drop(&mut self) {
        self.log.borrow_mut().drops[self.serial] += 1;
    }
}

/// The reference poll order: round robin over `group` slots, a finished
/// slot refilled with the next input while inputs remain and left empty
/// after that, empty slots skipped.
fn model_poll_order(suspensions: &[u8], group: usize) -> Vec<usize> {
    let mut next = 0..suspensions.len();
    let mut refill = || next.next().map(|i| (i, suspensions[i]));
    let mut slots: Vec<Option<(usize, u8)>> = (0..group.max(1)).map(|_| refill()).collect();
    let mut order = Vec::new();
    while slots.iter().any(Option::is_some) {
        for slot in &mut slots {
            let Some((index, left)) = slot else { continue };
            order.push(*index);
            if *left == 0 {
                *slot = refill();
            } else {
                *left -= 1;
            }
        }
    }
    order
}

/// Input `i` suspends `suspensions[i]` times, paired with its index.
fn indexed(suspensions: &[u8]) -> impl Iterator<Item = (usize, (usize, u8))> + '_ {
    suspensions.iter().enumerate().map(|(i, &s)| (i, (i, s)))
}

/// Run `suspensions` through `slab`; input `victim`, if any, panics on
/// its second poll (its first if it never suspends).
fn run_probes<'a>(
    slab: &mut FrameSlab<Probe<'a>>,
    log: &'a RefCell<Log>,
    suspensions: &[u8],
    group: usize,
    victim: Option<usize>,
) -> RunStats {
    run_interleaved_indexed(
        slab,
        group,
        indexed(suspensions),
        |(i, s)| Probe::new(log, i, s, (victim == Some(i)).then(|| s.saturating_sub(1))),
        |i, r| assert_eq!(i, r),
    )
}

proptest! {
    // Interpreted execution under Miri is ~100x slower than native;
    // a handful of cases still exercises every code path, and the
    // native run keeps the full 256.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 4 } else { 256 }))]

    #[test]
    fn interleaved_equals_sequential(
        suspensions in proptest::collection::vec(0u8..12, 0..80),
        group in 1usize..20,
    ) {
        let items: Vec<(u8, u32)> = suspensions
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, i as u32 * 7))
            .collect();

        let mut seq = vec![u32::MAX; items.len()];
        let seq_stats = run_sequential(
            items.iter().copied(),
            |(s, t)| worker(s, t),
            |i, r| seq[i] = r,
        );

        let mut inter = vec![u32::MAX; items.len()];
        let inter_stats = run_interleaved(
            group,
            items.iter().copied(),
            |(s, t)| worker(s, t),
            |i, r| inter[i] = r,
        );

        // The frame-recycling ablation: the same scheduler over boxed
        // frames.
        let mut boxed = vec![u32::MAX; items.len()];
        let boxed_stats = run_interleaved(
            group,
            items.iter().copied(),
            |(s, t)| Box::pin(worker(s, t)),
            |i, r| boxed[i] = r,
        );

        prop_assert_eq!(&seq, &inter);
        prop_assert_eq!(&seq, &boxed);

        // Exact accounting: every lookup completes once; switches equal
        // the total suspension count regardless of scheduling.
        let total_susp: u64 = suspensions.iter().map(|&s| s as u64).sum();
        for stats in [seq_stats, inter_stats, boxed_stats] {
            prop_assert_eq!(stats.lookups, items.len() as u64);
            prop_assert_eq!(stats.switches, total_susp);
            prop_assert_eq!(stats.resumes, items.len() as u64 + total_susp);
        }
        prop_assert!(inter_stats.peak_in_flight <= group.max(1) as u64);
    }

    /// The scheduler polls in the reference model's order, for slab and
    /// boxed frames alike, and a slab reused across runs (at a second
    /// group size) drops every frame it created exactly once.
    #[test]
    fn poll_order_matches_round_robin_model_and_frames_drop_once(
        suspensions in proptest::collection::vec(0u8..12, 0..80),
        group in 1usize..20,
        second_group in 1usize..20,
    ) {
        let log = RefCell::new(Log::default());
        let mut slab = FrameSlab::new();
        for g in [group, second_group] {
            log.borrow_mut().polls.clear();
            run_probes(&mut slab, &log, &suspensions, g, None);
            prop_assert_eq!(&log.borrow().polls, &model_poll_order(&suspensions, g));
        }
        drop(slab);
        prop_assert!(log.borrow().drops.iter().all(|&d| d == 1));

        let log = RefCell::new(Log::default());
        run_interleaved(
            group,
            suspensions.iter().copied().enumerate(),
            |(i, s)| Box::pin(Probe::new(&log, i, s, None)),
            |_, _| {},
        );
        let log = log.into_inner();
        prop_assert_eq!(log.polls, model_poll_order(&suspensions, group));
        prop_assert!(log.drops.iter().all(|&d| d == 1));
    }
}

/// A poll or a sink that panics mid-run leaves the slab holding frames;
/// reusing the slab, then dropping it, drops each frame exactly once.
#[test]
fn frames_drop_once_when_a_poll_or_sink_panics() {
    let suspensions: Vec<u8> = (0..40).map(|i| (i * 7 % 5) as u8).collect();
    for group in [1, 3, 8, 64] {
        for victim in [0, 5, 39] {
            for panic_in_sink in [false, true] {
                let at = format!("group={group} victim={victim} sink={panic_in_sink}");
                let log = RefCell::new(Log::default());
                let mut slab = FrameSlab::new();
                let panicked = catch_unwind(AssertUnwindSafe(|| {
                    if panic_in_sink {
                        run_interleaved_indexed(
                            &mut slab,
                            group,
                            indexed(&suspensions),
                            |(i, s)| Probe::new(&log, i, s, None),
                            |i, _| assert_ne!(i, victim, "sink panics mid-run"),
                        );
                    } else {
                        run_probes(&mut slab, &log, &suspensions, group, Some(victim));
                    }
                }));
                assert!(panicked.is_err(), "{at}");
                let stats = run_probes(&mut slab, &log, &suspensions, group, None);
                assert_eq!(stats.lookups, suspensions.len() as u64, "{at}");
                drop(slab);
                let drops = log.into_inner().drops;
                assert!(drops.len() > suspensions.len(), "{at}");
                assert!(drops.iter().all(|&d| d == 1), "{at}: {drops:?}");
            }
        }
    }
}
