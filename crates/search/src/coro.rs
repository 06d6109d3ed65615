//! Interleaving with coroutines — the paper's Listing 5 and its
//! schedulers, the headline technique.
//!
//! [`rank_coro`] is the sequential branch-free binary search *plus two
//! lines*: a prefetch and a suspension before the memory access that
//! would miss. The `INTERLEAVE` const generic is the paper's `interleave`
//! template parameter: it is resolved at monomorphization time, so the
//! sequential instantiation compiles to exactly the original loop (no
//! suspension machinery survives), and one source-level implementation
//! serves both execution modes — the paper's CORO-U.
//!
//! `rank_coro_separate` (bulk driver [`bulk_rank_coro_separate`]) is CORO-S: a dedicated interleaved-only variant
//! kept for the code-footprint comparison of Table 5 and for the ablation
//! measuring what the unified abstraction costs (nothing, after
//! monomorphization — see `benches/binary_search.rs`).
//!
//! The coroutine suspends at every halving, the last ones included,
//! although those stay within a line or two of the previous probe. Two
//! ways of skipping them were measured on the repo benchmark, before the
//! halving step compiled to a CMOV, and lost (README, "Deviations from
//! the paper's §5.1 constants"): suspending
//! only when the probe leaves the line just read makes the suspension
//! a data-dependent branch that mispredicts about once per lookup, and
//! fetching the whole remaining range under one last suspension adds a
//! cold line to every lookup. One predictable switch per halving is
//! cheaper than either.
//!
//! The `table5` markers around the functions are consumed by the LoC
//! analyzer that regenerates Table 5 (`isi-bench`, `bin/table5`).

use isi_core::coro::suspend;
use isi_core::mem::IndexedMem;
use isi_core::sched::{run_interleaved, RunStats};

use crate::cost;
use crate::key::SearchKey;
use crate::seq::next_low;

// [table5:coro-u:begin]
/// Binary-search coroutine, unified sequential/interleaved codepath
/// (paper Listing 5; CORO-U).
pub async fn rank_coro<const INTERLEAVE: bool, K: SearchKey, M: IndexedMem<K>>(
    mem: M,
    value: K,
) -> u32 {
    let mut size = mem.len();
    let mut low = 0usize;
    loop {
        let half = size / 2;
        if half == 0 {
            break;
        }
        let probe = low + half;
        if INTERLEAVE {
            mem.prefetch(probe);
            suspend().await;
        }
        mem.compute(cost::CORO_ITER + K::COMPARE_COST);
        low = next_low(*mem.at(probe) <= value, probe, low);
        if INTERLEAVE {
            // Suspend/resume bookkeeping executes after the value is
            // consumed (it cannot overlap the miss it just exposed).
            mem.compute(cost::CORO_SWITCH);
        }
        size -= half;
    }
    low as u32
}
// [table5:coro-u:end]

// [table5:coro-s:begin]
/// Binary-search coroutine, interleaved-only variant (CORO-S): kept
/// alongside a separate sequential implementation when unified codegen
/// cannot be trusted (the situation the paper faced with MSVC v14.1).
pub(crate) async fn rank_coro_separate<K: SearchKey, M: IndexedMem<K>>(mem: M, value: K) -> u32 {
    let mut size = mem.len();
    let mut low = 0usize;
    loop {
        let half = size / 2;
        if half == 0 {
            break;
        }
        let probe = low + half;
        mem.prefetch(probe);
        suspend().await;
        mem.compute(cost::CORO_ITER + K::COMPARE_COST);
        low = next_low(*mem.at(probe) <= value, probe, low);
        mem.compute(cost::CORO_SWITCH);
        size -= half;
    }
    low as u32
}
// [table5:coro-s:end]

/// Bulk rank, interleaved execution: `group_size` coroutine frames are
/// recycled in the scheduler's slab (paper Listing 7, `runInterleaved`).
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_rank_coro<K: SearchKey, M: IndexedMem<K> + Copy>(
    mem: M,
    values: &[K],
    group_size: usize,
    out: &mut [u32],
) -> RunStats {
    assert_eq!(values.len(), out.len(), "output length mismatch");
    run_interleaved(
        group_size,
        values.iter().copied(),
        |v| rank_coro::<true, K, M>(mem, v),
        |i, r| out[i] = r,
    )
}

/// Bulk rank through the CORO-S variant (always interleaved).
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_rank_coro_separate<K: SearchKey, M: IndexedMem<K> + Copy>(
    mem: M,
    values: &[K],
    group_size: usize,
    out: &mut [u32],
) -> RunStats {
    assert_eq!(values.len(), out.len(), "output length mismatch");
    run_interleaved(
        group_size,
        values.iter().copied(),
        |v| rank_coro_separate::<K, M>(mem, v),
        |i, r| out[i] = r,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fence::rank_fenced_coro;
    use crate::par::bulk_rank_coro_par;
    use crate::seq::rank_oracle;
    use isi_core::coro::resume;
    use isi_core::mem::DirectMem;
    use isi_core::par::ParConfig;
    use std::task::Poll;

    fn check_bulk(table: &[u32], values: &[u32], group: usize) {
        let mem = DirectMem::new(table);
        let mut out = vec![u32::MAX; values.len()];
        bulk_rank_coro(mem, values, group, &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(table, v), "v={v} group={group}");
        }
    }

    // Frame sizes of the instantiations the store and the benchmark
    // run, pinned at their measured size: every in-flight lookup of a
    // group holds one frame, so growth costs slab lines.
    #[test]
    fn rank_coro_u64_frame_is_at_most_88_bytes() {
        let table = [0u64; 4];
        let frame = rank_coro::<true, u64, DirectMem<u64>>(DirectMem::new(&table), 1);
        assert!(size_of_val(&frame) <= 88, "{} bytes", size_of_val(&frame));
    }

    // The instantiation the sorted main runs: three fence levels per
    // suspension, so it holds a fence handle beside the column's.
    #[test]
    fn rank_fenced_coro_frame_is_at_most_120_bytes() {
        let table = [0u64; 4];
        let frame = rank_fenced_coro::<true, _>(DirectMem::new(&table), DirectMem::new(&table), 1);
        assert!(size_of_val(&frame) <= 120, "{} bytes", size_of_val(&frame));
    }

    #[test]
    fn rank_coro_u32_frame_is_at_most_80_bytes() {
        let table = [0u32; 4];
        let frame = rank_coro::<true, u32, DirectMem<u32>>(DirectMem::new(&table), 1);
        assert!(size_of_val(&frame) <= 80, "{} bytes", size_of_val(&frame));
    }

    #[test]
    fn interleaved_agrees_with_oracle() {
        let table: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let values: Vec<u32> = (0..173).map(|i| i * 7).collect();
        for group in [1, 2, 6, 10, 64] {
            check_bulk(&table, &values, group);
        }
    }

    #[test]
    fn sequential_coroutine_never_suspends() {
        let table: Vec<u32> = (0..1000).collect();
        let values: Vec<u32> = (0..50).map(|i| i * 17).collect();
        let mem = DirectMem::new(&table);
        let mut out = vec![0u32; values.len()];
        // Group 1 on one thread: `run_sequential` over the
        // `INTERLEAVE = false` instantiation.
        let stats = bulk_rank_coro_par(mem, &values, 1, ParConfig::with_threads(1), &mut out);
        assert_eq!(stats.switches, 0, "INTERLEAVE=false must not suspend");
        assert_eq!(stats.resumes, values.len() as u64);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(&table, v));
        }
    }

    #[test]
    fn interleaved_coroutine_suspends_once_per_iteration() {
        // Table of 1024 elements: the rank loop runs exactly 10 halvings.
        let table: Vec<u32> = (0..1024).collect();
        let mem = DirectMem::new(&table);
        let mut out = vec![0u32; 1];
        let stats = bulk_rank_coro(mem, &[512], 4, &mut out);
        assert_eq!(stats.switches, 10);
    }

    /// What a lookup did to its memory, in order.
    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Event {
        Prefetch(usize),
        Suspend,
        Read(usize),
    }

    /// An `IndexedMem` that records every prefetch and read.
    struct Recording<'a, K> {
        mem: DirectMem<'a, K>,
        log: &'a std::cell::RefCell<Vec<Event>>,
    }

    impl<K> IndexedMem<K> for Recording<'_, K> {
        fn len(&self) -> usize {
            self.mem.len()
        }
        fn at(&self, idx: usize) -> &K {
            self.log.borrow_mut().push(Event::Read(idx));
            self.mem.at(idx)
        }
        fn prefetch(&self, idx: usize) {
            self.log.borrow_mut().push(Event::Prefetch(idx));
        }
    }

    /// Every read of the interleaved coroutine is of the element it
    /// prefetched before its latest suspension, and nothing else is
    /// prefetched: one hint, one switch, one read per halving.
    fn check_every_read_was_prefetched<K: SearchKey + std::fmt::Debug>(key: impl Fn(u64) -> K) {
        for n in [0usize, 1, 2, 7, 8, 9, 1_000, (1 << 16) + 3] {
            let table: Vec<K> = (0..n as u64).map(|i| key(2 * i)).collect();
            for probe in [0, 1, n as u64, 2 * n as u64 + 1] {
                let log = std::cell::RefCell::new(Vec::new());
                let mem = Recording {
                    mem: DirectMem::new(&table),
                    log: &log,
                };
                let mut lookup = std::pin::pin!(rank_coro::<true, _, _>(&mem, key(probe)));
                let rank = loop {
                    match resume(lookup.as_mut()) {
                        Poll::Ready(rank) => break rank,
                        Poll::Pending => log.borrow_mut().push(Event::Suspend),
                    }
                };
                assert_eq!(rank, rank_oracle(&table, &key(probe)));
                let log = log.borrow();
                assert_eq!(log.len() % 3, 0, "n={n}: {log:?}");
                for step in log.chunks(3) {
                    let Event::Read(idx) = step[2] else {
                        panic!("n={n}: {step:?}");
                    };
                    assert_eq!(step[..2], [Event::Prefetch(idx), Event::Suspend], "n={n}");
                }
            }
        }
    }

    #[test]
    fn interleaved_reads_only_what_it_prefetched_before_suspending() {
        use crate::key::Str16;
        check_every_read_was_prefetched(|i| i as u32);
        check_every_read_was_prefetched(|i| i);
        check_every_read_was_prefetched(Str16::from_index);
    }

    #[test]
    fn separate_variant_agrees_with_unified() {
        let table: Vec<u32> = (0..333).map(|i| i * 3 + 1).collect();
        let values: Vec<u32> = (0..90).map(|i| i * 11).collect();
        let mem = DirectMem::new(&table);
        let mut a = vec![0u32; values.len()];
        let mut b = vec![0u32; values.len()];
        bulk_rank_coro(mem, &values, 6, &mut a);
        bulk_rank_coro_separate(mem, &values, 6, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn resume_drives_a_single_lookup() {
        // The paper's per-lookup API: create, resume until done, fetch.
        let table: Vec<u32> = (0..64).collect();
        let mem = DirectMem::new(&table);
        let mut lookup = std::pin::pin!(rank_coro::<true, _, _>(mem, 40));
        let mut suspensions = 0;
        let rank = loop {
            match resume(lookup.as_mut()) {
                Poll::Ready(rank) => break rank,
                Poll::Pending => suspensions += 1,
            }
        };
        assert_eq!(rank, 40);
        assert_eq!(suspensions, 6); // log2(64) halvings
    }

    #[test]
    fn empty_and_singleton_tables() {
        let empty: Vec<u32> = vec![];
        check_bulk(&empty, &[3, 4], 2);
        check_bulk(&[7], &[0, 7, 9], 2);
    }

    #[test]
    fn string_keys_work() {
        use crate::key::Str16;
        let table: Vec<Str16> = (0..200).map(|i| Str16::from_index(i * 2)).collect();
        let values: Vec<Str16> = (0..60).map(|i| Str16::from_index(i * 7 + 1)).collect();
        let mem = DirectMem::new(&table);
        let mut out = vec![0u32; values.len()];
        bulk_rank_coro(mem, &values, 6, &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(&table, v));
        }
    }
}
