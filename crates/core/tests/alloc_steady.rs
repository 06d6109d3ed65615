//! Allocation discipline of the engine.
//!
//! An interleaved run allocates its frame slab once, when it starts, and
//! recycles the slab's frames for every later lookup: nothing is
//! allocated per lookup. The chunk-parallel engine must preserve that,
//! running each thread's chunk through one slab. These tests pin the
//! property with a counting global allocator: one run allocates exactly
//! once, and the number of heap allocations performed by a parallel bulk
//! run must not grow with the number of lookups — only per-call setup
//! (thread spawns, one slab per chunk) may allocate.
//!
//! The allocator counts **per thread** (shared with `isi_obs`'s tests):
//! libtest's own thread allocates when the other test of this binary
//! finishes, and a process-wide counter saw that inside the window in
//! which a test asserts zero. The counted sections run on the calling
//! thread, which runs chunk 0 itself; the slabs of the threads it
//! spawns are not observed.

use isi_core::coro::suspend;
use isi_core::par::{run_interleaved_par, ParConfig};
use isi_core::sched::run_interleaved;

#[path = "../../obs/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::count_allocs;

/// A lookup coroutine with data-dependent suspensions, like a real
/// binary search.
async fn lookup(v: u32) -> u32 {
    for _ in 0..(v % 7) {
        suspend().await;
    }
    v ^ 0x5555
}

fn run_par(values: &[u32], out: &mut [u32], threads: usize) {
    run_interleaved_par(
        ParConfig::with_threads(threads),
        8,
        values,
        // Group 8 over chunks of thousands: nothing runs one at a time.
        lookup,
        lookup,
        out,
    );
}

/// Allocations of a parallel bulk run are independent of the lookup
/// count: 8x the lookups must not add a single allocation, for both the
/// single-threaded fast path and the multi-threaded path (there, as far
/// as the calling thread — chunk 0 — is concerned).
#[test]
fn parallel_allocs_do_not_scale_with_lookups() {
    let small: Vec<u32> = (0..8_192).collect();
    let large: Vec<u32> = (0..65_536).collect();
    let mut out_small = vec![0u32; small.len()];
    let mut out_large = vec![0u32; large.len()];

    for threads in [1usize, 4] {
        // Warm up once (first call may lazily initialize thread-spawn
        // machinery inside std).
        run_par(&small, &mut out_small, threads);

        // 8k vs 64k lookups: with frame recycling the extra 56k
        // lookups contribute zero allocations. The counts may differ by
        // a per-thread setup — never by anything proportional to the
        // lookup count.
        let (allocs_small, _) = count_allocs(|| run_par(&small, &mut out_small, threads));
        let (allocs_large, _) = count_allocs(|| run_par(&large, &mut out_large, threads));
        let delta = allocs_large.abs_diff(allocs_small);
        assert!(
            delta <= 2 * threads as u64,
            "threads={threads}: allocation count grew with the lookup \
             count ({allocs_small} -> {allocs_large}): frames are not \
             being recycled"
        );
    }
    assert!(out_large
        .iter()
        .enumerate()
        .all(|(i, &r)| r == i as u32 ^ 0x5555));
}

/// An interleaved run allocates its slab and nothing else, at any group
/// size: 4 096 lookups, one allocation.
#[test]
fn an_interleaved_run_allocates_only_its_slab() {
    let values: Vec<u32> = (0..4_096).collect();
    let mut out = vec![0u32; values.len()];
    for group in [2, 8, 64] {
        let (allocs, _) = count_allocs(|| {
            run_interleaved(group, values.iter().copied(), lookup, |i, r| out[i] = r);
        });
        assert_eq!(allocs, 1, "group={group}: a run allocates its slab once");
        assert!(out.iter().enumerate().all(|(i, &r)| r == i as u32 ^ 0x5555));
    }
}
