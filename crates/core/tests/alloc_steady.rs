//! Allocation discipline of the engine.
//!
//! An interleaved run allocates its frame slab once, when it starts, and
//! recycles the slab's frames for every later lookup: nothing is
//! allocated per lookup. The bulk driver runs a batch as one such run.
//! These tests pin the property with a counting global allocator: one
//! run allocates exactly once, and the number of heap allocations of a
//! bulk run must not grow with the number of lookups.
//!
//! The allocator counts **per thread** (shared with `isi_obs`'s tests):
//! libtest's own thread allocates when the other test of this binary
//! finishes, and a process-wide counter saw that inside the window in
//! which a test asserts zero. The counted sections run on the calling
//! thread, which runs the whole batch.

use isi_core::coro::suspend;
use isi_core::sched::{run_batch, run_interleaved};

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

fn run_bulk(values: &[u32], out: &mut [u32]) {
    // Group 8 over thousands of lookups: nothing runs one at a time.
    run_batch(8, values, lookup, lookup, out);
}

/// Allocations of a bulk run are independent of the lookup count: 8x
/// the lookups must not add a single allocation. A sequential run
/// allocates nothing.
#[test]
fn parallel_allocs_do_not_scale_with_lookups() {
    let small: Vec<u32> = (0..8_192).collect();
    let large: Vec<u32> = (0..65_536).collect();
    let mut out_small = vec![0u32; small.len()];
    let mut out_large = vec![0u32; large.len()];

    run_bulk(&small, &mut out_small);
    // 8k vs 64k lookups: with frame recycling the extra 56k lookups
    // contribute zero allocations; each run allocates its slab once.
    let (allocs_small, _, _) = count_allocs(|| run_bulk(&small, &mut out_small));
    let (allocs_large, _, _) = count_allocs(|| run_bulk(&large, &mut out_large));
    assert_eq!(
        (allocs_small, allocs_large),
        (1, 1),
        "a bulk run allocates its slab and nothing per lookup"
    );
    let (allocs_seq, _, _) = count_allocs(|| run_batch(1, &large, lookup, lookup, &mut out_large));
    assert_eq!(allocs_seq, 0, "a sequential run has no slab");
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
        let (allocs, _, _) = count_allocs(|| {
            run_interleaved(group, values.iter().copied(), lookup, |i, r| out[i] = r);
        });
        assert_eq!(allocs, 1, "group={group}: a run allocates its slab once");
        assert!(out.iter().enumerate().all(|(i, &r)| r == i as u32 ^ 0x5555));
    }
}
