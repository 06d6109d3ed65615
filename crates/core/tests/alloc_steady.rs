//! Steady-state allocation discipline of the parallel engine.
//!
//! The interleaved scheduler's frame slab makes sequential bulk lookups
//! allocation-free per lookup; the morsel-parallel engine must preserve
//! that across morsel boundaries by reusing each worker's slab. This
//! test pins the property with a counting global allocator: the number
//! of heap allocations performed by a parallel bulk run must not grow
//! with the number of lookups (and hence not with the number of
//! morsels) — only per-call setup (thread spawns, the per-worker slab)
//! may allocate.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use isi_core::coro::suspend;
use isi_core::par::{run_interleaved_par, DisjointOut, ParConfig};
use isi_core::sched::{run_interleaved_indexed, FrameSlab};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: pure pass-through to the `System` allocator (which upholds
// the GlobalAlloc contract); the only addition is a relaxed counter
// bump, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as ours; layout is forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from our `alloc`, which forwarded
        // to `System`, so returning them to `System` is well-paired.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` came from our pass-through `alloc`;
        // the caller guarantees `new_size` per the trait contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-global, so tests in this binary must not
/// overlap: each one holds this lock around its counted sections.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Count allocations during `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), r)
}

/// A lookup coroutine with data-dependent suspensions, like a real
/// binary search.
async fn lookup(v: u32) -> u32 {
    for _ in 0..(v % 7) {
        suspend().await;
    }
    v ^ 0x5555
}

fn run_par(values: &[u32], out: &mut [u32], threads: usize, morsel: usize) {
    let sink = DisjointOut::new(out);
    run_interleaved_par(
        ParConfig {
            threads,
            morsel_size: morsel,
        },
        8,
        values,
        lookup,
        lookup,
        // SAFETY: `run_interleaved_par` passes each input index exactly
        // once, and `i < out.len()` by construction, so the disjoint
        // writes contract of `DisjointOut::write` holds.
        |i, r| unsafe { sink.write(i, r) },
    );
}

/// Allocations of a parallel bulk run are independent of the lookup
/// count: 8x the lookups (and 8x the morsels) must not add a single
/// allocation, for both the single-threaded fast path and the
/// multi-worker path.
#[test]
fn parallel_allocs_do_not_scale_with_lookups() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let small: Vec<u32> = (0..8_192).collect();
    let large: Vec<u32> = (0..65_536).collect();
    let mut out_small = vec![0u32; small.len()];
    let mut out_large = vec![0u32; large.len()];

    for threads in [1usize, 4] {
        // Warm up once (first call may lazily initialize thread-spawn
        // machinery inside std).
        run_par(&small, &mut out_small, threads, 256);

        // 8k lookups in 32 morsels vs 64k lookups in 256 morsels: with
        // slab reuse the extra 224 morsels contribute zero allocations.
        // The only run-to-run variance is which workers happen to claim
        // a morsel at all (a worker that claims none never allocates
        // its slab), so the counts may differ by a few per-worker
        // setups — never by anything proportional to the morsel count.
        let (allocs_small, _) = count_allocs(|| run_par(&small, &mut out_small, threads, 256));
        let (allocs_large, _) = count_allocs(|| run_par(&large, &mut out_large, threads, 256));
        let delta = allocs_large.abs_diff(allocs_small);
        assert!(
            delta <= 2 * threads as u64,
            "threads={threads}: allocation count grew with the morsel \
             count ({allocs_small} -> {allocs_large}; 224 extra morsels): \
             slabs are not being reused across morsels"
        );
    }
    assert!(out_large
        .iter()
        .enumerate()
        .all(|(i, &r)| r == i as u32 ^ 0x5555));
}

/// The single-thread path allocates nothing beyond the one slab buffer.
#[test]
fn single_thread_steady_state_is_allocation_free() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let values: Vec<u32> = (0..4_096).collect();
    let mut out = vec![0u32; values.len()];
    let mut slab = FrameSlab::new();
    // First run allocates the slab buffer once.
    run_interleaved_indexed(
        &mut slab,
        8,
        values.iter().copied().enumerate(),
        lookup,
        |i, r| out[i] = r,
    );
    // Steady state: repeated morsels through the same slab, zero allocs.
    let (allocs, _) = count_allocs(|| {
        for _ in 0..16 {
            run_interleaved_indexed(
                &mut slab,
                8,
                values.iter().copied().enumerate(),
                lookup,
                |i, r| out[i] = r,
            );
        }
    });
    assert_eq!(allocs, 0, "steady-state interleaving must not allocate");
}
