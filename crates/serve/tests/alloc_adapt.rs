//! Steady-state allocation discipline of the adaptive retune path.
//!
//! A retune is supposed to disappear into the dispatch loop: the
//! controller's window is two integer accumulators, the residency
//! hint walks probe paths over a bounded sample of the run's own key
//! buffer, the density blend is arithmetic, and the publish is one
//! atomic store into the shard's `PolicyCell`. None of that may touch
//! the heap — a retune that allocates would put a malloc on the
//! dispatcher's per-run critical path every `retune_interval` runs.
//! This test pins the whole computation with a counting global
//! allocator (per thread, shared with `isi_obs`'s tests): after
//! warm-up, hundreds of hint-sample → density-blend → clamp → publish
//! → snapshot cycles perform **zero** allocations.

use isi_core::policy::{Interleave, PolicyCell};
use isi_search::autotune::{density_for_counts, group_for_density};
use isi_serve::{Backend, ShardedStore, StoreConfig};

#[path = "../../obs/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::count_allocs;

/// One retune, exactly as the dispatcher performs it: sample the
/// backend's residency hint over a prefix of the run's key buffer,
/// blend with the window's delta density, clamp to the calibrated
/// ceiling, publish through the cell, and snapshot it back (the next
/// run's load).
fn retune_once(
    store: &ShardedStore,
    cell: &PolicyCell,
    sample: &[u64],
    delta_hits: u64,
    lookups: u64,
    calibrated: usize,
) -> usize {
    let hint = store.hint_density(0, sample).clamp(0.0, 1.0);
    let d_delta = density_for_counts(delta_hits, lookups);
    let density = d_delta + (1.0 - d_delta) * hint;
    let group = group_for_density(calibrated, density);
    cell.store(Interleave::from_group(group));
    cell.load().group_or_one()
}

/// Hundreds of steady-state retunes over a populated shard perform
/// zero heap allocations: the hint walk, the density math and the
/// `PolicyCell` publish/snapshot are all on-stack.
#[test]
fn steady_state_retunes_allocate_nothing() {
    // Foreground mode and a huge threshold: no merger thread, no
    // merges — everything counted runs on this thread.
    let cfg = StoreConfig::with_threshold(1 << 20).foreground();
    let pairs: Vec<(u64, u64)> = (0..4096).map(|i| (i * 2, i)).collect();
    let store = ShardedStore::build_with(Backend::Sorted, 1, &pairs, cfg);
    let cell = PolicyCell::new(Interleave::from_group(8));
    // A dispatcher samples a bounded prefix of its run's key buffer;
    // 16 keys matches the controller's HINT_SAMPLE bound.
    let sample: Vec<u64> = (0..16u64).map(|i| i * 509).collect();

    // Warm up once: first touches of the shard's epoch snapshot and
    // any lazy allocator state happen outside the counted section.
    retune_once(&store, &cell, &sample, 1, 10, 8);

    let (allocs, ()) = count_allocs(|| {
        for round in 0..512u64 {
            // Sweep the whole density range so every clamp outcome
            // (calibrated ceiling down to sequential) is exercised.
            let g = retune_once(&store, &cell, &sample, round % 11, 10, 8);
            assert!((1..=8).contains(&g), "group {g} escaped the clamps");
        }
    });
    assert_eq!(
        allocs, 0,
        "512 steady-state retunes performed {allocs} heap allocations; \
         the retune path must stay off the heap"
    );
}

/// The degenerate inputs the controller can feed the same machinery —
/// an empty sample (a writes-only window) and a zero-lookup window —
/// stay allocation-free too, and degrade to the calibrated group.
#[test]
fn degenerate_windows_stay_allocation_free() {
    let cfg = StoreConfig::with_threshold(1 << 20).foreground();
    let store = ShardedStore::build_with(Backend::Sorted, 1, &[], cfg);
    let cell = PolicyCell::new(Interleave::from_group(6));

    retune_once(&store, &cell, &[], 0, 0, 6);

    let (allocs, ()) = count_allocs(|| {
        for _ in 0..64 {
            // Empty main, empty sample, 0/0 window: the blend must
            // keep the calibrated group without NaN or heap traffic.
            let g = retune_once(&store, &cell, &[], 0, 0, 6);
            assert_eq!(g, 6, "zero-traffic window drifted off calibration");
        }
    });
    assert_eq!(
        allocs, 0,
        "degenerate retunes performed {allocs} heap allocations"
    );
}
