//! Property tests for `Obs`'s stage cells under concurrency.
//!
//! Three properties, each against a sequential oracle:
//!
//! 1. **No lost samples**: for arbitrary per-thread workloads into one
//!    `(shard, stage)` cell, its count after all writers join is
//!    exactly the sum of what the threads recorded, and counts read
//!    while the writers race never exceed it.
//! 2. **Histogram merge = sequential oracle**: recording arbitrary
//!    samples concurrently into per-shard cells and merging them
//!    through `stage_breakdown` equals one sequential `LatencyHist`
//!    fed every sample.
//! 3. **Snapshots are exact**: while threads record one constant
//!    sample `v` into a cell, every racing `stage_hist` has
//!    `sum == v * count`, and a non-empty one `min == max == v`.

use proptest::prelude::*;

use isi_core::stats::LatencyHist;
use isi_obs::{Obs, Stage};

proptest! {
    // Each case spawns real threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn concurrent_increments_are_never_lost(
        per_thread in proptest::collection::vec(1u64..200, 1..6),
    ) {
        let obs = Obs::new(1);
        let total: u64 = per_thread.iter().sum();

        std::thread::scope(|scope| {
            for &n in &per_thread {
                let obs = &obs;
                scope.spawn(move || {
                    for i in 0..n {
                        obs.record_stage(0, Stage::Engine, i);
                    }
                });
            }
            // Reads racing the writers must stay within bounds.
            for _ in 0..8 {
                prop_assert!(obs.stage_hist(0, Stage::Engine).count() <= total);
            }
            Ok(())
        })?;

        prop_assert_eq!(obs.stage_hist(0, Stage::Engine).count(), total);
    }

    #[test]
    fn merged_shard_hists_equal_sequential_oracle(
        shards in proptest::collection::vec(
            proptest::collection::vec(0u64..2_000_000, 0..120),
            1..5,
        ),
    ) {
        let obs = Obs::new(shards.len());

        std::thread::scope(|scope| {
            for (shard, samples) in shards.iter().enumerate() {
                let obs = &obs;
                scope.spawn(move || {
                    for &v in samples {
                        obs.record_stage(shard, Stage::WalFsync, v);
                    }
                });
            }
        });

        let mut oracle = LatencyHist::new();
        for v in shards.iter().flatten() {
            oracle.record(*v);
        }
        let mut merged = LatencyHist::new();
        for row in obs.stage_breakdown() {
            merged.merge(&row[Stage::WalFsync.index()]);
        }
        prop_assert_eq!(merged, oracle);
    }

    #[test]
    fn racing_snapshots_are_exact(
        v in 1u64..1_000_000,
        threads in 1usize..4,
        per_thread in 100u64..2_000,
    ) {
        let obs = Obs::new(1);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                let obs = &obs;
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        obs.record_stage(0, Stage::Merge, v);
                    }
                });
            }
            for _ in 0..64 {
                let snap = obs.stage_hist(0, Stage::Merge);
                prop_assert_eq!(snap.sum(), v * snap.count());
                if !snap.is_empty() {
                    prop_assert_eq!((snap.min(), snap.max()), (v, v));
                }
            }
            Ok(())
        })?;

        prop_assert_eq!(obs.stage_hist(0, Stage::Merge).count(), threads as u64 * per_thread);
    }
}
