//! Property tests for `AtomicHist` under concurrency.
//!
//! Two properties, each against a sequential oracle:
//!
//! 1. **No lost counts**: for arbitrary per-thread workloads into one
//!    shared histogram, its count after all writers join is exactly
//!    the sum of what the threads recorded, and counts read while the
//!    writers race never exceed it.
//! 2. **Histogram merge = sequential oracle**: recording arbitrary
//!    samples concurrently across per-shard histograms and merging
//!    the snapshots equals one sequential `LatencyHist` fed every
//!    sample.

use proptest::prelude::*;

use isi_core::stats::LatencyHist;
use isi_obs::AtomicHist;

proptest! {
    // Each case spawns real threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn concurrent_increments_are_never_lost(
        per_thread in proptest::collection::vec(1u64..200, 1..6),
    ) {
        let hist = AtomicHist::new();
        let total: u64 = per_thread.iter().sum();

        std::thread::scope(|scope| {
            for &n in &per_thread {
                let hist = &hist;
                scope.spawn(move || {
                    for i in 0..n {
                        hist.record(i);
                    }
                });
            }
            // Reads racing the writers must stay within bounds.
            for _ in 0..8 {
                prop_assert!(hist.count() <= total);
            }
            Ok(())
        })?;

        prop_assert_eq!(hist.snapshot().count(), total);
    }

    #[test]
    fn merged_shard_hists_equal_sequential_oracle(
        shards in proptest::collection::vec(
            proptest::collection::vec(0u64..2_000_000, 0..120),
            1..5,
        ),
    ) {
        let hists: Vec<AtomicHist> = shards.iter().map(|_| AtomicHist::new()).collect();

        std::thread::scope(|scope| {
            for (hist, samples) in hists.iter().zip(&shards) {
                scope.spawn(move || {
                    for &v in samples {
                        hist.record(v);
                    }
                });
            }
        });

        let mut oracle = LatencyHist::new();
        for v in shards.iter().flatten() {
            oracle.record(*v);
        }
        let mut merged = LatencyHist::new();
        for hist in &hists {
            merged.merge(&hist.snapshot());
        }
        prop_assert_eq!(merged, oracle);
    }
}
