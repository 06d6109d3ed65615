//! Property tests for counters and histograms under concurrency.
//!
//! Three properties, each against a sequential oracle:
//!
//! 1. **No lost counts**: for arbitrary per-thread workloads, the
//!    counter reads taken after all writers join are exactly the sums
//!    of what the threads did, and reads racing the writers never
//!    exceed them.
//! 2. **Coherent pairwise invariants**: writers that bump `records`
//!    before `syncs` (so `syncs ≤ records` is always true of the
//!    underlying cells), read `syncs` first and `records` second, never
//!    show `syncs > records` — even with reads racing the writers. The
//!    opposite read order is the skew `wal_stats()` once had.
//! 3. **Histogram merge = sequential oracle**: recording arbitrary
//!    samples concurrently across per-shard histograms and merging
//!    the snapshots equals one sequential `LatencyHist` fed every
//!    sample.

use proptest::prelude::*;

use isi_core::stats::LatencyHist;
use isi_obs::{AtomicHist, Counter};

proptest! {
    // Each case spawns real threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn concurrent_increments_are_never_lost(
        per_thread in proptest::collection::vec(1u64..200, 1..6),
    ) {
        let counters: Vec<Counter> = per_thread.iter().map(|_| Counter::default()).collect();
        let hist = AtomicHist::new();
        let total: u64 = per_thread.iter().sum();
        let sum = || counters.iter().map(Counter::get).sum::<u64>();

        std::thread::scope(|scope| {
            for (counter, &n) in counters.iter().zip(&per_thread) {
                let hist = &hist;
                scope.spawn(move || {
                    for i in 0..n {
                        counter.inc();
                        hist.record(i);
                    }
                });
            }
            // Reads racing the writers must stay within bounds.
            for _ in 0..8 {
                prop_assert!(sum() <= total);
                prop_assert!(hist.count() <= total);
            }
            Ok(())
        })?;

        prop_assert_eq!(sum(), total);
        for (counter, &n) in counters.iter().zip(&per_thread) {
            prop_assert_eq!(counter.get(), n);
        }
        prop_assert_eq!(hist.snapshot().count(), total);
    }

    #[test]
    fn snapshots_never_show_syncs_ahead_of_records(
        writes in 50u64..400,
        writer_threads in 1usize..4,
    ) {
        let records = Counter::default();
        let syncs = Counter::default();

        std::thread::scope(|scope| {
            for _ in 0..writer_threads {
                let (records, syncs) = (&records, &syncs);
                scope.spawn(move || {
                    for _ in 0..writes {
                        records.inc();
                        syncs.inc();
                    }
                });
            }
            for _ in 0..64 {
                // The ≤ side first: the writers bump `records` first,
                // so `syncs` can never be observed ahead.
                let s = syncs.get();
                let r = records.get();
                prop_assert!(s <= r, "skewed read: syncs={} > records={}", s, r);
            }
            Ok(())
        })?;

        let expect = writes * writer_threads as u64;
        prop_assert_eq!(records.get(), expect);
        prop_assert_eq!(syncs.get(), expect);
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
