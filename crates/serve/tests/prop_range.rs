//! Property tests for range scans: `get_range` through the live
//! service agrees with a `BTreeMap` oracle — on every backend, shard
//! count, delta-merge threshold (including threshold 1 =
//! merge-constantly and the 4096 default) and run-stack depth bound
//! (`max_runs` 1, 4, unbounded), interleaved with writes that keep
//! keys moving between delta runs and main.
//!
//! Two angles:
//!
//! * **Sequential agreement** — one client interleaves
//!   `put`/`remove`/`get_range`; per-shard FIFO makes every scan's
//!   answer deterministic, so it must equal the oracle's
//!   `range(lo..=hi)` exactly — wherever the background merger
//!   happens to be.
//! * **Scans racing background merges (and compactions)** — a writer
//!   churns a disjoint key region through constant merges — or, in a
//!   second configuration, through constant run-stack folds with no
//!   merges at all — while a scanner reads a static region (exact
//!   agreement required) and the full range (sortedness and
//!   static-subset agreement required).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use isi_serve::{Backend, BatchPolicy, LookupService, ServeConfig, ShardedStore, StoreConfig};

/// Key space small enough that ranges routinely straddle written,
/// removed and untouched keys across every shard.
const KEYSPACE: u64 = 600;

#[derive(Clone, Debug)]
enum RangeOp {
    Put(u64, u64),
    Remove(u64),
    Range(u64, u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<RangeOp>> {
    proptest::collection::vec(
        prop_oneof![
            ((0u64..KEYSPACE), (0u64..1_000_000)).prop_map(|(k, v)| RangeOp::Put(k, v)),
            (0u64..KEYSPACE).prop_map(RangeOp::Remove),
            ((0u64..KEYSPACE), (0u64..KEYSPACE)).prop_map(|(a, b)| RangeOp::Range(a, b)),
        ],
        1..80,
    )
}

fn initial_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::btree_map(0u64..KEYSPACE, 0u64..1_000_000, 1..150)
        .prop_map(|map| map.into_iter().collect())
}

fn service(store: ShardedStore) -> LookupService {
    LookupService::start(
        store,
        ServeConfig {
            batch: BatchPolicy { max_batch: 4 },
            queue_cap: 8,
            ..ServeConfig::default()
        },
    )
}

fn oracle_range(oracle: &BTreeMap<u64, u64>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    if lo > hi {
        return Vec::new();
    }
    oracle.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
}

proptest! {
    // One case under Miri (threaded store under an interpreter).
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 4 }))]

    #[test]
    fn get_range_matches_btreemap_oracle(
        pairs in initial_pairs(),
        ops in ops_strategy(),
    ) {
        for backend in Backend::ALL {
            for shards in [1usize, 2, 4] {
                // (merge threshold, run-stack bound), covering
                // fold-every-write, the 4096 default and an unbounded
                // stack that neither merges nor folds.
                for (threshold, max_runs) in
                    [(1usize, 4usize), (3, 1), (4096, 4), (1 << 16, usize::MAX)]
                {
                    let store = ShardedStore::build_with(
                        backend,
                        shards,
                        &pairs,
                        StoreConfig::with_threshold(threshold).with_max_runs(max_runs),
                    );
                    let svc = service(store);
                    let mut oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();
                    for (step, op) in ops.iter().enumerate() {
                        let tag = || format!(
                            "backend={} shards={shards} threshold={threshold} \
                             max_runs={max_runs} step={step} op={op:?}",
                            backend.name()
                        );
                        match op {
                            RangeOp::Put(k, v) => {
                                prop_assert_eq!(
                                    svc.put(*k, *v), oracle.insert(*k, *v), "{}", tag()
                                );
                            }
                            RangeOp::Remove(k) => {
                                prop_assert_eq!(
                                    svc.remove(*k), oracle.remove(k), "{}", tag()
                                );
                            }
                            RangeOp::Range(a, b) => {
                                prop_assert_eq!(
                                    svc.get_range(*a, *b),
                                    oracle_range(&oracle, *a, *b),
                                    "{}", tag()
                                );
                            }
                        }
                    }
                    // Full-keyspace scan: final state agrees
                    // everywhere, not just on probed ranges.
                    prop_assert_eq!(
                        svc.get_range(0, u64::MAX),
                        oracle_range(&oracle, 0, u64::MAX)
                    );
                    svc.store().quiesce();
                    let stats = svc.stats();
                    // One admission entry per shard per scan.
                    let scans = 1 + ops.iter().filter(|o| matches!(o, RangeOp::Range(a, b) if a <= b)).count() as u64;
                    prop_assert_eq!(stats.range_scans, scans * shards as u64);
                    prop_assert_eq!(stats.merge_backlog, 0);
                }
            }
        }
    }

    #[test]
    fn scans_race_background_merges(
        pairs in initial_pairs(),
        writes in proptest::collection::vec((0u64..200, 0u64..1_000_000), 50..200),
    ) {
        // The writer churns keys >= 10_000 — through merge-every-write
        // in the first configuration, and through constant run-stack
        // folds with no merges at all in the second (every second
        // write exceeds max_runs = 2) — so scans race both publish
        // paths. The scanner's static-region scans must be exact
        // throughout, and full scans must stay sorted with the static
        // region embedded.
        for backend in Backend::ALL {
            for (threshold, max_runs) in [(1usize, 8usize), (1 << 16, 2)] {
            let store = ShardedStore::build_with(
                backend,
                2,
                &pairs,
                StoreConfig::with_threshold(threshold).with_max_runs(max_runs),
            );
            let svc = service(store);
            let want_static: Vec<(u64, u64)> = pairs.clone();
            let done = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let svc = &svc;
                let done = &done;
                let writes = &writes;
                scope.spawn(move || {
                    for &(k, v) in writes {
                        if v % 5 == 0 {
                            svc.remove(10_000 + k);
                        } else {
                            svc.put(10_000 + k, v);
                        }
                    }
                    done.store(1, Ordering::Release);
                });
                let want = &want_static;
                scope.spawn(move || {
                    loop {
                        let finished = done.load(Ordering::Acquire) == 1;
                        assert_eq!(&svc.get_range(0, KEYSPACE - 1), want, "static region moved");
                        let all = svc.get_range(0, u64::MAX);
                        assert!(
                            all.windows(2).all(|w| w[0].0 < w[1].0),
                            "full scan unsorted or duplicated"
                        );
                        assert_eq!(&all[..want.len()], &want[..], "static prefix moved");
                        if finished {
                            break;
                        }
                    }
                });
            });
            // Final state: static region plus the writer's survivors.
            let mut oracle: BTreeMap<u64, u64> = pairs.iter().copied().collect();
            for &(k, v) in &writes {
                if v % 5 == 0 {
                    oracle.remove(&(10_000 + k));
                } else {
                    oracle.insert(10_000 + k, v);
                }
            }
            svc.store().quiesce();
            prop_assert_eq!(
                svc.get_range(0, u64::MAX),
                oracle_range(&oracle, 0, u64::MAX),
                "backend={} threshold={} max_runs={}",
                backend.name(),
                threshold,
                max_runs
            );
            let stats = svc.stats();
            if threshold == 1 << 16 {
                // The no-merge configuration exercised folds instead.
                prop_assert_eq!(stats.merges, 0);
                prop_assert!(stats.compactions <= stats.delta_runs);
            }
            }
        }
    }
}
