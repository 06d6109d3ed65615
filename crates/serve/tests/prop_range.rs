//! Property test: batch reads over a static key range race background
//! merges and run-stack folds through the live service.
//!
//! A writer churns a disjoint key region — through merge-every-write
//! in one configuration, and through constant run-stack folds with
//! no merges at all in the other — while a reader sweeps the static
//! range `0..KEYSPACE` with `get_many`. Every sweep must return the
//! static pairs exactly (one consistent snapshot per shard entry),
//! and every churned key must read absent or as a value the writer
//! put there. After the race the whole key set agrees with a
//! `BTreeMap` oracle.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use isi_serve::{Backend, BatchPolicy, LookupService, ServeConfig, ShardedStore, StoreConfig};

/// The static range the reader sweeps; the writer stays above it.
const KEYSPACE: u64 = 600;

/// First key of the writer's churned region.
const CHURN: u64 = 10_000;

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

proptest! {
    // One case under Miri (threaded store under an interpreter).
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 4 }))]

    #[test]
    fn scans_race_background_merges(
        pairs in initial_pairs(),
        writes in proptest::collection::vec((0u64..200, 0u64..1_000_000), 50..200),
    ) {
        // Every second write exceeds max_runs = 2 in the no-merge
        // configuration, so reads race both publish paths.
        let static_keys: Vec<u64> = (0..KEYSPACE).collect();
        let static_map: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let want_static: Vec<Option<u64>> =
            static_keys.iter().map(|k| static_map.get(k).copied()).collect();
        let churn_keys: Vec<u64> = (0..200).map(|k| CHURN + k).collect();
        let mut written: HashMap<u64, HashSet<u64>> = HashMap::new();
        for &(k, v) in &writes {
            if v % 5 != 0 {
                written.entry(CHURN + k).or_default().insert(v);
            }
        }
        for backend in Backend::ALL {
            for (threshold, max_runs) in [(1usize, 8usize), (1 << 16, 2)] {
                let store = ShardedStore::build_with(
                    backend,
                    2,
                    &pairs,
                    StoreConfig::with_threshold(threshold).with_max_runs(max_runs),
                );
                let svc = service(store);
                let done = AtomicUsize::new(0);
                std::thread::scope(|scope| {
                    let svc = &svc;
                    let done = &done;
                    let writes = &writes;
                    scope.spawn(move || {
                        for &(k, v) in writes {
                            if v % 5 == 0 {
                                svc.remove(CHURN + k);
                            } else {
                                svc.put(CHURN + k, v);
                            }
                        }
                        done.store(1, Ordering::Release);
                    });
                    let (static_keys, want, churn_keys, written) =
                        (&static_keys, &want_static, &churn_keys, &written);
                    scope.spawn(move || {
                        loop {
                            let finished = done.load(Ordering::Acquire) == 1;
                            assert_eq!(&svc.get_many(static_keys), want, "static region moved");
                            for (k, got) in churn_keys.iter().zip(svc.get_many(churn_keys)) {
                                if let Some(v) = got {
                                    assert!(
                                        written.get(k).is_some_and(|vs| vs.contains(&v)),
                                        "churned key {k} read {v}, never written there"
                                    );
                                }
                            }
                            if finished {
                                break;
                            }
                        }
                    });
                });
                // Final state: static region plus the writer's survivors.
                let mut oracle = static_map.clone();
                for &(k, v) in &writes {
                    if v % 5 == 0 {
                        oracle.remove(&(CHURN + k));
                    } else {
                        oracle.insert(CHURN + k, v);
                    }
                }
                svc.store().quiesce();
                let tag = format!(
                    "backend={} threshold={threshold} max_runs={max_runs}",
                    backend.name()
                );
                let all: Vec<u64> = static_keys.iter().chain(&churn_keys).copied().collect();
                let want_all: Vec<Option<u64>> =
                    all.iter().map(|k| oracle.get(k).copied()).collect();
                prop_assert_eq!(svc.get_many(&all), want_all, "{}", &tag);
                prop_assert_eq!(svc.store().len(), oracle.len(), "{}", &tag);
                let stats = svc.stats();
                if threshold == 1 << 16 {
                    // The no-merge configuration exercised folds instead.
                    prop_assert_eq!(stats.merges, 0, "{}", &tag);
                    prop_assert!(stats.compactions <= stats.delta_runs, "{}", &tag);
                }
            }
        }
    }
}
