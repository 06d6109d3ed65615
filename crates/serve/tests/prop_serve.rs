//! Property test for the serving layer: under concurrent clients,
//! every backend × shard count × batch policy answers every request
//! exactly as the sequential oracle does.
//!
//! The two policies cover both ends of batch formation:
//! * tiny `max_batch` — a backlog is cut into many full batches;
//! * large `max_batch` — whatever queued behind a runner coalesces
//!   into one batch, with the queue bound exercising backpressure.

use proptest::prelude::*;

use isi_serve::{Backend, BatchPolicy, LookupService, ServeConfig, ShardedStore};

/// Strategy: distinct key/value pairs plus a probe list mixing hits,
/// misses and extremes.
fn pairs_and_probes() -> impl Strategy<Value = (Vec<(u64, u64)>, Vec<u64>)> {
    (
        proptest::collection::btree_map(0u64..5_000, 0u64..1_000_000, 1..400),
        proptest::collection::vec(0u64..6_000, 1..200),
    )
        .prop_map(|(map, probes)| (map.into_iter().collect(), probes))
}

fn policies() -> [BatchPolicy; 2] {
    [
        BatchPolicy { max_batch: 2 },
        BatchPolicy { max_batch: 1024 },
    ]
}

proptest! {
    // One case under Miri: each case spins up the full threaded
    // service, which the interpreter executes ~100x slower.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 6 }))]

    #[test]
    fn concurrent_clients_match_sequential_oracle(
        (pairs, probes) in pairs_and_probes(),
    ) {
        // Oracle: the store's own sequential point lookup, validated
        // independently in the store's unit tests.
        let oracle: std::collections::BTreeMap<u64, u64> = pairs.iter().copied().collect();
        for backend in Backend::ALL {
            for shards in [1usize, 2, 4] {
                for (p, policy) in policies().into_iter().enumerate() {
                    let store = ShardedStore::build(backend, shards, &pairs);
                    let svc = LookupService::start(
                        store,
                        ServeConfig {
                            batch: policy,
                            queue_cap: 8,
                            ..ServeConfig::default()
                        },
                    );
                    // 4 concurrent clients, each issuing an
                    // interleaved quarter of the probe list.
                    let results: Vec<Vec<(u64, Option<u64>)>> =
                        std::thread::scope(|scope| {
                            let handles: Vec<_> = (0..4usize)
                                .map(|c| {
                                    let svc = &svc;
                                    let probes = &probes;
                                    scope.spawn(move || {
                                        probes
                                            .iter()
                                            .skip(c)
                                            .step_by(4)
                                            .map(|&k| (k, svc.get(k)))
                                            .collect()
                                    })
                                })
                                .collect();
                            handles.into_iter().map(|h| h.join().unwrap()).collect()
                        });
                    for client in &results {
                        for &(k, got) in client {
                            prop_assert_eq!(
                                got,
                                oracle.get(&k).copied(),
                                "backend={} shards={} policy={} key={}",
                                backend.name(),
                                shards,
                                p,
                                k
                            );
                        }
                    }
                    let stats = svc.stats();
                    // Every probe is either dispatched (counted in
                    // requests and engine lookups) or, for a repeated
                    // key, a hot-key cache hit.
                    prop_assert_eq!(
                        stats.requests + stats.cache_hits,
                        probes.len() as u64
                    );
                    prop_assert_eq!(stats.latency.count(), stats.requests);
                    prop_assert!(stats.batches >= 1);
                    prop_assert!(
                        stats.engine.lookups + stats.cache_hits == probes.len() as u64
                    );
                }
            }
        }
    }
}
