//! Property tests for the *writable* serving layer: any mixed
//! `put`/`remove`/`get`/`get_many` schedule through the live service
//! agrees with a sequential `HashMap` oracle — on every backend,
//! shard count, delta-merge threshold (including threshold 1 =
//! merge-every-write and the 4096 default) and run-stack depth bound
//! (`max_runs` 1 = fold-every-write, 4, and unbounded).
//!
//! Two angles:
//!
//! * **Sequential agreement** — one client issues the whole schedule;
//!   per-shard FIFO makes the service's answers (including each
//!   write's returned previous value) deterministic, so they must
//!   match `HashMap` exactly, merge or no merge. The hot-key cache
//!   answers a repeated `get` without reaching the store, so each
//!   `get` is checked again as a one-key `get_many`, which always
//!   does.
//! * **Concurrent disjoint-key clients** — four clients run the same
//!   schedule shape on disjoint key sets; each client's own results
//!   must match an oracle restricted to its keys (read-your-writes
//!   under concurrency), and the final state must match the union.

use std::collections::HashMap;

use proptest::prelude::*;

use isi_core::policy::Interleave;
use isi_serve::{Backend, BatchPolicy, LookupService, ServeConfig, ShardedStore, StoreConfig};

/// Key space small enough that overwrites, removes of present keys
/// and tombstone-hiding merges all happen constantly.
const KEYSPACE: u64 = 400;

#[derive(Clone, Debug)]
enum MixedOp {
    Get(u64),
    Put(u64, u64),
    Remove(u64),
    GetMany(Vec<u64>),
}

fn ops_strategy() -> impl Strategy<Value = Vec<MixedOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..KEYSPACE).prop_map(MixedOp::Get),
            ((0u64..KEYSPACE), (0u64..1_000_000)).prop_map(|(k, v)| MixedOp::Put(k, v)),
            (0u64..KEYSPACE).prop_map(MixedOp::Remove),
            proptest::collection::vec(0u64..KEYSPACE, 1..16).prop_map(MixedOp::GetMany),
        ],
        1..120,
    )
}

fn initial_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::btree_map(0u64..KEYSPACE, 0u64..1_000_000, 1..100)
        .prop_map(|map| map.into_iter().collect())
}

fn service(store: ShardedStore) -> LookupService {
    service_with_policy(store, ServeConfig::default().policy)
}

/// Same shape as [`service`], with the interleave policy swept.
fn service_with_policy(store: ShardedStore, policy: Interleave) -> LookupService {
    LookupService::start(
        store,
        ServeConfig {
            policy,
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
    fn mixed_schedule_matches_hashmap_oracle(
        pairs in initial_pairs(),
        ops in ops_strategy(),
    ) {
        for backend in Backend::ALL {
            for shards in [1usize, 2, 4] {
                // (merge threshold, run-stack bound): fold-every-write
                // under a tiny threshold, the 4096 default threshold
                // with an unbounded stack, and a never-merging
                // threshold with a shallow stack (compactions without
                // merges).
                for (threshold, max_runs) in
                    [(1usize, 4usize), (3, 1), (4096, usize::MAX), (1 << 16, 4)]
                {
                    let store = ShardedStore::build_with(
                        backend,
                        shards,
                        &pairs,
                        StoreConfig::with_threshold(threshold).with_max_runs(max_runs),
                    );
                    let svc = service(store);
                    let mut oracle: HashMap<u64, u64> = pairs.iter().copied().collect();
                    let mut puts = 0u64;
                    for (step, op) in ops.iter().enumerate() {
                        let tag = || format!(
                            "backend={} shards={shards} threshold={threshold} \
                             max_runs={max_runs} step={step} op={op:?}",
                            backend.name()
                        );
                        match op {
                            MixedOp::Get(k) => {
                                let want = oracle.get(k).copied();
                                prop_assert_eq!(svc.get(*k), want, "{}", tag());
                                prop_assert_eq!(svc.get_many(&[*k]), vec![want], "{}", tag());
                            }
                            MixedOp::Put(k, v) => {
                                puts += 1;
                                prop_assert_eq!(
                                    svc.put(*k, *v), oracle.insert(*k, *v), "{}", tag()
                                );
                            }
                            MixedOp::Remove(k) => {
                                prop_assert_eq!(
                                    svc.remove(*k), oracle.remove(k), "{}", tag()
                                );
                            }
                            MixedOp::GetMany(keys) => {
                                let want: Vec<Option<u64>> =
                                    keys.iter().map(|k| oracle.get(k).copied()).collect();
                                prop_assert_eq!(svc.get_many(keys), want, "{}", tag());
                            }
                        }
                    }
                    // Full-keyspace sweep through get_many: the
                    // final state matches the oracle everywhere,
                    // not just on probed keys.
                    let all: Vec<u64> = (0..KEYSPACE).collect();
                    let want: Vec<Option<u64>> =
                        all.iter().map(|k| oracle.get(k).copied()).collect();
                    prop_assert_eq!(svc.get_many(&all), want);
                    prop_assert_eq!(svc.store().len(), oracle.len());

                    // Merges run on the background thread; settle
                    // before asserting on maintenance state.
                    svc.store().quiesce();
                    let stats = svc.stats();
                    // Once quiesced, no shard's residual delta
                    // holds a full threshold (the merger would
                    // have been re-kicked).
                    prop_assert!(
                        stats.delta_keys < (threshold * shards) as u64 + 1
                    );
                    prop_assert_eq!(stats.merge_backlog, 0);
                    if threshold == 1 {
                        // Merge-every-write: the drained delta is
                        // empty; background merges coalesce, so
                        // "some merge ran" is the strongest count
                        // claim that survives timing.
                        prop_assert_eq!(stats.delta_keys, 0);
                        if puts > 0 {
                            prop_assert!(stats.merges >= 1);
                        }
                        prop_assert_eq!(stats.bg_merges, stats.merges);
                    }
                    prop_assert_eq!(stats.merge_latency.count(), stats.merges);
                    // Run-stack accounting: every fold needed a
                    // pushed run, and a bound of 1 folds on every
                    // multi-run publish.
                    prop_assert!(stats.compactions <= stats.delta_runs);
                    if max_runs == usize::MAX {
                        prop_assert_eq!(stats.compactions, 0);
                    }
                }
            }
        }
    }

    /// Two tiers of merge under the same oracle. The random pairs sit
    /// on top of 64 fixed ones, so that at thresholds 1, 2 and 8 the
    /// mid tier is due at 8 or more, 11 or more and 22 or more entries:
    /// every case starts with minor merges and reaches a major one.
    /// A preamble walks there a threshold at a time — tombstones of
    /// stored keys first, which the mid tier has to keep (they hide
    /// the main's pairs) until the major merge drops them — then the
    /// random schedule runs with both kinds of merge racing its reads.
    #[test]
    fn two_tier_merges_match_hashmap_oracle(
        pairs in initial_pairs(),
        ops in ops_strategy(),
    ) {
        const BASE: u64 = 64;
        let base = || (0..BASE).map(|i| (1_000 + i, i));
        let mut all_pairs = pairs.clone();
        all_pairs.extend(base());
        for backend in Backend::ALL {
            for threshold in [1usize, 2, 8] {
                let store = ShardedStore::build_with(
                    backend,
                    1,
                    &all_pairs,
                    StoreConfig::with_threshold(threshold),
                );
                let svc = service(store);
                let store = svc.store();
                let mut oracle: HashMap<u64, u64> = all_pairs.iter().copied().collect();
                let tag = format!("backend={} threshold={threshold}", backend.name());
                // One threshold of tombstones on stored keys: a minor
                // merge, after which they sit in the mid tier.
                for i in 0..threshold as u64 {
                    prop_assert_eq!(svc.remove(1_000 + i), oracle.remove(&(1_000 + i)), "{}", tag);
                }
                store.quiesce();
                prop_assert!(store.merges() >= 1, "{}", tag);
                prop_assert_eq!(store.major_merges(), 0, "{}", tag);
                prop_assert_eq!((store.mid_len(), store.delta_len()), (threshold, 0), "{}", tag);
                prop_assert_eq!(store.len(), oracle.len(), "{}", tag);
                // Fresh keys, a threshold at a time, until the mid is
                // due: it grows by exactly that much per step, the
                // tombstones hide their keys throughout, and then a
                // major merge empties it into the main.
                let mut fresh = 2_000u64;
                while store.major_merges() == 0 {
                    prop_assert!(fresh < 2_100, "{}: no major merge in 100 writes", tag);
                    let mid = store.mid_len();
                    for _ in 0..threshold {
                        prop_assert_eq!(svc.put(fresh, fresh), oracle.insert(fresh, fresh), "{}", tag);
                        fresh += 1;
                    }
                    store.quiesce();
                    // `get_many`, not `get`: the store must answer,
                    // not the hot-key cache.
                    prop_assert_eq!(svc.get_many(&[1_000]), vec![None], "{}", tag);
                    if store.major_merges() == 0 {
                        prop_assert_eq!(store.mid_len(), mid + threshold, "{}", tag);
                    }
                }
                prop_assert_eq!((store.mid_len(), store.delta_len()), (0, 0), "{}", tag);
                prop_assert!(store.merges() > store.major_merges(), "{}", tag);
                prop_assert_eq!(store.len(), oracle.len(), "{}", tag);
                // The random schedule, reads racing whatever the merger
                // is doing.
                for (step, op) in ops.iter().enumerate() {
                    match op {
                        MixedOp::Get(k) => {
                            let want = oracle.get(k).copied();
                            prop_assert_eq!(svc.get(*k), want, "{} step={}", tag, step);
                            prop_assert_eq!(svc.get_many(&[*k]), vec![want], "{} step={}", tag, step);
                        }
                        MixedOp::Put(k, v) => {
                            prop_assert_eq!(svc.put(*k, *v), oracle.insert(*k, *v), "{} step={}", tag, step);
                        }
                        MixedOp::Remove(k) => {
                            prop_assert_eq!(svc.remove(*k), oracle.remove(k), "{} step={}", tag, step);
                        }
                        MixedOp::GetMany(keys) => {
                            let want: Vec<Option<u64>> =
                                keys.iter().map(|k| oracle.get(k).copied()).collect();
                            prop_assert_eq!(svc.get_many(keys), want, "{} step={}", tag, step);
                        }
                    }
                }
                let all: Vec<u64> = (0..KEYSPACE).chain(1_000..1_000 + BASE).chain(2_000..fresh).collect();
                let want: Vec<Option<u64>> = all.iter().map(|k| oracle.get(k).copied()).collect();
                prop_assert_eq!(svc.get_many(&all), want, "{}", tag);
                store.quiesce();
                let stats = svc.stats();
                prop_assert_eq!(stats.delta_keys, store.delta_len() as u64);
                prop_assert!(stats.delta_keys < threshold as u64, "{}", tag);
                prop_assert_eq!(stats.merge_latency.count(), stats.merges);
                prop_assert!(store.major_merges() < stats.merges, "{}", tag);
                prop_assert_eq!(store.len(), oracle.len(), "{}", tag);
            }
        }
    }

    /// The interleave policy is a pure execution choice: with merges
    /// racing (threshold 2), every policy must answer every schedule
    /// exactly as the `HashMap` oracle does — and the engine counters
    /// prove that the configured policy is the one every read run was
    /// dispatched with.
    #[test]
    fn configured_policy_is_the_one_that_runs(
        pairs in initial_pairs(),
        ops in ops_strategy(),
    ) {
        for policy in [
            Interleave::Sequential,
            Interleave::from_group(2),
            ServeConfig::default().policy,
        ] {
            for shards in [1usize, 4] {
                let store = ShardedStore::build_with(
                    Backend::Sorted,
                    shards,
                    &pairs,
                    StoreConfig::with_threshold(2),
                );
                let svc = service_with_policy(store, policy);
                let mut oracle: HashMap<u64, u64> = pairs.iter().copied().collect();
                for (step, op) in ops.iter().enumerate() {
                    let tag = || format!("policy={policy} shards={shards} step={step} op={op:?}");
                    match op {
                        MixedOp::Get(k) => {
                            prop_assert_eq!(svc.get(*k), oracle.get(k).copied(), "{}", tag());
                        }
                        MixedOp::Put(k, v) => {
                            prop_assert_eq!(svc.put(*k, *v), oracle.insert(*k, *v), "{}", tag());
                        }
                        MixedOp::Remove(k) => {
                            prop_assert_eq!(svc.remove(*k), oracle.remove(k), "{}", tag());
                        }
                        MixedOp::GetMany(keys) => {
                            let want: Vec<Option<u64>> =
                                keys.iter().map(|k| oracle.get(k).copied()).collect();
                            prop_assert_eq!(svc.get_many(keys), want, "{}", tag());
                        }
                    }
                }
                // The full-keyspace sweep hands every shard a read run
                // of ~KEYSPACE/shards keys, of which the delta (at most
                // four thresholds = 8 entries) decides a handful: the engine
                // gets far more keys than any group here, so its peak
                // is the group it was given.
                let all: Vec<u64> = (0..KEYSPACE).collect();
                let want: Vec<Option<u64>> =
                    all.iter().map(|k| oracle.get(k).copied()).collect();
                prop_assert_eq!(svc.get_many(&all), want);
                let engine = svc.stats().engine;
                prop_assert_eq!(
                    engine.peak_in_flight,
                    policy.group_or_one() as u64,
                    "policy={} shards={}",
                    policy,
                    shards
                );
                // Sequential is the coroutine's non-suspending
                // instantiation: nothing ever suspends, so nothing is
                // ever switched to.
                if policy == Interleave::Sequential {
                    prop_assert_eq!(engine.switches, 0, "shards={}", shards);
                }
            }
        }
    }

    #[test]
    fn concurrent_disjoint_clients_keep_read_your_writes(
        pairs in initial_pairs(),
        ops in ops_strategy(),
    ) {
        const CLIENTS: u64 = 4;
        for backend in Backend::ALL {
            for shards in [1usize, 4] {
                let store = ShardedStore::build_with(
                    backend,
                    shards,
                    &pairs,
                    StoreConfig::with_threshold(2),
                );
                let svc = service(store);
                // Client c owns exactly the keys ≡ c (mod CLIENTS);
                // remap every key of the shared schedule into the
                // client's residue class so schedules never collide.
                let own = |c: u64, k: u64| k - (k % CLIENTS) + c;
                std::thread::scope(|scope| {
                    for c in 0..CLIENTS {
                        let svc = &svc;
                        let ops = &ops;
                        let mut oracle: HashMap<u64, u64> = pairs
                            .iter()
                            .copied()
                            .filter(|(k, _)| k % CLIENTS == c)
                            .collect();
                        scope.spawn(move || {
                            for op in ops {
                                match op {
                                    MixedOp::Get(k) => {
                                        let k = own(c, *k);
                                        assert_eq!(svc.get(k), oracle.get(&k).copied());
                                    }
                                    MixedOp::Put(k, v) => {
                                        let k = own(c, *k);
                                        assert_eq!(svc.put(k, *v), oracle.insert(k, *v));
                                    }
                                    MixedOp::Remove(k) => {
                                        let k = own(c, *k);
                                        assert_eq!(svc.remove(k), oracle.remove(&k));
                                    }
                                    MixedOp::GetMany(keys) => {
                                        let keys: Vec<u64> =
                                            keys.iter().map(|&k| own(c, k)).collect();
                                        let want: Vec<Option<u64>> = keys
                                            .iter()
                                            .map(|k| oracle.get(k).copied())
                                            .collect();
                                        assert_eq!(svc.get_many(&keys), want);
                                    }
                                }
                            }
                            oracle
                        });
                    }
                });
                // Final state equals the union of what each client
                // left behind: replay all clients' schedules on one
                // map (disjoint keys make the interleaving immaterial).
                let mut union: HashMap<u64, u64> = pairs.iter().copied().collect();
                for c in 0..CLIENTS {
                    for op in &ops {
                        match op {
                            MixedOp::Put(k, v) => {
                                union.insert(own(c, *k), *v);
                            }
                            MixedOp::Remove(k) => {
                                union.remove(&own(c, *k));
                            }
                            _ => {}
                        }
                    }
                }
                let all: Vec<u64> = (0..KEYSPACE).collect();
                let want: Vec<Option<u64>> =
                    all.iter().map(|k| union.get(k).copied()).collect();
                prop_assert_eq!(
                    svc.get_many(&all),
                    want,
                    "backend={} shards={}",
                    backend.name(),
                    shards
                );
                prop_assert_eq!(svc.store().len(), union.len());
            }
        }
    }
}
