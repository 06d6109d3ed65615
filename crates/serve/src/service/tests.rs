use super::cache::{HotCache, BYPASS, WINDOW};
use super::*;
use crate::store::{Backend, StoreConfig};

fn pairs(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i * 2, i)).collect()
}

fn expect(key: u64) -> Option<u64> {
    (key.is_multiple_of(2) && key < 4000).then_some(key / 2)
}

#[test]
fn single_client_hits_and_misses_all_backends() {
    for backend in Backend::ALL {
        let store = ShardedStore::build(backend, 2, &pairs(2000));
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 8,
                ..ServeConfig::default()
            },
        );
        for key in [0u64, 2, 3, 1998, 3998, 4000, 9999] {
            assert_eq!(svc.get(key), expect(key), "{} key={key}", backend.name());
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, 7);
        assert_eq!(stats.gets, 7);
        assert!(stats.batches >= 1);
        assert_eq!(stats.latency.count(), 7);
        assert!(stats.latency.p99() >= stats.latency.p50());
    }
}

#[test]
fn an_empty_store_counts_every_key_it_looks_up() {
    for backend in Backend::ALL {
        let svc =
            LookupService::start(ShardedStore::build(backend, 2, &[]), ServeConfig::default());
        assert_eq!(svc.get(5), None);
        assert_eq!(svc.get_many(&[1, 2, 3]), [None; 3]);
        let s = svc.stats();
        assert_eq!((s.gets, s.many_keys, s.delta_hits), (1, 3, 0));
        assert_eq!(s.engine.lookups, 4, "{}", backend.name());
    }
}

/// Take `shard`'s token by hand: a runner that is slow for as long
/// as the test holds the box.
fn hold_token(svc: &LookupService, shard: usize) -> Box<Exec> {
    let mut q = svc.shards[shard].q.plock("admission queue");
    q.exec.take().expect("token present on an idle shard")
}

/// Hand a held token back the way a client does: the helper is
/// notified if entries queued up meanwhile.
fn release_token(svc: &LookupService, shard: usize, token: Box<Exec>) {
    let ctx = svc.ctx(shard);
    let mut q = ctx.state.q.plock("admission queue");
    ctx.hand_back(&mut q, Some(token), Runner::Caller);
}

/// Block until `shard`'s queue holds `n` entries.
fn wait_queued(svc: &LookupService, shard: usize, n: usize) {
    while svc.shards[shard].q.plock("admission queue").reqs.len() != n {
        std::thread::yield_now();
    }
}

#[test]
fn lone_request_runs_on_the_caller() {
    let store = ShardedStore::build(Backend::Csb, 1, &pairs(100));
    let svc = LookupService::start(store, ServeConfig::default());
    for i in 0..32 {
        assert_eq!(svc.get(i * 2), Some(i));
    }
    let stats = svc.stats();
    // Every call (32 distinct keys: no cache hit) found the shard
    // idle, ran its own batch of one without an admission entry and
    // handed an empty queue back: the helper never ran. Each still
    // counts as one entry, with a (nil) admission wait.
    assert_eq!(stats.batches, 32);
    assert_eq!(stats.caller_runs, 32);
    assert_eq!(stats.full_flushes, 0);
    assert_eq!(stats.requests, 32);
    assert_eq!(stats.gets, 32);
    assert_eq!(stats.latency.count(), 32);
    let waits = svc.obs().stage_hist(0, Stage::AdmissionWait);
    assert_eq!(waits.count(), 32);
    assert_eq!((waits.max(), waits.sum()), (0, 0));
    // The shard has no delta: each get is one Engine span and no Plan
    // span, and its latency sample shares the span's two clock
    // readings, so the sums agree exactly.
    let engine = svc.store().obs().stage_hist(0, Stage::Engine);
    assert_eq!(engine.count(), 32);
    assert_eq!(svc.store().obs().stage_hist(0, Stage::Plan).count(), 0);
    assert_eq!(engine.sum(), stats.latency.sum());
    // No timer, no thread hand-off: far below the millisecond a
    // flush deadline would cost (median, so one preemption of
    // this thread cannot fail the test).
    assert!(
        stats.latency.p50() < 250_000,
        "lone gets took {} ns at the median",
        stats.latency.p50()
    );
}

#[test]
fn a_writer_reads_its_own_writes_past_idle_shard_gets() {
    // A reader `get`s one key in a loop: on an idle shard each miss
    // runs on the reader's thread and refills the cache. A writer
    // `put`s increasing values to the key and reads each back after
    // its ack; a refill from before a put must never outlive it.
    use std::sync::atomic::{AtomicBool, Ordering};

    let key = 2u64;
    for backend in Backend::ALL {
        let store = ShardedStore::build(backend, 1, &pairs(100));
        let svc = LookupService::start(store, ServeConfig::default());
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (svc, done) = (&svc, &done);
            let reader = scope.spawn(move || {
                let mut last = 0;
                while !done.load(Ordering::Relaxed) {
                    let v = svc.get(key).expect("the key is never removed");
                    assert!(v >= last, "{}: read {v} after {last}", backend.name());
                    last = v;
                }
            });
            // Stop the reader before failing, or the scope never ends.
            let stale = (1_000..3_000u64).find_map(|v| {
                svc.put(key, v);
                let got = svc.get(key);
                (got != Some(v)).then_some((v, got))
            });
            done.store(true, Ordering::Relaxed);
            reader.join().expect("reader thread");
            assert_eq!(stale, None, "{}: stale own read", backend.name());
        });
        let stats = svc.stats();
        assert_eq!(stats.puts, 2_000);
        assert!(stats.caller_runs > 0);
    }
}

#[test]
fn backlog_forms_full_batches() {
    // One slow runner (the test, holding the token) while eight
    // clients submit: their entries pile up, and the helper cuts
    // the backlog into max_batch-sized batches once it gets the
    // token.
    let store = ShardedStore::build(Backend::Hash, 1, &pairs(512));
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    let token = hold_token(&svc, 0);
    std::thread::scope(|scope| {
        for c in 0..8u64 {
            let svc = &svc;
            scope.spawn(move || assert_eq!(svc.get(c * 7), expect(c * 7)));
        }
        wait_queued(&svc, 0, 8);
        release_token(&svc, 0, token);
    });
    let stats = svc.stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.batches, 2);
    assert_eq!(stats.full_flushes, 2);
    assert_eq!(stats.caller_runs, 0);
    assert!((stats.mean_batch() - 4.0).abs() < 1e-9);
}

#[test]
fn a_backlog_of_writes_is_one_group_commit() {
    // Four puts queue up behind a held token; the helper then cuts
    // them as one batch = one write run = the group-commit unit.
    use isi_durable::{Fs, MemFs};
    let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
    let store = ShardedStore::build_with_fs(
        Backend::Sorted,
        1,
        &[],
        StoreConfig::with_threshold(1 << 20),
        fs,
    );
    let svc = LookupService::start(store, ServeConfig::default());
    let token = hold_token(&svc, 0);
    std::thread::scope(|scope| {
        for key in 0..4u64 {
            let svc = &svc;
            scope.spawn(move || assert_eq!(svc.put(key, key), None));
        }
        wait_queued(&svc, 0, 4);
        release_token(&svc, 0, token);
    });
    let stats = svc.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.wal_records, 1, "one record per write run");
    assert_eq!(stats.wal_syncs, 1, "one fsync per write run");
}

#[test]
fn a_client_stops_running_once_its_own_entry_is_answered() {
    let store = ShardedStore::build(Backend::Sorted, 1, &pairs(512));
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    // This thread's entry goes in first, two other clients' behind
    // it, all while the token is away.
    let token = hold_token(&svc, 0);
    let ticket = Arc::new(Ticket::new());
    drop(svc.enqueue(
        0,
        svc.lock_open(0),
        Op::Get {
            key: 10,
            ticket: Arc::clone(&ticket),
        },
    ));
    std::thread::scope(|scope| {
        for key in [12u64, 13] {
            let svc = &svc;
            scope.spawn(move || assert_eq!(svc.get(key), expect(key)));
        }
        wait_queued(&svc, 0, 3);
        // Now this thread finds the token present, as a submitter
        // would: with one entry per batch it must run exactly its
        // own and leave the other two to the helper.
        let mut q = svc.shards[0].q.plock("admission queue");
        q.exec = Some(token);
        svc.run_until_answered(0, q, &ticket);
        assert_eq!(ticket.wait(), Some(5));
        assert_eq!(svc.stats().caller_runs, 1);
    });
    let stats = svc.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.batches, 3);
    assert_eq!(stats.caller_runs, 1);
}

#[test]
fn close_answers_every_queued_ticket() {
    let store = ShardedStore::build(Backend::Csb, 1, &pairs(100));
    let mut svc = LookupService::start(store, ServeConfig::default());
    // Entries queued behind a runner that hands the token back
    // without anyone having been notified yet: `close` must still
    // get them executed, writes included, in order.
    let token = hold_token(&svc, 0);
    let put = Arc::new(Ticket::new());
    drop(svc.enqueue(
        0,
        svc.lock_open(0),
        Op::Write {
            key: 10,
            val: Some(77),
            ticket: Arc::clone(&put),
        },
    ));
    let gets: Vec<_> = [10u64, 11, 12]
        .into_iter()
        .map(|key| {
            let ticket = Arc::new(Ticket::new());
            drop(svc.enqueue(
                0,
                svc.lock_open(0),
                Op::Get {
                    key,
                    ticket: Arc::clone(&ticket),
                },
            ));
            ticket
        })
        .collect();
    svc.shards[0].q.plock("admission queue").exec = Some(token);
    svc.close();
    assert_eq!(put.wait(), Some(5));
    let got: Vec<_> = gets.iter().map(|t| t.wait()).collect();
    assert_eq!(got, vec![Some(77), None, Some(6)]);
    assert_eq!(svc.store().get(10), Some(77));
    assert_eq!(svc.stats().caller_runs, 0);
}

#[test]
fn eight_clients_on_two_shards_agree_with_the_oracle() {
    // Closed-loop clients on disjoint key sets, so each one's
    // HashMap is the oracle of every answer it gets while the
    // other seven contend for the same two tokens.
    let store = ShardedStore::build_with(
        Backend::Csb,
        2,
        &pairs(2000),
        StoreConfig::with_threshold(8),
    );
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        for c in 0..8u64 {
            let svc = &svc;
            scope.spawn(move || {
                let mut oracle = std::collections::HashMap::new();
                let seeded = |k: u64| expect(k);
                for i in 0..300u64 {
                    let key = (i * 37 % 500) * 8 + c; // key % 8 == c
                    let want = oracle.get(&key).copied().unwrap_or(seeded(key));
                    match i % 5 {
                        0 | 1 => assert_eq!(svc.get(key), want),
                        2 => {
                            assert_eq!(svc.put(key, i), want);
                            oracle.insert(key, Some(i));
                        }
                        3 => {
                            assert_eq!(svc.remove(key), want);
                            oracle.insert(key, None);
                        }
                        _ => assert_eq!(svc.get_many(&[key, key + 8]).first(), Some(&want)),
                    }
                }
            });
        }
    });
    let stats = svc.stats();
    assert!(stats.caller_runs <= stats.batches);
    assert!(stats.full_flushes <= stats.batches);
    assert_eq!(stats.puts + stats.removes, 8 * 120);
}

#[test]
fn an_unwinding_runner_fails_the_shard_closed() {
    use isi_durable::{FaultFs, FaultPlan, Fs};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    let fault = Arc::new(FaultFs::new(FaultPlan::default()));
    let fs: Arc<dyn Fs> = fault.clone();
    let store = ShardedStore::build_with_fs(
        Backend::Sorted,
        1,
        &pairs(100),
        StoreConfig::with_threshold(1 << 20),
        fs,
    );
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 2,
            ..ServeConfig::default()
        },
    );
    assert_eq!(svc.put(1, 1), None); // the WAL works so far

    // Two clients queue a put each behind a held token, then the
    // disk fills up, then a third client finds the token present
    // and runs their write run: its WAL append fails and unwinds
    // on that client's thread.
    let token = hold_token(&svc, 0);
    let (tx, rx) = mpsc::channel();
    let message = |r: std::thread::Result<Option<u64>>| match r {
        Ok(v) => format!("returned {v:?}"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default(),
    };
    std::thread::scope(|scope| {
        for key in [3u64, 5] {
            let (svc, tx) = (&svc, tx.clone());
            scope.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| svc.put(key, 9)));
                tx.send(("queued", message(r))).expect("test is listening");
            });
        }
        wait_queued(&svc, 0, 2);
        fault.fill_disk();
        let (svc, tx) = (&svc, tx.clone());
        scope.spawn(move || {
            let r = catch_unwind(AssertUnwindSafe(|| {
                let ticket = Arc::new(Ticket::new());
                let mut q = svc.enqueue(
                    0,
                    svc.lock_open(0),
                    Op::Get {
                        key: 2,
                        ticket: Arc::clone(&ticket),
                    },
                );
                q.exec = Some(token);
                svc.run_until_answered(0, q, &ticket);
                ticket.wait()
            }));
            tx.send(("runner", message(r))).expect("test is listening");
        });
        // Nobody hangs: the runner and both waiters end promptly.
        for _ in 0..3 {
            let (who, msg) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a client of the failed shard hung");
            let want = if who == "runner" {
                "WAL append failed"
            } else {
                "shard failed"
            };
            assert!(msg.contains(want), "{who} ended with {msg:?}");
        }
    });
    // The shard stays closed — a rejected request does not poison
    // the queue for the next one, the helper or `close` — and the
    // service still shuts down.
    for _ in 0..2 {
        let later = message(catch_unwind(AssertUnwindSafe(|| svc.get(2))));
        assert!(later.contains("closed LookupService"), "{later:?}");
    }
    drop(svc);
}

#[test]
fn tiny_queue_cap_applies_backpressure_without_deadlock() {
    let store = ShardedStore::build(Backend::Sorted, 2, &pairs(1000));
    let svc = LookupService::start(
        store,
        ServeConfig {
            queue_cap: 1,
            max_batch: 2,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        for c in 0..6u64 {
            let svc = &svc;
            scope.spawn(move || {
                for i in 0..50u64 {
                    let key = (c * 50 + i) % 2100;
                    assert_eq!(svc.get(key), expect(key));
                }
            });
        }
    });
    assert_eq!(svc.stats().requests, 300);
}

#[test]
fn drop_drains_and_joins() {
    let store = ShardedStore::build(Backend::Hash, 4, &pairs(100));
    let svc = LookupService::start(store, ServeConfig::default());
    assert_eq!(svc.get(4), Some(2));
    drop(svc); // must not hang
}

#[test]
fn stats_engine_counters_flow_through() {
    let store = ShardedStore::build(Backend::Csb, 1, &pairs(5000));
    let svc = LookupService::start(
        store,
        ServeConfig {
            policy: Interleave::from_group(6),
            max_batch: 16,
            ..ServeConfig::default()
        },
    );
    let keys: Vec<u64> = (0..64u64).map(|key| key * 2).collect();
    svc.get_many(&keys);
    let stats = svc.stats();
    assert_eq!(stats.engine.lookups, 64);
    // Interleaved tree descents switch at least once per lookup.
    assert!(stats.engine.switches >= 64);
    // A lone key has nothing to interleave with: it runs the
    // non-suspending instantiation.
    svc.get(2);
    let after = svc.stats().engine;
    assert_eq!(after.lookups, 65);
    assert_eq!(after.switches, stats.engine.switches);
}

#[test]
fn writes_are_read_your_writes_per_client() {
    for backend in Backend::ALL {
        let store =
            ShardedStore::build_with(backend, 2, &pairs(500), StoreConfig::with_threshold(4));
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 8,
                ..ServeConfig::default()
            },
        );
        // Overwrite, fresh insert, remove — every completed write
        // is visible to the same client's next read.
        assert_eq!(svc.put(0, 777), Some(0), "{}", backend.name());
        assert_eq!(svc.get(0), Some(777));
        assert_eq!(svc.put(1_000_001, 5), None);
        assert_eq!(svc.get(1_000_001), Some(5));
        assert_eq!(svc.remove(2), Some(1));
        assert_eq!(svc.get(2), None);
        assert_eq!(svc.remove(2), None);
        let stats = svc.stats();
        assert_eq!(stats.puts, 2);
        assert_eq!(stats.removes, 2);
        assert_eq!(stats.gets, 3);
        assert_eq!(stats.requests, 7);
        // merge_threshold 4: the three effective writes forced at
        // least one merge across the two shards... only if one
        // shard saw 4 deltas; with 3 writes no merge is
        // guaranteed, but the counters must at least be coherent.
        assert_eq!(stats.merges, svc.store().merges());
        assert!(stats.delta_keys <= 3);
    }
}

#[test]
fn get_many_partitions_and_restores_order() {
    for backend in Backend::ALL {
        let store = ShardedStore::build(backend, 4, &pairs(3000));
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 64,
                ..ServeConfig::default()
            },
        );
        let keys: Vec<u64> = (0..500u64).map(|i| i * 13 % 7000).collect();
        let got = svc.get_many(&keys);
        assert_eq!(got.len(), keys.len());
        for (&k, &r) in keys.iter().zip(&got) {
            let want = (k.is_multiple_of(2) && k < 6000).then_some(k / 2);
            assert_eq!(r, want, "{} key={k}", backend.name());
        }
        assert_eq!(svc.get_many(&[]), Vec::<Option<u64>>::new());
        let stats = svc.stats();
        assert_eq!(stats.many_keys, 500);
        // One admission entry per touched shard, not per key.
        assert!(stats.requests <= 4);
        assert_eq!(stats.engine.lookups, 500);
    }
}

#[test]
fn get_many_sees_prior_writes() {
    let store = ShardedStore::build_with(
        Backend::Hash,
        2,
        &pairs(100),
        StoreConfig::with_threshold(2),
    );
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    svc.put(0, 111);
    svc.put(500_001, 222);
    svc.remove(4);
    let got = svc.get_many(&[0, 500_001, 4, 6, 9999]);
    assert_eq!(got, vec![Some(111), Some(222), None, Some(3), None]);
}

#[test]
fn hot_cache_hits_skip_dispatch_and_writes_invalidate() {
    let store = ShardedStore::build(Backend::Sorted, 2, &pairs(200));
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    // First read misses the cache and dispatches; repeats hit.
    assert_eq!(svc.get(10), Some(5));
    for _ in 0..5 {
        assert_eq!(svc.get(10), Some(5));
    }
    let stats = svc.stats();
    assert_eq!(stats.cache_hits, 5);
    assert_eq!(stats.gets, 1);
    // A write invalidates before it is acknowledged: the next
    // read must see the new value, then repopulate the cache.
    assert_eq!(svc.put(10, 99), Some(5));
    assert_eq!(svc.get(10), Some(99));
    assert_eq!(svc.get(10), Some(99));
    let stats = svc.stats();
    assert_eq!(stats.gets, 2);
    assert_eq!(stats.cache_hits, 6);
    // Misses are cached too.
    assert_eq!(svc.get(11), None);
    assert_eq!(svc.get(11), None);
    assert_eq!(svc.stats().cache_hits, 7);
}

/// The first `n` keys that share key `of`'s hot-cache set and pass
/// `keep`, found by scanning `u64`s with the cache's own index.
fn set_mates(of: u64, n: usize, keep: impl Fn(u64) -> bool) -> Vec<u64> {
    let set = HotCache::idx(of);
    (0u64..)
        .filter(|&k| HotCache::idx(k) == set && keep(k))
        .take(n)
        .collect()
}

/// SplitMix64's output function: a seeded stream without `isi_workloads`.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[test]
fn hot_cache_a_cached_absence_is_a_hit() {
    // Key 0 matches the key word of a zeroed (empty) slot.
    let mut cache = HotCache::default();
    assert_eq!(cache.probe(0), None, "an empty slot, not a cached None");
    cache.insert(0, None);
    assert_eq!(cache.probe(0), Some(None), "cached None, not an empty slot");
    cache.invalidate(0);
    assert_eq!(cache.probe(0), None);
}

#[test]
fn hot_cache_a_refilled_key_is_invalidated_whole() {
    // Two queued gets of one key in one read run fill it twice; the
    // second fill must reuse the first's way, or the invalidation
    // below would leave a copy behind.
    let mut cache = HotCache::default();
    cache.insert(7, Some(1));
    cache.insert(7, Some(1));
    cache.invalidate(7);
    assert_eq!(cache.probe(7), None);
}

#[test]
fn hot_cache_keeps_a_probed_key_over_keys_filled_once() {
    let mates = set_mates(0, 5, |_| true);
    for probed in [true, false] {
        let mut cache = HotCache::default();
        cache.insert(mates[0], Some(0));
        if probed {
            assert_eq!(cache.probe(mates[0]), Some(Some(0)));
        }
        // Three fills take the empty ways, the fourth evicts.
        for &k in &mates[1..] {
            cache.insert(k, Some(k));
        }
        let kept = cache.probe(mates[0]).is_some();
        assert_eq!(kept, probed, "probed since its fill: {probed}");
        assert_eq!(cache.probe(mates[4]), Some(Some(mates[4])));
    }
}

#[test]
fn hot_cache_hit_rate_on_zipf_keys() {
    // One shard's share of `serve_point`: Zipf(0.99) over 2^23 keys,
    // 128 a slot, drawn as `isi_workloads::zipf_lookups` draws them
    // (Gray et al.'s sampler) with ranks scattered by `mix`, and 2^19
    // gets a pass. The first pass fills the table, the second is
    // counted: ~0.69 here, ~0.58 for a direct-mapped table.
    const KEYS: f64 = (128 << 16) as f64;
    const OPS: u64 = 1 << 19;
    let theta = 0.99;
    let zetan = (KEYS.powf(1.0 - theta) - 1.0) / (1.0 - theta) + 0.577 + 0.5;
    let alpha = 1.0 / (1.0 - theta);
    let eta = (1.0 - (2.0 / KEYS).powf(1.0 - theta)) / (1.0 - (1.0 + 0.5f64.powf(theta)) / zetan);
    let stream: Vec<u64> = (0..OPS)
        .map(|i| {
            let u = (mix(i ^ 0x5EED) >> 11) as f64 / (1u64 << 53) as f64;
            let rank = if u * zetan < 1.0 {
                0.0
            } else if u * zetan < 1.0 + 0.5f64.powf(theta) {
                1.0
            } else {
                (KEYS * (eta * u - eta + 1.0).powf(alpha)).floor()
            };
            mix(rank as u64)
        })
        .collect();
    let mut cache = HotCache::default();
    // The shard's `cache_hits`, which `end_run` takes, and the hits of
    // the counted pass.
    let (mut hits, mut counted) = (0, 0);
    for pass in 0..2 {
        counted = 0;
        for &key in &stream {
            if cache.probe(key).is_some() {
                hits += 1;
                counted += 1;
            } else {
                cache.insert(key, Some(pass));
                cache.end_run(hits);
            }
        }
    }
    let rate = counted as f64 / OPS as f64;
    assert!(rate >= 0.65, "hit rate {rate:.3}");
}

proptest::proptest! {
    #[test]
    fn hot_cache_never_answers_a_stale_value(
        ops in proptest::collection::vec((0u8..4, 0usize..18, 0u64..4), 0..300),
    ) {
        // Six keys in each of three sets: fills (a token holder's read
        // result), writes (store change, then invalidate), probes and
        // run ends, against a `HashMap` model of the store.
        let keys: Vec<u64> = [0, 1, 2].iter().flat_map(|&of| set_mates(of, 6, |_| true)).collect();
        let mut cache = HotCache::default();
        let mut model = std::collections::HashMap::new();
        let mut hits = 0;
        for (op, i, v) in ops {
            let key = keys[i];
            match op {
                0 => cache.insert(key, model.get(&key).copied()),
                1 => {
                    if v == 0 {
                        model.remove(&key);
                    } else {
                        model.insert(key, v);
                    }
                    cache.invalidate(key);
                }
                2 => {
                    if let Some(got) = cache.probe(key) {
                        proptest::prop_assert_eq!(got, model.get(&key).copied(), "key {}", key);
                        hits += 1;
                    }
                }
                _ => cache.end_run(hits),
            }
        }
    }
}

#[test]
fn hot_cache_drops_its_table_when_hits_are_rare_and_retries_later() {
    let mut cache = HotCache::default();
    let miss_n = |cache: &mut HotCache, n: u64, hits: u64| {
        for k in 0..n {
            cache.insert(k, Some(k));
        }
        cache.end_run(hits);
    };
    // A window one miss short: no verdict yet.
    miss_n(&mut cache, WINDOW - 1, 0);
    assert_eq!(cache.probe(1), Some(Some(1)));
    // The window's last miss, no hit in it: the table goes.
    miss_n(&mut cache, 1, 0);
    assert_eq!(cache.probe(1), None);
    cache.insert(5, Some(5));
    cache.invalidate(5);
    assert_eq!(cache.probe(5), None, "a bypassed fill caches nothing");
    // `BYPASS` misses later (the insert above was one), a fresh table.
    miss_n(&mut cache, BYPASS - 2, 0);
    assert_eq!(cache.probe(1), None);
    miss_n(&mut cache, 1, 0);
    assert_eq!(cache.probe(1), None, "the retried table starts empty");
    cache.insert(3, None);
    assert_eq!(cache.probe(3), Some(None));
    // One hit per eight misses keeps it.
    miss_n(&mut cache, WINDOW - 1, WINDOW / 8);
    assert_eq!(cache.probe(2), Some(Some(2)));
}

#[test]
fn colliding_keys_never_serve_a_stale_value() {
    // Eight keys of one shard that all map to one cache set, twice its
    // ways, half of them stored up front; merges race the schedule
    // (threshold 2).
    let probe = ShardedStore::build(Backend::Csb, 2, &[]);
    let shard = probe.shard_of(0);
    let keys = set_mates(0, 8, |k| probe.shard_of(k) == shard);
    let initial: Vec<(u64, u64)> = keys[..4].iter().map(|&k| (k, k + 1)).collect();
    let store = ShardedStore::build_with(Backend::Csb, 2, &initial, StoreConfig::with_threshold(2));
    let svc = LookupService::start(store, ServeConfig::default());
    let mut oracle: std::collections::HashMap<u64, u64> = initial.into_iter().collect();
    let check = |k: u64, oracle: &std::collections::HashMap<u64, u64>, step: u64| {
        assert_eq!(svc.get(k), oracle.get(&k).copied(), "step {step} key {k}");
    };
    for step in 0..256u64 {
        let key = keys[(step * 5 % 8) as usize];
        // Every op follows a read of `key` itself (odd steps) or of one
        // of its seven set mates (even steps).
        let resident = if step % 2 == 1 {
            key
        } else {
            keys[((step * 5 + 1 + step % 7) % 8) as usize]
        };
        check(resident, &oracle, step);
        match step / 2 % 4 {
            0 => assert_eq!(svc.put(key, step), oracle.insert(key, step), "step {step}"),
            1 => assert_eq!(svc.remove(key), oracle.remove(&key), "step {step}"),
            2 => {
                let want: Vec<_> = keys.iter().map(|k| oracle.get(k).copied()).collect();
                assert_eq!(svc.get_many(&keys), want, "step {step}");
            }
            _ => check(key, &oracle, step),
        }
        // `key` again at once (a stale or a hit answer shows here), then
        // every key: eight keys through four ways, each miss evicting
        // a mate.
        check(key, &oracle, step);
        for &k in &keys {
            check(k, &oracle, step);
        }
    }
    assert!(svc.stats().cache_hits > 0);
}

#[test]
fn mixed_batch_preserves_fifo_under_concurrency() {
    // Concurrent clients on disjoint keys: each client's own
    // sequence of put/get/remove must read its own writes even
    // while batches mix clients and writes force merges.
    let store = ShardedStore::build_with(Backend::Csb, 2, &[], StoreConfig::with_threshold(3));
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 8,
            queue_cap: 16,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let svc = &svc;
            scope.spawn(move || {
                for i in 0..40u64 {
                    let key = c + i * 4; // disjoint per client
                    assert_eq!(svc.put(key, i), None);
                    assert_eq!(svc.get(key), Some(i));
                    assert_eq!(svc.remove(key), Some(i));
                    assert_eq!(svc.get(key), None);
                }
            });
        }
    });
    // Merges run behind the runners; settle before counting.
    svc.store().quiesce();
    let stats = svc.stats();
    assert_eq!(stats.requests, 4 * 40 * 4);
    assert_eq!(stats.puts, 160);
    assert_eq!(stats.removes, 160);
    assert!(stats.merges > 0);
    assert_eq!(stats.merge_backlog, 0);
    assert!(svc.store().is_empty());
}

#[test]
fn delta_decided_reads_skip_the_engine() {
    // With a cold cache and a warm delta, repeat reads of written
    // keys must be answered by the plan stage: delta_hits grows,
    // engine lookups do not.
    let store = ShardedStore::build_with(
        Backend::Sorted,
        1,
        &pairs(500),
        StoreConfig::with_threshold(1 << 20),
    );
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        },
    );
    for k in 0..16u64 {
        svc.put(k, 9_000 + k);
    }
    let before = svc.stats();
    for k in 0..16u64 {
        assert_eq!(svc.get(k), Some(9_000 + k));
    }
    assert_eq!(svc.get(100), Some(50)); // untouched key: engine
    let stats = svc.stats();
    assert_eq!(stats.delta_hits, 16);
    assert_eq!(stats.engine.lookups, 1);
    // Each get ran on its idle shard's caller: one Plan span each, an
    // Engine span only for the residual key. The end of Plan starts
    // Engine and each latency sample shares the spans' outer ends, so
    // the spans add up to the gets' latency exactly.
    let obs = svc.store().obs();
    let (plan, engine) = (
        obs.stage_hist(0, Stage::Plan),
        obs.stage_hist(0, Stage::Engine),
    );
    assert_eq!(stats.caller_runs - before.caller_runs, 17);
    assert_eq!((plan.count(), engine.count()), (17, 1));
    assert_eq!(
        stats.latency.sum() - before.latency.sum(),
        plan.sum() + engine.sum()
    );
}

#[test]
#[should_panic(expected = "closed LookupService")]
fn cache_hit_after_close_still_panics() {
    // The hot-cache fast path must honor the use-after-close
    // contract even though it never touches an admission queue.
    let store = ShardedStore::build(Backend::Sorted, 1, &pairs(10));
    let mut svc = LookupService::start(store, ServeConfig::default());
    assert_eq!(svc.get(2), Some(1));
    assert_eq!(svc.get(2), Some(1)); // cached now
    svc.close();
    let _ = svc.get(2);
}

#[test]
#[should_panic(expected = "closed LookupService")]
fn empty_get_many_after_close_panics() {
    let store = ShardedStore::build(Backend::Sorted, 1, &pairs(10));
    let mut svc = LookupService::start(store, ServeConfig::default());
    svc.close();
    let _ = svc.get_many(&[]);
}

#[test]
#[should_panic(expected = "queue_cap must be positive")]
fn rejects_zero_queue_cap() {
    let store = ShardedStore::build(Backend::Sorted, 1, &[]);
    LookupService::start(
        store,
        ServeConfig {
            queue_cap: 0,
            ..ServeConfig::default()
        },
    );
}

#[test]
#[should_panic(expected = "max_batch must be positive")]
fn rejects_zero_max_batch() {
    let store = ShardedStore::build(Backend::Sorted, 1, &[]);
    LookupService::start(
        store,
        ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        },
    );
}

#[test]
fn stats_snapshots_stay_coherent_under_concurrent_writes() {
    // A monitor hammering stats() against a durable write load
    // (two runs a shard before a fold, so the write path compacts)
    // must never see any cross-counter invariant inverted,
    // mid-flight or after. A record is synced before the version
    // that counts it is published, so every read has as many syncs
    // as records: a read that counted a record before its sync would
    // see one fewer.
    use isi_durable::{Fs, MemFs};
    use std::sync::atomic::{AtomicBool, Ordering};

    let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
    let store = ShardedStore::build_with_fs(
        Backend::Sorted,
        2,
        &pairs(100),
        StoreConfig {
            max_runs: 2,
            ..StoreConfig::with_threshold(4)
        },
        fs,
    );
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 8,
            ..ServeConfig::default()
        },
    );
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let svc = &svc;
        let done = &done;
        let monitor = scope.spawn(move || {
            let mut snaps = 0u64;
            while !done.load(Ordering::Relaxed) {
                let s = svc.stats();
                assert_eq!(
                    s.wal_syncs, s.wal_records,
                    "skewed snapshot: syncs and records differ"
                );
                assert!(
                    s.full_flushes <= s.batches && s.caller_runs <= s.batches,
                    "skewed snapshot: {} full / {} caller-run > {} batches",
                    s.full_flushes,
                    s.caller_runs,
                    s.batches
                );
                assert!(
                    s.compactions <= s.delta_runs,
                    "skewed snapshot: {} compactions > {} delta runs",
                    s.compactions,
                    s.delta_runs
                );
                // Every admitted read key is a delta hit or an engine
                // lookup, both counted before the request is.
                assert!(
                    s.gets + s.many_keys <= s.engine.lookups + s.delta_hits,
                    "skewed snapshot: {} gets + {} many keys > {} lookups + {} delta hits",
                    s.gets,
                    s.many_keys,
                    s.engine.lookups,
                    s.delta_hits
                );
                snaps += 1;
            }
            snaps
        });
        std::thread::scope(|writers| {
            for c in 0..3u64 {
                writers.spawn(move || {
                    for i in 0..200u64 {
                        let key = c + i * 3;
                        svc.put(key, i);
                        svc.get(key);
                        svc.get_many(&[key, key + 1_000]);
                    }
                });
            }
        });
        done.store(true, Ordering::Relaxed);
        assert!(monitor.join().expect("monitor thread") > 0);
    });
    svc.store().quiesce();
    let s = svc.stats();
    assert_eq!(s.gets + s.many_keys, s.engine.lookups + s.delta_hits);
    assert_eq!(s.puts, 600);
    assert!(s.wal_records > 0);
    assert!(s.wal_syncs > 0);
    assert_eq!(s.wal_syncs, s.wal_records);
    assert!(s.compactions > 0);
}

#[test]
fn stage_breakdown_and_exports_cover_the_pipeline() {
    use isi_durable::{Fs, MemFs};

    // Once with durability off, once group-committing to a MemFs:
    // the WAL span counts must follow the WAL counters both ways.
    for durable in [false, true] {
        let cfg = StoreConfig::with_threshold(4);
        let store = if durable {
            let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
            ShardedStore::build_with_fs(Backend::Csb, 2, &pairs(500), cfg, fs)
        } else {
            ShardedStore::build_with(Backend::Csb, 2, &pairs(500), cfg)
        };
        let svc = LookupService::start(
            store,
            ServeConfig {
                max_batch: 8,
                trace_events: 256,
                ..ServeConfig::default()
            },
        );
        for k in 0..64u64 {
            svc.put(k * 2 + 1, k);
            assert_eq!(svc.get(k * 2 + 1), Some(k));
        }
        // A fan-out read: one admission entry per shard.
        let keys: Vec<u64> = (0..=50).collect();
        assert!(svc.get_many(&keys).iter().all(Option::is_some));
        svc.store().quiesce();

        let rows = svc.stage_breakdown();
        assert_eq!(rows.len(), 2);
        let count = |stage: Stage| {
            rows.iter()
                .map(|row| row[stage.index()].count())
                .sum::<u64>()
        };
        let stats = svc.stats();
        // Every admission entry got exactly one admission-wait sample.
        assert_eq!(count(Stage::AdmissionWait), stats.requests);
        assert!(count(Stage::Commit) > 0);
        assert!(count(Stage::Writeback) > 0);
        assert!(stats.merges > 0, "threshold 4 under 64 puts must merge");
        assert_eq!(count(Stage::Merge), stats.merges);
        // Reads went through the plan stage, the engine, or both.
        assert!(count(Stage::Plan) + count(Stage::Engine) > 0);
        // One append span per group-commit record and one fsync
        // span per sync; none of either without a WAL.
        assert_eq!(stats.wal_records > 0, durable);
        assert_eq!(stats.wal_syncs > 0, durable);
        assert_eq!(count(Stage::WalAppend), stats.wal_records);
        assert_eq!(count(Stage::WalFsync), stats.wal_syncs);
        // The request-path stages decompose end-to-end latency, so
        // they never sum past it. (Merge, WAL and backpressure
        // spans overlap writeback or run on the merger thread.)
        let request_path: u64 = [
            Stage::AdmissionWait,
            Stage::Plan,
            Stage::Engine,
            Stage::Writeback,
        ]
        .iter()
        .flat_map(|stage| rows.iter().map(|row| row[stage.index()].sum()))
        .sum();
        assert!(request_path > 0);
        assert!(
            request_path <= stats.latency.sum(),
            "stage time {request_path} ns > latency sum {} ns",
            stats.latency.sum()
        );

        let trace = svc.export_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("batch_flush"));
        assert!(trace.contains("merge_publish"));
    }
}

#[test]
fn an_untraced_service_turns_the_store_trace_off() {
    let store = Arc::new(ShardedStore::build_with(
        Backend::Sorted,
        1,
        &pairs(100),
        StoreConfig::with_threshold(4),
    ));
    for trace_events in [256, 0, 256] {
        let mut svc = LookupService::start(
            Arc::clone(&store),
            ServeConfig {
                trace_events,
                ..ServeConfig::default()
            },
        );
        for k in 0..16u64 {
            svc.put(k * 2 + 1, k);
        }
        svc.store().quiesce();
        let traced = trace_events > 0;
        assert_eq!(store.obs().trace().is_enabled(), traced, "{trace_events}");
        assert_eq!(
            svc.export_chrome_trace().contains("merge_publish"),
            traced,
            "{trace_events}"
        );
        svc.close();
    }
}
