use super::delta::DeltaRun;
use super::merge::major_len;
use super::*;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc;

fn pairs(n: u64) -> Vec<(u64, u64)> {
    (0..n).map(|i| (i * 3, i + 1000)).collect()
}

#[test]
fn routing_covers_all_shards_and_is_stable() {
    let store = ShardedStore::build(Backend::Sorted, 4, &pairs(4096));
    let mut per_shard = [0usize; 4];
    for i in 0..4096u64 {
        let s = store.shard_of(i * 3);
        per_shard[s] += 1;
    }
    // Fibonacci hashing spreads uniformly: no shard is empty or
    // grossly overloaded on 4k keys.
    for (s, &n) in per_shard.iter().enumerate() {
        assert!(n > 512, "shard {s} underloaded: {n}");
    }
    assert_eq!(per_shard.iter().sum::<usize>(), 4096);
}

#[test]
fn get_agrees_across_backends_and_shard_counts() {
    let data = pairs(2000);
    for backend in Backend::ALL {
        for shards in [1, 2, 4, 8] {
            let store = ShardedStore::build(backend, shards, &data);
            assert_eq!(store.len(), 2000);
            assert_eq!(store.num_shards(), shards);
            for probe in 0..3100u64 {
                let expect = (probe % 3 == 0 && probe < 6000).then(|| probe / 3 + 1000);
                assert_eq!(
                    store.get(probe),
                    expect,
                    "{}/{shards} probe={probe}",
                    backend.name()
                );
            }
        }
    }
}

/// Every kind of main against its own sequential `get` (itself checked
/// against the input) under each policy; its
/// pairs round-trip, a rebuild stays the same kind (a rebuild into the
/// wrong kind would answer the same), and an empty main still counts
/// every key it was asked.
#[test]
fn every_main_probes_as_it_gets_and_rebuilds_as_its_kind() {
    let data = pairs(2000);
    let probes: Vec<u64> = (0..2500).map(|i| i * 2).collect();
    let mut scratch = Vec::new();
    for backend in Backend::ALL {
        let name = backend.name();
        let main = backend.build_shard(&data);
        assert_eq!(main.backend(), backend);
        assert_eq!(main.len(), data.len());
        for policy in [
            Interleave::Sequential,
            Interleave::Interleaved(1),
            Interleave::Interleaved(6),
        ] {
            let mut out = vec![Some(u64::MAX); probes.len()];
            let stats = main.probe_batch(&probes, policy, ParConfig, &mut scratch, &mut out);
            assert_eq!(stats.lookups, probes.len() as u64, "{name} {policy:?}");
            for (&k, &r) in probes.iter().zip(&out) {
                let expect = (k % 3 == 0 && k < 6000).then(|| k / 3 + 1000);
                assert_eq!(main.get(k), expect, "{name} key={k}");
                assert_eq!(r, expect, "{name} {policy:?} key={k}");
            }
        }
        assert_eq!(main.pairs(), data, "{name}");
        let rebuilt = main.rebuild(&data[..100]);
        assert_eq!(rebuilt.backend(), backend);
        assert_eq!(rebuilt.pairs(), data[..100], "{name}");
        let empty = main.rebuild(&[]);
        assert_eq!(empty.backend(), backend);
        assert!(empty.is_empty() && empty.pairs().is_empty(), "{name}");
        assert_eq!(empty.get(3), None, "{name}");
        let mut out = vec![Some(0); 3];
        let stats = empty.probe_batch(
            &[0, 3, 7],
            Interleave::Interleaved(4),
            ParConfig,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, [None; 3], "{name}");
        assert_eq!(stats.lookups, 3, "{name}");
    }
}

#[test]
fn batch_lookup_matches_get() {
    let data = pairs(5000);
    let probes: Vec<u64> = (0..2500).map(|i| i * 7 % 16_000).collect();
    for backend in Backend::ALL {
        for shards in [1, 4] {
            let store = ShardedStore::build(backend, shards, &data);
            // Form per-shard batches exactly as the service does.
            let mut batches: Vec<Vec<u64>> = vec![Vec::new(); shards];
            for &p in &probes {
                batches[store.shard_of(p)].push(p);
            }
            let mut scratch = LookupScratch::default();
            for (s, batch) in batches.iter().enumerate() {
                let mut out = vec![None; batch.len()];
                for policy in [Interleave::Sequential, Interleave::from_group(6)] {
                    let outcome =
                        store.lookup_batch(s, batch, policy, ParConfig, &mut scratch, &mut out);
                    // Read-only store: nothing is delta-decided.
                    assert_eq!(outcome.engine.lookups, batch.len() as u64);
                    assert_eq!(outcome.delta_hits, 0);
                    for (k, r) in batch.iter().zip(&out) {
                        assert_eq!(*r, store.get(*k), "{}/{shards}", backend.name());
                    }
                }
            }
        }
    }
}

#[test]
fn lookup_batch_skips_delta_decided_keys() {
    for backend in Backend::ALL {
        let store = ShardedStore::build_with(
            backend,
            1,
            &pairs(500),
            StoreConfig::with_threshold(1 << 20),
        );
        // Override / tombstone a slice of the probe space; these
        // keys must be answered by the plan, not the engine.
        for k in 0..40u64 {
            if k % 4 == 0 {
                store.remove(k * 3);
            } else {
                store.put(k * 3, 7_000 + k);
            }
        }
        let probes: Vec<u64> = (0..200u64).map(|i| i * 3).collect();
        let mut out = vec![None; probes.len()];
        let mut scratch = LookupScratch::default();
        let outcome = store.lookup_batch(
            0,
            &probes,
            Interleave::from_group(6),
            ParConfig,
            &mut scratch,
            &mut out,
        );
        assert_eq!(outcome.delta_hits, 40, "{}", backend.name());
        assert_eq!(outcome.engine.lookups, 160);
        for (&k, &r) in probes.iter().zip(&out) {
            assert_eq!(r, store.get(k), "{} key={k}", backend.name());
        }
    }
}

#[test]
fn empty_store_and_empty_batches() {
    for backend in Backend::ALL {
        let store = ShardedStore::build(backend, 2, &[]);
        assert!(store.is_empty());
        assert_eq!(store.get(7), None);
        let mut out = vec![None; 2];
        // Keys must route to the queried shard; find two that do.
        let ks: Vec<u64> = (0..100)
            .filter(|&k| store.shard_of(k) == 0)
            .take(2)
            .collect();
        let mut scratch = LookupScratch::default();
        store.lookup_batch(
            0,
            &ks,
            Interleave::from_group(4),
            ParConfig,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out, [None, None]);
        let outcome = store.lookup_batch(
            1,
            &[],
            Interleave::Sequential,
            ParConfig,
            &mut scratch,
            &mut out[..0],
        );
        assert_eq!(outcome.engine, RunStats::default());
        assert!((0..100).all(|k| store.get(k).is_none()));
    }
}

#[test]
#[should_panic(expected = "power of two")]
fn rejects_non_power_of_two_shards() {
    ShardedStore::build(Backend::Sorted, 3, &[]);
}

#[test]
#[should_panic(expected = "merge_threshold must be positive")]
fn rejects_zero_merge_threshold() {
    ShardedStore::build_with(Backend::Sorted, 1, &[], StoreConfig::with_threshold(0));
}

#[test]
#[should_panic(expected = "max_runs must be >= 1")]
fn rejects_zero_max_runs() {
    ShardedStore::build_with(
        Backend::Sorted,
        1,
        &[],
        StoreConfig::default().with_max_runs(0),
    );
}

#[test]
fn build_duplicates_resolve_last_write_wins() {
    for backend in Backend::ALL {
        let store = ShardedStore::build(
            backend,
            2,
            &[(5, 1), (9, 7), (5, 2), (5, 3), (11, 4), (9, 8)],
        );
        assert_eq!(store.len(), 3, "{}", backend.name());
        assert_eq!(store.get(5), Some(3));
        assert_eq!(store.get(9), Some(8));
        assert_eq!(store.get(11), Some(4));
    }
}

#[test]
fn put_remove_agree_with_oracle_across_thresholds() {
    // A deterministic mixed schedule over a small key space,
    // checked op-by-op against a HashMap, across all backends and
    // merge thresholds (including merge-every-write). Visible state
    // never depends on merge timing.
    for backend in Backend::ALL {
        for threshold in [1usize, 4, 1 << 20] {
            let store = ShardedStore::build_with(
                backend,
                2,
                &pairs(300),
                StoreConfig::with_threshold(threshold),
            );
            let mut oracle: HashMap<u64, u64> = pairs(300).into_iter().collect();
            for i in 0..1200u64 {
                let key = i * 17 % 1000;
                let tag = format!("{}/t{threshold} i={i}", backend.name());
                match i % 5 {
                    0 | 1 => {
                        assert_eq!(store.put(key, i), oracle.insert(key, i), "{tag}");
                    }
                    2 => {
                        assert_eq!(store.remove(key), oracle.remove(&key), "{tag}");
                    }
                    _ => {
                        assert_eq!(store.get(key), oracle.get(&key).copied(), "{tag}");
                    }
                }
                assert_eq!(store.len(), oracle.len(), "{tag}");
            }
            // Once quiesced, every shard's residual delta is below
            // the threshold.
            store.quiesce();
            assert!(store.delta_len() < threshold.max(1) * store.num_shards());
            if threshold == 1 {
                // Merge-every-write: the drained delta is empty.
                // Merges coalesce but must have run.
                assert_eq!(store.delta_len(), 0);
                assert!(store.merges() >= 1);
                assert_eq!(store.merge_latency().count(), store.merges());
                assert_eq!(store.merge_backlog(), 0);
            }
            // Full sweep after the schedule: every key of the space
            // agrees, and `len` rules out one outside it.
            for probe in 0..1000u64 {
                assert_eq!(store.get(probe), oracle.get(&probe).copied());
            }
            assert_eq!(store.len(), oracle.len());
        }
    }
}

#[test]
fn batch_lookups_see_writes_and_tombstones() {
    for backend in Backend::ALL {
        let store =
            ShardedStore::build_with(backend, 2, &pairs(500), StoreConfig::with_threshold(64));
        store.put(0, 999); // overwrite
        store.put(7, 123); // fresh key (7 % 3 != 0)
        store.remove(3); // tombstone an existing key
        let probes: Vec<u64> = (0..600u64).collect();
        let mut batches: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for &p in &probes {
            batches[store.shard_of(p)].push(p);
        }
        let mut scratch = LookupScratch::default();
        let mut delta_hits = 0;
        for (s, batch) in batches.iter().enumerate() {
            let mut out = vec![None; batch.len()];
            let outcome = store.lookup_batch(
                s,
                batch,
                Interleave::from_group(6),
                ParConfig,
                &mut scratch,
                &mut out,
            );
            delta_hits += outcome.delta_hits;
            for (&k, &r) in batch.iter().zip(&out) {
                assert_eq!(r, store.get(k), "{} key={k}", backend.name());
            }
        }
        // The three written keys are each probed exactly once and
        // decided by the plan, not the engine.
        assert_eq!(delta_hits, 3, "{}", backend.name());
        assert_eq!(store.get(0), Some(999));
        assert_eq!(store.get(7), Some(123));
        assert_eq!(store.get(3), None);
    }
}

#[test]
fn run_stack_folds_past_max_runs_and_preserves_overrides() {
    // max_runs 2, never merging: the 3rd push folds the stack into
    // one run. Overwrites and tombstones straddle run boundaries
    // and must resolve newest-run-first before and after the fold.
    let store = ShardedStore::build_with(
        Backend::Sorted,
        1,
        &pairs(10),
        StoreConfig::with_threshold(1 << 20).with_max_runs(2),
    );
    assert_eq!(store.put(0, 1), Some(1000)); // run 1 overrides main
    assert_eq!(store.put(3, 2), Some(1001)); // run 2
    assert_eq!(store.delta_runs(), 2);
    assert_eq!(store.compactions(), 0);
    assert_eq!(store.delta_len(), 2);
    assert_eq!(store.remove(0), Some(1)); // run 3 → fold
    assert_eq!(store.delta_runs(), 3);
    assert_eq!(store.compactions(), 1);
    // Folded: one run, exact count (tombstones still count).
    assert_eq!(store.delta_len(), 2);
    assert_eq!(store.get(0), None);
    assert_eq!(store.get(3), Some(2));
    // A re-override after the fold double-counts until the next
    // fold collapses it back to the distinct-key count.
    assert_eq!(store.put(0, 9), None);
    assert_eq!(store.delta_len(), 3);
    assert_eq!(store.get(0), Some(9));
    assert_eq!(store.put(6, 7), Some(1002)); // 3rd run again → fold
    assert_eq!(store.compactions(), 2);
    assert_eq!(store.delta_len(), 3); // (0, 9), (3, 2), (6, 7)
    assert_eq!(store.get(0), Some(9));
    let live: Vec<(u64, u64)> = (0..=8)
        .filter_map(|k| store.get(k).map(|v| (k, v)))
        .collect();
    assert_eq!(live, [(0, 9), (3, 2), (6, 7)]);
    assert_eq!(store.len(), 10);
    assert_eq!(store.merges(), 0);
}

#[test]
fn quiesced_merges_swap_epochs_and_drain_the_delta() {
    // Quiesced after every write, the accounting is deterministic:
    // every write publishes a version with one more delta run, every
    // 8th write's merge publishes one more.
    let store =
        ShardedStore::build_with(Backend::Csb, 1, &pairs(100), StoreConfig::with_threshold(8));
    let publishes = || store.delta_runs() + store.merges();
    assert_eq!(publishes(), 0);
    for i in 0..64u64 {
        store.put(10_000 + i, i);
        store.quiesce();
    }
    assert_eq!(store.merges(), 8);
    assert_eq!(publishes(), 64 + 8);
    assert_eq!(store.delta_len(), 0);
    assert_eq!(store.len(), 164);
    for i in 0..64u64 {
        assert_eq!(store.get(10_000 + i), Some(i));
    }
}

#[test]
fn background_merges_run_off_the_write_path_and_drain() {
    let store =
        ShardedStore::build_with(Backend::Csb, 1, &pairs(100), StoreConfig::with_threshold(8));
    for i in 0..64u64 {
        store.put(10_000 + i, i);
    }
    store.quiesce();
    // Coalescing makes the exact count timing-dependent, but the
    // merger must have run, drained the delta below the threshold,
    // and left every write visible.
    assert!(store.merges() >= 1);
    assert!(store.delta_len() < 8, "delta={}", store.delta_len());
    assert_eq!(store.merge_backlog(), 0);
    assert_eq!(store.len(), 164);
    for i in 0..64u64 {
        assert_eq!(store.get(10_000 + i), Some(i));
    }
}

/// An [`Fs`] whose first write of a snapshot temp file, once
/// armed, reports in and then waits to be let go: the major merge
/// that staged it stays in flight, rebuilt but unpublished, for as
/// long as the test likes.
struct GateFs<F = durable::MemFs> {
    fs: F,
    gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl<F: Fs> Fs for GateFs<F> {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.fs.append(name, data)
    }
    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        if name == durable::wal::snap_tmp_name(0) {
            if let Some((entered, release)) = self.gate.plock("gate").take() {
                // A test that has failed meanwhile has dropped
                // its ends: carry on, so that it can join us.
                let _ = entered.send(());
                let _ = release.recv();
            }
        }
        self.fs.write_all(name, data)
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.fs.read(name)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        self.fs.sync(name)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.fs.rename(from, to)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.fs.remove(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.fs.list()
    }
    fn sync_dir(&self) -> io::Result<()> {
        self.fs.sync_dir()
    }
}

#[test]
fn a_merge_drains_what_it_pinned_though_the_write_path_folds_meanwhile() {
    // Threshold 8 over a main of 8, so that the first merge is
    // already a major one; max_runs 2. Eight writes start it, and
    // the gate holds it between rebuild and publish; six more writes
    // land meanwhile, each its own run, so the write path folds
    // twice. The folds must leave the pinned runs alone:
    // the publish then drops exactly those eight entries, the six
    // newer ones are the residual, and no second merge is due. A
    // fold across the cut hands the merge back everything it has
    // just merged (residual 14, merge again).
    let fs = Arc::new(GateFs {
        fs: durable::MemFs::new(),
        gate: Mutex::new(None),
    });
    let store = ShardedStore::build_with_fs(
        Backend::Sorted,
        1,
        &pairs(8),
        StoreConfig::with_threshold(8).with_max_runs(2),
        Arc::clone(&fs) as Arc<dyn Fs>,
    );
    // Declared after the store, so dropped before it: should an
    // assertion fail, the merger is let go before the store joins it.
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    *fs.gate.plock("gate") = Some((entered_tx, release_rx));
    for i in 0..8u64 {
        store.put(10_000 + i, i);
    }
    entered.recv().expect("the merge stages its snapshot");
    let folds = store.compactions();
    for i in 8..14u64 {
        store.put(10_000 + i, i);
    }
    assert_eq!(store.compactions() - folds, 2, "six runs above the cut");
    assert_eq!(store.delta_len(), 14);
    release.send(()).expect("merger is waiting");
    store.quiesce();
    assert_eq!((store.merges(), store.major_merges()), (1, 1));
    assert_eq!((store.delta_len(), store.mid_len()), (6, 0));
    for i in 0..14u64 {
        assert_eq!(store.get(10_000 + i), Some(i));
    }
    // What is on disk agrees: snapshot of the eight, log of the six.
    drop(store);
    let recovered = ShardedStore::recover_with_fs(
        Backend::Sorted,
        StoreConfig::with_threshold(8),
        fs as Arc<dyn Fs>,
    )
    .expect("recover");
    assert_eq!(recovered.len(), 22);
    for i in 0..14u64 {
        assert_eq!(recovered.get(10_000 + i), Some(i));
    }
}

/// The shard's main and, if it has one, its mid tier.
fn tiers(store: &ShardedStore, si: usize) -> (Arc<Main>, Option<DeltaRun>) {
    let v = store.inner.shards[si].version.load();
    (Arc::clone(&v.main), v.delta.mid().cloned())
}

#[test]
fn minor_merges_keep_the_main_and_a_major_merge_empties_the_mid() {
    // Threshold 4 over a main of 64: the mid is due at √(4·64) =
    // 16 entries, so of every four merges three are minor — same
    // main, by identity, a longer mid — and the fourth rebuilds
    // the main and leaves no mid. Tombstones of stored keys sit in
    // the mid until then, hide the main's pairs, and are gone with
    // the rebuild.
    let store =
        ShardedStore::build_with(Backend::Csb, 1, &pairs(64), StoreConfig::with_threshold(4));
    let (main0, mid0) = tiers(&store, 0);
    assert!(mid0.is_none());
    let mut writes = 0u64;
    for round in 1..=3u64 {
        store.remove(round * 3); // stored: 1000 + round
        for i in 0..3u64 {
            store.put(10_000 + round * 4 + i, i);
        }
        writes += 4;
        store.quiesce();
        let (main, mid) = tiers(&store, 0);
        assert!(Arc::ptr_eq(&main, &main0), "merge {round} rebuilt");
        assert_eq!(mid.map(|m| m.len()), Some(4 * round as usize));
        assert_eq!((store.merges(), store.major_merges()), (round, 0));
        assert_eq!(
            (store.delta_len(), store.mid_len()),
            (0, 4 * round as usize)
        );
        assert_eq!(store.get(round * 3), None, "tombstone in the mid");
        assert_eq!(store.len(), 64 + 2 * round as usize);
    }
    for i in 0..4u64 {
        store.put(20_000 + i, i);
    }
    writes += 4;
    store.quiesce();
    let (main, mid) = tiers(&store, 0);
    assert!(!Arc::ptr_eq(&main, &main0), "the mid was due");
    assert!(mid.is_none());
    assert_eq!((store.merges(), store.major_merges()), (4, 1));
    assert_eq!((store.delta_len(), store.mid_len()), (0, 0));
    // The tombstones went into the rebuild, not past it.
    assert_eq!(main.len(), 64 + 16 - 2 * 3);
    assert_eq!(store.len(), main.len());
    for round in 1..=3u64 {
        assert_eq!(store.get(round * 3), None);
        assert_eq!(store.get(10_000 + round * 4), Some(0));
    }
    // However long it goes on, a major merge takes a full mid:
    // at least `major_len` writes each.
    for i in 0..400u64 {
        store.put(30_000 + i, i);
        writes += 1;
    }
    store.quiesce();
    let cap = major_len(4, 64) as u64;
    assert_eq!(cap, 16);
    assert!(store.major_merges() >= 2);
    assert!(
        store.major_merges() <= writes / cap + 1,
        "{} major merges in {writes} writes",
        store.major_merges()
    );
    assert!(store.merges() > store.major_merges());
    assert_eq!(store.merge_latency().count(), store.merges());
    assert_eq!(store.len(), main.len() + 400);
}

#[test]
fn the_write_path_fold_never_takes_the_mid_along() {
    // Threshold 8 over a main of 1024 (mid due at 90), max_runs 2:
    // one minor merge makes a mid of 8, then every third write
    // folds the runs above it. The mid stays the run it was — the
    // same allocation — so what a fold costs does not grow with
    // it; a fold from the bottom of the stack would copy it every
    // third write.
    let store = ShardedStore::build_with(
        Backend::Sorted,
        1,
        &pairs(1024),
        StoreConfig::with_threshold(8).with_max_runs(2),
    );
    for i in 0..8u64 {
        store.put(10_000 + i, i);
    }
    store.quiesce();
    assert_eq!((store.merges(), store.mid_len()), (1, 8));
    let mid = tiers(&store, 0).1.expect("a mid tier");
    let folds = store.compactions();
    for i in 0..7u64 {
        store.put(20_000 + i, i);
        let now = tiers(&store, 0).1.expect("still a mid tier");
        assert!(Arc::ptr_eq(&now, &mid), "write {i} replaced the mid");
    }
    assert_eq!(store.compactions() - folds, 3);
    assert_eq!((store.delta_len(), store.mid_len()), (7, 8));
    assert_eq!(store.merges(), 1);
    // The next write completes a threshold, and the merge folds
    // all of it into a new mid.
    store.put(20_007, 7);
    store.quiesce();
    assert_eq!((store.merges(), store.major_merges()), (2, 0));
    assert_eq!((store.delta_len(), store.mid_len()), (0, 16));
}

/// A mid tier with runs above it answers through its filter what it
/// would answer without one, on every backend and read path: a point
/// `get`, a planned batch under either policy, and the previous
/// values a write run returns. The keys: some only in the mid,
/// some overwritten above it, stored keys tombstoned in it (some
/// resurrected above), mid keys tombstoned above, and keys the
/// delta does not hold, stored in the main or nowhere.
#[test]
fn a_filtered_mid_tier_answers_every_read_path() {
    let mid_only = |i: u64| 100_000 + i;
    let overwritten = |i: u64| 200_000 + i;
    for backend in Backend::ALL {
        let tag = backend.name();
        // Threshold 64 over a main of 1024: the mid is due at 256, so
        // one threshold of writes makes a mid of 64 and no more.
        let store =
            ShardedStore::build_with(backend, 1, &pairs(1024), StoreConfig::with_threshold(64));
        let mut oracle: HashMap<u64, u64> = pairs(1024).into_iter().collect();
        let put = |oracle: &mut HashMap<u64, u64>, k: u64, v: u64| {
            assert_eq!(store.put(k, v), oracle.insert(k, v), "{tag} put {k}");
        };
        for i in 0..24 {
            put(&mut oracle, mid_only(i), i);
        }
        for i in 0..16 {
            put(&mut oracle, overwritten(i), i);
        }
        for j in 0..24 {
            assert_eq!(
                store.remove(j * 3),
                Some(j + 1000),
                "{tag} remove {}",
                j * 3
            );
        }
        store.quiesce();
        assert_eq!((store.merges(), store.major_merges()), (1, 0), "{tag}");
        assert_eq!((store.mid_len(), store.delta_len()), (64, 0), "{tag}");
        let mid = tiers(&store, 0).1.expect("a mid tier");
        for j in 0..24 {
            oracle.remove(&(j * 3));
        }
        // Above the mid: overwrite, resurrect, and tombstone mid keys.
        for i in 0..16 {
            put(&mut oracle, overwritten(i), 7_000 + i);
        }
        for j in 16..24 {
            put(&mut oracle, j * 3, 8_000 + j);
        }
        for i in 20..24 {
            assert_eq!(store.remove(mid_only(i)), oracle.remove(&mid_only(i)));
        }
        store.quiesce();
        assert_eq!(store.merges(), 1, "{tag}: the runs above stay above");
        assert_eq!((store.mid_len(), store.delta_len()), (64, 28), "{tag}");
        assert!(Arc::ptr_eq(&tiers(&store, 0).1.expect("a mid tier"), &mid));

        let decided: Vec<u64> = (0..24)
            .map(mid_only)
            .chain((0..16).map(overwritten))
            .chain((0..24).map(|j| j * 3))
            .collect();
        let undecided: Vec<u64> = (100..400)
            .map(|j| j * 3)
            .chain((0..300).map(|j| j * 3 + 1))
            .chain((0..300).map(|i| 300_000 + i))
            .collect();
        // Shuffled together, so a batch mixes plan hits and misses.
        let mut probes: Vec<u64> = decided.iter().chain(&undecided).copied().collect();
        probes.sort_by_key(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for &k in &probes {
            assert_eq!(store.get(k), oracle.get(&k).copied(), "{tag} get {k}");
        }
        let mut scratch = LookupScratch::default();
        let mut out = vec![None; probes.len()];
        for policy in [Interleave::Sequential, Interleave::Interleaved(24)] {
            out.fill(Some(u64::MAX));
            let outcome = store.lookup_batch(0, &probes, policy, ParConfig, &mut scratch, &mut out);
            assert_eq!(outcome.delta_hits, decided.len() as u64, "{tag} {policy:?}");
            assert_eq!(outcome.engine.lookups, undecided.len() as u64);
            for (&k, &r) in probes.iter().zip(&out) {
                assert_eq!(r, oracle.get(&k).copied(), "{tag} {policy:?} key {k}");
            }
        }
        // One write run over every probe returns what each held.
        let ops: Vec<(u64, Option<u64>)> = probes.iter().map(|&k| (k, Some(k ^ 1))).collect();
        let mut prevs = Vec::new();
        store.apply_write_run_with(&ops, &mut prevs, &mut WriteScratch::default());
        for (&k, &prev) in probes.iter().zip(&prevs) {
            assert_eq!(prev, oracle.get(&k).copied(), "{tag} previous value of {k}");
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map_or_else(|_| "?".into(), |s| (*s).into()),
    }
}

#[test]
fn a_panicking_merger_fails_the_store_closed() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;
    // Threshold 4 over a main of 4 (every merge is major), room
    // for 16. Four writes start a merge, which the gate holds at
    // its snapshot; twelve more fill the delta, so a 17th write
    // parks on `delta_space` and a `quiesce` on `merge_done`. Then
    // the disk fills up and the gate opens: the snapshot write
    // fails, the merger panics — and both waiters must come back,
    // panicking, instead of waiting for a publish that will never
    // happen.
    let fs = Arc::new(GateFs {
        fs: durable::FaultFs::new(durable::FaultPlan::default()),
        gate: Mutex::new(None),
    });
    let store = Arc::new(ShardedStore::build_with_fs(
        Backend::Sorted,
        1,
        &pairs(4),
        StoreConfig::with_threshold(4),
        Arc::clone(&fs) as Arc<dyn Fs>,
    ));
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    *fs.gate.plock("gate") = Some((entered_tx, release_rx));
    for i in 0..4u64 {
        store.put(10_000 + i, i);
    }
    entered.recv().expect("the merge stages its snapshot");
    for i in 4..16u64 {
        store.put(10_000 + i, i);
    }
    assert_eq!(store.delta_len(), max_delta(4));
    let (done_tx, done) = mpsc::channel();
    for waiter in ["put", "quiesce"] {
        let (store, done_tx) = (Arc::clone(&store), done_tx.clone());
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| match waiter {
                "put" => drop(store.put(10_016, 16)),
                _ => store.quiesce(),
            }));
            // Before reporting in: the test takes the store back.
            drop(store);
            let _ = done_tx.send((waiter, outcome.map_err(panic_message)));
        });
    }
    fs.fs.fill_disk();
    release.send(()).expect("merger is waiting");
    for _ in 0..2 {
        let (waiter, outcome) = done
            .recv_timeout(Duration::from_secs(30))
            .expect("a waiter hung on the dead merger");
        let msg = outcome.expect_err("nothing was merged");
        assert!(msg.contains("merger failed"), "{waiter}: {msg}");
    }
    assert!(store.inner.merger_failed.load(Ordering::Relaxed));
    // Failed is for good: later callers are turned away at once,
    // and the lock they were turned away under is not poisoned.
    for _ in 0..2 {
        let msg = catch_unwind(AssertUnwindSafe(|| store.put(1, 1)))
            .map_err(panic_message)
            .expect_err("write on a failed store");
        assert!(msg.contains("merger failed"), "{msg}");
    }
    assert_eq!(store.get(10_015), Some(15), "reads go on");
    // Dropping the store reports the merger's panic (and would not
    // while already unwinding).
    let store = Arc::try_unwrap(store).unwrap_or_else(|_| panic!("waiters are done"));
    let msg = catch_unwind(AssertUnwindSafe(|| drop(store)))
        .map_err(panic_message)
        .expect_err("the merger's panic is re-raised");
    assert!(msg.contains("merger thread panicked"), "{msg}");
}

#[test]
fn writers_block_at_max_delta_but_make_progress() {
    // Tiny threshold, so a hard bound of 8: concurrent writers
    // must hit that wall constantly and still complete with the
    // right final state (the merger keeps draining under them).
    let store = ShardedStore::build_with(
        Backend::Sorted,
        1,
        &pairs(50),
        StoreConfig::with_threshold(2),
    );
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let store = &store;
            scope.spawn(move || {
                for i in 0..150u64 {
                    store.put(20_000 + t * 1000 + i, i);
                }
            });
        }
    });
    store.quiesce();
    assert!(store.delta_len() < 2);
    assert_eq!(store.len(), 350);
    for t in 0..2u64 {
        for i in 0..150u64 {
            assert_eq!(store.get(20_000 + t * 1000 + i), Some(i));
        }
    }
}

#[test]
fn concurrent_reads_during_merges_are_consistent() {
    // A writer bumps one key through merge-every-write while
    // readers hammer point gets and batch lookups. Reads must be
    // monotone for the hot key (versions publish in order) and
    // rock-stable for an untouched key — across merges, never torn.
    // The merger thread is a second publisher racing the writer.
    const N: u64 = 300;
    for backend in Backend::ALL {
        let store = ShardedStore::build_with(
            backend,
            1,
            &[(2, 1_000_000), (4, 42)],
            StoreConfig::with_threshold(1),
        );
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for v in 1_000_001..=1_000_000 + N {
                    store.put(2, v);
                }
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut scratch = LookupScratch::default();
                    let mut out = [None, None];
                    let mut last = 1_000_000u64;
                    while last < 1_000_000 + N {
                        let got = store.get(2).expect("hot key must always exist");
                        assert!(got >= last, "hot key went backwards: {got} < {last}");
                        last = got;
                        store.lookup_batch(
                            0,
                            &[2, 4],
                            Interleave::from_group(4),
                            ParConfig,
                            &mut scratch,
                            &mut out,
                        );
                        let batch_hot = out[0].expect("hot key must always exist");
                        assert!(batch_hot >= last, "batch read went backwards");
                        assert_eq!(out[1], Some(42), "cold key must never move");
                        last = last.max(batch_hot);
                    }
                });
            }
            writer.join().unwrap();
        });
        store.quiesce();
        assert_eq!(store.get(2), Some(1_000_000 + N));
        assert!(store.merges() >= 1, "{}", backend.name());
        assert_eq!(store.delta_len(), 0);
    }
}

#[test]
fn scans_race_background_merges_without_tearing() {
    // A writer churns keys ≥ 10_000 while a reader sweeps the
    // untouched region 0..600 with one batch lookup per shard; every
    // sweep must return exactly the static pairs (one consistent
    // snapshot per batch). Two configurations: merge-every-write,
    // where background merges publish constantly, and fold-only,
    // where no merge runs but every second write folds the stack
    // past `max_runs` = 2.
    let base = pairs(200); // keys 0..600
    let want = |k: u64| k.is_multiple_of(3).then(|| k / 3 + 1000);
    for backend in Backend::ALL {
        for (threshold, max_runs) in [(1usize, 8usize), (1 << 16, 2)] {
            let store = ShardedStore::build_with(
                backend,
                2,
                &base,
                StoreConfig::with_threshold(threshold).with_max_runs(max_runs),
            );
            let mut batches: Vec<Vec<u64>> = vec![Vec::new(); 2];
            for k in 0..600u64 {
                batches[store.shard_of(k)].push(k);
            }
            let tag = format!("{} threshold={threshold}", backend.name());
            let done = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for i in 0..300u64 {
                        store.put(10_000 + (i % 40), i);
                    }
                    done.store(1, Ordering::Release);
                });
                scope.spawn(|| {
                    let mut scratch = LookupScratch::default();
                    let mut out = Vec::new();
                    loop {
                        let finished = done.load(Ordering::Acquire) == 1;
                        for (s, batch) in batches.iter().enumerate() {
                            out.clear();
                            out.resize(batch.len(), None);
                            store.lookup_batch(
                                s,
                                batch,
                                Interleave::from_group(4),
                                ParConfig,
                                &mut scratch,
                                &mut out,
                            );
                            for (&k, &r) in batch.iter().zip(&out) {
                                assert_eq!(r, want(k), "{tag}: static key {k} moved");
                            }
                        }
                        if finished {
                            break;
                        }
                    }
                });
            });
            store.quiesce();
            assert_eq!(store.len(), 240, "{tag}");
            // The last 40 writes are the last to each churned key.
            for i in 260..300u64 {
                assert_eq!(store.get(10_000 + (i % 40)), Some(i), "{tag}");
            }
            if threshold == 1 {
                assert!(store.merges() >= 1, "{tag}");
            } else {
                assert_eq!(store.merges(), 0, "{tag}");
                assert!(store.compactions() >= 1, "{tag}");
            }
        }
    }
}
