//! Kill-and-revive crash-recovery tests: the durable store is run on
//! a fault-injecting in-memory file system ([`FaultFs`]) that captures
//! the crash image — what a power cut would leave on disk — at an
//! arbitrary point in the WAL/snapshot protocol, optionally tearing
//! unsynced tails at arbitrary byte offsets, flipping a bit in the
//! torn region, ending appended files in the zeros `DiskFs`
//! preallocates, or dropping fsyncs entirely (a lying disk).
//!
//! The invariant checked after every crash is the **per-shard atomic
//! prefix property**. Writes reach a shard as *runs* (one WAL record
//! each, atomic by CRC), appended in order, so whatever survives a
//! crash must be the state after some *prefix* of the ops routed to
//! that shard — never a half-applied record, never a reordering — and
//! when fsyncs are honored, at least the prefix covering every run
//! that was **acknowledged** before the crash (ack ⇒ durable). On a
//! disk that drops fsyncs the guaranteed prefix shrinks to zero, but
//! it must still be *a* prefix.
//!
//! Merges run on the store's merger thread. Where a test needs every
//! file-system operation at a fixed point of the schedule, it feeds
//! runs that each touch one shard and [`ShardedStore::quiesce`]s after
//! each: a run does all its own file-system work before it requests a
//! merge, and the merger does its work only after it has taken the
//! shard's write lock from the run, so the two never overlap.
//!
//! Six angles:
//!
//! * a deterministic **fault matrix** — one fixed schedule, killed at
//!   *every* file-system operation index × tear/bit-flip/zero-tail
//!   variants, with a check that the crash image at each index is the
//!   same on every run;
//! * the same schedule **unquiesced**, killed at sampled indices while
//!   merges race the writes;
//! * a **proptest** over random schedules, kill points, fault plans
//!   and whether to quiesce after each run;
//! * a **short write**: the disk fills up in the middle of a WAL
//!   append, the shard fails closed, and the crash image recovers
//!   exactly the acknowledged writes;
//! * a **recovered mid tier**: a WAL tail replayed into the mid tier
//!   answers every read path through the filter recovery built for it;
//! * a **real-directory round trip** (DiskFs) covering clean shutdown
//!   and recovery-then-serve through a live `LookupService`.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_durable::{wal, FaultFs, FaultPlan, Fs, FsyncMode, MemFs};
use isi_serve::{
    Backend, LookupScratch, LookupService, ServeConfig, ShardedStore, Stage, StoreConfig,
    WriteScratch,
};

const SHARDS: usize = 2;

/// A schedule is a list of write runs; each run is applied with one
/// `apply_write_run_with` call (the group-commit unit).
type Schedule = Vec<Vec<(u64, Option<u64>)>>;

fn store_cfg() -> StoreConfig {
    StoreConfig {
        merge_threshold: 4,
        // A tiny stack bound keeps crash images exercising run-stack
        // folds between the kill points.
        max_runs: 2,
        wal_dir: None,
    }
}

/// The WAL data syncs the store's write path timed, over all shards:
/// one [`Stage::WalFsync`] span per sync.
fn wal_fsyncs(store: &ShardedStore) -> u64 {
    (0..store.num_shards())
        .map(|shard| store.obs().stage_hist(shard, Stage::WalFsync).count())
        .sum()
}

/// Run `schedule` against a fresh durable store on `fault`, returning
/// how many runs were acknowledged (returned) strictly before the
/// kill point was reached. With `quiesce_each_run`, every run's merge
/// is published before the next run starts. The store is dropped
/// un-cleanly ignored — the crash image was already captured.
///
/// The count may read one low: when the merger's first operation is
/// the kill point and it runs before `apply_write_run_with` returns,
/// the run is counted as unacknowledged though its record was already
/// synced. A lower count only weakens the check, never fails it.
fn run_until_crash(
    fault: &Arc<FaultFs>,
    seed: &[(u64, u64)],
    schedule: &Schedule,
    quiesce_each_run: bool,
) -> usize {
    let fs: Arc<dyn Fs> = Arc::clone(fault) as Arc<dyn Fs>;
    let store = ShardedStore::build_with_fs(Backend::Sorted, SHARDS, seed, store_cfg(), fs);
    let mut prevs = Vec::new();
    let mut acked = 0usize;
    for run in schedule {
        store.apply_write_run_with(run, &mut prevs, &mut WriteScratch::default());
        if !fault.killed() {
            acked += 1;
        }
        if quiesce_each_run {
            store.quiesce();
        }
    }
    store.quiesce();
    acked
}

/// The visible map after applying the first `j` ops of `ops`.
fn oracle_states(seed: &HashMap<u64, u64>, ops: &[(u64, Option<u64>)]) -> Vec<Vec<(u64, u64)>> {
    let mut state = seed.clone();
    let mut out = Vec::with_capacity(ops.len() + 1);
    let snap = |s: &HashMap<u64, u64>| {
        let mut v: Vec<(u64, u64)> = s.iter().map(|(&k, &v)| (k, v)).collect();
        v.sort_unstable();
        v
    };
    out.push(snap(&state));
    for &(k, val) in ops {
        match val {
            Some(v) => {
                state.insert(k, v);
            }
            None => {
                state.remove(&k);
            }
        }
        out.push(snap(&state));
    }
    out
}

/// Check the per-shard atomic prefix property of `recovered` against
/// the schedule, given how many runs were acked before the crash and
/// whether acked runs were really made durable (`fsync_honored`).
/// Returns an error description instead of panicking so proptest can
/// report the failing case.
fn check_prefix_property(
    recovered: &ShardedStore,
    seed: &[(u64, u64)],
    schedule: &Schedule,
    acked_runs: usize,
    fsync_honored: bool,
) -> Result<(), String> {
    assert_eq!(recovered.num_shards(), SHARDS);
    let mut live = 0;
    for shard in 0..SHARDS {
        // Ops and seed pairs routed to this shard, in schedule order,
        // tagged with the index of the run each op belongs to.
        let seed_s: HashMap<u64, u64> = seed
            .iter()
            .copied()
            .filter(|&(k, _)| recovered.shard_of(k) == shard)
            .collect();
        let mut ops_s: Vec<(u64, Option<u64>)> = Vec::new();
        let mut run_of_op: Vec<usize> = Vec::new();
        for (r, run) in schedule.iter().enumerate() {
            for &(k, val) in run {
                if recovered.shard_of(k) == shard {
                    ops_s.push((k, val));
                    run_of_op.push(r);
                }
            }
        }
        let states = oracle_states(&seed_s, &ops_s);
        // Guaranteed durable: every op of every acked run (ack ⇒
        // durable) — unless the disk dropped fsyncs, where only
        // the empty prefix is promised.
        let j_min = if fsync_honored {
            run_of_op.iter().filter(|&&r| r < acked_runs).count()
        } else {
            0
        };
        // The shard's recovered state, read back over its key
        // universe: the seed keys and the schedule keys routed to it.
        let mut universe: Vec<u64> = seed_s.keys().copied().collect();
        universe.extend(ops_s.iter().map(|&(k, _)| k));
        universe.sort_unstable();
        universe.dedup();
        let got: Vec<(u64, u64)> = universe
            .into_iter()
            .filter_map(|k| recovered.get(k).map(|v| (k, v)))
            .collect();
        live += got.len();
        let ok = (j_min..states.len()).any(|j| states[j] == got);
        if !ok {
            return Err(format!(
                "shard {shard}: recovered state is not an op prefix ≥ {j_min}: got {:?}, \
                 nearest candidates {:?} .. {:?}",
                got,
                states[j_min],
                states.last().unwrap(),
            ));
        }
    }
    // A key alive outside every shard's universe would show here.
    if recovered.len() != live {
        return Err(format!(
            "recovered len {} != {live} live keys in the schedule's universe",
            recovered.len()
        ));
    }
    Ok(())
}

/// Recover from a crash image, check the prefix property, and verify
/// the revived store accepts new writes whose records follow the last
/// valid one (a zero tail was cut, not appended after). Recovery
/// failure is only acceptable when the crash predates the store's init
/// completing (nothing was ever acked).
fn recover_and_check(
    image: MemFs,
    seed: &[(u64, u64)],
    cfg: StoreConfig,
    schedule: &Schedule,
    acked_runs: usize,
    fsync_honored: bool,
) -> Result<(), String> {
    let image = Arc::new(image);
    let fs: Arc<dyn Fs> = Arc::clone(&image) as Arc<dyn Fs>;
    let recovered = match ShardedStore::recover_with_fs(Backend::Sorted, cfg.clone(), fs) {
        Ok(store) => store,
        Err(e) if acked_runs == 0 || !fsync_honored => {
            // Killed before init's directory sync (or on a lying disk
            // that dropped it): no meta, no store — and in either case
            // nothing durable was promised. A clean failure is correct.
            let _ = e;
            return Ok(());
        }
        Err(e) => {
            return Err(format!(
                "recovery failed after {acked_runs} acked runs: {e}"
            ))
        }
    };
    check_prefix_property(&recovered, seed, schedule, acked_runs, fsync_honored)?;
    // Repair must be stable: recovering the repaired image again
    // reproduces the same state (recover_shard truncated torn tails
    // and deleted stale snapshots in place).
    drop(recovered);
    let fs2: Arc<dyn Fs> = Arc::clone(&image) as Arc<dyn Fs>;
    let again = ShardedStore::recover_with_fs(Backend::Sorted, cfg.clone(), fs2)
        .map_err(|e| format!("second recovery failed: {e}"))?;
    check_prefix_property(&again, seed, schedule, acked_runs, fsync_honored)?;
    // The revived store keeps working: a fresh write round-trips.
    again.put(999_983, 42);
    if again.get(999_983) != Some(42) {
        return Err("revived store dropped a fresh write".into());
    }
    drop(again);
    // ...and lands where the next recovery reads it: every log decodes
    // whole.
    for shard in 0..SHARDS {
        let log = image.read(&wal::wal_name(shard)).unwrap_or_default();
        if !wal::decode_wal(&log).clean {
            return Err(format!(
                "shard {shard}: the revived store's WAL has a bad tail"
            ));
        }
    }
    let fs3: Arc<dyn Fs> = Arc::clone(&image) as Arc<dyn Fs>;
    let third = ShardedStore::recover_with_fs(Backend::Sorted, cfg, fs3)
        .map_err(|e| format!("third recovery failed: {e}"))?;
    if third.get(999_983) != Some(42) {
        return Err("the revived store's write did not survive a recovery".into());
    }
    Ok(())
}

/// Run `schedule` with `plan` armed and crash: at the kill point, or
/// at end-of-run power loss if the kill point was never reached.
/// Returns the crash image and the runs acknowledged before it.
fn crash_image(
    seed: &[(u64, u64)],
    schedule: &Schedule,
    plan: FaultPlan,
    quiesce_each_run: bool,
) -> (MemFs, usize) {
    let fault = Arc::new(FaultFs::new(plan));
    let acked = run_until_crash(&fault, seed, schedule, quiesce_each_run);
    match fault.take_crash_image() {
        Some(image) => (image, acked),
        // Kill point past the schedule: pull the plug after the final
        // run instead. Every run was acked by then.
        None => (fault.crash_now(), schedule.len()),
    }
}

/// One end-to-end crash case: crash (see [`crash_image`]), recover,
/// check. An error names the acknowledged run count it was checked
/// against.
fn crash_case(
    seed: &[(u64, u64)],
    schedule: &Schedule,
    plan: FaultPlan,
    quiesce_each_run: bool,
) -> Result<(), String> {
    let (image, acked) = crash_image(seed, schedule, plan, quiesce_each_run);
    recover_and_check(image, seed, store_cfg(), schedule, acked, !plan.drop_syncs)
        .map_err(|e| format!("acked {acked}: {e}"))
}

/// 80 pairs, about 40 a shard: with `store_cfg`'s threshold of 4 a
/// shard's mid tier is due for a major merge at √(4·40) ≈ 12 entries,
/// so two merges in three are minor.
fn fixed_seed() -> Vec<(u64, u64)> {
    (0..80u64).map(|i| (i * 7, i + 100)).collect()
}

/// A fixed mixed schedule: overwrites, fresh keys, removes (present,
/// absent and repeated), single-op runs and multi-op runs — enough to
/// cross the merge threshold a dozen times on both shards and the
/// major-merge size three or four times, each time with a mid tier
/// under the runs and two or more thresholds of records in the WAL.
fn fixed_schedule() -> Schedule {
    let mut runs: Schedule = Vec::new();
    for r in 0..36u64 {
        let mut run = Vec::new();
        for i in 0..(1 + (r % 4)) {
            let k = (r * 31 + i * 13) % 300;
            match (r + i) % 5 {
                0 => run.push((k, None)),
                _ => run.push((k, Some(1000 * r + i))),
            }
        }
        runs.push(run);
    }
    runs.push(vec![(7, None), (7, None), (7, Some(5)), (7, None)]);
    runs
}

/// The fixed schedule with every run split into one run per shard it
/// touches, in the order `apply_write_run_with` applies them (shard by
/// shard, each keeping its ops' order): the same ops reach each shard
/// in the same order, but a run never touches two shards, so with a
/// quiesce after each run no merge overlaps a write.
fn single_shard_schedule() -> Schedule {
    let route = ShardedStore::build(Backend::Sorted, SHARDS, &[]);
    let mut runs = Schedule::new();
    for run in fixed_schedule() {
        for shard in 0..SHARDS {
            let part: Vec<_> = run
                .iter()
                .copied()
                .filter(|&(k, _)| route.shard_of(k) == shard)
                .collect();
            if !part.is_empty() {
                runs.push(part);
            }
        }
    }
    runs
}

/// Count the file-system operations the single-shard schedule performs
/// when quiesced after each run, so the matrix can kill at every
/// single one.
fn single_shard_schedule_ops() -> u64 {
    let fault = Arc::new(FaultFs::new(FaultPlan::default()));
    run_until_crash(&fault, &fixed_seed(), &single_shard_schedule(), true);
    fault.ops_done()
}

/// The matrix below is only worth its name if the fixed schedule takes
/// the store through both kinds of merge, repeatedly, in both the
/// forms it is killed in.
#[test]
fn fixed_schedule_crosses_both_kinds_of_merge() {
    for (name, schedule) in [
        ("fixed", fixed_schedule()),
        ("single-shard", single_shard_schedule()),
    ] {
        let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
        let store =
            ShardedStore::build_with_fs(Backend::Sorted, SHARDS, &fixed_seed(), store_cfg(), fs);
        let mut prevs = Vec::new();
        let mut longest_mid = 0;
        for run in &schedule {
            store.apply_write_run_with(run, &mut prevs, &mut WriteScratch::default());
            store.quiesce();
            longest_mid = longest_mid.max(store.mid_len());
        }
        let (all, major) = (store.merges(), store.major_merges());
        assert!(major >= 2 * SHARDS as u64, "{name}: {major} major");
        assert!(all >= 3 * major, "{name}: {major} major of {all}");
        // What the mid tiers hold is in the logs, and nowhere else.
        assert!(longest_mid > 2 * 4, "{name}: {longest_mid}");
    }
}

/// Deterministic fault matrix: the single-shard schedule, quiesced
/// after each run, killed at **every** fs-operation index, for the
/// interesting tear variants, each also with the zero tail a `DiskFs`
/// WAL shows after a crash. Covers each protocol point — mid-append,
/// between append and fsync, mid-snapshot, between snapshot rename and
/// WAL rewrite, mid-init — without sampling. A run is acked before its
/// merge starts, so a kill inside that merge must keep it.
#[test]
fn kill_at_every_protocol_point() {
    let seed = fixed_seed();
    let schedule = single_shard_schedule();
    let total = single_shard_schedule_ops();
    assert!(total > 50, "schedule too small to be interesting: {total}");
    for kill in 0..total {
        for (tear, flip) in [(0u8, false), (4, false), (4, true), (8, false)] {
            for zero_tail in [false, true] {
                let plan = FaultPlan {
                    kill_at_op: Some(kill),
                    drop_syncs: false,
                    tear_keep_eighths: tear,
                    flip_torn_bit: flip,
                    zero_tail,
                };
                crash_case(&seed, &schedule, plan, true).unwrap_or_else(|e| {
                    panic!("kill@{kill} tear={tear} flip={flip} zero_tail={zero_tail}: {e}")
                });
            }
        }
    }
}

/// The matrix is deterministic: killed at the same index, two runs of
/// the quiesced single-shard schedule leave the same crash image —
/// the same files with the same bytes. Only the acked count may differ,
/// by one (see [`run_until_crash`]).
#[test]
fn quiesced_crash_images_are_identical_across_runs() {
    let seed = fixed_seed();
    let schedule = single_shard_schedule();
    let files = |image: &MemFs| -> Vec<(String, Vec<u8>)> {
        let mut names = image.list().expect("list crash image");
        names.sort_unstable();
        names
            .into_iter()
            .map(|name| {
                let bytes = image.read(&name).expect("read crash image");
                (name, bytes)
            })
            .collect()
    };
    for kill in 0..single_shard_schedule_ops() {
        let plan = FaultPlan {
            kill_at_op: Some(kill),
            drop_syncs: false,
            tear_keep_eighths: 4,
            flip_torn_bit: false,
            zero_tail: false,
        };
        let (first, acked_first) = crash_image(&seed, &schedule, plan, true);
        let (second, acked_second) = crash_image(&seed, &schedule, plan, true);
        assert!(
            acked_first.abs_diff(acked_second) <= 1,
            "kill@{kill}: acked {acked_first} vs {acked_second}"
        );
        assert!(
            files(&first) == files(&second),
            "kill@{kill}: crash images differ (acked {acked_first} vs {acked_second})"
        );
    }
}

/// A lying disk (dropped fsyncs) still recovers to *a* prefix — acked
/// writes may be lost, but nothing is ever half-applied.
#[test]
fn dropped_fsyncs_still_recover_a_consistent_prefix() {
    let seed = fixed_seed();
    let schedule = single_shard_schedule();
    for kill in (0..single_shard_schedule_ops()).step_by(5) {
        let plan = FaultPlan {
            kill_at_op: Some(kill),
            drop_syncs: true,
            tear_keep_eighths: 3,
            flip_torn_bit: true,
            zero_tail: false,
        };
        crash_case(&seed, &schedule, plan, true).unwrap_or_else(|e| panic!("kill@{kill}: {e}"));
    }
}

/// Unquiesced: runs touch both shards and merges race the next writes,
/// so the merger's snapshot/truncate ops interleave with write-path
/// appends and kill points land inside the concurrent protocol too.
/// (Kill indices are sampled; exact op counts vary run to run with
/// merge timing.)
#[test]
fn kill_points_with_background_merges() {
    let seed = fixed_seed();
    let schedule = fixed_schedule();
    for kill in (0..260u64).step_by(7) {
        let plan = FaultPlan {
            kill_at_op: Some(kill),
            drop_syncs: false,
            tear_keep_eighths: 4,
            flip_torn_bit: false,
            zero_tail: false,
        };
        crash_case(&seed, &schedule, plan, false).unwrap_or_else(|e| panic!("kill@{kill}: {e}"));
    }
}

/// A short write: the disk fills up in the middle of a WAL append, so
/// the append keeps a prefix of its record and fails. The write that
/// hit it fails, its shard fails closed as on a full disk, and the
/// crash image — the prefix kept, with or without zeros past it —
/// recovers exactly the acknowledged writes.
///
/// One exception, pinned below: a record whose missing bytes are all
/// zeros reads back whole from the zeros a preallocated WAL has past
/// its end. A failed write's outcome is unknown to its caller, and the
/// prefix property allows it to survive.
#[test]
fn a_short_wal_append_fails_the_shard_closed_and_keeps_the_acked_writes() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let message = |r: std::thread::Result<Option<u64>>| match r {
        Ok(v) => format!("returned {v:?}"),
        Err(p) => p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default(),
    };
    let seed = fixed_seed();
    let record = wal::encode_record(0, &[(0, Some(0))]).len();
    let cases = [0, 3, 4, 12, record - 1].into_iter().flat_map(|keep| {
        [false, true]
            .into_iter()
            .flat_map(move |zero_tail| [(keep, zero_tail, u64::MAX), (keep, zero_tail, 1)])
    });
    for (keep, zero_tail, value) in cases {
        let tag = format!("keep {keep} zero_tail {zero_tail} value {value}");
        let fault = Arc::new(FaultFs::new(FaultPlan {
            tear_keep_eighths: 8,
            zero_tail,
            ..FaultPlan::default()
        }));
        let fs: Arc<dyn Fs> = Arc::clone(&fault) as Arc<dyn Fs>;
        // Three writes stay under the threshold of 4: no merge runs.
        let store = ShardedStore::build_with_fs(Backend::Sorted, 1, &seed, store_cfg(), fs);
        let svc = LookupService::start(store, ServeConfig::default());
        let mut acked: HashMap<u64, u64> = seed.iter().copied().collect();
        for i in 0..3u64 {
            svc.put(1000 + i, i);
            acked.insert(1000 + i, i);
        }
        fault.fill_disk_mid_append(keep);
        let failed = message(catch_unwind(AssertUnwindSafe(|| svc.put(2000, value))));
        assert!(failed.contains("WAL append failed"), "{tag}: {failed:?}");
        let later = message(catch_unwind(AssertUnwindSafe(|| svc.get(7))));
        assert!(later.contains("closed LookupService"), "{tag}: {later:?}");
        // Monitoring a failed shard still answers, and counts the
        // records of the acknowledged runs only.
        let stats = svc.stats();
        assert_eq!(stats.wal_records, 3, "{tag}");
        assert_eq!(svc.store().wal_stats(), (3, 3), "{tag}");
        // The live log holds the acked records and `keep` bytes more.
        let log = fault.read(&wal::wal_name(0)).expect("read the live WAL");
        assert_eq!(wal::decode_wal(&log).valid_len + keep, log.len(), "{tag}");
        let image: Arc<dyn Fs> = Arc::new(fault.crash_now());
        drop(svc);
        let recovered =
            ShardedStore::recover_with_fs(Backend::Sorted, store_cfg(), image).expect("recover");
        // The value's top byte ends the record: 1 has a zero there.
        let completed = zero_tail && keep == record - 1 && value == 1;
        assert_eq!(recovered.get(2000), completed.then_some(value), "{tag}");
        assert_eq!(
            recovered.len(),
            acked.len() + usize::from(completed),
            "{tag}"
        );
        for (&k, &v) in &acked {
            assert_eq!(recovered.get(k), Some(v), "{tag}: key {k}");
        }
    }
}

/// Overwrites of one hot key never grow the mid tier to its major
/// size, but the WAL logs every one: once it holds twice that many
/// ops the next merge is major and cuts it, and recovery still reads
/// the last value back.
#[test]
fn overwrites_of_one_key_keep_the_wal_bounded() {
    let fs = Arc::new(MemFs::new());
    let seed: Vec<(u64, u64)> = (0..400).map(|k| (k * 2, k)).collect();
    let cfg = || StoreConfig::with_threshold(4);
    let store = ShardedStore::build_with_fs(
        Backend::Sorted,
        1,
        &seed,
        cfg(),
        Arc::clone(&fs) as Arc<dyn Fs>,
    );
    for i in 0..1_000u64 {
        store.put(7, i);
    }
    store.quiesce();
    assert!(store.major_merges() >= 1, "{} merges", store.merges());
    // Twice the major size at threshold 4 over 400 pairs: 2 × √1600.
    let ops: usize = wal::decode_wal(&fs.read(&wal::wal_name(0)).expect("read the WAL"))
        .records
        .iter()
        .map(|r| r.ops.len())
        .sum();
    assert!(ops < 80, "{ops} ops in the WAL");
    drop(store);
    let recovered = ShardedStore::recover_with_fs(Backend::Sorted, cfg(), fs).expect("recover");
    assert_eq!(recovered.get(7), Some(999));
    assert_eq!(recovered.len(), 401);
}

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                (0u64..200),
                prop_oneof![Just(None), (0u64..10_000).prop_map(Some)],
            ),
            1..6,
        ),
        1..20,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 2 } else { 48 }))]

    /// Random schedules × random kill points × random fault plans
    /// (zero tails included), merges quiesced after each run or racing
    /// the writes: every acked write survives (when fsyncs are honored;
    /// a lying disk covers an acked write no fsync made durable) and no
    /// crash image ever recovers to a non-prefix.
    #[test]
    fn kill_and_revive_matches_an_oracle_prefix(
        schedule in schedule_strategy(),
        kill in 0u64..400,
        tear in 0u8..=8,
        flip in prop_oneof![Just(false), Just(true)],
        drop_syncs in prop_oneof![Just(false), Just(true)],
        quiesce_each_run in prop_oneof![Just(false), Just(true)],
        zero_tail in prop_oneof![Just(false), Just(true)],
    ) {
        let seed = fixed_seed();
        let plan = FaultPlan {
            kill_at_op: Some(kill),
            drop_syncs,
            tear_keep_eighths: tear,
            flip_torn_bit: flip,
            zero_tail,
        };
        if let Err(e) = crash_case(&seed, &schedule, plan, quiesce_each_run) {
            prop_assert!(false, "{e}");
        }
    }
}

/// A log much longer than one threshold is the normal case now (minor
/// merges leave it alone). Recovery installs what it replays as the
/// mid tier, merges nothing, and every acknowledged write reads back;
/// only a replay that is already due for a major merge gets one — at
/// once.
#[test]
fn recovery_installs_a_long_wal_as_the_mid_tier() {
    // One shard of 400 pairs: at threshold 4 the mid is due at 40
    // entries, at threshold 1 at 20.
    let seed: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 3, i)).collect();
    let cfg = |threshold: usize| StoreConfig {
        merge_threshold: threshold,
        ..StoreConfig::default()
    };
    let fs = Arc::new(MemFs::new());
    let mut oracle: HashMap<u64, u64> = seed.iter().copied().collect();
    {
        let store = ShardedStore::build_with_fs(
            Backend::Csb,
            1,
            &seed,
            cfg(4),
            Arc::clone(&fs) as Arc<dyn Fs>,
        );
        for i in 0..30u64 {
            if i % 5 == 0 {
                assert_eq!(store.remove(i * 3), oracle.remove(&(i * 3)));
            } else {
                assert_eq!(store.put(10_000 + i, i), oracle.insert(10_000 + i, i));
            }
        }
        store.quiesce();
        // The merger may have taken several thresholds at a time.
        assert!(store.merges() >= 1 && store.major_merges() == 0);
        assert_eq!(store.mid_len() + store.delta_len(), 30);
        assert!(store.delta_len() < 4);
    }
    let read_back = |store: &ShardedStore, tag: &str| {
        assert_eq!(store.len(), oracle.len(), "{tag}");
        for i in 0..30u64 {
            for key in [i * 3, 10_000 + i] {
                assert_eq!(store.get(key), oracle.get(&key).copied(), "{tag}");
            }
        }
    };
    let store = ShardedStore::recover_with_fs(Backend::Csb, cfg(4), Arc::clone(&fs) as Arc<dyn Fs>)
        .expect("recover");
    store.quiesce();
    assert_eq!(store.merges(), 0, "30 of 40, nothing is due");
    assert_eq!((store.mid_len(), store.delta_len()), (30, 0));
    read_back(&store, "as the mid tier");
    drop(store);
    let store =
        ShardedStore::recover_with_fs(Backend::Csb, cfg(1), fs as Arc<dyn Fs>).expect("recover");
    store.quiesce();
    assert_eq!((store.merges(), store.major_merges()), (1, 1), "30 of 20");
    assert_eq!((store.mid_len(), store.delta_len()), (0, 0));
    read_back(&store, "merged at once");
}

/// A recovered mid tier carries a filter built from the replayed
/// tail, and answers through it what the writes left: point
/// reads, planned batches under either policy, and the previous
/// values of a write run. Its keys: new keys, some rewritten by later
/// records, stored keys tombstoned, some of them put back, and keys
/// the tail never touched.
#[test]
fn a_recovered_mid_tier_answers_every_read_path() {
    // One shard of 1 000 pairs at threshold 8: the mid is due at 89
    // entries and the WAL at 178 ops, so the 70 ops below are all
    // replayed into the mid tier and nothing merges on recovery.
    let seed: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i * 3, i)).collect();
    let cfg = StoreConfig::with_threshold(8);
    let fs = Arc::new(MemFs::new());
    let mut oracle: HashMap<u64, u64> = seed.iter().copied().collect();
    let mut ops: Vec<(u64, Option<u64>)> = Vec::new();
    ops.extend((0..40u64).map(|i| (10_000 + i, Some(i))));
    ops.extend((0..10u64).map(|i| (10_000 + i, Some(500 + i))));
    ops.extend((0..16u64).map(|i| (i * 3, None)));
    ops.extend((0..4u64).map(|i| (i * 3, Some(900 + i))));
    {
        let store = ShardedStore::build_with_fs(
            Backend::Csb,
            1,
            &seed,
            cfg.clone(),
            Arc::clone(&fs) as Arc<dyn Fs>,
        );
        for &(key, val) in &ops {
            let prev = match val {
                Some(v) => store.put(key, v),
                None => store.remove(key),
            };
            let expect = match val {
                Some(v) => oracle.insert(key, v),
                None => oracle.remove(&key),
            };
            assert_eq!(prev, expect, "live write of {key}");
        }
        store.quiesce();
        assert_eq!(store.major_merges(), 0);
    }
    let store =
        ShardedStore::recover_with_fs(Backend::Csb, cfg, fs as Arc<dyn Fs>).expect("recover");
    store.quiesce();
    assert_eq!(store.merges(), 0, "56 of 89: nothing is due");
    assert_eq!((store.mid_len(), store.delta_len()), (56, 0));
    assert_eq!(store.len(), oracle.len());

    let in_mid: Vec<u64> = (0..40u64)
        .map(|i| 10_000 + i)
        .chain((0..16).map(|i| i * 3))
        .collect();
    let mut probes: Vec<u64> = in_mid
        .iter()
        .copied()
        .chain((16..600).map(|i| i * 3))
        .chain((0..300).map(|i| i * 3 + 2))
        .chain((40..300).map(|i| 10_000 + i))
        .collect();
    probes.sort_by_key(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for &k in &probes {
        assert_eq!(store.get(k), oracle.get(&k).copied(), "get {k}");
    }
    let mut scratch = LookupScratch::default();
    let mut out = vec![None; probes.len()];
    for policy in [Interleave::Sequential, Interleave::Interleaved(24)] {
        let outcome = store.lookup_batch(0, &probes, policy, ParConfig, &mut scratch, &mut out);
        assert_eq!(outcome.delta_hits, in_mid.len() as u64, "{policy:?}");
        for (&k, &r) in probes.iter().zip(&out) {
            assert_eq!(r, oracle.get(&k).copied(), "{policy:?} key {k}");
        }
    }
    let run: Vec<(u64, Option<u64>)> = probes.iter().map(|&k| (k, None)).collect();
    let mut prevs = Vec::new();
    store.apply_write_run_with(&run, &mut prevs, &mut WriteScratch::default());
    for (&k, &prev) in probes.iter().zip(&prevs) {
        assert_eq!(prev, oracle.get(&k).copied(), "previous value of {k}");
    }
}

/// Real-directory round trip: build durable on a DiskFs, write
/// through a live service, shut down cleanly, recover, and serve
/// again — values intact.
#[test]
fn disk_roundtrip_through_the_service() {
    let dir = std::env::temp_dir().join(format!("isi-crash-recovery-{}-disk", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig::with_threshold(8).durable(&dir, FsyncMode::Group);
    let seed: Vec<(u64, u64)> = (0..100u64).map(|i| (i * 3, i)).collect();
    let serve_cfg = ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    };
    {
        let store = ShardedStore::build_with(Backend::Csb, SHARDS, &seed, cfg.clone());
        assert!(store.is_durable());
        let svc = LookupService::start(store, serve_cfg);
        for i in 0..50u64 {
            svc.put(1000 + i, i);
        }
        svc.remove(0);
        svc.put(3, 777);
        let (records, _) = svc.store().wal_stats();
        assert!(records > 0, "writes must hit the WAL");
        assert_eq!(wal_fsyncs(svc.store()), records, "one data sync per record");
        // svc (and with it the store) drops here: clean shutdown.
    }
    // A clean shutdown trims each preallocated WAL to its records.
    for shard in 0..SHARDS {
        let log = std::fs::read(dir.join(wal::wal_name(shard))).expect("read a WAL");
        assert!(
            wal::decode_wal(&log).clean,
            "shard {shard}: zeros past the records"
        );
    }
    let recovered = ShardedStore::recover(Backend::Csb, cfg).expect("recover from disk");
    assert_eq!(recovered.get(0), None);
    assert_eq!(recovered.get(3), Some(777));
    for i in 0..50u64 {
        assert_eq!(recovered.get(1000 + i), Some(i));
    }
    // 100 seeded + 50 fresh puts − removed key 0 (the put of 3
    // overwrites a seeded key).
    assert_eq!(recovered.len(), 100 + 50 - 1);
    // And the revived store serves.
    let svc = LookupService::start(recovered, serve_cfg);
    assert_eq!(svc.get(1000), Some(0));
    svc.put(5000, 1);
    assert_eq!(svc.get(5000), Some(1));
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `build_with` on a directory that already holds a store supersedes
/// it: the old store's merged snapshots carry higher sequence numbers
/// than the new seq-0 ones, so if they were left in place recovery
/// would bring the old store back.
#[test]
fn build_with_on_a_used_directory_supersedes_the_old_store() {
    let dir = std::env::temp_dir().join(format!("isi-crash-recovery-{}-reuse", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = StoreConfig::with_threshold(4).durable(&dir, FsyncMode::Group);
    {
        // Store A, written past its major-merge size (about 11 entries
        // a shard): after quiesce its shards have snapshots at a
        // sequence above 0.
        let seed_a: Vec<(u64, u64)> = (0..64u64).map(|i| (i, 1_000 + i)).collect();
        let a = ShardedStore::build_with(Backend::Sorted, SHARDS, &seed_a, cfg.clone());
        for i in 0..64u64 {
            a.put(i, 2_000 + i);
        }
        a.quiesce();
        assert!(a.major_merges() > 0, "store A must have merged snapshots");
    }
    {
        let seed_b: Vec<(u64, u64)> = (0..8u64).map(|i| (i * 2, i)).collect();
        let b = ShardedStore::build_with(Backend::Sorted, SHARDS, &seed_b, cfg.clone());
        b.put(100, 7);
        b.remove(0);
    }
    let recovered = ShardedStore::recover(Backend::Sorted, cfg).expect("recover store B");
    assert_eq!(recovered.len(), 8, "store A's pairs came back");
    assert_eq!(recovered.get(0), None);
    assert_eq!(recovered.get(2), Some(1));
    assert_eq!(recovered.get(3), None, "a key only store A held");
    assert_eq!(recovered.get(100), Some(7));
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A [`MemFs`] whose `sync` takes as long as a fast disk's: while a
/// write run's fsync is in flight (its runner holds the shard's token)
/// the other clients' writes queue up behind it, on any scheduler.
struct SlowSyncFs(MemFs);

impl Fs for SlowSyncFs {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.0.append(name, data)
    }
    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.0.write_all(name, data)
    }
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.0.read(name)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        std::thread::sleep(Duration::from_micros(100));
        self.0.sync(name)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.0.remove(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        self.0.list()
    }
    fn sync_dir(&self) -> io::Result<()> {
        self.0.sync_dir()
    }
}

/// Durable group commit through the service: a burst of writes from
/// concurrent clients lands in far fewer fsyncs than writes (that is
/// the point).
#[test]
fn group_commit_amortizes_fsyncs_through_the_service() {
    let fs: Arc<dyn Fs> = Arc::new(SlowSyncFs(MemFs::new()));
    let store = ShardedStore::build_with_fs(Backend::Sorted, 1, &[], store_cfg(), fs);
    let svc = LookupService::start(
        store,
        ServeConfig {
            max_batch: 64,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        for c in 0..4u64 {
            let svc = &svc;
            scope.spawn(move || {
                for i in 0..64u64 {
                    svc.put(c * 1000 + i, i);
                }
            });
        }
    });
    // One record and one fsync per write run, and with 4 concurrent
    // clients the writes that queue up behind a run's fsync coalesce
    // into shared records, which must beat one-sync-per-op.
    let (records, _) = svc.store().wal_stats();
    assert_eq!(wal_fsyncs(svc.store()), records, "one data sync per record");
    assert!(
        records < 256,
        "4×64 puts should coalesce into fewer records, got {records}"
    );
}
