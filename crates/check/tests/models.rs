//! The protocol model suite: bounded-exhaustive checks of the six
//! serve-path protocols, plus calibration tests proving the explorer
//! actually *finds* known-bad variants and that printed seeds replay.

use isi_check::explore::{check, explore, replay, Config, Outcome};
use isi_check::models;

#[test]
fn epoch_publish_never_torn() {
    let n = check(
        "epoch publish",
        Config::default(),
        models::epoch::publish_never_torn,
    );
    assert!(n > 1, "model has no concurrency ({n} interleaving)");
}

#[test]
fn run_stack_never_loses_the_newest_write() {
    let n = check(
        "run-stack publish",
        Config::default(),
        models::runs::run_stack_preserves_newest,
    );
    assert!(n > 1, "model has no concurrency ({n} interleaving)");
}

/// Reading the run stack oldest-first must surface a stale value
/// under some interleaving — and the seed must replay it.
#[test]
fn explorer_catches_oldest_run_wins() {
    let outcome = explore(Config::default(), models::runs::oldest_run_wins);
    let Outcome::Violation(v) = outcome else {
        panic!("oldest-run-wins not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("lost the newest write"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(Config::default(), &v.seed, models::runs::oldest_run_wins)
        .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("lost the newest write"),
        "replay diverged: {replayed}"
    );
}

/// A write-path fold that takes the merge's pinned runs with it must
/// leave merged entries in the residual under some interleaving — and
/// the seed must replay it.
#[test]
fn explorer_catches_fold_across_the_cut() {
    let outcome = explore(Config::default(), models::runs::fold_across_the_cut);
    let Outcome::Violation(v) = outcome else {
        panic!("fold across the cut not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("carries merged entries"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(
        Config::default(),
        &v.seed,
        models::runs::fold_across_the_cut,
    )
    .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("carries merged entries"),
        "replay diverged: {replayed}"
    );
}

/// A write-path fold that forgets the mid tier — keeps `pinned` runs
/// from the bottom of the stack — must take a pinned run from above
/// the mid under some interleaving, and the seed must replay it.
#[test]
fn explorer_catches_fold_into_the_mid() {
    let outcome = explore(Config::default(), models::runs::fold_into_the_mid);
    let Outcome::Violation(v) = outcome else {
        panic!("fold into the mid not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("carries merged entries"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(Config::default(), &v.seed, models::runs::fold_into_the_mid)
        .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("carries merged entries"),
        "replay diverged: {replayed}"
    );
}

#[test]
fn cache_invalidate_before_ack_no_stale_reads() {
    let n = check(
        "cache invalidate-before-ack",
        Config::default(),
        models::cache::invalidate_before_ack,
    );
    assert!(n > 1, "model has no concurrency ({n} interleaving)");
}

#[test]
fn queue_backpressure_no_deadlock() {
    check(
        "queue backpressure",
        Config::default(),
        models::queue::backpressure_no_deadlock,
    );
}

#[test]
fn queue_token_handback_no_stranded_entry() {
    let n = check(
        "queue token hand-back",
        Config::default(),
        models::queue::token_handback_no_stranded_entry,
    );
    assert!(n > 1, "model has no concurrency ({n} interleaving)");
}

#[test]
fn queue_fan_out_no_stranded_entry() {
    let n = check(
        "queue fan-out submit",
        Config::default(),
        models::queue::fan_out_no_stranded_entry,
    );
    assert!(n > 1, "model has no concurrency ({n} interleaving)");
}

/// Handing the token back without re-checking the queue must strand
/// an entry under some interleaving — and the seed must replay it.
#[test]
fn explorer_catches_handback_without_notify() {
    let outcome = explore(Config::default(), models::queue::handback_without_notify);
    let Outcome::Violation(v) = outcome else {
        panic!("hand-back without notify not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("stranded entry"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(
        Config::default(),
        &v.seed,
        models::queue::handback_without_notify,
    )
    .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("stranded entry"),
        "replay diverged: {replayed}"
    );
}

#[test]
fn wal_group_commit_acked_writes_survive_truncation() {
    let n = check(
        "wal group commit",
        Config::default(),
        models::wal::group_commit_truncate_safe,
    );
    assert!(n > 1, "model has no concurrency ({n} interleaving)");
}

/// Truncating the WAL before the snapshot's fsync must lose an acked
/// write under some interleaving — and the seed must replay it.
#[test]
fn explorer_catches_truncate_before_snapshot_sync() {
    let outcome = explore(
        Config::default(),
        models::wal::truncate_before_snapshot_sync,
    );
    let Outcome::Violation(v) = outcome else {
        panic!("truncate-before-sync not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("acked write lost"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(
        Config::default(),
        &v.seed,
        models::wal::truncate_before_snapshot_sync,
    )
    .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("acked write lost"),
        "replay diverged: {replayed}"
    );
}

/// The deliberately broken EpochCell variant: the explorer must find
/// the torn snapshot and report a seed that deterministically replays
/// the same violation.
#[test]
fn explorer_catches_torn_publish_and_seed_replays() {
    let outcome = explore(Config::default(), models::epoch::torn_publish);
    let Outcome::Violation(v) = outcome else {
        panic!("torn-publish model not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("torn publish"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(Config::default(), &v.seed, models::epoch::torn_publish)
        .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("torn publish"),
        "replay reproduced a different failure: {replayed}"
    );
}

/// The ack-before-invalidate cache ordering must violate
/// read-your-own-writes under some interleaving.
#[test]
fn explorer_catches_ack_before_invalidate() {
    let outcome = explore(Config::default(), models::cache::ack_before_invalidate);
    let Outcome::Violation(v) = outcome else {
        panic!("ack-before-invalidate not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("stale read"),
        "unexpected: {}",
        v.message
    );
    let replayed = replay(
        Config::default(),
        &v.seed,
        models::cache::ack_before_invalidate,
    )
    .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("stale read"),
        "replay diverged: {replayed}"
    );
}

/// A direct-path `get` that hands the token back before refilling the
/// cache must serve a stale read after an own-write ack under some
/// interleaving — and the seed must replay it.
#[test]
fn explorer_catches_refill_after_handback() {
    let outcome = explore(Config::default(), models::cache::refill_after_handback);
    let Outcome::Violation(v) = outcome else {
        panic!("refill-after-handback not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("stale read"),
        "unexpected: {}",
        v.message
    );
    let replayed = replay(
        Config::default(),
        &v.seed,
        models::cache::refill_after_handback,
    )
    .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("stale read"),
        "replay diverged: {replayed}"
    );
}

/// Deadlocks are violations too: two threads taking two locks in
/// opposite orders must be reported (with a seed), not hung on.
#[test]
fn explorer_reports_lock_order_deadlock() {
    use isi_check::sync::Mutex;
    use isi_check::vt;
    use std::sync::Arc;

    let outcome = explore(Config::default(), || {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let t = {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            vt::spawn(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            })
        };
        let _gb = b.lock();
        let _ga = a.lock();
        drop(_ga);
        drop(_gb);
        t.join();
    });
    let Outcome::Violation(v) = outcome else {
        panic!("lock-order inversion not caught: {outcome:?}");
    };
    assert!(v.message.contains("deadlock"), "unexpected: {}", v.message);
}

/// Randomized exploration finds the torn publish too (with a usable
/// seed), for models too big to exhaust.
#[test]
fn random_exploration_finds_torn_publish() {
    let outcome = isi_check::explore::explore_random(
        Config::default(),
        0xC0FFEE,
        500,
        models::epoch::torn_publish,
    );
    let Outcome::Violation(v) = outcome else {
        panic!("random exploration missed the torn publish: {outcome:?}");
    };
    let replayed = replay(Config::default(), &v.seed, models::epoch::torn_publish)
        .expect("random-found seed did not replay");
    assert!(
        replayed.contains("torn publish"),
        "replay diverged: {replayed}"
    );
}

/// The counter read-order model: reading the covered side
/// (`syncs`) before the covering side (`records`) keeps every
/// interleaving's snapshot coherent.
#[test]
fn metrics_snapshot_ordering_is_coherent() {
    let n = check(
        "metrics snapshot ordering",
        Config::default(),
        models::metrics::snapshot_reads_covered_side_first,
    );
    assert!(n > 1, "model has no concurrency ({n} interleaving)");
}

/// The old `wal_stats()` read order (records first) must show
/// more syncs than records under some interleaving — and the printed
/// seed must replay it.
#[test]
fn explorer_catches_records_first_snapshot_skew() {
    let outcome = explore(
        Config::default(),
        models::metrics::snapshot_reads_records_first,
    );
    let Outcome::Violation(v) = outcome else {
        panic!("records-first snapshot skew not caught: {outcome:?}");
    };
    assert!(
        v.message.contains("skewed snapshot"),
        "unexpected violation: {}",
        v.message
    );
    let replayed = replay(
        Config::default(),
        &v.seed,
        models::metrics::snapshot_reads_records_first,
    )
    .expect("replay seed did not reproduce the violation");
    assert!(
        replayed.contains("skewed snapshot"),
        "replay diverged: {replayed}"
    );
}
