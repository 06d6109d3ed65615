//! Model of the immutable run-stack delta publish in `isi_serve::store`.
//!
//! The real delta is a stack of immutable sorted runs: every
//! dispatched write run is sorted once and pushed (newest last), and
//! when the runs above the merge cut exceed `max_runs` the same
//! critical section folds them into a single fresh run keeping the
//! per-key newest value. The bottom run may be the shard's **mid
//! tier**, which the write path never folds. The background merger
//! snapshots the stack and pins the runs above the mid (the cut: the
//! write path leaves the snapshotted runs alone, or the residual
//! would carry them again inside a fresh run), folds the snapshot
//! outside any lock, and republishes: a **minor merge** keeps the
//! main and replaces the snapshotted runs by one new mid run; a
//! **major merge** — due once the mid has reached its size — folds
//! them into a rebuilt main and leaves no mid. Either way the stack
//! retains exactly the runs **not** in the snapshot — identity
//! (`Arc::ptr_eq` in the real code) decides residual membership,
//! never value comparison.
//!
//! The model collapses the shard to a single key and a run to an
//! `(id, value)` pair, where the `id` plays the `Arc` identity. A
//! writer pushes values 2, 3 and 4 as fresh runs (folding the runs
//! above the cut past `max_runs = 2` inside the same lock hold, as
//! the real write path does), racing a merger that runs two merges
//! back to back, each snapshot+pin/fold/republish with the
//! identity-based residual filter. The model's mid is due as soon as
//! there is one: the first merge finds none and is minor, the second
//! finds the first's mid under whatever was pushed since and is
//! major, so every execution sees both kinds. Invariants: after both
//! threads finish, a lookup (newest run first, then main) sees the
//! writer's final value — push, fold and either merge, however
//! interleaved, never lose the newest write — and no republish leaves
//! a run its merge folded: a merge drains what it snapshotted.
//!
//! [`fold_across_the_cut`] is the same protocol without the pin —
//! the shipped behaviour until the pin was added, under which a store
//! written to faster than it folded never drained a delta. It is the
//! second known-bad calibration variant.
//!
//! [`fold_into_the_mid`] is the same protocol with the write path's
//! fold as it was before there was a mid tier: it keeps `pinned` runs
//! counted from the bottom of the stack. With no merge in flight that
//! swallows the mid into the fresh run (in the real store, a copy of
//! the whole mid every few writes); with one in flight the mid takes
//! up one of the pinned places, the newest pinned run is folded away
//! with the writes above it, and the republish finds one run fewer
//! than it merged. The third known-bad calibration variant.
//!
//! [`oldest_run_wins`] is the same protocol with the lookup reading
//! the stack **oldest-first** — the known-bad calibration variant the
//! explorer must catch. It only fails when a merge republishes
//! *between* two pushes, leaving an older residual run below the
//! newer push — a genuine interleaving, not every schedule.

use std::sync::Arc;

use crate::sync::Mutex;
use crate::vt;

/// One run: `(id, value)`; the `id` models the run's `Arc` identity.
/// Ids are assigned statically — identity only needs uniqueness, so
/// the model spends no lock ops minting them.
type Run = (u64, u64);

/// The delta of the single-key shard (one lock, as the shard write
/// lock guards all of it in the real code).
struct Stack {
    /// Immutable runs, newest last.
    runs: Vec<Run>,
    /// `runs[0]` is the mid tier.
    mid: bool,
    /// How many of the oldest runs above the mid tier the merge in
    /// flight has pinned.
    pinned: usize,
}

/// Single-key run-stack shard state.
struct Shard {
    delta: Mutex<Stack>,
    /// Merged value for the key (0 = never merged).
    main: Mutex<u64>,
}

/// The stack folds once it holds more than this many runs above the
/// cut (the model's `StoreConfig::max_runs`).
const MAX_RUNS: usize = 2;

/// The value the writer leaves behind.
const NEWEST: u64 = 4;

/// Which runs the write path's fold leaves alone.
#[derive(Clone, Copy)]
enum FoldKeeps {
    /// The mid tier and the pinned runs above it (the shipped rule).
    MidAndPinned,
    /// Nothing: the rule before merges pinned their runs.
    Nothing,
    /// `pinned` runs from the bottom: the rule before the mid tier.
    PinnedFromTheBottom,
}

/// The protocol under every interleaving; `oldest_first` flips the
/// final lookup's run order and `keeps` picks the writer's fold rule
/// (the three known-bad variants).
fn run_stack(oldest_first: bool, keeps: FoldKeeps) {
    let shard = Arc::new(Shard {
        // One pre-existing run holding value 1, as if a prior write
        // run already published; no mid tier yet.
        delta: Mutex::new(Stack {
            runs: vec![(1, 1)],
            mid: false,
            pinned: 0,
        }),
        main: Mutex::new(0),
    });

    // Writer: three dispatched write runs, values 2, 3, 4. Each is
    // one critical section: push the fresh run, then fold the runs
    // above the kept ones into a new identity if they crossed
    // `MAX_RUNS` — exactly the real `write_shard_run` under the
    // shard's write lock. Writer runs reuse their value as id; folded
    // runs get ids from 100 up.
    let writer = {
        let shard = Arc::clone(&shard);
        vt::spawn(move || {
            for v in 2..=NEWEST {
                let mut delta = shard.delta.lock();
                delta.runs.push((v, v));
                let keep = match keeps {
                    FoldKeeps::MidAndPinned => delta.mid as usize + delta.pinned,
                    FoldKeeps::Nothing => 0,
                    FoldKeeps::PinnedFromTheBottom => delta.pinned,
                };
                if delta.runs.len() - keep > MAX_RUNS {
                    delta.runs.truncate(keep);
                    delta.runs.push((100 + v, v));
                }
            }
        })
    };

    // Merger: two merges, minor then major. Each snapshots run
    // identities + their folded value, folds outside any lock, and
    // republishes, retaining exactly the runs whose identity was
    // *not* in the snapshot. Mid runs get ids from 200 up.
    let merger = {
        let shard = Arc::clone(&shard);
        vt::spawn(move || {
            for round in 0..2u64 {
                // 1. Snapshot the stack (ids + per-key newest value)
                //    and pin the runs above the mid against folds.
                let (snap_ids, snap_val, major) = {
                    let mut delta = shard.delta.lock();
                    delta.pinned = delta.runs.len() - delta.mid as usize;
                    (
                        delta.runs.iter().map(|r| r.0).collect::<Vec<_>>(),
                        delta.runs.last().expect("run 1 or a mid").1,
                        delta.mid,
                    )
                };
                // 2. Fold (and, major, rebuild) outside the locks: no
                //    shared ops.
                // 3. Republish. A major merge puts the fold into main;
                //    both drop precisely the snapshotted runs —
                //    identity, not value — and a minor one puts its
                //    fold back underneath as the new mid.
                let mut main = major.then(|| shard.main.lock());
                if let Some(main) = &mut main {
                    **main = snap_val;
                }
                let mut delta = shard.delta.lock();
                // The pin kept every snapshotted run in place, so the
                // identity filter drops all of them: the merge drained
                // what it folded.
                let before = delta.runs.len();
                delta.runs.retain(|r| !snap_ids.contains(&r.0));
                assert_eq!(
                    before - delta.runs.len(),
                    snap_ids.len(),
                    "a fold replaced pinned runs: the residual {:?} carries merged entries",
                    delta.runs
                );
                if !major {
                    delta.runs.insert(0, (200 + round, snap_val));
                }
                delta.mid = !major;
                delta.pinned = 0;
            }
        })
    };

    writer.join();
    merger.join();

    // Lookup: the run stack shadows main.
    let runs = shard.delta.lock().runs.clone();
    let main = *shard.main.lock();
    let run_hit = if oldest_first {
        runs.first()
    } else {
        runs.last()
    };
    let seen = run_hit.map(|r| r.1).unwrap_or(main);
    assert_eq!(
        seen, NEWEST,
        "run stack lost the newest write: lookup sees {seen} \
         (runs={runs:?}, main={main})"
    );
}

/// Good protocol: newest-run-first lookup over the residual stack
/// always sees the writer's final value, and both kinds of merge
/// drain exactly what they pinned.
pub fn run_stack_preserves_newest() {
    run_stack(false, FoldKeeps::MidAndPinned);
}

/// Known-bad variant: the lookup consults the **oldest** run first.
/// Under interleavings where a merge's residual leaves an older run
/// below a newer push, the stale value shadows the newest write.
pub fn oldest_run_wins() {
    run_stack(true, FoldKeeps::MidAndPinned);
}

/// Known-bad variant: the writer folds the whole stack past
/// `MAX_RUNS`, as the store did before merges pinned their runs.
/// When a fold lands between a merge's snapshot and its republish,
/// the snapshotted runs are gone from the stack, the identity filter
/// finds none of them, and the fresh run that carries their entries
/// survives as residual: nothing is lost, and nothing is drained.
pub fn fold_across_the_cut() {
    run_stack(false, FoldKeeps::Nothing);
}

/// Known-bad variant: the writer's fold honours the pin but not the
/// mid tier — `pinned` runs kept, counted from the bottom, as before
/// there was a mid. Under a merge that has pinned one run above a
/// mid, a fold keeps the mid in that run's place and takes the run.
pub fn fold_into_the_mid() {
    run_stack(false, FoldKeeps::PinnedFromTheBottom);
}
