//! Model of the immutable run-stack delta publish in `isi_serve::store`.
//!
//! The real delta is a stack of immutable sorted runs: every
//! dispatched write run is sorted once and pushed (newest last), and
//! when the runs above the merge cut exceed `max_runs` the same
//! critical section folds them into a single fresh run keeping the
//! per-key newest value. The background merger snapshots the stack
//! and pins it (the cut: the write path leaves the snapshotted runs
//! alone, or the residual would carry them again inside a fresh
//! run), folds the snapshot into a rebuilt main outside any lock, and
//! republishes a residual delta that retains exactly the runs **not**
//! in its snapshot — identity (`Arc::ptr_eq` in the real code)
//! decides residual membership, never value comparison.
//!
//! The model collapses the shard to a single key and a run to an
//! `(id, value)` pair, where the `id` plays the `Arc` identity. A
//! writer pushes values 2 then 3 as fresh runs (folding the runs
//! above the cut past `max_runs = 2` inside the same lock hold, as
//! the real write path does), racing a merger doing
//! snapshot+pin/rebuild/republish with the identity-based residual
//! filter. Invariants: after both finish, a lookup (newest run first,
//! then main) sees the writer's final value — push, fold and merge,
//! however interleaved, never lose the newest write — and the
//! residual holds no run the merge folded: a merge drains what it
//! snapshotted.
//!
//! [`fold_across_the_cut`] is the same protocol without the pin —
//! the shipped behaviour until the pin was added, under which a store
//! written to faster than it folded never drained a delta. It is the
//! second known-bad calibration variant.
//!
//! [`oldest_run_wins`] is the same protocol with the lookup reading
//! the stack **oldest-first** — the known-bad calibration variant the
//! explorer must catch. It only fails when the merge republishes
//! *between* the two pushes, leaving an older residual run below the
//! newer push — a genuine interleaving, not every schedule.

use std::sync::Arc;

use crate::sync::Mutex;
use crate::vt;

/// Single-key run-stack shard state.
struct Shard {
    /// Delta: stack of immutable runs, newest last, and how many of
    /// its oldest runs the merge in flight has pinned (one lock, as
    /// the shard write lock guards both in the real code). Each run
    /// is `(id, value)`; the `id` models the run's `Arc` identity.
    /// Ids are assigned statically — identity only needs uniqueness,
    /// so the model spends no lock ops minting them.
    runs: Mutex<(Vec<(u64, u64)>, usize)>,
    /// Merged value for the key (0 = never merged).
    main: Mutex<u64>,
}

/// The stack folds once it exceeds this many runs (the model's
/// `StoreConfig::max_runs`).
const MAX_RUNS: usize = 2;

/// The protocol under every interleaving; `oldest_first` flips the
/// final lookup's run order and `fold_pinned` makes the writer fold
/// the whole stack, pinned runs included (the two known-bad variants).
fn run_stack(oldest_first: bool, fold_pinned: bool) {
    let shard = Arc::new(Shard {
        // One pre-existing run holding value 1, as if a prior write
        // run already published.
        runs: Mutex::new((vec![(1, 1)], 0)),
        main: Mutex::new(0),
    });

    // Writer: two dispatched write runs, values 2 then 3. Each is one
    // critical section: push the fresh run, then fold the runs above
    // the pinned ones into a new identity if they crossed `MAX_RUNS`
    // — exactly the real `write_shard_run` under the shard's write
    // lock. Writer runs reuse their value as id; folded runs get ids
    // from 100 up.
    let writer = {
        let shard = Arc::clone(&shard);
        vt::spawn(move || {
            for v in 2..=3u64 {
                let mut guard = shard.runs.lock();
                let (runs, pinned) = &mut *guard;
                runs.push((v, v));
                let keep = if fold_pinned { 0 } else { *pinned };
                if runs.len() - keep > MAX_RUNS {
                    let newest = runs.last().expect("non-empty").1;
                    runs.truncate(keep);
                    runs.push((100 + v, newest));
                }
            }
        })
    };

    // Merger: snapshot run identities + their folded value, rebuild
    // outside any lock, republish main, and retain exactly the runs
    // whose identity was *not* in the snapshot.
    let merger = {
        let shard = Arc::clone(&shard);
        vt::spawn(move || {
            // 1. Snapshot the stack (ids + per-key newest value) and
            //    pin it against folds.
            let (snap_ids, snap_val) = {
                let mut guard = shard.runs.lock();
                let (runs, pinned) = &mut *guard;
                *pinned = runs.len();
                (
                    runs.iter().map(|r| r.0).collect::<Vec<_>>(),
                    runs.last().map(|r| r.1),
                )
            };
            // 2. Rebuild outside the locks (no shared ops).
            // 3. Republish: fold the snapshot into main, then drop
            //    precisely the snapshotted runs — identity, not value.
            let mut main = shard.main.lock();
            if let Some(v) = snap_val {
                *main = v;
            }
            let mut guard = shard.runs.lock();
            let (runs, pinned) = &mut *guard;
            // The pin kept every snapshotted run in place, so the
            // identity filter drops all of them: the merge drained
            // what it folded.
            let before = runs.len();
            runs.retain(|r| !snap_ids.contains(&r.0));
            assert_eq!(
                before - runs.len(),
                snap_ids.len(),
                "a fold replaced pinned runs: the residual {runs:?} carries merged entries"
            );
            *pinned = 0;
        })
    };

    writer.join();
    merger.join();

    // Lookup: the run stack shadows main.
    let runs = shard.runs.lock().0.clone();
    let main = *shard.main.lock();
    let run_hit = if oldest_first {
        runs.first()
    } else {
        runs.last()
    };
    let seen = run_hit.map(|r| r.1).unwrap_or(main);
    assert_eq!(
        seen, 3,
        "run stack lost the newest write: lookup sees {seen} \
         (runs={runs:?}, main={main})"
    );
}

/// Good protocol: newest-run-first lookup over the residual stack
/// always sees the writer's final value.
pub fn run_stack_preserves_newest() {
    run_stack(false, false);
}

/// Known-bad variant: the lookup consults the **oldest** run first.
/// Under interleavings where the merge's residual leaves an older run
/// below a newer push, the stale value shadows the newest write.
pub fn oldest_run_wins() {
    run_stack(true, false);
}

/// Known-bad variant: the writer folds the whole stack past
/// `MAX_RUNS`, as the store did before merges pinned their runs.
/// When a fold lands between a merge's snapshot and its republish,
/// the snapshotted runs are gone from the stack, the identity filter
/// finds none of them, and the fresh run that carries their entries
/// survives as residual: nothing is lost, and nothing is drained.
pub fn fold_across_the_cut() {
    run_stack(false, true);
}
