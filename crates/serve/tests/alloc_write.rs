//! Steady-state allocation discipline of the store's write path.
//!
//! A dispatched write run should cost a small, constant number of
//! heap allocations: the run buffer, its published `Arc` run, the
//! cloned run-list and the new `ShardVersion` — never anything
//! proportional to the delta's size (the old clone-the-whole-delta
//! write path) and never fresh per-shard grouping buffers (the old
//! `vec![Vec::new(); num_shards]` in `apply_write_run`). This test
//! pins both with a counting global allocator (per thread, shared
//! with `isi_obs`'s tests): per-run allocations are bounded by a
//! small constant and do not grow as the delta accumulates hundreds
//! of runs.

use isi_serve::{Backend, ShardedStore, StoreConfig, WriteScratch};

#[path = "../../obs/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::count_allocs;

/// Write-run cost per shard sub-run: the run `Vec`, its `Arc` run,
/// the cloned run-list `Vec`, the `ShardVersion` `Arc`, plus slack
/// for allocator-internal bookkeeping.
const PER_SUB_RUN: u64 = 8;

/// Apply `n_runs` runs of `ops_per_run` distinct-key ops each through
/// a reusable scratch, returning the allocation count.
fn run_block(
    store: &ShardedStore,
    scratch: &mut WriteScratch,
    prevs: &mut Vec<Option<u64>>,
    key_base: u64,
    n_runs: u64,
    ops_per_run: u64,
) -> u64 {
    // Op buffers are prepared outside the counted section: the cost
    // under test is the store's, not the test harness's.
    let runs: Vec<Vec<(u64, Option<u64>)>> = (0..n_runs)
        .map(|r| {
            (0..ops_per_run)
                .map(|i| (key_base + r * ops_per_run + i, Some(r * 1_000 + i)))
                .collect()
        })
        .collect();
    let (allocs, _, ()) = count_allocs(|| {
        for ops in &runs {
            store.apply_write_run_with(ops, prevs, scratch);
        }
    });
    allocs
}

/// Per-run allocations are a small constant — independent of how many
/// runs the delta has already stacked (the old write path cloned the
/// whole delta per run) and free of per-call grouping buffers (the
/// reusable `WriteScratch`).
#[test]
fn write_runs_allocate_a_small_constant() {
    // The huge threshold and unbounded run stack mean no merges and
    // no folds — pure run-publish cost, all of it on this thread,
    // where it is counted.
    let cfg = StoreConfig::with_threshold(1 << 20).with_max_runs(usize::MAX);
    let store = ShardedStore::build_with(Backend::Sorted, 1, &[], cfg);
    let mut scratch = WriteScratch::default();
    let mut prevs = Vec::new();

    // Warm up: establishes the scratch's shard buckets and `prevs`.
    run_block(&store, &mut scratch, &mut prevs, 0, 8, 8);

    let early = run_block(&store, &mut scratch, &mut prevs, 1_000_000, 64, 8);
    assert!(
        early <= 64 * PER_SUB_RUN,
        "64 single-shard runs took {early} allocations \
         (> {PER_SUB_RUN} per run): write dispatch is not \
         allocation-disciplined"
    );

    // Stack up several hundred more runs, then measure again: the
    // per-run cost must not have grown with the delta (the clone-on-
    // write delta would now copy hundreds of runs' entries per write;
    // an entry-cloning regression would also show up as realloc
    // traffic).
    run_block(&store, &mut scratch, &mut prevs, 2_000_000, 400, 8);
    let late = run_block(&store, &mut scratch, &mut prevs, 3_000_000, 64, 8);
    assert!(
        late <= 64 * PER_SUB_RUN,
        "after 400 stacked runs, 64 runs took {late} allocations: \
         per-run cost grew with delta size"
    );

    store.quiesce();
    assert_eq!(store.len(), (8 + 64 + 400 + 64) * 8);
}

/// Multi-shard grouping through the scratch adds no per-call buffers:
/// runs spanning 8 shards stay within the per-sub-run budget.
#[test]
fn grouping_scratch_is_reused_across_shards() {
    let cfg = StoreConfig::with_threshold(1 << 20).with_max_runs(usize::MAX);
    let store = ShardedStore::build_with(Backend::Sorted, 8, &[], cfg);
    let mut scratch = WriteScratch::default();
    let mut prevs = Vec::new();

    run_block(&store, &mut scratch, &mut prevs, 0, 8, 16);
    let allocs = run_block(&store, &mut scratch, &mut prevs, 1_000_000, 64, 16);
    // 16 ops scatter over at most 8 sub-runs per call.
    assert!(
        allocs <= 64 * 8 * PER_SUB_RUN,
        "64 eight-shard runs took {allocs} allocations: the grouping \
         scratch is not being reused"
    );
}
