//! Serve-path observability: per-stage spans and event traces.
//!
//! This crate is the workspace's one answer to "what is the serving
//! stack doing right now?". It is built around one hub, [`Obs`], that
//! bundles per-shard stage histograms with a [`TraceSet`] per
//! store/service. Counts are not in it: each owner keeps its own as
//! plain `u64`s where its writes already serialize — a service
//! shard's under its queue lock, a store shard's in the immutable
//! version its write lock publishes — so a read is coherent by
//! construction and costs no atomic.
//!
//! 1. **[`Stage`] spans** — a closed enum of serve-path pipeline
//!    stages (admission wait, plan, engine, writeback, commit, WAL
//!    append/fsync, merge, backpressure), each feeding a per-shard
//!    [`LatencyHist`] under its own lock, so any batch's latency
//!    decomposes into a per-stage breakdown and a snapshot is exact.
//! 2. **[`TraceSet`] events** — bounded per-shard rings of `Copy`
//!    events with a global sequence order and a chrome://tracing
//!    exporter. Disabled tracing costs one relaxed atomic load and
//!    never allocates (pinned by `tests/alloc_disabled.rs`).
//!
//! Nothing here allocates on the serve path. The crate depends only
//! on `isi_core` (for the log₂-bucket histogram and the poison-aware
//! lock), so every layer — store, service, durability, bench — can
//! adopt it without a dependency knot.

mod span;
mod trace;

pub use span::{now_ns, SpanTimer, Stage};
pub use trace::{chrome_trace_json, TraceEvent, TraceKind, TraceSet};

use std::sync::Mutex;

use isi_core::stats::LatencyHist;
use isi_core::sync::MutexExt;

/// One subsystem's observability bundle: a per-shard × per-[`Stage`]
/// histogram matrix (allocated up front, so recording never
/// allocates) and a [`TraceSet`].
///
/// Each `(shard, stage)` cell is a [`LatencyHist`] behind its own
/// mutex. A cell lock is a leaf: nothing else is locked or called
/// while it is held. So a caller may record while it holds its own
/// locks (the service's queue lock, the store's shard write lock), and
/// no reader takes those inside a cell lock.
pub struct Obs {
    stages: Vec<[Mutex<LatencyHist>; Stage::COUNT]>,
    trace: TraceSet,
}

impl Obs {
    /// Build a bundle for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            stages: (0..shards).map(|_| Default::default()).collect(),
            trace: TraceSet::new(shards),
        }
    }

    /// How many shards the stage matrix and trace rings cover.
    #[cfg(test)]
    pub(crate) fn num_shards(&self) -> usize {
        self.stages.len()
    }

    fn cell(&self, shard: usize, stage: Stage) -> &Mutex<LatencyHist> {
        &self.stages[shard][stage.index()]
    }

    /// Record one `stage` sample (nanoseconds) on `shard`: one
    /// uncontended lock of the cell, no allocation.
    #[inline]
    pub fn record_stage(&self, shard: usize, stage: Stage, ns: u64) {
        self.cell(shard, stage).plock("obs stage cell").record(ns);
    }

    /// Current distribution of one `(shard, stage)` cell.
    pub fn stage_hist(&self, shard: usize, stage: Stage) -> LatencyHist {
        self.cell(shard, stage).plock("obs stage cell").clone()
    }

    /// Current distributions for every shard × stage, each cell copied
    /// under its own lock.
    pub fn stage_breakdown(&self) -> Vec<[LatencyHist; Stage::COUNT]> {
        self.stages
            .iter()
            .map(|row| std::array::from_fn(|i| row[i].plock("obs stage cell").clone()))
            .collect()
    }

    /// The event-trace rings.
    pub fn trace(&self) -> &TraceSet {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_matrix_is_preregistered_and_records() {
        let obs = Obs::new(2);
        assert_eq!(obs.num_shards(), 2);
        obs.record_stage(0, Stage::Plan, 100);
        obs.record_stage(0, Stage::Plan, 300);
        obs.record_stage(1, Stage::Engine, 50);
        assert_eq!(obs.stage_hist(0, Stage::Plan).count(), 2);
        assert_eq!(obs.stage_hist(0, Stage::Engine).count(), 0);
        let rows = obs.stage_breakdown();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][Stage::Plan.index()].sum(), 400);
        assert_eq!(rows[1][Stage::Engine.index()].count(), 1);
    }

    #[test]
    fn trace_is_off_by_default() {
        let obs = Obs::new(1);
        assert!(!obs.trace().is_enabled());
        obs.trace().emit_now(0, TraceKind::BatchFlush, 1, 0);
        assert!(obs.trace().events().is_empty());
        obs.trace().enable(16);
        obs.trace().emit_now(0, TraceKind::BatchFlush, 1, 0);
        assert_eq!(obs.trace().events().len(), 1);
    }
}
