//! Serve-path observability: per-stage spans and event traces.
//!
//! This crate is the workspace's one answer to "what is the serving
//! stack doing right now?". It is built around two primitives and one
//! hub that bundles them per store/service. Counts are not among them:
//! each owner keeps its own as plain `u64`s where its writes already
//! serialize — a service shard's under its queue lock, a store shard's
//! in the immutable version its write lock publishes — so a read is
//! coherent by construction and costs no atomic.
//!
//! 1. **[`Stage`] spans** — a closed enum of serve-path pipeline
//!    stages (admission wait, plan, engine, writeback, commit, WAL
//!    append/fsync, merge, backpressure), each feeding a
//!    per-shard [`AtomicHist`] so any batch's latency decomposes into
//!    a per-stage breakdown.
//! 2. **[`TraceSet`] events** — bounded per-shard rings of `Copy`
//!    events with a global sequence order and a chrome://tracing
//!    exporter. Disabled tracing costs one relaxed atomic load and
//!    never allocates (pinned by `tests/alloc_disabled.rs`).
//!
//! Nothing here blocks the serve path. The crate depends only on
//! `isi_core` (for the log₂-bucket histogram), so every layer — store,
//! service, durability, bench — can adopt it without a dependency knot.

mod hist;
mod span;
mod trace;

pub use hist::AtomicHist;
pub use span::{now_ns, SpanTimer, Stage};
pub use trace::{chrome_trace_json, TraceEvent, TraceKind, TraceSet};

use isi_core::stats::LatencyHist;

/// One subsystem's observability bundle: a per-shard × per-[`Stage`]
/// histogram matrix (allocated up front so stage recording is
/// lock-free) and a [`TraceSet`].
pub struct Obs {
    stages: Vec<[AtomicHist; Stage::COUNT]>,
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

    /// Record one `stage` sample (nanoseconds) on `shard`. Lock-free,
    /// allocation-free.
    #[inline]
    pub fn record_stage(&self, shard: usize, stage: Stage, ns: u64) {
        self.stages[shard][stage.index()].record(ns);
    }

    /// Current distribution of one `(shard, stage)` cell.
    pub fn stage_hist(&self, shard: usize, stage: Stage) -> LatencyHist {
        self.stages[shard][stage.index()].snapshot()
    }

    /// Current distributions for every shard × stage.
    pub fn stage_breakdown(&self) -> Vec<[LatencyHist; Stage::COUNT]> {
        self.stages
            .iter()
            .map(|row| std::array::from_fn(|i| row[i].snapshot()))
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
