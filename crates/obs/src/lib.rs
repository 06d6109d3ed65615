//! Serve-path observability: metrics, per-stage spans, event traces.
//!
//! This crate is the workspace's one answer to "what is the serving
//! stack doing right now?", replacing the ad-hoc `ServeStats`
//! field-by-field atomic plumbing that preceded it. It is built
//! around three primitives and one hub that bundles them per
//! store/service:
//!
//! 1. **[`Registry`]** — named counters/gauges/histograms registered
//!    once at build time; the returned handles are single-atomic-RMW
//!    on the hot path. Snapshots are taken in registration order with
//!    `Acquire` loads, which (paired with `Release` increments) lets
//!    writers export pairwise invariants like `wal_syncs ≤
//!    wal_records` that hold in *every* snapshot — see the
//!    [`registry`] module docs for the exact contract.
//! 2. **[`Stage`] spans** — a closed enum of serve-path pipeline
//!    stages (admission wait, plan, engine, writeback, commit, WAL
//!    append/fsync, merge, backpressure), each feeding a
//!    per-shard [`AtomicHist`] so any batch's latency decomposes into
//!    a per-stage breakdown.
//! 3. **[`TraceSet`] events** — bounded per-shard rings of `Copy`
//!    events with a global sequence order and a chrome://tracing
//!    exporter. Disabled tracing costs one relaxed atomic load and
//!    never allocates (pinned by `tests/alloc_disabled.rs`).
//!
//! Nothing here blocks the serve path: registration is the only
//! locking operation, and it happens at construction. The crate
//! depends only on `isi_core` (for the log₂-bucket histogram), so
//! every layer — store, service, durability, bench — can adopt it
//! without a dependency knot.

pub mod hist;
pub mod registry;
pub mod span;
pub mod trace;

pub use hist::AtomicHist;
pub use registry::{Counter, Gauge, Hist, Registry, Sample, Snapshot, Value};
pub use span::{now_ns, SpanTimer, Stage};
pub use trace::{chrome_trace_json, TraceEvent, TraceKind, TraceSet};

use isi_core::stats::LatencyHist;

/// One subsystem's observability bundle: a [`Registry`], a per-shard
/// × per-[`Stage`] histogram matrix (pre-registered so stage
/// recording is lock-free), and a [`TraceSet`].
///
/// The `prefix` namespaces metric names (`{prefix}_stage_ns`, and by
/// convention every metric the owner registers), so a store-owned and
/// a service-owned `Obs` can be merged into one exposition without
/// collisions.
pub struct Obs {
    registry: Registry,
    stages: Vec<[Hist; Stage::COUNT]>,
    trace: TraceSet,
}

impl Obs {
    /// Build a bundle for `shards` shards, pre-registering the full
    /// stage-histogram matrix as `{prefix}_stage_ns{shard=,stage=}`.
    pub fn new(prefix: &str, shards: usize) -> Self {
        let registry = Registry::new();
        let name = format!("{prefix}_stage_ns");
        let stages = (0..shards)
            .map(|s| {
                let shard = s.to_string();
                std::array::from_fn(|i| {
                    registry.hist(&name, &[("shard", &shard), ("stage", Stage::ALL[i].name())])
                })
            })
            .collect();
        Self {
            registry,
            stages,
            trace: TraceSet::new(shards),
        }
    }

    /// The metric registry, for the owner to register its counters
    /// and for exporters to snapshot.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// How many shards the stage matrix and trace rings cover.
    pub fn num_shards(&self) -> usize {
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

    /// Snapshot the registry (stage histograms included, since they
    /// are registered metrics).
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_matrix_is_preregistered_and_records() {
        let obs = Obs::new("test", 2);
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
        // The matrix doubles as registered metrics.
        let snap = obs.snapshot();
        let merged = snap.hist_merged("test_stage_ns", |s| s.label("stage") == Some("plan"));
        assert_eq!(merged.count(), 2);
    }

    #[test]
    fn owner_metrics_share_the_registry() {
        let obs = Obs::new("test", 1);
        let c = obs.registry().counter("test_requests", &[("shard", "0")]);
        c.add(4);
        assert_eq!(obs.snapshot().counter_sum("test_requests"), 4);
    }

    #[test]
    fn trace_is_off_by_default() {
        let obs = Obs::new("test", 1);
        assert!(!obs.trace().is_enabled());
        obs.trace().emit_now(0, TraceKind::BatchFlush, 1, 0);
        assert!(obs.trace().events().is_empty());
        obs.trace().enable(16);
        obs.trace().emit_now(0, TraceKind::BatchFlush, 1, 0);
        assert_eq!(obs.trace().events().len(), 1);
    }
}
