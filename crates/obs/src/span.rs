//! Stage identifiers and cheap span timing for the serve path.
//!
//! Every batch that flows through the service crosses a fixed set of
//! pipeline stages (admission queue → plan → engine → writeback →
//! commit, with WAL and merge work hanging off the write side). The
//! [`Stage`] enum names them once, so the store and the service that
//! record a stage and the `serve` example's stage table all agree on
//! the same spelling — a typo'd stage string cannot silently create an
//! extra histogram.
//!
//! [`SpanTimer`] is deliberately thin: capture a start timestamp,
//! subtract later. The timestamp comes from [`now_ns`], a monotonic
//! nanosecond clock anchored at the first call so values fit
//! comfortably in `u64` and align with trace-event timestamps.

use std::sync::OnceLock;
use std::time::Instant;

/// A named pipeline stage on the serve path. The discriminant is the
/// index into per-shard stage-histogram arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Queue residency: enqueue until the shard's runner (a caller or
    /// the helper) drains the entry into a batch.
    AdmissionWait,
    /// Delta-overlay planning: classifying batch keys as
    /// delta-decided vs. residual (`BatchPlan::resolve`).
    Plan,
    /// Interleaved engine probe of the residual keys against the main
    /// backend.
    Engine,
    /// Applying a run of writes to the delta (including WAL append +
    /// backpressure inside the store write path).
    Writeback,
    /// Fulfilling tickets and publishing per-entry stats for one
    /// drained batch (the runner's cost after lookups return).
    Commit,
    /// Serializing + appending one write run's WAL record.
    WalAppend,
    /// The fsync (or group-commit sync) making a WAL record durable.
    WalFsync,
    /// One shard merge on the store's merger thread, minor (run stack
    /// → mid tier) or major (mid tier + main → rebuilt main).
    Merge,
    /// Producer-side stall waiting for admission-queue or delta
    /// capacity.
    Backpressure,
}

impl Stage {
    /// Number of stages (length of [`Stage::ALL`]).
    pub const COUNT: usize = 9;

    /// Every stage, in discriminant order.
    pub const ALL: [Stage; Self::COUNT] = [
        Stage::AdmissionWait,
        Stage::Plan,
        Stage::Engine,
        Stage::Writeback,
        Stage::Commit,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::Merge,
        Stage::Backpressure,
    ];

    /// Index into a per-shard stage array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable snake_case name, as stage tables print it.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AdmissionWait => "admission_wait",
            Stage::Plan => "plan",
            Stage::Engine => "engine",
            Stage::Writeback => "writeback",
            Stage::Commit => "commit",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::Merge => "merge",
            Stage::Backpressure => "backpressure",
        }
    }
}

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process-wide anchor (the first
/// call into this clock). All spans and trace events share this
/// timebase, so exported timelines line up across shards and threads.
#[inline]
pub(crate) fn now_ns() -> u64 {
    anchor().elapsed().as_nanos() as u64
}

/// A started span: a captured timestamp on the process-wide
/// monotonic nanosecond clock.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    start_ns: u64,
}

impl SpanTimer {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        Self { start_ns: now_ns() }
    }

    /// When the span started, on the process-wide monotonic clock.
    #[inline]
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Nanoseconds elapsed since [`SpanTimer::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.start_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_roundtrip_and_are_unique() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn timer_is_monotonic() {
        let t = SpanTimer::start();
        let a = t.elapsed_ns();
        std::hint::black_box((0..1000).sum::<u64>());
        let b = t.elapsed_ns();
        assert!(b >= a);
        assert!(now_ns() >= t.start_ns());
    }
}
