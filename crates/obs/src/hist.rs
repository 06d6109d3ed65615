//! [`AtomicHist`]: the shareable, lock-free flavor of
//! [`isi_core::stats::LatencyHist`].
//!
//! The core histogram takes `&mut self` to record — perfect for a
//! single owner, useless for a metric that several threads (a
//! shard's runner, the merger, the write path) bump concurrently. This variant
//! keeps the same 65 log₂ buckets but makes every field an atomic:
//! recording is two relaxed/release RMWs (plus one for a sample that
//! extends the min/max range) with no lock and no allocation, and a
//! reader reassembles a plain `LatencyHist` from a weakly consistent
//! sweep of the buckets.
//!
//! **Snapshot consistency.** A snapshot taken while writers race may
//! miss a racing sample's side stats (`sum`/`min`/`max`) relative to
//! its bucket or vice versa; what it cannot do is tear a single
//! counter. [`LatencyHist::from_raw`] derives the total count from the
//! bucket sweep itself, so quantile ranks are always computed against
//! exactly the mass that was read — the snapshot is internally
//! coherent even when it is momentarily behind.

use std::sync::atomic::{AtomicU64, Ordering};

use isi_core::stats::{LatencyHist, HIST_BUCKETS};

/// A log₂-bucketed latency histogram recordable from any thread.
pub struct AtomicHist {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    /// `u64::MAX` = nothing recorded (the empty sentinel of the core
    /// histogram).
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHist {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (nanoseconds). Lock-free and allocation-free;
    /// the bucket bump is `Release` so a snapshot that observes it
    /// also observes everything the recording thread did before it
    /// (a snapshot's bucket loads are `Acquire`).
    /// Unlike the core histogram's saturating sum, the atomic sum
    /// wraps — irrelevant for nanosecond latencies (2⁶⁴ ns ≈ 584
    /// years) and far cheaper than a CAS loop on the hot path.
    ///
    /// `min` only falls and `max` only rises, so a sample inside the
    /// range a load returns is inside the current range too: the
    /// read-modify-write (a CAS loop on x86) runs only for a sample
    /// that extends the range.
    #[inline]
    pub fn record(&self, sample: u64) {
        self.buckets[LatencyHist::bucket_of(sample)].fetch_add(1, Ordering::Release);
        self.sum.fetch_add(sample, Ordering::Relaxed);
        if sample < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(sample, Ordering::Relaxed);
        }
        if sample > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(sample, Ordering::Relaxed);
        }
    }

    /// Total samples recorded (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Acquire)).sum()
    }

    /// Reassemble a [`LatencyHist`] from the current state. Weakly
    /// consistent under concurrent recording (see the module docs);
    /// exact once writers are quiescent.
    pub fn snapshot(&self) -> LatencyHist {
        let counts = std::array::from_fn(|i| self.buckets[i].load(Ordering::Acquire));
        LatencyHist::from_raw(
            counts,
            self.sum.load(Ordering::Relaxed),
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_matches_sequential_oracle() {
        let h = AtomicHist::new();
        let mut oracle = LatencyHist::new();
        for v in [0u64, 1, 99, 1500, 1500, 70_000, 1 << 40] {
            h.record(v);
            oracle.record(v);
        }
        assert_eq!(h.snapshot(), oracle);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn empty_snapshot_is_the_empty_histogram() {
        let h = AtomicHist::new();
        let snap = h.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap, LatencyHist::new());
    }

    #[test]
    fn concurrent_recording_loses_nothing_once_quiescent() {
        let h = AtomicHist::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 3999);
        assert_eq!(snap.sum(), (0..4000u64).sum::<u64>());
    }
}
