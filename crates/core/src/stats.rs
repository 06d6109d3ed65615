//! Lightweight cycle/throughput measurement helpers shared by the
//! benchmark harnesses.
//!
//! The paper reports *cycles per search* (Figures 3-7). We measure
//! wall-clock time with `std::time::Instant` and convert to cycles using a
//! calibrated estimate of the TSC frequency, so harness output is in the
//! paper's units. (Reading the TSC directly via `_rdtsc` is also supported
//! on x86-64 and is what the calibration uses.)

#![expect(unsafe_code, reason = "the RDTSC intrinsic")]

use std::time::{Duration, Instant};

/// Read the processor timestamp counter, or 0 on non-x86-64 targets.
#[inline]
pub fn rdtsc() -> u64 {
    // SAFETY: RDTSC reads the timestamp counter register; it touches
    // no memory and has no preconditions. (Gated off under Miri, which
    // does not implement the intrinsic — callers already handle the
    // 0 = "no TSC" case for non-x86-64 targets.)
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        0
    }
}

/// Estimate the TSC frequency in cycles per nanosecond by spinning for
/// `calib` wall time. Returns `None` where no TSC is available.
pub fn calibrate_tsc(calib: Duration) -> Option<f64> {
    let t0 = Instant::now();
    let c0 = rdtsc();
    if c0 == 0 {
        return None;
    }
    while t0.elapsed() < calib {
        std::hint::spin_loop();
    }
    let cycles = rdtsc().wrapping_sub(c0);
    let nanos = t0.elapsed().as_nanos() as f64;
    if nanos <= 0.0 || cycles == 0 {
        return None;
    }
    Some(cycles as f64 / nanos)
}

/// A wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed wall time.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Run `f` `reps` times and return the average per-rep duration, matching
/// the paper's "average runtime of 100 executions" methodology (§5.3).
pub fn time_avg<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    assert!(reps > 0, "need at least one repetition");
    let sw = Stopwatch::start();
    for _ in 0..reps {
        f();
    }
    sw.elapsed() / reps as u32
}

/// Number of log₂ buckets in a [`LatencyHist`]: bucket 0 holds the
/// value 0, bucket `i` (1..=64) holds values in `[2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

/// A log-bucketed latency histogram (nanosecond samples).
///
/// Power-of-two bucket boundaries give ≤ 2× relative quantile error
/// across the full `u64` range in a fixed 65-slot array — no
/// allocation on the record path, O(1) merge, and exact `min`/`max`/
/// `sum` on the side so means are not bucketed. This is the metrics
/// backbone of the serving layer (`isi_serve`), but has no dependency
/// on it: benches record into it directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Reassemble a histogram from externally maintained state: bucket
    /// counts plus the exact side stats. The total count is derived
    /// from the buckets, which is what keeps a *weakly consistent*
    /// reader (e.g. `isi_obs` snapshotting per-bucket atomics while
    /// writers race) internally coherent — quantile ranks are computed
    /// against exactly the bucket mass that was read. `min`/`max` use
    /// the empty-histogram sentinels (`u64::MAX` / `0`) when nothing
    /// was recorded.
    pub fn from_raw(counts: [u64; HIST_BUCKETS], sum: u64, min: u64, max: u64) -> Self {
        let count = counts.iter().sum();
        Self {
            counts,
            count,
            sum,
            min: if count == 0 { u64::MAX } else { min },
            max,
        }
    }

    /// The per-bucket counts (see [`Self::bucket_of`] for the layout).
    pub fn counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.counts
    }

    /// Sum of all recorded samples (saturating; exact, not bucketed).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`
    /// (so bucket `i` spans `[2^(i-1), 2^i)`).
    #[inline]
    pub fn bucket_of(sample: u64) -> usize {
        (64 - sample.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (`0` for bucket 0, else
    /// `2^i - 1`, saturating at `u64::MAX`).
    #[inline]
    pub fn bucket_upper(bucket: usize) -> u64 {
        match bucket {
            0 => 0,
            64.. => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    /// Record one sample (nanoseconds).
    #[inline]
    pub fn record(&mut self, sample: u64) {
        self.counts[Self::bucket_of(sample)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples, exact (from the running sum).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the inclusive upper bound of
    /// the first bucket whose cumulative count reaches `ceil(q·n)`,
    /// clamped to the exact observed `[min, max]`; `q = 0` returns the
    /// exact minimum. Returns 0 when empty.
    ///
    /// # Panics
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        if self.is_empty() {
            return 0;
        }
        if q == 0.0 {
            return self.min;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (see [`Self::quantile`]).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (see [`Self::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_something() {
        let sw = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(sw.elapsed() > Duration::ZERO);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn tsc_calibration_yields_plausible_frequency() {
        let ghz = calibrate_tsc(Duration::from_millis(10)).expect("x86-64 has a TSC");
        // Any real machine is between 0.5 and 6 GHz.
        assert!(ghz > 0.5 && ghz < 6.0, "implausible TSC frequency {ghz}");
    }

    #[test]
    fn hist_bucket_boundaries() {
        // Bucket 0: only the value 0. Bucket i: [2^(i-1), 2^i).
        assert_eq!(LatencyHist::bucket_of(0), 0);
        assert_eq!(LatencyHist::bucket_of(1), 1);
        assert_eq!(LatencyHist::bucket_of(2), 2);
        assert_eq!(LatencyHist::bucket_of(3), 2);
        assert_eq!(LatencyHist::bucket_of(4), 3);
        assert_eq!(LatencyHist::bucket_of(1023), 10);
        assert_eq!(LatencyHist::bucket_of(1024), 11);
        assert_eq!(LatencyHist::bucket_of(u64::MAX), 64);
        for i in 1..64usize {
            // Each bucket's upper bound lands back in the same bucket,
            // and upper+1 in the next.
            let hi = LatencyHist::bucket_upper(i);
            assert_eq!(LatencyHist::bucket_of(hi), i, "bucket {i}");
            assert_eq!(LatencyHist::bucket_of(hi + 1), i + 1, "bucket {i}");
        }
        assert_eq!(LatencyHist::bucket_upper(0), 0);
        assert_eq!(LatencyHist::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn hist_records_exact_side_stats() {
        let mut h = LatencyHist::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        for v in [100u64, 200, 300, 400] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 400);
        assert_eq!(h.mean(), 250.0);
    }

    #[test]
    fn hist_quantiles_respect_bucket_semantics() {
        let mut h = LatencyHist::new();
        // 90 samples in bucket [64, 128), 10 in bucket [1024, 2048).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        // p50 and p90 fall in the low bucket: upper bound 127.
        assert_eq!(h.p50(), 127);
        assert_eq!(h.quantile(0.90), 127);
        // p95/p99 fall in the high bucket, clamped to observed max.
        assert_eq!(h.p95(), 1500);
        assert_eq!(h.p99(), 1500);
        // Extremes clamp to exact observed min/max.
        assert_eq!(h.quantile(0.0), 100);
        assert_eq!(h.quantile(1.0), 1500);
    }

    #[test]
    fn hist_single_sample_quantiles_are_exact() {
        let mut h = LatencyHist::new();
        h.record(777);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 777, "q={q}");
        }
    }

    #[test]
    fn hist_merge_equals_combined_recording() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut combined = LatencyHist::new();
        for v in [1u64, 5, 9, 1000] {
            a.record(v);
            combined.record(v);
        }
        for v in [0u64, 70_000, 3] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        // Merging an empty histogram is the identity.
        a.merge(&LatencyHist::new());
        assert_eq!(a, combined);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn hist_rejects_out_of_range_quantile() {
        LatencyHist::new().quantile(1.5);
    }

    #[test]
    fn hist_from_raw_roundtrips() {
        let mut h = LatencyHist::new();
        for v in [0u64, 3, 100, 100, 70_000] {
            h.record(v);
        }
        let rebuilt = LatencyHist::from_raw(*h.counts(), h.sum(), h.min(), h.max());
        assert_eq!(rebuilt, h);
        // Empty raw state reports as a pristine empty histogram.
        let empty = LatencyHist::from_raw([0; HIST_BUCKETS], 0, 0, 0);
        assert_eq!(empty, LatencyHist::new());
        assert!(empty.is_empty());
    }
}
