//! Fixed-size latency histogram and the order statistics the
//! benchmark reports.

/// Sub-buckets per power of two: bucket width is 1/128 of its lower
/// bound, and quantiles interpolate inside the bucket.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const OCTAVES: usize = 64 - SUB_BITS as usize;

/// Log-linear histogram of nanosecond samples. Its size is fixed, so
/// the benchmark's memory — and with it `peak_rss_mib` — does not
/// depend on how many calls a faster commit completes.
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; SUB * (OCTAVES + 1)],
            total: 0,
        }
    }
}

impl Hist {
    /// Bucket of `ns`: values below 128 get a bucket each; above, the
    /// top 7 bits after the leading one select the sub-bucket.
    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() - SUB_BITS;
        let sub = (ns >> octave) as usize & (SUB - 1);
        (octave as usize + 1) * SUB + sub
    }

    /// Lower bound and width of bucket `b`.
    fn bounds(b: usize) -> (u64, u64) {
        if b < SUB {
            return (b as u64, 1);
        }
        let octave = (b / SUB - 1) as u32;
        let lo = ((SUB + b % SUB) as u64) << octave;
        (lo, 1 << octave)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside
    /// its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 >= rank {
                let (lo, width) = Self::bounds(b);
                return lo as f64 + width as f64 * ((rank - seen) / c as f64);
            }
            seen += c as f64;
        }
        unreachable!("rank within total")
    }
}

/// Median of `values` (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them, so `repeat` judges spread exactly as the driver does.
///
/// # Panics
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for ns in [
            0,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            1_234_567,
            u64::MAX / 2,
        ] {
            let (lo, width) = Hist::bounds(Hist::bucket(ns));
            assert!(lo <= ns && ns - lo < width, "{ns} in [{lo}, +{width})");
            assert!(width as f64 <= (lo as f64 / 128.0).max(1.0));
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Hist::default();
        let samples: Vec<u64> = (1..=10_000u64).map(|i| i * 137).collect();
        for &s in &samples {
            h.record(s);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = samples[(q * samples.len() as f64) as usize - 1] as f64;
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 0.01, "q{q}: {got} vs {exact}");
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), (1.5, 8.5));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
