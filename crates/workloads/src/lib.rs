//! # isi-workloads — data and workload generators
//!
//! Reproduces the paper's experimental inputs (Section 5.3):
//!
//! * **Sorted arrays** whose values are derived from the array index —
//!   integers are the indices themselves, strings are 15-character
//!   renderings of the index ([`int_array`], [`string_array`]).
//! * **Lookup lists**: uniform random subsets of the array values,
//!   generated from a fixed seed (the paper uses `std::mt19937` with
//!   seed 0; any deterministic uniform source plays the same role), with
//!   an optionally sorted variant for the temporal-locality experiment
//!   of Figure 4 ([`uniform_lookups`], [`sorted_lookups`]).
//! * **Skewed lookups** (Zipf) for robustness experiments beyond the
//!   paper ([`zipf_lookups`]).
//! * **IN-predicate lists** in the style of TPC-DS Q8's 400 zip codes
//!   ([`tpcds_q8_zipcodes`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use isi_search::key::Str16;

/// The fixed seed used throughout the evaluation (the paper seeds
/// `std::mt19937` with 0).
pub const SEED: u64 = 0;

/// One step of xorshift64 (shifts 13, 7, 17): advances `state`, which
/// must be non-zero, and returns it. The figure binaries and examples
/// draw rows and fresh lookup values from it, one seed per call site.
#[inline]
pub fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Number of `u32` elements that make a sorted array of `mb` megabytes.
pub fn ints_for_mb(mb: usize) -> usize {
    mb * (1 << 20) / std::mem::size_of::<u32>()
}

/// Number of `Str16` elements that make a sorted array of `mb` megabytes.
pub fn strings_for_mb(mb: usize) -> usize {
    mb * (1 << 20) / std::mem::size_of::<Str16>()
}

/// Sorted integer array: value = index (paper §5.3).
pub fn int_array(len: usize) -> Vec<u32> {
    (0..len as u32).collect()
}

/// Sorted string array: value = 15-character rendering of the index.
pub fn string_array(len: usize) -> Vec<Str16> {
    (0..len as u64).map(Str16::from_index).collect()
}

/// `count` uniform lookup indices in `[0, len)`, deterministic in `seed`.
pub fn uniform_indices(len: usize, count: usize, seed: u64) -> Vec<usize> {
    assert!(len > 0, "cannot sample from an empty array");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(0..len)).collect()
}

/// Uniform lookup *values* for an index-derived integer array: the
/// lookup list is a subset of the array values (paper §5.3).
pub fn uniform_lookups(len: usize, count: usize) -> Vec<u32> {
    uniform_indices(len, count, SEED)
        .into_iter()
        .map(|i| i as u32)
        .collect()
}

/// Uniform string lookups (values present in [`string_array`]).
pub fn uniform_string_lookups(len: usize, count: usize) -> Vec<Str16> {
    uniform_indices(len, count, SEED)
        .into_iter()
        .map(|i| Str16::from_index(i as u64))
        .collect()
}

/// The Figure 4 variant: the same lookup list, sorted ascending
/// ("sorting small lists is a cheap operation, and thus a valid
/// preprocessing step").
pub fn sorted_lookups(len: usize, count: usize) -> Vec<u32> {
    let mut v = uniform_lookups(len, count);
    v.sort_unstable();
    v
}

/// Zipf-distributed lookup indices with exponent `theta` in `[0, 1)`
/// (0 = uniform; 0.99 = heavily skewed), after Gray et al.'s quick Zipf
/// sampler ("Quickly generating billion-record synthetic databases",
/// SIGMOD 1994).
pub fn zipf_lookups(len: usize, count: usize, theta: f64, seed: u64) -> Vec<u32> {
    assert!(len > 0, "cannot sample from an empty array");
    assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = len as f64;
    let zetan: f64 = if len <= 1_000_000 {
        (1..=len).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        // Integral approximation of the generalized harmonic for large n.
        (n.powf(1.0 - theta) - 1.0) / (1.0 - theta) + 0.577 + 0.5
    };
    let alpha = 1.0 / (1.0 - theta);
    let eta =
        (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - (1.0 / zetan) * (1.0 + 0.5f64.powf(theta)));
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            let uz = u * zetan;
            let v = if uz < 1.0 {
                0.0
            } else if uz < 1.0 + 0.5f64.powf(theta) {
                1.0
            } else {
                (n * (eta * u - eta + 1.0).powf(alpha)).floor()
            };
            (v as usize).min(len - 1) as u32
        })
        .collect()
}

/// A TPC-DS-Q8-flavoured IN list: `count` distinct 5-digit zip codes as
/// strings (Q8 uses 400 of them).
pub fn tpcds_q8_zipcodes(count: usize, seed: u64) -> Vec<Str16> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < count.min(90_000) {
        let zip: u32 = rng.gen_range(10_000..100_000);
        seen.insert(zip);
    }
    seen.iter()
        .map(|z| Str16::from_str_lossy(&z.to_string()))
        .collect()
}

/// Deterministic pseudo-random permutation of `0..len` (used to build
/// *unsorted* Delta dictionaries whose insertion order is shuffled).
pub fn shuffled_indices(len: usize, seed: u64) -> Vec<u32> {
    let mut v: Vec<u32> = (0..len as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fisher-Yates.
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_helpers() {
        assert_eq!(ints_for_mb(1), 262_144);
        assert_eq!(strings_for_mb(1), 65_536);
    }

    #[test]
    fn arrays_are_sorted_and_index_derived() {
        let a = int_array(1000);
        assert_eq!(a[0], 0);
        assert_eq!(a[999], 999);
        let s = string_array(100);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s[42], Str16::from_index(42));
    }

    #[test]
    fn lookups_are_deterministic_and_in_range() {
        let a = uniform_lookups(10_000, 500);
        let b = uniform_lookups(10_000, 500);
        assert_eq!(a, b, "same seed, same list");
        assert!(a.iter().all(|&v| (v as usize) < 10_000));
        // Different seeds differ.
        let c = uniform_indices(10_000, 500, 1);
        assert_ne!(a.iter().map(|&x| x as usize).collect::<Vec<_>>(), c);
    }

    #[test]
    fn sorted_variant_is_sorted_same_multiset() {
        let plain = uniform_lookups(5_000, 300);
        let sorted = sorted_lookups(5_000, 300);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut p = plain;
        p.sort_unstable();
        assert_eq!(p, sorted);
    }

    #[test]
    fn zipf_is_skewed_and_uniform_at_zero() {
        let len = 10_000;
        let skewed = zipf_lookups(len, 20_000, 0.99, 7);
        let head = skewed.iter().filter(|&&v| (v as usize) < len / 100).count();
        assert!(
            head > 20_000 / 4,
            "top 1% should draw >25% of skewed lookups, got {head}"
        );
        let uniform = zipf_lookups(len, 20_000, 0.0, 7);
        let head_u = uniform
            .iter()
            .filter(|&&v| (v as usize) < len / 100)
            .count();
        assert!(head_u < 20_000 / 20, "uniform head too heavy: {head_u}");
        assert!(uniform.iter().all(|&v| (v as usize) < len));
    }

    #[test]
    fn zipcodes_are_distinct_five_digit() {
        let zips = tpcds_q8_zipcodes(400, 3);
        assert_eq!(zips.len(), 400);
        let set: std::collections::BTreeSet<_> = zips.iter().collect();
        assert_eq!(set.len(), 400, "distinct");
        for z in &zips {
            let txt = z.to_string();
            assert_eq!(txt.len(), 5);
            assert!(txt.chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let p = shuffled_indices(1000, 9);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        assert_ne!(p, (0..1000).collect::<Vec<u32>>(), "actually shuffled");
        assert_eq!(p, shuffled_indices(1000, 9), "deterministic");
    }

    #[test]
    #[should_panic(expected = "empty array")]
    fn sampling_empty_panics() {
        uniform_indices(0, 1, 0);
    }

    #[test]
    fn every_generator_is_deterministic_across_calls() {
        // The paper seeds mt19937 with 0 so experiments are replayable;
        // every generator here must likewise yield identical output on
        // repeated calls with the same explicit seed.
        assert_eq!(
            uniform_indices(8_192, 1_000, SEED),
            uniform_indices(8_192, 1_000, SEED)
        );
        assert_eq!(uniform_lookups(8_192, 1_000), uniform_lookups(8_192, 1_000));
        assert_eq!(
            uniform_string_lookups(4_096, 500),
            uniform_string_lookups(4_096, 500)
        );
        assert_eq!(sorted_lookups(8_192, 1_000), sorted_lookups(8_192, 1_000));
        assert_eq!(
            zipf_lookups(8_192, 1_000, 0.99, SEED),
            zipf_lookups(8_192, 1_000, 0.99, SEED)
        );
        assert_eq!(tpcds_q8_zipcodes(400, SEED), tpcds_q8_zipcodes(400, SEED));
        assert_eq!(shuffled_indices(4_096, SEED), shuffled_indices(4_096, SEED));

        // And a different seed must actually change the stream.
        assert_ne!(
            uniform_indices(8_192, 1_000, SEED),
            uniform_indices(8_192, 1_000, SEED + 1)
        );
    }
}
