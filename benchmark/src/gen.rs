//! Seeded inputs and the arithmetic oracle.
//!
//! Stored key `i` is `i·2^20 + (mix(i) mod 2^20)` and its value is
//! `mix(key)`, so membership and the expected value of any key are
//! O(1) arithmetic: the oracle needs no second index that could share
//! a bug with the store under test. A miss key is a stored key with
//! its low bit flipped: same `i`, different low 20 bits, hence never
//! stored.
//!
//! The stored pairs do not depend on the seed; the request streams do.
//! Shard sizes decide which buffers double once more while building,
//! so seeded pairs made peak memory a coin toss on the seed (226 or
//! 256 MiB for 2^22 pairs).

use std::collections::HashMap;

const LOW_BITS: u32 = 20;
const LOW_MASK: u64 = (1 << LOW_BITS) - 1;

/// splitmix64's finalizer: a bijection on `u64` that avalanches.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// splitmix64 stream. The vendored `rand` is a stand-in, so the
/// benchmark owns its generator: the same seed gives the same inputs
/// on every commit.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias of at most `n/2^64`
    /// is far below anything a run can resolve).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The stored pairs, as arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    pairs: u64,
}

impl Dataset {
    /// # Panics
    /// Panics unless `pairs` leaves room for the 20 low bits.
    pub fn new(pairs: u64) -> Self {
        assert!(pairs > 0 && pairs <= 1 << 40);
        Self { pairs }
    }

    pub fn len(&self) -> u64 {
        self.pairs
    }

    /// Stored key number `i` (ascending in `i`).
    #[inline]
    pub fn key(&self, i: u64) -> u64 {
        debug_assert!(i < self.pairs);
        (i << LOW_BITS) | (mix(i) & LOW_MASK)
    }

    /// The value stored under `key` at build time.
    #[inline]
    pub fn value(&self, key: u64) -> u64 {
        mix(key)
    }

    /// A key that is never stored, next to stored key `i`.
    #[inline]
    pub fn miss_key(&self, i: u64) -> u64 {
        self.key(i) ^ 1
    }

    /// The oracle: what a store built from [`pairs`](Self::pairs) and
    /// never written to holds under `key`.
    #[inline]
    pub fn lookup(&self, key: u64) -> Option<u64> {
        let i = key >> LOW_BITS;
        (i < self.pairs && self.key(i) == key).then(|| self.value(key))
    }

    /// Every stored pair, sorted by key.
    pub fn pairs(&self) -> Vec<(u64, u64)> {
        (0..self.pairs)
            .map(|i| {
                let k = self.key(i);
                (k, self.value(k))
            })
            .collect()
    }

    /// One uniform draw: a stored key 7 times in 8, else a miss key.
    fn draw(&self, rng: &mut Rng) -> u64 {
        let i = rng.below(self.pairs);
        if rng.next_u64() & 7 == 0 {
            self.miss_key(i)
        } else {
            self.key(i)
        }
    }
}

/// `count` uniform keys, 7/8 of them stored.
pub fn uniform_keys(ds: &Dataset, count: usize, rng: &mut Rng) -> Vec<u64> {
    (0..count).map(|_| ds.draw(rng)).collect()
}

/// `count` keys drawn uniformly from a fixed set of `hot` uniform keys
/// (so the hit ratio matches [`uniform_keys`] and only locality
/// differs).
pub fn hot_keys(ds: &Dataset, hot: usize, count: usize, rng: &mut Rng) -> Vec<u64> {
    let set = uniform_keys(ds, hot, rng);
    (0..count)
        .map(|_| set[rng.below(hot as u64) as usize])
        .collect()
}

/// `count` stored keys with Zipf(`theta`) popularity. Rank `r` maps to
/// stored key `(r·odd + offset) mod len` — a bijection on a
/// power-of-two `len` — so popular keys are scattered over the key
/// space instead of clustered at its start.
pub fn zipf_keys(ds: &Dataset, count: usize, theta: f64, seed: u64) -> Vec<u64> {
    let len = usize::try_from(ds.len()).expect("dataset fits usize");
    assert!(
        len.is_power_of_two(),
        "the rank scatter needs a power of two"
    );
    assert!(u32::try_from(len - 1).is_ok(), "zipf ranks are u32");
    let offset = mix(seed);
    isi_workloads::zipf_lookups(len, count, theta, seed)
        .into_iter()
        .map(|r| {
            let i = u64::from(r)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(offset)
                & (ds.len() - 1);
            ds.key(i)
        })
        .collect()
}

/// One single-key request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64, u64),
    Remove(u64),
}

impl Op {
    pub fn is_write(&self) -> bool {
        !matches!(self, Op::Get(_))
    }
}

/// `count` ops over uniform keys: 50 % get, 40 % put, 10 % remove
/// (YCSB-A-shaped, with deletes).
pub fn mixed_ops(ds: &Dataset, count: usize, rng: &mut Rng) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let key = ds.draw(rng);
            match rng.below(10) {
                0..=4 => Op::Get(key),
                5..=8 => Op::Put(key, rng.next_u64()),
                _ => Op::Remove(key),
            }
        })
        .collect()
}

/// The dataset plus the one client's own writes. With a single
/// closed-loop client read-your-writes is exact, so this overlay is
/// the full expected state of the store.
pub struct Oracle {
    ds: Dataset,
    writes: HashMap<u64, Option<u64>>,
}

impl Oracle {
    pub fn new(ds: Dataset) -> Self {
        Self {
            ds,
            writes: HashMap::new(),
        }
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        match self.writes.get(&key) {
            Some(&over) => over,
            None => self.ds.lookup(key),
        }
    }

    /// Record an upsert; returns the value it replaces.
    pub fn put(&mut self, key: u64, val: u64) -> Option<u64> {
        let prev = self.get(key);
        self.writes.insert(key, Some(val));
        prev
    }

    /// Record a remove; returns the value it removes.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let prev = self.get(key);
        self.writes.insert(key, None);
        prev
    }

    /// Every key this client wrote, with its expected current value.
    pub fn written(&self) -> impl Iterator<Item = (u64, Option<u64>)> + '_ {
        self.writes.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn streams(seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<Op>) {
        let ds = Dataset::new(1 << 12);
        (
            uniform_keys(&ds, 512, &mut Rng::new(seed)),
            hot_keys(&ds, 32, 512, &mut Rng::new(seed)),
            zipf_keys(&ds, 512, 0.99, seed),
            mixed_ops(&ds, 512, &mut Rng::new(seed)),
        )
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        assert_eq!(streams(7), streams(7));
        let (a, b) = (streams(7), streams(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert_ne!(a.3, b.3);
    }

    #[test]
    fn oracle_agrees_with_btreemap() {
        let ds = Dataset::new(1 << 12);
        let pairs = ds.pairs();
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "sorted, distinct"
        );
        let mut model: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let mut oracle = Oracle::new(ds);
        for &(k, _) in &pairs {
            for probe in [k, k ^ 1, k.wrapping_add(2), k.wrapping_sub(1)] {
                assert_eq!(ds.lookup(probe), model.get(&probe).copied(), "key {probe}");
            }
        }
        for op in mixed_ops(&ds, 1 << 14, &mut Rng::new(42)) {
            match op {
                Op::Get(k) => assert_eq!(oracle.get(k), model.get(&k).copied()),
                Op::Put(k, v) => assert_eq!(oracle.put(k, v), model.insert(k, v)),
                Op::Remove(k) => assert_eq!(oracle.remove(k), model.remove(&k)),
            }
        }
        for (k, v) in oracle.written() {
            assert_eq!(v, model.get(&k).copied());
        }
    }

    #[test]
    fn miss_keys_are_never_stored() {
        let ds = Dataset::new(1 << 12);
        let stored: std::collections::BTreeSet<u64> = ds.pairs().iter().map(|p| p.0).collect();
        for i in 0..ds.len() {
            assert!(!stored.contains(&ds.miss_key(i)));
            assert_eq!(ds.lookup(ds.miss_key(i)), None);
        }
        let keys = uniform_keys(&ds, 1 << 14, &mut Rng::new(3));
        let hits = keys.iter().filter(|k| stored.contains(k)).count();
        assert!((hits as f64 / keys.len() as f64 - 0.875).abs() < 0.02);
    }

    #[test]
    fn zipf_keys_are_stored_and_skewed() {
        let ds = Dataset::new(1 << 12);
        let keys = zipf_keys(&ds, 1 << 14, 0.99, 5);
        assert!(keys.iter().all(|&k| ds.lookup(k).is_some()));
        let mut freq: BTreeMap<u64, usize> = BTreeMap::new();
        for k in keys {
            *freq.entry(k).or_default() += 1;
        }
        let top = freq.values().max().expect("non-empty");
        assert!(*top > (1 << 14) / 20, "hottest key takes > 5 %: {top}");
    }
}
