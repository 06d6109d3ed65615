//! The mid tier's membership filter: a blocked Bloom filter over its
//! keys, so a read pays for the mid tier's binary search only where
//! the key may be in it.
//!
//! The mid tier decides few of the keys a read asks for (it holds the
//! overrides since the last major merge, a sliver of the shard), yet
//! its search, ~14 dependent misses on a cold tier of 16 k entries,
//! cost about as much as the main's own descent. The filter answers
//! "not here" from **one cache line**: each key sets, and each probe
//! tests, [`PROBES`] bits inside the one 64-byte block its hash picks.
//! At [`BITS_PER_KEY`] or more that is a false-positive rate of about
//! 1 %. There are no false negatives, so a filtered read answers what
//! an unfiltered one would.

use std::sync::Arc;

/// Bits a filter holds per key, at least: the block count is rounded
/// up to a power of two from here.
const BITS_PER_KEY: usize = 10;

/// Bits each key sets in its block (and each probe tests).
const PROBES: u32 = 6;

/// Bits in a block: one cache line.
const BLOCK_BITS: usize = 512;

/// One cache line of the filter.
#[derive(Clone, Copy, Default)]
#[repr(C, align(64))]
struct Block([u64; 8]);

/// An immutable blocked Bloom filter over a set of keys, shared by
/// `Arc` with the run it describes across every version that holds
/// that run.
#[derive(Clone)]
pub(super) struct Bloom {
    blocks: Arc<[Block]>,
}

impl Bloom {
    /// A filter over `keys` (`len` of them; a key given twice is set
    /// twice, to the same bits): the next power of two of blocks at
    /// or above `⌈BITS_PER_KEY · len / BLOCK_BITS⌉`, one at least.
    pub(super) fn build(len: usize, keys: impl Iterator<Item = u64>) -> Self {
        let n = (BITS_PER_KEY * len)
            .div_ceil(BLOCK_BITS)
            .next_power_of_two();
        let mut blocks = vec![Block::default(); n];
        for key in keys {
            let (b, bits) = locate(key, n);
            let block = &mut blocks[b].0;
            for (word, bit) in bits {
                block[word] |= bit;
            }
        }
        Self {
            blocks: blocks.into(),
        }
    }

    /// False if `key` is certainly not in the set; true if it was put
    /// there, and for about one absent key in a hundred.
    #[inline]
    pub(super) fn may_contain(&self, key: u64) -> bool {
        let (b, mut bits) = locate(key, self.blocks.len());
        let block = &self.blocks[b].0;
        bits.all(|(word, bit)| block[word] & bit != 0)
    }
}

/// Where `key` lives in a filter of `n` blocks (a power of two): the
/// block, from the low bits of its mixed hash, and [`PROBES`]
/// `(word, mask)` bits inside it, each the top nine bits of a
/// multiplicative re-hash of the high half. The mixer's every output
/// bit depends on every key bit; the Fibonacci hash's top bits, which
/// pick the shard, are constant within a shard and would fill one
/// corner of the filter.
#[inline]
fn locate(key: u64, n: usize) -> (usize, impl Iterator<Item = (usize, u64)>) {
    let h = mix(key);
    let block = h as usize & (n - 1);
    let mut h2 = (h >> 32) as u32;
    let bits = (0..PROBES).map(move |_| {
        h2 = h2.wrapping_mul(0x9e37_79b9);
        let bit = (h2 >> (32 - BLOCK_BITS.trailing_zeros())) as usize;
        (bit / 64, 1u64 << (bit % 64))
    });
    (block, bits)
}

/// The splitmix64 finalizer: a bijection of `u64` with full avalanche.
#[inline]
fn mix(key: u64) -> u64 {
    let mut z = key;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes around a block's worth of keys, and up to a mid tier
    /// past the benchmark's largest (2^15 at 2^21 pairs a shard).
    const SIZES: [usize; 7] = [1, 2, 63, 64, 65, 1_000, 1 << 16];

    /// A size the power-of-two rounding leaves at ten bits a key, the
    /// fewest a filter gets (the sizes above get 16 from 1 000 up).
    const TIGHTEST: usize = 3_276;

    /// Keys the way tests and clients write them, a dense stride; the
    /// absent keys interleave with them, the case a weak hash fails.
    fn present(len: usize) -> impl Iterator<Item = u64> + Clone {
        (0..len as u64).map(|i| i * 6)
    }

    #[test]
    fn every_key_of_the_set_passes() {
        for len in SIZES {
            let filter = Bloom::build(len, present(len));
            let missed = present(len).filter(|&k| !filter.may_contain(k)).count();
            assert_eq!(missed, 0, "{len} keys");
        }
    }

    #[test]
    fn about_one_absent_key_in_a_hundred_passes() {
        for len in SIZES
            .into_iter()
            .filter(|&len| len >= 1_000)
            .chain([TIGHTEST])
        {
            let filter = Bloom::build(len, present(len));
            let absent = 1u64 << 17;
            let passed = (0..absent)
                .map(|i| i * 6 + 3)
                .filter(|&k| filter.may_contain(k))
                .count();
            let rate = passed as f64 / absent as f64;
            assert!(
                rate <= 0.02,
                "{len} keys: {passed} of {absent} absent keys passed"
            );
        }
    }

    #[test]
    fn the_filter_is_sized_by_its_keys() {
        for (len, blocks) in [
            (0, 1),
            (1, 1),
            (51, 1),
            (52, 2),
            (1_000, 32),
            (TIGHTEST, 64),
            (1 << 16, 2048),
        ] {
            assert_eq!(
                Bloom::build(len, present(len)).blocks.len(),
                blocks,
                "{len}"
            );
        }
    }
}
