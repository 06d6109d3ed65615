//! Bit-packed code vectors.
//!
//! The encoded representation of a column is the dictionary plus a
//! vector of integer codes, packed at the minimum bit width that can
//! represent the dictionary size (paper Section 2.1: "the code vector is
//! usually smaller than the original column"). The packer widens itself
//! when a growing (Delta) dictionary overflows the current width.

/// A vector of unsigned integers stored at a fixed bit width (1..=32).
#[derive(Debug, Clone, Default)]
pub struct BitPackedVec {
    words: Vec<u64>,
    len: usize,
    width: u32,
}

/// Minimum bits to distinguish `n` distinct codes (at least 1).
pub fn bits_for(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

impl BitPackedVec {
    /// An empty vector at the minimum width.
    pub fn new() -> Self {
        Self::with_width(1)
    }

    /// An empty vector with an explicit initial width.
    ///
    /// # Panics
    /// Panics unless `1 <= width <= 32`.
    pub fn with_width(width: u32) -> Self {
        assert!((1..=32).contains(&width), "width must be in 1..=32");
        Self {
            words: Vec::new(),
            len: 0,
            width,
        }
    }

    /// Number of codes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current bit width.
    #[cfg(test)]
    pub(crate) fn width(&self) -> u32 {
        self.width
    }

    /// Heap bytes used by the packed words.
    #[cfg(test)]
    fn packed_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Append a code, widening the vector first if `code` does not fit.
    pub fn push(&mut self, code: u32) {
        let needed = bits_for(code as usize + 1);
        if needed > self.width {
            self.repack(needed);
        }
        let bit = self.len * self.width as usize;
        let word = bit / 64;
        let off = (bit % 64) as u32;
        if word >= self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= (code as u64) << off;
        let spill = off + self.width > 64;
        if spill {
            self.words.push((code as u64) >> (64 - off));
        }
        self.len += 1;
    }

    /// Read the code at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: usize) -> u32 {
        assert!(
            idx < self.len,
            "index {idx} out of bounds (len {})",
            self.len
        );
        let bit = idx * self.width as usize;
        let word = bit / 64;
        let off = (bit % 64) as u32;
        let mask = if self.width == 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.width) - 1
        };
        let mut v = self.words[word] >> off;
        if off + self.width > 64 {
            v |= self.words[word + 1] << (64 - off);
        }
        (v & mask) as u32
    }

    /// Re-encode at a (strictly wider) bit width.
    fn repack(&mut self, new_width: u32) {
        assert!(new_width > self.width && new_width <= 32);
        let mut wider = BitPackedVec::with_width(new_width);
        for i in 0..self.len {
            wider.push(self.get(i));
        }
        *self = wider;
    }

    /// Iterate over all codes.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

/// A compact bitset over code space (1 bit per possible code), used for
/// IN-predicate membership on large dictionaries where a `Vec<bool>`
/// would waste 8x the memory.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bitset {
    words: Vec<u64>,
    bits: usize,
}

impl Bitset {
    /// An all-zero bitset over `bits` positions.
    pub(crate) fn new(bits: usize) -> Self {
        Self {
            words: vec![0u64; bits.div_ceil(64)],
            bits,
        }
    }

    /// Number of addressable bits.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.bits
    }

    /// True if the bitset addresses no bits.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Set bit `i`; returns whether it was previously clear.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub(crate) fn set(&mut self, i: usize) -> bool {
        assert!(i < self.bits, "bit {i} out of range {}", self.bits);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let was_clear = *w & mask == 0;
        *w |= mask;
        was_clear
    }

    /// Test bit `i` (false when out of range).
    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> bool {
        if i >= self.bits {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    #[cfg(test)]
    fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl BitPackedVec {
    /// Scan for codes whose bit is set in `member`, invoking
    /// `hit(position, code)` for each match — the IN-predicate scan
    /// phase at bitset density.
    pub(crate) fn scan_in_set(&self, member: &Bitset, mut hit: impl FnMut(usize, u32)) {
        for i in 0..self.len {
            let c = self.get(i);
            if member.get(c as usize) {
                hit(i, c);
            }
        }
    }
}

impl FromIterator<u32> for BitPackedVec {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut v = BitPackedVec::new();
        for c in iter {
            v.push(c);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(1 << 20), 20);
        assert_eq!(bits_for((1 << 20) + 1), 21);
    }

    #[test]
    fn push_get_roundtrip_odd_width() {
        let mut v = BitPackedVec::with_width(5);
        let codes: Vec<u32> = (0..1000).map(|i| i % 31).collect();
        for &c in &codes {
            v.push(c);
        }
        assert_eq!(v.len(), 1000);
        assert_eq!(v.width(), 5);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(v.get(i), c, "i={i}");
        }
    }

    #[test]
    fn widening_preserves_existing_codes() {
        let mut v = BitPackedVec::new();
        v.push(0);
        v.push(1);
        assert_eq!(v.width(), 1);
        v.push(200); // forces width 8
        assert_eq!(v.width(), 8);
        v.push(70_000); // forces width 17
        assert_eq!(v.width(), 17);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0, 1, 200, 70_000]);
    }

    #[test]
    fn straddling_word_boundaries() {
        // width 17: codes straddle the 64-bit word boundary regularly.
        let mut v = BitPackedVec::with_width(17);
        let codes: Vec<u32> = (0..500).map(|i| (i * 261) % (1 << 17)).collect();
        for &c in &codes {
            v.push(c);
        }
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(v.get(i), c, "i={i}");
        }
    }

    #[test]
    fn width_32_max_values() {
        let mut v = BitPackedVec::with_width(32);
        for c in [0u32, 1, u32::MAX, u32::MAX - 1, 12345] {
            v.push(c);
        }
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![0, 1, u32::MAX, u32::MAX - 1, 12345]
        );
    }

    #[test]
    fn packing_actually_saves_space() {
        let v: BitPackedVec = (0..10_000u32).map(|i| i % 4).collect();
        assert_eq!(v.width(), 2);
        // 10_000 codes x 2 bits = 2500 bytes (vs 40_000 unpacked).
        assert!(v.packed_bytes() <= 2504 + 8, "{}", v.packed_bytes());
    }

    #[test]
    fn scan_in_set_finds_exactly_the_members() {
        let v: BitPackedVec = (0..100u32).map(|i| i % 10).collect();
        let mut member = Bitset::new(10);
        member.set(3);
        member.set(7);
        let mut hits = Vec::new();
        v.scan_in_set(&member, |pos, code| hits.push((pos, code)));
        assert_eq!(hits.len(), 20);
        assert!(hits
            .iter()
            .all(|&(p, c)| (c == 3 || c == 7) && v.get(p) == c));
    }

    #[test]
    fn bitset_set_get_count() {
        let mut b = Bitset::new(100);
        assert!(!b.is_empty());
        assert_eq!(b.len(), 100);
        assert!(b.set(0));
        assert!(b.set(63));
        assert!(b.set(64));
        assert!(b.set(99));
        assert!(!b.set(0), "already set");
        assert_eq!(b.count_ones(), 4);
        assert!(b.get(63));
        assert!(!b.get(50));
        assert!(!b.get(1000), "out of range reads as false");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitset_set_out_of_range_panics() {
        Bitset::new(10).set(10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let v = BitPackedVec::new();
        v.get(0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn invalid_width_rejected() {
        BitPackedVec::with_width(33);
    }
}
