//! Key types for the search benchmarks: primitive integers and the
//! fixed-width 15-character strings of the paper's Section 5.3.

/// A totally ordered, copyable key with a (simulated) comparison cost.
///
/// `COMPARE_COST` feeds the cycle model of `isi-memsim`: integer compares
/// are a cycle; 15-character string compares are a short loop. The paper
/// notes the two "do not differ significantly" (§5.4.5) — a handful of
/// cycles either way.
///
/// `Sync` because bulk lookups hand key slices to the parallel engine
/// ([`isi_core::par`]), whose threads read their chunks of them.
pub trait SearchKey: Copy + Ord + Sync {
    /// Approximate cycles to compare two keys (charged via
    /// `IndexedMem::compute` by instrumented algorithms).
    const COMPARE_COST: u32;
}

macro_rules! impl_int_key {
    ($($t:ty),*) => {
        $(impl SearchKey for $t {
            const COMPARE_COST: u32 = 1;
        })*
    };
}
impl_int_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A fixed-width byte string, ordered lexicographically.
///
/// The paper's string arrays hold 15-character values derived from the
/// array index; we use `N = 16` so an element is exactly 16 bytes (four
/// elements per cache line, vs sixteen for `u32` — strings therefore miss
/// more). Shorter strings are zero-padded on the left... see
/// [`FixedStr::from_index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FixedStr<const N: usize>(pub [u8; N]);

/// The paper's 15-character string key (plus one padding byte).
pub type Str16 = FixedStr<16>;

impl<const N: usize> FixedStr<N> {
    /// Build from a `&str`, truncating or right-padding with NUL bytes.
    pub fn from_str_lossy(s: &str) -> Self {
        let mut buf = [0u8; N];
        let bytes = s.as_bytes();
        let n = bytes.len().min(N);
        buf[..n].copy_from_slice(&bytes[..n]);
        Self(buf)
    }

    /// The paper's value scheme (§5.3): "for string arrays we convert the
    /// index to a string of 15 characters, suffixing characters as
    /// necessary". We render the index as a zero-padded decimal so that
    /// lexicographic order coincides with numeric order, then suffix with
    /// `x` up to 15 characters.
    pub fn from_index(i: u64) -> Self {
        let mut buf = [b'x'; N];
        if N > 15 {
            for b in &mut buf[15..] {
                *b = 0;
            }
        }
        let digits = 10.min(N);
        let mut v = i;
        for slot in (0..digits).rev() {
            buf[slot] = b'0' + (v % 10) as u8;
            v /= 10;
        }
        Self(buf)
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8; N] {
        &self.0
    }
}

impl<const N: usize> Default for FixedStr<N> {
    /// All-zero bytes: the smallest value in the ordering.
    fn default() -> Self {
        Self([0; N])
    }
}

impl<const N: usize> std::fmt::Display for FixedStr<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &b in &self.0 {
            if b == 0 {
                break;
            }
            write!(f, "{}", b as char)?;
        }
        Ok(())
    }
}

impl<const N: usize> SearchKey for FixedStr<N> {
    // A 16-byte memcmp resolves in a few cycles on modern cores.
    const COMPARE_COST: u32 = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_index_preserves_numeric_order() {
        let mut prev = Str16::from_index(0);
        for i in 1..2000u64 {
            let cur = Str16::from_index(i);
            assert!(cur > prev, "order broken at {i}");
            prev = cur;
        }
        // Also across magnitude boundaries.
        assert!(Str16::from_index(9) < Str16::from_index(10));
        assert!(Str16::from_index(99) < Str16::from_index(100));
        assert!(Str16::from_index(999_999_999) < Str16::from_index(1_000_000_000));
    }

    #[test]
    fn from_index_is_15_chars() {
        let s = Str16::from_index(42);
        let txt = s.to_string();
        assert_eq!(txt.len(), 15);
        assert_eq!(txt, "0000000042xxxxx");
        assert_eq!(s.as_bytes()[15], 0, "16th byte is padding");
    }

    #[test]
    fn from_str_lossy_truncates_and_pads() {
        let s = FixedStr::<4>::from_str_lossy("abcdef");
        assert_eq!(&s.0, b"abcd");
        let s = FixedStr::<4>::from_str_lossy("a");
        assert_eq!(&s.0, &[b'a', 0, 0, 0]);
        assert_eq!(s.to_string(), "a");
    }

    #[test]
    fn equality_and_ordering_are_bytewise() {
        let a = FixedStr::<8>::from_str_lossy("apple");
        let b = FixedStr::<8>::from_str_lossy("banana");
        assert!(a < b);
        assert_eq!(a, FixedStr::<8>::from_str_lossy("apple"));
    }

    #[test]
    fn compare_costs_are_positive() {
        // Read through variables so the (intentional) constant
        // comparison exercises the trait rather than tripping lints.
        let int_cost = u32::COMPARE_COST;
        let str_cost = Str16::COMPARE_COST;
        assert!(int_cost >= 1);
        assert!(str_cost > int_cost);
    }
}
