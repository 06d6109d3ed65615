//! The shared interleaving policy type.
//!
//! Every operator in the workspace offers the same execution choice —
//! run its lookup coroutines one at a time, or interleave a group of
//! them to hide cache-miss latency. [`Interleave`] is that choice,
//! expressed once: the hash join, the IN-predicate query, the
//! dictionary `locate` strategies and the serving layer all take it
//! instead of growing their own structurally identical enums.

/// Execution policy for a batch of lookup coroutines: sequential, or
/// interleaved with a given group size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Interleave {
    /// One lookup at a time (coroutines with `INTERLEAVE = false`).
    Sequential,
    /// This many lookups in flight, switching at every probable miss.
    Interleaved(usize),
}

impl Interleave {
    /// The group size, or `None` when sequential.
    #[inline]
    pub fn group(self) -> Option<usize> {
        match self {
            Interleave::Sequential => None,
            Interleave::Interleaved(g) => Some(g),
        }
    }

    /// The group size as a scheduler knob: 1 when sequential, never
    /// 0. The parallel drivers ([`crate::par`]) run a group of one on
    /// the coroutine's non-suspending instantiation.
    #[inline]
    pub fn group_or_one(self) -> usize {
        self.group().unwrap_or(1).max(1)
    }

    /// True if this policy interleaves (group size > 1).
    #[inline]
    pub fn is_interleaved(self) -> bool {
        matches!(self, Interleave::Interleaved(g) if g > 1)
    }

    /// Policy from a group size: 0 or 1 means sequential.
    #[inline]
    pub fn from_group(group: usize) -> Self {
        if group <= 1 {
            Interleave::Sequential
        } else {
            Interleave::Interleaved(group)
        }
    }
}

impl Default for Interleave {
    /// Group 24: the plateau of this repository's committed group-size
    /// sweep, not the paper's 6.
    ///
    /// The paper's optimum (§5.4.5, Figure 7) is 6 on a Haswell with
    /// `PREFETCHNTA`. With the `PREFETCHT0` hint used here (see
    /// [`crate::prefetch`]) the sweep in
    /// `crates/bench/benches/group_size.rs` is flat from 12–16 to 48 on
    /// binary search, the CSB+-tree and the hash probe. Group 6 sits 45 %
    /// off the plateau on binary search (171 against 118–127 ns/lookup)
    /// and 13 % on the hash probe, and group 24 is within 4 % of the best
    /// cell (README, "Deviations from the paper's §5.1 constants"). End to
    /// end, `join_cold` gained 12–15 % from 6 to 24 and `join_hot` did not
    /// move.
    /// A lookup's switch costs the same at any group size, so the middle
    /// of the plateau is taken: it leaves room on either side if the
    /// memory latency of the host differs.
    fn default() -> Self {
        Interleave::Interleaved(24)
    }
}

impl std::fmt::Display for Interleave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interleave::Sequential => write!(f, "seq"),
            Interleave::Interleaved(g) => write!(f, "coro{g}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_accessors() {
        assert_eq!(Interleave::Sequential.group(), None);
        assert_eq!(Interleave::Interleaved(6).group(), Some(6));
        assert_eq!(Interleave::Sequential.group_or_one(), 1);
        assert_eq!(Interleave::Interleaved(0).group_or_one(), 1);
        assert_eq!(Interleave::Interleaved(8).group_or_one(), 8);
    }

    #[test]
    fn from_group_normalizes_degenerate_sizes() {
        assert_eq!(Interleave::from_group(0), Interleave::Sequential);
        assert_eq!(Interleave::from_group(1), Interleave::Sequential);
        assert_eq!(Interleave::from_group(6), Interleave::Interleaved(6));
    }

    #[test]
    fn interleaved_predicate() {
        assert!(!Interleave::Sequential.is_interleaved());
        assert!(!Interleave::Interleaved(1).is_interleaved());
        assert!(Interleave::Interleaved(2).is_interleaved());
    }

    #[test]
    fn display_labels() {
        assert_eq!(Interleave::Sequential.to_string(), "seq");
        assert_eq!(Interleave::Interleaved(6).to_string(), "coro6");
    }
}
