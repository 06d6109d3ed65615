//! The memory-access abstraction that lets one lookup implementation run
//! against either real memory or a simulated memory hierarchy.
//!
//! All index-lookup algorithms in this workspace (binary search, CSB+-tree
//! traversal, hash probes) are generic over [`IndexedMem`], an indexed
//! array of elements — the binary search over one, the hash probe over
//! two, the tree over the two arenas of a `TreeView` (crate `isi-csb`).
//! Two families of implementations exist:
//!
//! * [`DirectMem`] (here): a zero-cost wrapper around a slice, whose
//!   `prefetch` issues the real hardware prefetch instruction. Used for
//!   wall-clock benchmarks and production execution.
//! * `SimMem` (crate `isi-memsim`): records every access in a software
//!   model of the cache hierarchy, reproducing the paper's
//!   microarchitectural breakdowns (Figures 5-6, Tables 1-2).
//!
//! Keeping a single algorithm codepath for both backends follows the
//! paper's core argument: the measured code *is* the shipped code.

use crate::prefetch::{prefetch_object_t0, prefetch_read_t0, CACHE_LINE};

/// An indexed, randomly accessible array of `T` with explicit prefetch and
/// compute-cost hooks.
///
/// `at` returns a reference so that large elements (e.g. 256-byte tree
/// nodes) are not copied on access. Implementations charge the access cost
/// (if they model cost at all) for **all** cache lines spanned by the
/// element, matching the paper's "prefetch all cache lines of a touched
/// node" policy.
pub trait IndexedMem<T> {
    /// Number of elements.
    fn len(&self) -> usize;

    /// True if the array has no elements.
    #[inline]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access element `idx`. Panics if out of bounds.
    fn at(&self, idx: usize) -> &T;

    /// Hint that element `idx` will be accessed soon. Never faults, even
    /// out of bounds (out-of-bounds prefetches are ignored).
    fn prefetch(&self, idx: usize);

    /// Charge `cycles` of pure computation to this instruction stream.
    ///
    /// No-op on real memory (the hardware counts its own cycles); the
    /// simulator advances its clock and books the cycles as *retiring*.
    /// Lookup algorithms call this once per loop iteration with their
    /// per-iteration instruction estimate so that simulated breakdowns
    /// have a realistic compute component.
    #[inline(always)]
    fn compute(&self, cycles: u32) {
        let _ = cycles;
    }

    /// Record a data-dependent conditional branch with outcome `taken`.
    ///
    /// Branchy algorithms (e.g. `std::lower_bound`-style binary search)
    /// call this where the hardware would speculate on a comparison
    /// result. No-op on real memory; the simulator's branch-predictor
    /// model charges mispredictions to the *bad speculation* pipeline-slot
    /// category (paper Section 2.2). Branch-free (conditional-move)
    /// algorithms never call this.
    #[inline(always)]
    fn branch(&self, taken: bool) {
        let _ = taken;
    }
}

/// Real-memory backend: a borrowed slice plus hardware prefetch.
///
/// This type is `Copy` so it can be captured by value in lookup coroutines
/// without borrowing headaches; it is two words (pointer + length).
#[derive(Debug)]
pub struct DirectMem<'a, T> {
    data: &'a [T],
}

impl<'a, T> Clone for DirectMem<'a, T> {
    #[inline]
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for DirectMem<'a, T> {}

impl<'a, T> DirectMem<'a, T> {
    /// Wrap a slice.
    #[inline]
    pub fn new(data: &'a [T]) -> Self {
        Self { data }
    }

    /// The underlying slice.
    #[cfg(test)]
    #[inline]
    pub(crate) fn as_slice(&self) -> &'a [T] {
        self.data
    }
}

impl<'a, T> IndexedMem<T> for DirectMem<'a, T> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.data.len()
    }

    #[inline(always)]
    fn at(&self, idx: usize) -> &T {
        &self.data[idx]
    }

    /// One `PREFETCHT0` on the element's first byte when
    /// `size_of::<T>() <= CACHE_LINE`, whatever its alignment (a 24-byte
    /// hash entry straddles a boundary in 2 of every 8 slots and gets its
    /// first line only); one per spanned line for a larger element (a
    /// tree node).
    #[inline(always)]
    fn prefetch(&self, idx: usize) {
        if idx < self.data.len() {
            // The test above lets the compiler drop the index's own
            // bounds check.
            let ptr: *const T = &self.data[idx];
            // A compile-time branch: small elements keep one instruction.
            if std::mem::size_of::<T>() > CACHE_LINE {
                prefetch_object_t0(ptr, std::mem::size_of::<T>());
            } else {
                prefetch_read_t0(ptr);
            }
        }
    }
}

/// Blanket impl so `&M` can be passed where `M: IndexedMem<T>` is expected
/// (e.g. shared references captured by coroutines).
impl<T, M: IndexedMem<T>> IndexedMem<T> for &M {
    #[inline(always)]
    fn len(&self) -> usize {
        (**self).len()
    }
    #[inline(always)]
    fn at(&self, idx: usize) -> &T {
        (**self).at(idx)
    }
    #[inline(always)]
    fn prefetch(&self, idx: usize) {
        (**self).prefetch(idx)
    }
    #[inline(always)]
    fn compute(&self, cycles: u32) {
        (**self).compute(cycles)
    }
    #[inline(always)]
    fn branch(&self, taken: bool) {
        (**self).branch(taken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mem_reads_elements() {
        let v = vec![10u32, 20, 30];
        let m = DirectMem::new(&v);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(*m.at(0), 10);
        assert_eq!(*m.at(2), 30);
        assert_eq!(m.as_slice(), &v[..]);
    }

    #[test]
    fn direct_mem_empty() {
        let v: Vec<u64> = vec![];
        let m = DirectMem::new(&v);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        // Prefetch out of bounds must be a harmless no-op.
        m.prefetch(0);
        m.prefetch(usize::MAX);
    }

    #[test]
    #[should_panic]
    fn direct_mem_out_of_bounds_panics() {
        let v = vec![1u8];
        let m = DirectMem::new(&v);
        let _ = m.at(1);
    }

    #[test]
    fn compute_is_noop_on_direct() {
        let v = vec![1u32];
        let m = DirectMem::new(&v);
        m.compute(1000); // must not do anything observable
        assert_eq!(*m.at(0), 1);
    }

    #[test]
    fn reference_forwarding() {
        let v = vec![5u32, 6];
        let m = DirectMem::new(&v);
        let r = &m;
        assert_eq!(IndexedMem::len(&r), 2);
        assert_eq!(*IndexedMem::at(&r, 1), 6);
        IndexedMem::prefetch(&r, 0);
        IndexedMem::compute(&r, 1);
    }
}
