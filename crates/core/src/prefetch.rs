//! Software prefetch wrappers.
//!
//! Every index prefetch in the workspace — [`DirectMem::prefetch`]
//! (binary search), the CSB+-tree node prefetch, the hash bucket and
//! entry prefetches — issues one hint, `PREFETCHT0`. On x86-64 these
//! functions compile to exactly that instruction; on other
//! architectures they are no-ops so that the lookup code stays portable.
//!
//! **Deviation from the paper.** Section 5.1 issues `PREFETCHNTA`. On
//! its Haswell Xeon the L3 is inclusive, so an NTA line still lands in
//! L3 (and L1D) and only L2 is bypassed — cheap there, since L2 is
//! small next to the L3 that backs it. On a part with a non-inclusive
//! L3 (Skylake-SP and later) NTA brings the line into L1D only: it
//! skips L2 *and* is not allocated in L3, so the upper levels of a
//! search path, which every lookup of a batch re-reads, never settle
//! in any cache level and are fetched from DRAM again and again. `T0`
//! fills all levels; the upper levels then stay L2-resident. Measured
//! on the repo benchmark (`join_cold`, 2^24 sorted pairs, group 6):
//! 5.0 M → 5.6 M keys/s from this hint alone, and 6.2 M → 8.0 M on the
//! cache-resident `join_hot` (README, "Deviations from the paper's
//! §5.1 constants").
//!
//! A prefetch never faults: it is safe to call with any address, including
//! addresses one-past-the-end of an allocation, which is why these wrappers
//! are safe functions even though they take raw pointers.
//!
//! [`DirectMem::prefetch`]: crate::mem::DirectMem

#![expect(unsafe_code, reason = "the PREFETCHT0 intrinsic")]

/// Cache line size assumed throughout the crate (bytes).
///
/// All mainstream x86-64 and AArch64 parts use 64-byte lines; the paper's
/// Haswell Xeon does too (Table 4).
pub const CACHE_LINE: usize = 64;

/// Prefetch the cache line containing `ptr` into all cache levels
/// (`PREFETCHT0`) — the one hint every index prefetch uses (see the
/// module docs for why not the paper's `PREFETCHNTA`).
#[inline(always)]
pub fn prefetch_read_t0<T>(ptr: *const T) {
    // SAFETY: PREFETCHT0 is an architectural hint: it never faults,
    // never dereferences, and is defined for any address value, so
    // there is no obligation on `ptr`. (Gated off under Miri, which
    // does not model the intrinsic.)
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = ptr;
}

/// Prefetch every cache line of the `bytes`-byte object starting at `ptr`.
///
/// The paper's CSB+-tree coroutine (Listing 6) prefetches *all* cache lines
/// of a touched node before suspending, so that the in-node binary search
/// causes no further misses.
#[inline(always)]
pub fn prefetch_object_t0<T>(ptr: *const T, bytes: usize) {
    for line in object_lines(ptr as usize, bytes) {
        prefetch_read_t0(line as *const u8);
    }
}

/// Base addresses of every cache line spanned by a `bytes`-byte object
/// at address `start` — the walk [`prefetch_object_t0`] performs.
///
/// The walk is aligned down to the line boundary: stepping by
/// `CACHE_LINE` from an unaligned `start` would cover `bytes` of
/// addresses but could stop short of the object's final line (e.g.
/// `start = 60`, `bytes = 8` spans lines 0 and 1, yet an unaligned walk
/// ends at address 68 having only touched line 0). Prefetch operates on
/// whole lines, so the iteration must too. Zero-sized objects get their
/// first line anyway — matching the historical "first line is always
/// fetched" behaviour, and a prefetch never faults.
#[inline(always)]
fn object_lines(start: usize, bytes: usize) -> impl Iterator<Item = usize> {
    let first = start & !(CACHE_LINE - 1);
    let last = (start + bytes.max(1) - 1) & !(CACHE_LINE - 1);
    (first..=last).step_by(CACHE_LINE)
}

/// Number of cache lines spanned by an object of `bytes` bytes starting at
/// address `addr`.
#[inline]
pub fn lines_spanned(addr: usize, bytes: usize) -> usize {
    if bytes == 0 {
        return 0;
    }
    let first = addr / CACHE_LINE;
    let last = (addr + bytes - 1) / CACHE_LINE;
    last - first + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_safe_on_any_address() {
        // Prefetch must not fault, even on null or dangling addresses.
        prefetch_read_t0(core::ptr::null::<u8>());
        prefetch_read_t0(0xdead_beef_usize as *const u8);
        let v = [1u8; 3];
        prefetch_object_t0(v.as_ptr(), 3);
    }

    #[test]
    fn prefetch_object_covers_all_lines() {
        // 200-byte object: must touch 4 lines when line-aligned.
        let buf = vec![0u8; 512];
        prefetch_object_t0(buf.as_ptr(), 200);
        // Unaligned starts must still reach the final line.
        // SAFETY: 60 + 8 <= 512, in bounds of `buf`; only used as a
        // prefetch hint.
        prefetch_object_t0(unsafe { buf.as_ptr().add(60) }, 8);
    }

    #[test]
    fn object_walk_agrees_with_lines_spanned() {
        // The walk must visit exactly the lines the object spans, for
        // every in-line offset and a spread of sizes — including the
        // straddle cases an unaligned fixed-stride walk misses.
        for offset in 0..CACHE_LINE {
            let start = 10 * CACHE_LINE + offset;
            for bytes in [1, 2, 7, 8, 63, 64, 65, 128, 200, 1000] {
                let lines: Vec<usize> = object_lines(start, bytes).collect();
                assert_eq!(
                    lines.len(),
                    lines_spanned(start, bytes),
                    "start={start} bytes={bytes}"
                );
                // Every visited address is line-aligned, consecutive,
                // and the first/last lines contain the object's ends.
                assert!(lines.iter().all(|l| l % CACHE_LINE == 0));
                assert!(lines.windows(2).all(|w| w[1] == w[0] + CACHE_LINE));
                assert_eq!(lines[0], start / CACHE_LINE * CACHE_LINE);
                assert_eq!(
                    *lines.last().unwrap(),
                    (start + bytes - 1) / CACHE_LINE * CACHE_LINE
                );
            }
        }
    }

    #[test]
    fn object_walk_regression_unaligned_straddle() {
        // The historical bug: start=60, bytes=8 stepped 60 -> 124 and
        // never touched line 1, though the object ends at byte 67.
        let lines: Vec<usize> = object_lines(60, 8).collect();
        assert_eq!(lines, vec![0, 64]);
        // Zero-sized objects still touch their first line (never fault).
        assert_eq!(object_lines(130, 0).collect::<Vec<_>>(), vec![128]);
    }

    #[test]
    fn lines_spanned_counts_straddles() {
        assert_eq!(lines_spanned(0, 0), 0);
        assert_eq!(lines_spanned(0, 1), 1);
        assert_eq!(lines_spanned(0, 64), 1);
        assert_eq!(lines_spanned(0, 65), 2);
        // Object straddling a line boundary.
        assert_eq!(lines_spanned(60, 8), 2);
        assert_eq!(lines_spanned(63, 1), 1);
        assert_eq!(lines_spanned(63, 2), 2);
        assert_eq!(lines_spanned(0, 256), 4);
        assert_eq!(lines_spanned(32, 256), 5);
    }
}
