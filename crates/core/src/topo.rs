//! Best-effort placement hints: thread pinning and huge pages.
//!
//! [`Topology::pin_current`] pins the calling thread to one of a given
//! number of cores with a raw `sched_setaffinity` syscall, and
//! [`advise_huge_pages`] asks for transparent huge pages under a
//! reserved buffer with a raw `madvise` (the workspace is
//! dependency-free, so no libc wrapper).
//!
//! Both are **best-effort by design**: on a non-`x86_64`/non-Linux
//! target, under Miri, when the kernel refuses the call — or, for
//! pinning, on a single-core host, and for huge pages, on a buffer
//! that holds no whole huge page — they simply return `false` and the
//! caller proceeds as if it had not asked. Correctness never depends
//! on either — only locality and TLB reach do — so the fallback is
//! silent.

#![expect(unsafe_code, reason = "the sched_setaffinity and madvise syscalls")]

use std::mem::MaybeUninit;

/// The cores a caller spreads its threads over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    cores: usize,
}

impl Topology {
    /// A topology of `cores` cores (0 is clamped to 1).
    pub fn with_cores(cores: usize) -> Self {
        Self {
            cores: cores.max(1),
        }
    }

    /// Pin the **calling thread** to `core` (modulo the core count).
    /// Returns `true` only when the kernel accepted the affinity mask;
    /// `false` on single-core topologies (nothing to pin), unsupported
    /// targets, or kernel refusal — callers must treat `false` as "run
    /// unpinned", never an error.
    pub fn pin_current(&self, core: usize) -> bool {
        if self.cores == 1 {
            return false;
        }
        pin_to_core(core % self.cores)
    }
}

/// `sched_setaffinity(0, sizeof(mask), &mask)` by raw syscall —
/// pid 0 means the calling thread. 1024 mask bits matches the
/// kernel's default `CONFIG_NR_CPUS` ceiling.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
fn pin_to_core(core: usize) -> bool {
    const MASK_WORDS: usize = 16; // 16 × 64 = 1024 CPUs
    if core >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[core / 64] = 1u64 << (core % 64);
    let ret: i64;
    // SAFETY: `syscall` with nr 203 (sched_setaffinity on x86_64
    // Linux) reads `mask.len() * 8` bytes from `mask.as_ptr()`, which
    // is exactly the live length of the local array above; it writes
    // no user memory. rcx/r11 are declared clobbered (the syscall
    // instruction overwrites them) and the kernel preserves all other
    // registers, so no Rust-visible state is corrupted.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
fn pin_to_core(_core: usize) -> bool {
    false
}

/// The huge-page size `advise_huge_pages` aligns to: 2 MiB, the
/// transparent-huge-page size of x86-64 Linux.
const HUGE_PAGE: usize = 2 << 20;

/// Ask the kernel to back the whole huge pages inside `reserved` with
/// transparent huge pages (`madvise(MADV_HUGEPAGE)`).
///
/// Meant for the reservation of a large, long-lived, randomly probed
/// array, **before its first touch** — `vec.spare_capacity_mut()` of a
/// fresh `Vec::with_capacity` — so that the page faults of the fill
/// allocate huge pages directly: a 64 MiB column on 4 KiB pages is
/// 16 384 TLB entries, on 2 MiB pages 32, and every deep probe of a
/// binary search lands on a page of its own.
///
/// The range is rounded inwards to huge-page boundaries, so nothing
/// outside the buffer is advised and its footprint does not grow.
/// Returns `true` only when the kernel accepted the advice; `false`
/// when the buffer holds no whole huge page (no syscall is made), on
/// unsupported targets, or when the kernel refuses (THP compiled out or
/// disabled) — callers must treat `false` as "ordinary pages", never
/// an error. The advice changes how the range is paged, not what it
/// holds.
pub fn advise_huge_pages<T>(reserved: &mut [MaybeUninit<T>]) -> bool {
    let start = reserved.as_ptr() as usize;
    let end = start + std::mem::size_of_val(reserved);
    let first = start.next_multiple_of(HUGE_PAGE);
    let last = end / HUGE_PAGE * HUGE_PAGE;
    if first >= last {
        return false;
    }
    madvise_hugepage(first, last - first)
}

/// `madvise(addr, len, MADV_HUGEPAGE)` by raw syscall.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
fn madvise_hugepage(addr: usize, len: usize) -> bool {
    const MADV_HUGEPAGE: usize = 14;
    let ret: i64;
    // SAFETY: `syscall` with nr 28 (madvise on x86_64 Linux) and advice
    // MADV_HUGEPAGE only sets a flag on the mappings covering
    // `addr..addr + len`: it reads and writes no user memory and leaves
    // the contents of the range untouched, so it is sound for any
    // address range (an unmapped one is refused with ENOMEM). rcx/r11
    // are declared clobbered (the syscall instruction overwrites them)
    // and the kernel preserves all other registers, so no Rust-visible
    // state is corrupted.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 28i64 => ret,
            in("rdi") addr,
            in("rsi") len,
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
fn madvise_hugepage(_addr: usize, _len: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_core_pin_is_a_silent_no_op() {
        // A zero-core request is clamped to one core, not panicked on.
        for topo in [Topology::with_cores(1), Topology::with_cores(0)] {
            assert!(!topo.pin_current(0));
            assert!(!topo.pin_current(17));
        }
    }

    #[test]
    fn ranges_without_a_whole_huge_page_are_refused_without_a_syscall() {
        // `first >= last` returns before the syscall wrapper: were it
        // reached, a kernel with THP on would accept these ranges'
        // enclosing pages and the answer would be `true`.
        let mut buf: Vec<u8> = Vec::with_capacity(3 * HUGE_PAGE);
        let spare = buf.spare_capacity_mut();
        let addr = spare.as_ptr() as usize;
        let aligned = addr.next_multiple_of(HUGE_PAGE) - addr;
        assert!(!advise_huge_pages::<u8>(&mut []));
        assert!(!advise_huge_pages(&mut spare[..100]));
        assert!(!advise_huge_pages(
            &mut spare[aligned..aligned + HUGE_PAGE - 1]
        ));
        // A full 2 MiB that straddles a boundary holds no whole page.
        assert!(!advise_huge_pages(
            &mut spare[aligned + 4096..aligned + 4096 + HUGE_PAGE]
        ));
        let mut small: Vec<u64> = Vec::with_capacity(1000);
        assert!(!advise_huge_pages(small.spare_capacity_mut()));
    }

    #[test]
    fn advising_a_reservation_never_panics_and_keeps_it_usable() {
        // THP may be `always`, `madvise`, `never` or compiled out: both
        // answers are legal, the contract is "best effort, no panic",
        // and the buffer is an ordinary Vec afterwards either way.
        // (Miri compiles the no-op fallback; a small fill keeps it quick.)
        let n = if cfg!(miri) { 1024 } else { 4 * HUGE_PAGE / 8 };
        let mut col: Vec<u64> = Vec::with_capacity(n);
        let _ = advise_huge_pages(col.spare_capacity_mut());
        col.extend(0..n as u64);
        assert_eq!(col.len(), n);
        assert_eq!(col[n - 1], n as u64 - 1);
        // Advising again, over initialised memory, is as harmless.
        let mut tail: Vec<u64> = Vec::with_capacity(n);
        tail.push(7);
        let _ = advise_huge_pages(tail.spare_capacity_mut());
        assert_eq!(tail, [7]);
    }

    #[test]
    fn pin_never_panics_and_round_trips_cores() {
        // On a multi-core Linux host this genuinely pins (and the
        // result is true); on a single-core container or other
        // targets it must fall back to false without error. Both
        // outcomes are legal — the contract is "best effort, no
        // panic".
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pinned = Topology::with_cores(cores).pin_current(0);
        if cores == 1 {
            assert!(!pinned);
        }
    }
}
