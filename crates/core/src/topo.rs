//! Best-effort thread pinning.
//!
//! [`Topology::pin_current`] pins the calling thread to one of a given
//! number of cores with a raw `sched_setaffinity` syscall (the
//! workspace is dependency-free, so no libc wrapper).
//!
//! Pinning is **best-effort by design**: on a single-core host, a
//! non-`x86_64`/non-Linux target, under Miri, or when the kernel
//! refuses the affinity call, `pin_current` simply returns `false`
//! and the caller proceeds unpinned. Correctness never depends on
//! pinning — only locality does — so the fallback is silent.

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
