//! Machine configuration: cache geometry, latencies and model constants.
//!
//! The default configuration reproduces the paper's experimental platform
//! (Table 4): an Intel Xeon E5-2660 v3 (Haswell) with 32 KB L1D, 256 KB
//! L2, 25 MB shared L3, 10 line-fill buffers, a 64-entry DTLB and a
//! 1024-entry STLB, and a main-memory access latency of 182 cycles
//! (Section 2.2 cites this figure from the Intel optimization manual).

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Access latency in cycles when this level hits.
    pub latency: u32,
}

impl CacheLevelConfig {
    /// Number of sets for a given line size.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero size/assoc, or capacity
    /// not divisible into whole sets).
    pub(crate) fn sets(&self, line_bytes: usize) -> usize {
        assert!(self.size_bytes > 0 && self.assoc > 0 && line_bytes > 0);
        let lines = self.size_bytes / line_bytes;
        assert!(
            lines >= self.assoc && lines.is_multiple_of(self.assoc),
            "cache of {} bytes cannot hold {} ways of {}-byte lines",
            self.size_bytes,
            self.assoc,
            line_bytes
        );
        lines / self.assoc
    }
}

/// Full machine model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Cache line size in bytes (64 on all modern x86/ARM parts).
    pub line_bytes: usize,
    /// Page size in bytes (4 KiB; the paper explicitly avoids huge pages).
    pub page_bytes: usize,
    /// L1 data cache.
    pub l1d: CacheLevelConfig,
    /// Unified L2.
    pub l2: CacheLevelConfig,
    /// Shared last-level cache.
    pub l3: CacheLevelConfig,
    /// Main-memory access latency in cycles (the paper uses 182).
    pub dram_latency: u32,
    /// Number of line-fill buffers = maximum outstanding L1D misses
    /// (10 on Haswell; this is what caps GP's useful group size, §5.4.5).
    pub lfb_entries: usize,
    /// First-level data TLB: entries and associativity.
    pub dtlb_entries: usize,
    /// DTLB associativity.
    pub dtlb_assoc: usize,
    /// Second-level TLB entries.
    pub stlb_entries: usize,
    /// STLB associativity.
    pub stlb_assoc: usize,
    /// Cycles charged for a DTLB miss that hits the STLB.
    pub stlb_latency: u32,
    /// Branch misprediction penalty in cycles (~14-20 on Haswell).
    pub mispredict_penalty: u32,
    /// Load-latency cycles the out-of-order window hides per load.
    /// Independent work from the ~192-entry ROB (often the *next*
    /// lookup) overlaps short stalls, which is why L2/L3 hits are nearly
    /// free and cache-resident dictionaries show no memory stalls
    /// (paper Section 2.2 / Table 2, 1 MB column).
    pub ooo_hide: f64,
    /// Fraction of a *speculative* load's stall that out-of-order
    /// speculation across an unresolved branch overlaps away. The paper
    /// observes that branchy `std` search beats the branch-free baseline
    /// out-of-cache because speculation issues the next load early
    /// (§5.4.1); 0.5 reproduces that crossover.
    pub speculation_overlap: f64,
    /// Fraction of the hidden stall re-charged as *bad speculation* when
    /// the branch turns out mispredicted (the speculatively issued work is
    /// rolled back).
    pub speculation_waste: f64,
    /// Fraction of compute cycles booked as *core* (execution-unit
    /// contention) rather than *retiring*; models the resource stalls the
    /// paper observes for the heavier interleaved implementations.
    pub compute_core_fraction: f64,
    /// Instructions retired per compute cycle charged via `compute()`
    /// (a 4-wide core sustains ~2 useful µops/cycle on this code).
    pub instructions_per_compute_cycle: f64,
}

impl MachineConfig {
    /// The paper's platform (Table 4): Haswell Xeon E5-2660 v3.
    pub(crate) fn haswell_xeon() -> Self {
        Self {
            line_bytes: 64,
            page_bytes: 4096,
            l1d: CacheLevelConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                latency: 4,
            },
            l2: CacheLevelConfig {
                size_bytes: 256 * 1024,
                assoc: 8,
                latency: 12,
            },
            l3: CacheLevelConfig {
                size_bytes: 25 * 1024 * 1024,
                assoc: 20,
                latency: 42,
            },
            dram_latency: 182,
            lfb_entries: 10,
            dtlb_entries: 64,
            dtlb_assoc: 4,
            stlb_entries: 1024,
            stlb_assoc: 8,
            stlb_latency: 9,
            mispredict_penalty: 16,
            ooo_hide: 35.0,
            speculation_overlap: 0.5,
            speculation_waste: 0.55,
            compute_core_fraction: 0.25,
            instructions_per_compute_cycle: 2.0,
        }
    }

    /// A tiny machine for unit tests: 2-set/2-way 256-byte L1, 1 KiB L2,
    /// 4 KiB L3, 2 LFBs. Small enough that tests can exercise evictions
    /// and LFB saturation with a handful of accesses.
    pub fn tiny() -> Self {
        Self {
            line_bytes: 64,
            page_bytes: 4096,
            l1d: CacheLevelConfig {
                size_bytes: 256,
                assoc: 2,
                latency: 4,
            },
            l2: CacheLevelConfig {
                size_bytes: 1024,
                assoc: 2,
                latency: 12,
            },
            l3: CacheLevelConfig {
                size_bytes: 4096,
                assoc: 4,
                latency: 42,
            },
            dram_latency: 182,
            lfb_entries: 2,
            dtlb_entries: 4,
            dtlb_assoc: 2,
            stlb_entries: 16,
            stlb_assoc: 4,
            stlb_latency: 9,
            mispredict_penalty: 16,
            ooo_hide: 35.0,
            speculation_overlap: 0.5,
            speculation_waste: 0.55,
            compute_core_fraction: 0.25,
            instructions_per_compute_cycle: 2.0,
        }
    }

    /// Validate invariants the simulator relies on.
    ///
    /// # Panics
    /// Panics (with a descriptive message) on degenerate geometry.
    pub(crate) fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            self.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(self.page_bytes >= self.line_bytes);
        let _ = self.l1d.sets(self.line_bytes);
        let _ = self.l2.sets(self.line_bytes);
        let _ = self.l3.sets(self.line_bytes);
        assert!(self.lfb_entries > 0, "need at least one line-fill buffer");
        assert!(self.dtlb_entries.is_multiple_of(self.dtlb_assoc));
        assert!(self.stlb_entries.is_multiple_of(self.stlb_assoc));
        assert!((0.0..=1.0).contains(&self.speculation_overlap));
        assert!(self.ooo_hide >= 0.0);
        assert!((0.0..=1.0).contains(&self.compute_core_fraction));
        assert!(self.instructions_per_compute_cycle > 0.0);
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::haswell_xeon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_geometry_matches_table_4() {
        let c = MachineConfig::haswell_xeon();
        c.validate();
        assert_eq!(c.l1d.sets(64), 64); // 32K / 64B / 8-way
        assert_eq!(c.l2.sets(64), 512);
        assert_eq!(c.l3.sets(64), 20480); // 25M / 64 / 20
        assert_eq!(c.lfb_entries, 10);
        assert_eq!(c.dram_latency, 182);
    }

    #[test]
    fn tiny_machine_is_valid() {
        MachineConfig::tiny().validate();
        assert_eq!(MachineConfig::tiny().l1d.sets(64), 2);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn degenerate_geometry_rejected() {
        let c = CacheLevelConfig {
            size_bytes: 100, // not divisible into 64-byte lines * 2 ways
            assoc: 2,
            latency: 1,
        };
        let _ = c.sets(64);
    }

    #[test]
    fn default_is_haswell() {
        assert_eq!(MachineConfig::default(), MachineConfig::haswell_xeon());
    }
}
