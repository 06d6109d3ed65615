//! The machine model: a single out-of-order core's view of the memory
//! hierarchy, with TMAM-style cycle accounting.
//!
//! The model tracks a global cycle clock that is advanced by compute
//! charges, memory stalls, TLB/page-walk latency and branch-misprediction
//! penalties, attributing every cycle to one of the five TMAM pipeline-slot
//! categories of the paper's Section 2.2 (Retiring, Memory, Core, Bad
//! Speculation, Front-end).
//!
//! Interleaving falls out naturally from the global clock: when one
//! instruction stream prefetches a line, a line-fill-buffer entry is
//! created with a completion timestamp; the compute cycles charged by the
//! *other* streams advance the clock past that timestamp, so when the
//! first stream's load arrives it finds the fill (almost) complete — an
//! *LFB hit* with little or no stall, exactly the mechanism of Section
//! 5.4.2. The finite number of LFBs likewise reproduces the group-size
//! ceiling of Section 5.4.5.

use crate::cache::Cache;
use crate::config::MachineConfig;

/// Synthetic address of the (final-level) page table. Placed far above
/// the data-region bump allocator so they can never collide.
const PAGE_TABLE_BASE: u64 = 1 << 46;

/// First address handed out by [`Machine::alloc_region`].
const REGION_BASE: u64 = 1 << 21;

/// Memory-hierarchy level where a load found its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// L1 data-cache hit (not an L1D miss; omitted from Figure 6).
    L1,
    /// Line-fill-buffer hit: an earlier prefetch already requested the line.
    Lfb,
    /// L2 hit.
    L2,
    /// Last-level-cache hit.
    L3,
    /// Main-memory access.
    Dram,
}

/// Where a page walk found the page-table entry (Section 5.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkLevel {
    /// PTE found in L1D.
    PwL1,
    /// PTE found in L2.
    PwL2,
    /// PTE found in L3.
    PwL3,
    /// PTE fetched from DRAM.
    PwDram,
}

/// Cycle and event counters accumulated by the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MachineStats {
    /// Total cycles elapsed.
    pub cycles: f64,
    /// Retired instructions (for CPI).
    pub instructions: f64,
    /// TMAM: cycles retiring useful work.
    pub retiring: f64,
    /// TMAM: back-end stalls waiting on data (includes address translation).
    pub memory: f64,
    /// TMAM: back-end stalls on execution resources.
    pub core: f64,
    /// TMAM: cycles wasted on mispredicted paths.
    pub bad_spec: f64,
    /// TMAM: front-end starvation (instruction delivery after flushes).
    pub frontend: f64,
    /// Loads that hit L1D.
    pub l1_hits: u64,
    /// Loads that hit a line-fill buffer (prefetch in flight).
    pub lfb_hits: u64,
    /// Loads that hit L2.
    pub l2_hits: u64,
    /// Loads that hit L3.
    pub l3_hits: u64,
    /// Loads served from main memory.
    pub dram_loads: u64,
    /// Address translations that hit the first-level DTLB.
    pub dtlb_hits: u64,
    /// DTLB misses that hit the second-level TLB.
    pub stlb_hits: u64,
    /// Page walks whose PTE was found in L1D / L2 / L3 / DRAM.
    pub pw_l1: u64,
    /// PTE found in L2.
    pub pw_l2: u64,
    /// PTE found in L3.
    pub pw_l3: u64,
    /// PTE fetched from DRAM.
    pub pw_dram: u64,
    /// Total load operations.
    pub loads: u64,
    /// Software prefetches issued.
    pub prefetches: u64,
    /// Conditional branches recorded.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles stalled because all line-fill buffers were busy.
    pub lfb_full_stalls: f64,
}

impl MachineStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions > 0.0 {
            self.cycles / self.instructions
        } else {
            0.0
        }
    }

    /// TMAM category fractions `(retiring, memory, core, bad_spec,
    /// front_end)` summing to ~1 when any cycles elapsed.
    pub fn tmam_fractions(&self) -> (f64, f64, f64, f64, f64) {
        let t = self.cycles.max(1e-12);
        (
            self.retiring / t,
            self.memory / t,
            self.core / t,
            self.bad_spec / t,
            self.frontend / t,
        )
    }

    /// Total L1D misses (every load that was not an L1 hit).
    pub fn l1_misses(&self) -> u64 {
        self.lfb_hits + self.l2_hits + self.l3_hits + self.dram_loads
    }

    /// Difference `self - earlier`, for measuring a window of execution.
    pub fn delta_since(&self, earlier: &MachineStats) -> MachineStats {
        MachineStats {
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            retiring: self.retiring - earlier.retiring,
            memory: self.memory - earlier.memory,
            core: self.core - earlier.core,
            bad_spec: self.bad_spec - earlier.bad_spec,
            frontend: self.frontend - earlier.frontend,
            l1_hits: self.l1_hits - earlier.l1_hits,
            lfb_hits: self.lfb_hits - earlier.lfb_hits,
            l2_hits: self.l2_hits - earlier.l2_hits,
            l3_hits: self.l3_hits - earlier.l3_hits,
            dram_loads: self.dram_loads - earlier.dram_loads,
            dtlb_hits: self.dtlb_hits - earlier.dtlb_hits,
            stlb_hits: self.stlb_hits - earlier.stlb_hits,
            pw_l1: self.pw_l1 - earlier.pw_l1,
            pw_l2: self.pw_l2 - earlier.pw_l2,
            pw_l3: self.pw_l3 - earlier.pw_l3,
            pw_dram: self.pw_dram - earlier.pw_dram,
            loads: self.loads - earlier.loads,
            prefetches: self.prefetches - earlier.prefetches,
            branches: self.branches - earlier.branches,
            mispredicts: self.mispredicts - earlier.mispredicts,
            lfb_full_stalls: self.lfb_full_stalls - earlier.lfb_full_stalls,
        }
    }
}

/// An in-flight line fill initiated by a software prefetch.
#[derive(Debug, Clone, Copy)]
struct LfbEntry {
    line: u64,
    ready_at: f64,
}

/// The simulated core + memory hierarchy.
pub struct Machine {
    cfg: MachineConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    dtlb: Cache,
    stlb: Cache,
    lfb: Vec<LfbEntry>,
    /// Absolute cycle clock. Never reset (LFB timestamps reference it);
    /// `stats.cycles` counts cycles since the last `reset_stats`.
    clock: f64,
    stats: MachineStats,
    /// 2-bit saturating counter branch predictor (single dominant branch
    /// site, as in a binary-search loop).
    predictor: u8,
    /// Stall cycles hidden by speculation on the most recent speculative
    /// load; re-charged as bad speculation if the guarding branch was
    /// mispredicted.
    last_spec_hidden: f64,
    region_cursor: u64,
}

impl Machine {
    /// Build a machine from a validated configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let line = cfg.line_bytes;
        Self {
            l1: Cache::new(cfg.l1d.sets(line), cfg.l1d.assoc),
            l2: Cache::new(cfg.l2.sets(line), cfg.l2.assoc),
            l3: Cache::new(cfg.l3.sets(line), cfg.l3.assoc),
            dtlb: Cache::new(cfg.dtlb_entries / cfg.dtlb_assoc, cfg.dtlb_assoc),
            stlb: Cache::new(cfg.stlb_entries / cfg.stlb_assoc, cfg.stlb_assoc),
            lfb: Vec::with_capacity(cfg.lfb_entries),
            clock: 0.0,
            stats: MachineStats::default(),
            predictor: 1,
            last_spec_hidden: 0.0,
            region_cursor: REGION_BASE,
            cfg,
        }
    }

    /// The paper's platform.
    pub fn haswell() -> Self {
        Self::new(MachineConfig::haswell_xeon())
    }

    /// The active configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current (absolute) cycle clock.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advance the clock, crediting the elapsed cycles to `stats.cycles`.
    #[inline]
    fn advance(&mut self, cycles: f64) {
        self.clock += cycles;
        self.stats.cycles += cycles;
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> MachineStats {
        self.stats
    }

    /// Zero the counters but keep cache/TLB contents (for measuring a
    /// warmed-up steady state, as the paper's 60-second profiling window
    /// does). The absolute clock keeps running so LFB timestamps stay
    /// coherent; `stats.cycles` restarts from zero.
    pub fn reset_stats(&mut self) {
        self.stats = MachineStats::default();
    }

    /// Drop all cached state (cold machine).
    pub fn flush_caches(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.l3.clear();
        self.dtlb.clear();
        self.stlb.clear();
        self.lfb.clear();
    }

    /// Allocate a `bytes`-byte region of the synthetic physical address
    /// space, page-aligned, separated from its neighbours by a guard page.
    pub fn alloc_region(&mut self, bytes: usize) -> u64 {
        let page = self.cfg.page_bytes as u64;
        let base = self.region_cursor;
        let len = (bytes as u64).max(1).div_ceil(page) * page;
        self.region_cursor = base + len + page; // guard page between regions
        assert!(
            self.region_cursor < PAGE_TABLE_BASE,
            "synthetic address space exhausted"
        );
        base
    }

    /// Advance the clock by `cycles` of computation, booking the
    /// configured fractions as retiring vs core and crediting retired
    /// instructions.
    pub fn compute(&mut self, cycles: u32) {
        let c = cycles as f64;
        let core = c * self.cfg.compute_core_fraction;
        self.advance(c);
        self.stats.core += core;
        self.stats.retiring += c - core;
        self.stats.instructions += c * self.cfg.instructions_per_compute_cycle;
    }

    /// Record a conditional branch whose outcome is `taken`.
    ///
    /// A 2-bit saturating counter predicts the outcome; a misprediction
    /// costs the configured penalty (booked as bad speculation, plus a
    /// small front-end refill charge) and additionally wastes the
    /// speculatively hidden portion of the preceding speculative load.
    pub fn branch(&mut self, taken: bool) {
        self.stats.branches += 1;
        self.stats.instructions += 1.0;
        let predicted_taken = self.predictor >= 2;
        // Update the saturating counter.
        if taken {
            self.predictor = (self.predictor + 1).min(3);
        } else {
            self.predictor = self.predictor.saturating_sub(1);
        }
        if predicted_taken != taken {
            self.stats.mispredicts += 1;
            let penalty = self.cfg.mispredict_penalty as f64;
            let waste = self.last_spec_hidden * self.cfg.speculation_waste;
            self.advance(penalty + waste);
            self.stats.bad_spec += penalty * 0.8 + waste;
            self.stats.frontend += penalty * 0.2;
        }
        self.last_spec_hidden = 0.0;
    }

    /// Translate `addr`, charging DTLB/STLB/page-walk cost to the memory
    /// category. Returns the walk level if a full walk was needed.
    fn translate(&mut self, addr: u64) -> Option<WalkLevel> {
        let vpn = addr / self.cfg.page_bytes as u64;
        if self.dtlb.access(vpn) {
            self.stats.dtlb_hits += 1;
            return None;
        }
        if self.stlb.access(vpn) {
            self.stats.stlb_hits += 1;
            self.dtlb.insert(vpn);
            let cost = self.cfg.stlb_latency as f64;
            self.advance(cost);
            self.stats.memory += cost;
            return None;
        }
        // Final-level page walk: fetch the PTE through the data caches.
        let pte_line = (PAGE_TABLE_BASE + vpn * 8) / self.cfg.line_bytes as u64;
        let (level, cost) = if self.l1.access(pte_line) {
            (WalkLevel::PwL1, self.cfg.l1d.latency)
        } else if self.l2.access(pte_line) {
            self.l1.insert(pte_line);
            (WalkLevel::PwL2, self.cfg.l2.latency)
        } else if self.l3.access(pte_line) {
            self.l1.insert(pte_line);
            self.l2.insert(pte_line);
            (WalkLevel::PwL3, self.cfg.l3.latency)
        } else {
            self.l1.insert(pte_line);
            self.l2.insert(pte_line);
            self.l3.insert(pte_line);
            (WalkLevel::PwDram, self.cfg.dram_latency)
        };
        match level {
            WalkLevel::PwL1 => self.stats.pw_l1 += 1,
            WalkLevel::PwL2 => self.stats.pw_l2 += 1,
            WalkLevel::PwL3 => self.stats.pw_l3 += 1,
            WalkLevel::PwDram => self.stats.pw_dram += 1,
        }
        let cost = cost as f64 + self.cfg.stlb_latency as f64;
        self.advance(cost);
        self.stats.memory += cost;
        self.dtlb.insert(vpn);
        self.stlb.insert(vpn);
        Some(level)
    }

    /// Number of fills still in flight. Completed fills are retired:
    /// their lines are installed into the cache hierarchy (the fill
    /// finished) and the buffer entry is freed.
    fn lfb_in_flight(&mut self) -> usize {
        let now = self.clock;
        let mut i = 0;
        while i < self.lfb.len() {
            if self.lfb[i].ready_at <= now {
                let line = self.lfb.swap_remove(i).line;
                self.l1.insert(line);
                self.l2.insert(line);
                self.l3.insert(line);
            } else {
                i += 1;
            }
        }
        self.lfb.len()
    }

    /// Find (and remove) an LFB entry for `line`.
    fn lfb_take(&mut self, line: u64) -> Option<LfbEntry> {
        let pos = self.lfb.iter().position(|e| e.line == line)?;
        Some(self.lfb.swap_remove(pos))
    }

    /// Where would a load of `line` hit right now, without an LFB?
    /// Updates cache LRU/fill state. Returns level and raw stall cycles.
    fn probe_fill(&mut self, line: u64) -> (HitLevel, f64) {
        if self.l1.access(line) {
            (HitLevel::L1, 0.0)
        } else if self.l2.access(line) {
            self.l1.insert(line);
            (HitLevel::L2, self.cfg.l2.latency as f64)
        } else if self.l3.access(line) {
            self.l1.insert(line);
            self.l2.insert(line);
            (HitLevel::L3, self.cfg.l3.latency as f64)
        } else {
            self.l1.insert(line);
            self.l2.insert(line);
            self.l3.insert(line);
            (HitLevel::Dram, self.cfg.dram_latency as f64)
        }
    }

    /// Execute a load of `bytes` bytes at `addr`.
    ///
    /// `speculative` marks loads issued under an unresolved data-dependent
    /// branch (branchy binary search): out-of-order speculation overlaps
    /// part of their stall, at the risk of wasting it on a mispredicted
    /// path (see [`Machine::branch`]). Returns the hit level of the
    /// *first* line (the latency-critical one).
    pub fn load(&mut self, addr: u64, bytes: usize, speculative: bool) -> HitLevel {
        let line_bytes = self.cfg.line_bytes as u64;
        let first_line = addr / line_bytes;
        let last_line = (addr + bytes.max(1) as u64 - 1) / line_bytes;
        let mut first_level = HitLevel::L1;
        for line in first_line..=last_line {
            self.stats.loads += 1;
            self.stats.instructions += 1.0;
            self.translate(line * line_bytes);
            let level;
            let mut stall;
            if let Some(entry) = self.lfb_take(line) {
                // A prefetch already requested this line.
                level = HitLevel::Lfb;
                stall = (entry.ready_at - self.clock).max(0.0);
                self.l1.insert(line);
                self.l2.insert(line);
                self.l3.insert(line);
            } else {
                let (lvl, raw) = self.probe_fill(line);
                level = lvl;
                stall = raw;
            }
            // Out-of-order execution overlaps the first `ooo_hide`
            // cycles of any load with independent work (cross-lookup
            // instruction-level parallelism): L2 and most L3 hits are
            // effectively free, long stalls are only shortened.
            stall = (stall - self.cfg.ooo_hide).max(0.0);
            if speculative && stall > 0.0 {
                let hidden = stall * self.cfg.speculation_overlap;
                stall -= hidden;
                self.last_spec_hidden = hidden;
            }
            self.advance(stall);
            self.stats.memory += stall;
            match level {
                HitLevel::L1 => self.stats.l1_hits += 1,
                HitLevel::Lfb => self.stats.lfb_hits += 1,
                HitLevel::L2 => self.stats.l2_hits += 1,
                HitLevel::L3 => self.stats.l3_hits += 1,
                HitLevel::Dram => self.stats.dram_loads += 1,
            }
            if line == first_line {
                first_level = level;
            }
        }
        first_level
    }

    /// Issue a software prefetch for the `bytes`-byte object at `addr`.
    ///
    /// Each missing line allocates a line-fill buffer whose fill completes
    /// after the latency of the level that owns the line. The pipeline
    /// blocks for the address translation (Section 5.4.3: prefetches do
    /// not retire until their address is translated) and, when every LFB
    /// is busy, until one frees up (Section 5.4.5: this is what caps GP at
    /// group size ~10).
    pub fn prefetch(&mut self, addr: u64, bytes: usize) {
        let line_bytes = self.cfg.line_bytes as u64;
        let first_line = addr / line_bytes;
        let last_line = (addr + bytes.max(1) as u64 - 1) / line_bytes;
        for line in first_line..=last_line {
            self.stats.prefetches += 1;
            self.stats.instructions += 1.0;
            // The prefetch µop itself.
            self.advance(1.0);
            self.stats.retiring += 1.0;
            self.translate(line * line_bytes);
            if self.l1.peek(line) || self.lfb.iter().any(|e| e.line == line) {
                continue; // already present or already in flight
            }
            // Stall if all fill buffers are busy.
            while self.lfb_in_flight() >= self.cfg.lfb_entries {
                let earliest = self
                    .lfb
                    .iter()
                    .map(|e| e.ready_at)
                    .fold(f64::INFINITY, f64::min);
                let wait = (earliest - self.clock).max(0.0) + 1e-9;
                self.advance(wait);
                self.stats.memory += wait;
                self.stats.lfb_full_stalls += wait;
            }
            // Source latency: where does the line live now? (Do not fill
            // L1 yet — the fill completes asynchronously; the consuming
            // load installs it.)
            let latency = if self.l2.access(line) {
                self.cfg.l2.latency
            } else if self.l3.access(line) {
                self.cfg.l3.latency
            } else {
                self.cfg.dram_latency
            } as f64;
            self.lfb.push(LfbEntry {
                line,
                ready_at: self.clock + latency,
            });
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("clock", &self.clock)
            .field("lfb_in_flight", &self.lfb.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Machine {
        Machine::new(MachineConfig::tiny())
    }

    #[test]
    fn cold_load_goes_to_dram_then_hits_l1() {
        let mut m = tiny();
        let base = m.alloc_region(4096);
        assert_eq!(m.load(base, 4, false), HitLevel::Dram);
        assert_eq!(m.load(base, 4, false), HitLevel::L1);
        let s = m.stats();
        assert_eq!(s.dram_loads, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.loads, 2);
        // The DRAM stall must appear in the memory category.
        assert!(s.memory >= 182.0);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut m = tiny();
        let base = m.alloc_region(1 << 16);
        // Tiny L1 = 4 lines (2 sets x 2 ways). Touch 8 distinct lines
        // mapping over both sets, then re-touch the first: it must have
        // been evicted from L1 but still sit in L2 (8 lines = L2 capacity... 16 lines).
        for i in 0..8u64 {
            m.load(base + i * 64, 4, false);
        }
        let before = m.stats();
        let lvl = m.load(base, 4, false);
        assert_eq!(lvl, HitLevel::L2);
        let d = m.stats().delta_since(&before);
        assert_eq!(d.l2_hits, 1);
    }

    #[test]
    fn prefetch_then_immediate_load_is_lfb_hit_with_partial_stall() {
        let mut m = tiny();
        let base = m.alloc_region(4096);
        // Warm translation so the measurement below is pure data stall.
        m.load(base + 128, 4, false);
        m.reset_stats();
        m.prefetch(base, 4);
        let t_after_prefetch = m.now();
        let lvl = m.load(base, 4, false);
        assert_eq!(lvl, HitLevel::Lfb);
        let s = m.stats();
        assert_eq!(s.lfb_hits, 1);
        // Load arrived immediately after the prefetch: it must wait out
        // (nearly) the whole DRAM latency, minus the slice the OoO
        // window hides on any load.
        let waited = m.now() - t_after_prefetch;
        let floor = 182.0 - m.config().ooo_hide - 10.0;
        assert!(waited > floor, "waited only {waited}");
    }

    #[test]
    fn prefetch_plus_enough_compute_hides_the_stall() {
        let mut m = tiny();
        let base = m.alloc_region(4096);
        m.load(base + 128, 4, false); // warm TLB
        m.prefetch(base, 4);
        m.compute(200); // other streams' work, > DRAM latency
        let before = m.stats();
        let lvl = m.load(base, 4, false);
        assert_eq!(lvl, HitLevel::Lfb);
        let d = m.stats().delta_since(&before);
        assert!(
            d.memory < 1.0,
            "stall should be fully hidden, got {}",
            d.memory
        );
    }

    #[test]
    fn lfb_saturation_stalls_excess_prefetches() {
        let mut m = tiny(); // 2 LFBs
        let base = m.alloc_region(1 << 16);
        // Warm TLB for the three target lines.
        for i in 0..3u64 {
            m.load(base + i * 64 + 1024, 1, false);
        }
        // Evict nothing relevant; now prefetch 3 distinct cold lines.
        m.reset_stats();
        m.prefetch(base + 64 * 100, 1);
        m.prefetch(base + 64 * 101, 1);
        let before_third = m.stats();
        m.prefetch(base + 64 * 102, 1); // no free LFB: must stall
        let d = m.stats().delta_since(&before_third);
        assert!(
            d.lfb_full_stalls > 0.0,
            "third prefetch should wait for a free LFB"
        );
    }

    #[test]
    fn tlb_miss_costs_and_page_walks_are_counted() {
        let mut m = tiny(); // DTLB 4 entries, STLB 16
        let base = m.alloc_region(1 << 22); // 4 MiB: 1024 pages
                                            // Touch 32 distinct pages: far beyond both TLBs.
        for p in 0..32u64 {
            m.load(base + p * 4096, 4, false);
        }
        let s = m.stats();
        assert!(
            s.pw_dram + s.pw_l3 + s.pw_l2 + s.pw_l1 > 0,
            "expected page walks"
        );
        // Second pass over the same 32 pages: TLBs (4+16 entries) cannot
        // hold 32 pages, so walks continue, but PTE lines now sit in the
        // caches -> cheaper walk levels appear.
        let before = m.stats();
        for p in 0..32u64 {
            m.load(base + p * 4096, 4, false);
        }
        let d = m.stats().delta_since(&before);
        assert!(
            d.pw_l1 + d.pw_l2 + d.pw_l3 > 0,
            "PTEs should now hit in caches"
        );
    }

    #[test]
    fn small_footprint_stays_tlb_resident() {
        let mut m = tiny();
        let base = m.alloc_region(4096);
        m.load(base, 4, false);
        let before = m.stats();
        for _ in 0..10 {
            m.load(base, 4, false);
        }
        let d = m.stats().delta_since(&before);
        assert_eq!(d.dtlb_hits, 10);
        assert_eq!(d.pw_l1 + d.pw_l2 + d.pw_l3 + d.pw_dram, 0);
    }

    #[test]
    fn random_branches_mispredict_about_half_the_time() {
        let mut m = tiny();
        // Deterministic pseudo-random outcome stream.
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            m.branch(x & 1 == 0);
        }
        let s = m.stats();
        assert_eq!(s.branches, 10_000);
        let rate = s.mispredicts as f64 / s.branches as f64;
        assert!((0.4..=0.6).contains(&rate), "mispredict rate {rate}");
        assert!(s.bad_spec > 0.0);
        assert!(s.frontend > 0.0);
    }

    #[test]
    fn biased_branches_predict_well() {
        let mut m = tiny();
        for _ in 0..1000 {
            m.branch(true);
        }
        let s = m.stats();
        assert!(s.mispredicts <= 2, "saturating counter should lock on");
    }

    #[test]
    fn speculative_loads_stall_less_but_waste_on_mispredict() {
        // Non-speculative DRAM load: full stall.
        let mut m1 = tiny();
        let b1 = m1.alloc_region(1 << 16);
        m1.load(b1 + 4096, 1, false); // warm TLB region
        m1.reset_stats();
        m1.load(b1 + 64 * 50, 1, false);
        let full = m1.stats().memory;

        // Speculative DRAM load: half the stall...
        let mut m2 = tiny();
        let b2 = m2.alloc_region(1 << 16);
        m2.load(b2 + 4096, 1, false);
        m2.reset_stats();
        m2.load(b2 + 64 * 50, 1, true);
        let spec = m2.stats().memory;
        assert!(
            spec < full * 0.75,
            "speculation must hide stall: {spec} vs {full}"
        );

        // ...but a misprediction re-charges the hidden part as bad_spec.
        // Force a mispredict: predictor init=1 predicts not-taken.
        let before = m2.stats();
        m2.branch(true);
        let d = m2.stats().delta_since(&before);
        assert!(d.bad_spec > m2.config().mispredict_penalty as f64 * 0.79);
    }

    #[test]
    fn compute_splits_retiring_and_core() {
        let mut m = tiny();
        m.compute(100);
        let s = m.stats();
        assert_eq!(s.cycles, 100.0);
        assert!((s.core - 25.0).abs() < 1e-9);
        assert!((s.retiring - 75.0).abs() < 1e-9);
        assert!((s.instructions - 200.0).abs() < 1e-9);
        assert!(s.cpi() > 0.0 && s.cpi() < 1.0);
    }

    #[test]
    fn multi_line_object_touches_every_line() {
        let mut m = tiny();
        let base = m.alloc_region(4096);
        // A 256-byte node spans 4 lines when aligned.
        m.load(base, 256, false);
        assert_eq!(m.stats().loads, 4);
        m.prefetch(base + 1024, 256);
        assert_eq!(m.stats().prefetches, 4);
    }

    #[test]
    fn regions_do_not_overlap_and_are_page_aligned() {
        let mut m = tiny();
        let a = m.alloc_region(100);
        let b = m.alloc_region(8192);
        let c = m.alloc_region(1);
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 4096 + 4096, "guard page expected");
        assert!(c >= b + 8192 + 4096);
    }

    #[test]
    fn reset_stats_keeps_clock_and_caches() {
        let mut m = tiny();
        let base = m.alloc_region(4096);
        m.load(base, 4, false);
        let clock = m.now();
        m.reset_stats();
        assert_eq!(m.now(), clock);
        // Cache still warm: next load is an L1 hit.
        assert_eq!(m.load(base, 4, false), HitLevel::L1);
    }

    #[test]
    fn flush_caches_makes_machine_cold_again() {
        let mut m = tiny();
        let base = m.alloc_region(4096);
        m.load(base, 4, false);
        m.flush_caches();
        assert_eq!(m.load(base, 4, false), HitLevel::Dram);
    }

    #[test]
    fn tmam_fractions_sum_to_one() {
        let mut m = tiny();
        let base = m.alloc_region(1 << 16);
        for i in 0..50u64 {
            m.compute(5);
            m.load(base + i * 64, 4, false);
            m.branch(i % 2 == 0);
        }
        let (r, mem, c, b, f) = m.stats().tmam_fractions();
        let sum = r + mem + c + b + f;
        assert!((sum - 1.0).abs() < 0.02, "fractions sum to {sum}");
    }
}
