//! Simulator-backed behavioural tests: the paper's headline
//! microarchitectural claims, asserted as invariants on the machine
//! model. These are the qualitative shapes of Figures 5-7 — the harness
//! binaries in `isi-bench` print the full sweeps.
//!
//! Methodology note: every measured phase uses *fresh* lookup values.
//! Re-measuring with values already looked up would find all their
//! leaf-level lines warm in the 25 MB simulated LLC and hide the very
//! misses the paper studies; with fresh values the hot top levels of the
//! binary search stay warm (as in the paper's steady state) while the
//! leaf-level lines are cold.

use isi_memsim::{MachineStats, SharedMachine, SimArray};
use isi_search::coro::bulk_rank_coro;
use isi_search::seq::{rank_branchfree, rank_branchy, rank_oracle};
use isi_search::{bulk_rank_amac, bulk_rank_gp};

/// 16 Mi u32 = 64 MB: comfortably larger than the model's 25 MB LLC.
const BIG: usize = 16 << 20;
/// 256 Ki u32 = 1 MB: the paper's cache-resident case.
const SMALL: usize = 256 << 10;
/// Lookups per measured phase.
const PHASE: usize = 400;

/// A simulated machine + sorted table + an endless stream of fresh
/// deterministic lookup values.
struct Bench {
    machine: SharedMachine,
    arr: SimArray<u32>,
    rng: u64,
}

impl Bench {
    fn new(n: usize) -> Self {
        let machine = SharedMachine::haswell();
        let table: Vec<u32> = (0..n as u32).collect();
        let arr = SimArray::new(&machine, table);
        let mut b = Bench {
            machine,
            arr,
            rng: 0x2545_F491_4F6C_DD1D,
        };
        // Warm the hot top levels of the search (paper §2.2: "only the
        // first few binary search iterations are expected to be in a
        // warmed-up cache").
        let warm = b.fresh(PHASE);
        b.baseline(&warm);
        b
    }

    /// `count` fresh lookup values, never produced before.
    fn fresh(&mut self, count: usize) -> Vec<u32> {
        let n = self.arr.len() as u64;
        (0..count)
            .map(|_| {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng % n) as u32
            })
            .collect()
    }

    fn baseline(&self, vals: &[u32]) -> MachineStats {
        self.machine.reset_stats();
        let mem = self.arr.mem();
        for v in vals {
            assert_eq!(rank_branchfree(&mem, *v), rank_oracle(self.arr.raw(), v));
        }
        self.machine.stats()
    }

    fn branchy(&self, vals: &[u32]) -> MachineStats {
        self.machine.reset_stats();
        let mem = self.arr.mem_speculative();
        for v in vals {
            assert_eq!(rank_branchy(&mem, *v), rank_oracle(self.arr.raw(), v));
        }
        self.machine.stats()
    }

    fn coro(&self, vals: &[u32], group: usize) -> MachineStats {
        self.machine.reset_stats();
        let mut out = vec![0u32; vals.len()];
        bulk_rank_coro(self.arr.mem(), vals, group, &mut out);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(self.arr.raw(), v));
        }
        self.machine.stats()
    }

    fn gp(&self, vals: &[u32], group: usize) -> MachineStats {
        self.machine.reset_stats();
        let mut out = vec![0u32; vals.len()];
        bulk_rank_gp(&self.arr.mem(), vals, group, &mut out);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(self.arr.raw(), v));
        }
        self.machine.stats()
    }

    fn amac(&self, vals: &[u32], group: usize) -> MachineStats {
        self.machine.reset_stats();
        let mut out = vec![0u32; vals.len()];
        bulk_rank_amac(&self.arr.mem(), vals, group, &mut out);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(self.arr.raw(), v));
        }
        self.machine.stats()
    }
}

#[test]
fn interleaving_hides_memory_stalls_out_of_cache() {
    let mut b = Bench::new(BIG);
    let v1 = b.fresh(PHASE);
    let v2 = b.fresh(PHASE);
    let base = b.baseline(&v1);
    let coro = b.coro(&v2, 6);

    // Figure 5's shape: baseline is dominated by memory stalls; CORO
    // removes most of them and is substantially faster overall.
    assert!(
        base.memory / base.cycles > 0.5,
        "baseline memory fraction {:.2} should dominate",
        base.memory / base.cycles
    );
    assert!(
        coro.cycles < base.cycles * 0.7,
        "CORO {:.0} vs baseline {:.0} cycles: expected >1.4x speedup",
        coro.cycles,
        base.cycles
    );
    assert!(
        coro.memory < base.memory * 0.6,
        "CORO should eliminate most memory stalls ({:.0} vs {:.0})",
        coro.memory,
        base.memory
    );
    // ...at the price of more retiring work (state management, §5.4.4).
    assert!(coro.retiring > base.retiring);
}

#[test]
fn interleaving_does_not_help_in_cache() {
    let mut b = Bench::new(SMALL);
    // Extra warming: make the whole 1 MB table LLC-resident.
    let w = b.fresh(2000);
    b.baseline(&w);
    let v1 = b.fresh(PHASE);
    let v2 = b.fresh(PHASE);
    let base = b.baseline(&v1);
    let coro = b.coro(&v2, 6);
    // In cache there are few stalls to hide; the switch overhead makes
    // CORO slower (Figure 3a, sizes below the LLC).
    assert!(
        coro.cycles > base.cycles,
        "in-cache CORO {:.0} should not beat baseline {:.0}",
        coro.cycles,
        base.cycles
    );
}

#[test]
fn lfb_hits_replace_demand_misses_under_interleaving() {
    let mut b = Bench::new(BIG);
    let v1 = b.fresh(PHASE);
    let v2 = b.fresh(PHASE);
    let base = b.baseline(&v1);
    let coro = b.coro(&v2, 6);

    // Figure 6's shape: sequential execution takes its misses as
    // L2/L3/DRAM demand loads; interleaved execution converts them into
    // LFB hits on previously prefetched lines.
    assert_eq!(base.lfb_hits, 0);
    assert!(base.dram_loads > 0);
    assert!(
        coro.lfb_hits as f64 > 0.8 * coro.l1_misses() as f64,
        "most CORO L1 misses should be LFB hits: lfb={} l2={} l3={} dram={}",
        coro.lfb_hits,
        coro.l2_hits,
        coro.l3_hits,
        coro.dram_loads
    );
    assert!(
        coro.dram_loads < base.dram_loads / 5,
        "demand DRAM loads should nearly vanish ({} vs {})",
        coro.dram_loads,
        base.dram_loads
    );
}

#[test]
fn group_size_sweep_has_interior_optimum_for_coro() {
    let mut b = Bench::new(BIG);
    let v0 = b.fresh(PHASE);
    let v1 = b.fresh(PHASE);
    let v2 = b.fresh(PHASE);
    let base = b.baseline(&v0).cycles;
    let g1 = b.coro(&v1, 1).cycles;
    let g6 = b.coro(&v2, 6).cycles;

    // Figure 7: group size 1 is *slower* than the sequential baseline
    // (pure switch overhead), while the model-optimal group is much
    // faster than both.
    assert!(
        g1 > base,
        "G=1 CORO ({g1:.0}) must lose to baseline ({base:.0})"
    );
    assert!(
        g6 < base * 0.7,
        "G=6 CORO ({g6:.0}) must beat baseline ({base:.0})"
    );
    assert!(g6 < g1 * 0.6);
}

#[test]
fn gp_is_fastest_with_fewest_instructions() {
    let mut b = Bench::new(BIG);
    let v1 = b.fresh(PHASE);
    let v2 = b.fresh(PHASE);
    let gp = b.gp(&v1, 10);
    let coro = b.coro(&v2, 6);

    // Section 5.4.4: GP shares the loop across streams, so it executes
    // the fewest instructions and runs fastest.
    assert!(
        gp.cycles < coro.cycles,
        "GP {:.0} should beat CORO {:.0}",
        gp.cycles,
        coro.cycles
    );
    assert!(gp.instructions < coro.instructions);
}

#[test]
fn amac_and_coro_are_equivalent() {
    let mut b = Bench::new(BIG);
    let v1 = b.fresh(PHASE);
    let v2 = b.fresh(PHASE);
    let amac = b.amac(&v1, 6);
    let coro = b.coro(&v2, 6);

    // The paper's claim: CORO is the compiler-generated version of
    // AMAC's hand-written state machine, with slightly better
    // performance. Assert equivalence within a tight band, CORO no worse
    // than a whisker.
    let ratio = coro.cycles / amac.cycles;
    assert!(
        (0.70..=1.10).contains(&ratio),
        "CORO/AMAC cycle ratio {ratio:.2} out of expected band"
    );
}

#[test]
fn branchy_speculation_beats_branchfree_out_of_cache_only() {
    // Out of cache: speculation overlaps stalls -> std wins (§5.4.1).
    let mut b = Bench::new(BIG);
    let v1 = b.fresh(PHASE);
    let v2 = b.fresh(PHASE);
    let base = b.baseline(&v1);
    let branchy = b.branchy(&v2);
    assert!(
        branchy.cycles < base.cycles,
        "out-of-cache branchy {:.0} should beat branch-free {:.0}",
        branchy.cycles,
        base.cycles
    );
    assert!(
        branchy.bad_spec / branchy.cycles > 0.08,
        "bad speculation should be visible, got {:.2}",
        branchy.bad_spec / branchy.cycles
    );
    assert!(
        branchy.mispredicts * 3 > branchy.branches,
        "~50% mispredicts"
    );

    // In cache: nothing to hide, mispredicts just cost -> baseline wins.
    let mut s = Bench::new(SMALL);
    let w = s.fresh(2000);
    s.baseline(&w);
    let u1 = s.fresh(PHASE);
    let u2 = s.fresh(PHASE);
    let base2 = s.baseline(&u1);
    let branchy2 = s.branchy(&u2);
    assert!(
        branchy2.cycles > base2.cycles,
        "in-cache branchy {:.0} should lose to branch-free {:.0}",
        branchy2.cycles,
        base2.cycles
    );
}

#[test]
fn cpi_rises_steeply_out_of_cache() {
    // Table 1's shape: CPI grows several-fold from the cache-resident to
    // the out-of-cache case (the paper measures 0.9 -> 6.3 for Main).
    let mut s = Bench::new(SMALL);
    let w = s.fresh(2000);
    s.baseline(&w);
    let vs = s.fresh(PHASE);
    let cpi_small = s.baseline(&vs).cpi();

    let mut b = Bench::new(BIG);
    let vb = b.fresh(PHASE);
    let cpi_big = b.baseline(&vb).cpi();

    assert!(cpi_small < 3.0, "in-cache CPI {cpi_small:.2}");
    assert!(
        cpi_big > 2.5 * cpi_small,
        "CPI should grow several-fold: {cpi_small:.2} -> {cpi_big:.2}"
    );
}

#[test]
fn page_walks_appear_beyond_stlb_reach() {
    // Section 5.4.3: beyond STLB reach (1024 pages = 4 MB), loads start
    // paying page walks that interleaving cannot hide.
    let mut small = Bench::new(512 << 10); // 2 MB: within STLB reach
    let vs = small.fresh(PHASE);
    let s = small.baseline(&vs);
    let walks_small = s.pw_l1 + s.pw_l2 + s.pw_l3 + s.pw_dram;

    let mut big = Bench::new(BIG); // 64 MB: far beyond STLB reach
    let vb = big.fresh(PHASE);
    let bstats = big.baseline(&vb);
    let walks_big = bstats.pw_l1 + bstats.pw_l2 + bstats.pw_l3 + bstats.pw_dram;

    assert!(
        walks_big > walks_small * 10,
        "walks: small={walks_small} big={walks_big}"
    );
    // And interleaved execution still pays them (prefetch blocks on
    // translation): CORO's walk count is in the same ballpark.
    let vc = big.fresh(PHASE);
    let coro = big.coro(&vc, 6);
    let walks_coro = coro.pw_l1 + coro.pw_l2 + coro.pw_l3 + coro.pw_dram;
    assert!(
        walks_coro as f64 > 0.5 * walks_big as f64,
        "interleaving cannot hide translation: {walks_coro} vs {walks_big}"
    );
}
