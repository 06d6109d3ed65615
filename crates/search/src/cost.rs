//! Per-iteration instruction-cost constants charged to the simulator.
//!
//! The paper measures (§5.4.4) that, relative to the branch-free
//! `Baseline`, GP executes 1.8x, AMAC 4.4x and CORO 5.4x more
//! instructions — the overhead of switching instruction streams, which
//! "mainly consists of managing state". These constants encode that
//! hierarchy as per-iteration compute cycles; they are no-ops on real
//! memory (`DirectMem`) and only drive `isi-memsim` accounting.
//!
//! Calibration: `Baseline` spends ~5 cycles/iteration of pure compute
//! (a 1 MB int array costs ~100-200 cycles for ~17 iterations in
//! Figure 3a). The interleaved implementations then follow the measured
//! instruction ratios, and the resulting Section 3 model estimates
//! (Inequality 1) land on the paper's group sizes: ~6 for AMAC/CORO and
//! LFB-capped ~10 for GP (§5.4.5).

/// Branch-free baseline: loop control + conditional move.
pub(crate) const BASE_ITER: u32 = 5;

/// Branchy (`std::lower_bound`-style): slightly leaner loop body — the
/// work of the comparison branch itself is modelled separately by the
/// branch predictor.
pub(crate) const BRANCHY_ITER: u32 = 4;

/// GP adds a second pass over the group and probe recomputation, but
/// shares the loop across streams: ~1.8x Baseline.
pub(crate) const GP_ITER: u32 = 9;

/// Cost of the GP prefetch stage per stream (address computation +
/// prefetch issue).
pub(crate) const GP_PREFETCH: u32 = 2;

/// AMAC: full state machine — load state from the circular buffer,
/// dispatch on stage, write state back: ~4.4x Baseline.
pub(crate) const AMAC_ITER: u32 = 22;

/// CORO: body work per iteration, excluding the switch.
pub const CORO_ITER: u32 = 4;

/// CORO: suspend + resume, "equivalent to two function calls" (§4) plus
/// scheduler bookkeeping. The paper measures CORO executing *more*
/// instructions than AMAC (5.4x vs 4.4x Baseline) yet running slightly
/// *faster* thanks to compiler optimization of the generated state
/// machine; we model the net effect: CORO's per-iteration cycle cost
/// lands just below AMAC's.
pub const CORO_SWITCH: u32 = 17;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_ratios_match_section_5_4_4() {
        let base = BASE_ITER as f64;
        let gp = (GP_ITER + GP_PREFETCH) as f64 / base;
        let amac = AMAC_ITER as f64 / base;
        let coro = (CORO_ITER + CORO_SWITCH) as f64 / base;
        assert!((1.5..=2.5).contains(&gp), "GP ratio {gp} vs paper 1.8x");
        assert!(
            (3.8..=5.0).contains(&amac),
            "AMAC ratio {amac} vs paper 4.4x"
        );
        assert!(
            (3.5..=5.5).contains(&coro),
            "CORO ratio {coro} vs paper 5.4x"
        );
        assert!(gp < amac && gp < coro, "GP has the least overhead");
        // Net cycle cost: CORO at or slightly below AMAC (§5.3).
        assert!(coro <= amac);
    }

    #[test]
    fn model_estimates_paper_group_sizes() {
        use isi_core::model::{optimal_group_size, optimal_group_size_capped, StreamParams};
        // 182-cycle DRAM latency (paper §2.2) minus the ~35 cycles the
        // out-of-order window hides on its own: the stall interleaving
        // must cover.
        let stall = 182.0 - 35.0;
        let coro = StreamParams::new(CORO_ITER as f64, CORO_SWITCH as f64, stall);
        let g_coro = optimal_group_size(coro);
        assert!(
            (5..=8).contains(&g_coro),
            "CORO estimate {g_coro}, paper ~6"
        );
        let gp = StreamParams::new((GP_ITER + GP_PREFETCH) as f64, 1.0, stall);
        let g_gp = optimal_group_size_capped(gp, 10);
        assert_eq!(g_gp, 10, "GP is LFB-capped at 10, as observed in Fig. 7");
        assert!(optimal_group_size(gp) >= 12, "uncapped GP estimate >= 12");
    }
}
