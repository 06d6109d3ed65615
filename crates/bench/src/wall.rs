//! Wall-clock measurement of the five search implementations on real
//! memory (Figures 3, 4 and 7 on this machine's hardware).

use std::time::Duration;

use isi_core::mem::DirectMem;
use isi_core::stats::time_avg;
use isi_search::coro::bulk_rank_coro;
use isi_search::key::SearchKey;
use isi_search::seq::bulk_rank_branchfree;
use isi_search::seq::bulk_rank_branchy;
use isi_search::{bulk_rank_amac, bulk_rank_gp};

/// Group sizes of the wall-clock sweeps (`benches/group_size.rs`,
/// `fig7` under `ISI_FIG7_WALL`); they reach past this box's plateau,
/// 16–48 under `PREFETCHT0`.
pub const GROUPS: [usize; 10] = [1, 2, 4, 6, 8, 12, 16, 24, 32, 48];

/// The five implementations of Section 5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchImpl {
    /// Branchy, speculative (`std`).
    Std,
    /// Branch-free conditional-move baseline.
    Baseline,
    /// Group prefetching at this group size.
    Gp(usize),
    /// AMAC at this group size.
    Amac(usize),
    /// Coroutine interleaving at this group size.
    Coro(usize),
}

impl SearchImpl {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SearchImpl::Std => "std",
            SearchImpl::Baseline => "Baseline",
            SearchImpl::Gp(_) => "GP",
            SearchImpl::Amac(_) => "AMAC",
            SearchImpl::Coro(_) => "CORO",
        }
    }
}

/// Run one bulk lookup of `lookups` against `table` with `impl_`.
/// The output buffer is supplied by the caller to keep allocation out of
/// the measurement.
pub(crate) fn run_bulk<K: SearchKey>(
    table: &[K],
    lookups: &[K],
    impl_: SearchImpl,
    out: &mut [u32],
) {
    let mem = DirectMem::new(table);
    match impl_ {
        SearchImpl::Std => bulk_rank_branchy(&mem, lookups, out),
        SearchImpl::Baseline => bulk_rank_branchfree(&mem, lookups, out),
        SearchImpl::Gp(g) => bulk_rank_gp(&mem, lookups, g, out),
        SearchImpl::Amac(g) => bulk_rank_amac(&mem, lookups, g, out),
        SearchImpl::Coro(g) => {
            bulk_rank_coro(mem, lookups, g, out);
        }
    }
}

/// Average wall time per full bulk run over `reps` repetitions (after
/// one warm-up run), matching the paper's average-of-N methodology.
pub(crate) fn measure<K: SearchKey>(
    table: &[K],
    lookups: &[K],
    impl_: SearchImpl,
    reps: usize,
) -> Duration {
    let mut out = vec![0u32; lookups.len()];
    run_bulk(table, lookups, impl_, &mut out); // warm-up
    let d = time_avg(reps, || {
        run_bulk(table, lookups, impl_, &mut out);
        std::hint::black_box(&mut out);
    });
    std::hint::black_box(&out);
    d
}

/// Cycles per individual search, the paper's y-axis unit.
pub fn cycles_per_search<K: SearchKey>(
    table: &[K],
    lookups: &[K],
    impl_: SearchImpl,
    reps: usize,
    cycles_per_ns: f64,
) -> f64 {
    let d = measure(table, lookups, impl_, reps);
    d.as_nanos() as f64 * cycles_per_ns / lookups.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_impls_produce_identical_ranks() {
        let table: Vec<u32> = (0..100_000).collect();
        let lookups: Vec<u32> = (0..500).map(|i| i * 199).collect();
        let mut expect = vec![0u32; lookups.len()];
        run_bulk(&table, &lookups, SearchImpl::Baseline, &mut expect);
        for impl_ in [
            SearchImpl::Std,
            SearchImpl::Gp(10),
            SearchImpl::Amac(6),
            SearchImpl::Coro(6),
        ] {
            let mut out = vec![0u32; lookups.len()];
            run_bulk(&table, &lookups, impl_, &mut out);
            assert_eq!(out, expect, "{impl_:?}");
        }
    }

    #[test]
    fn measure_returns_nonzero_time() {
        let table: Vec<u32> = (0..1 << 16).collect();
        let lookups: Vec<u32> = (0..1000).map(|i| i * 61 % (1 << 16)).collect();
        let d = measure(&table, &lookups, SearchImpl::Coro(6), 2);
        assert!(d > Duration::ZERO);
        let c = cycles_per_search(&table, &lookups, SearchImpl::Baseline, 2, 2.0);
        assert!(c > 0.0);
    }
}
