//! Property test for the serving path's CORO driver: on arbitrary
//! sorted tables, probe lists and group sizes, `bulk_rank_coro_par`
//! produces byte-identical output to `bulk_rank_coro` and writes every
//! output slot, and its `RunStats` are the interleaved run's wherever
//! there is something to interleave with.

use proptest::prelude::*;

use isi_core::mem::DirectMem;
use isi_core::par::ParConfig;
use isi_search::coro::bulk_rank_coro;
use isi_search::par::bulk_rank_coro_par;

/// Strategy: a sorted (possibly duplicated) u32 table and probe values
/// covering hits, misses and extremes.
fn table_and_probes() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (
        proptest::collection::vec(0u32..10_000, 0..300),
        proptest::collection::vec(0u32..12_000, 1..400),
    )
        .prop_map(|(mut t, p)| {
            t.sort_unstable();
            (t, p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_drivers_match_sequential_drivers(
        (table, probes) in table_and_probes(),
        group in 1usize..16,
    ) {
        let mem = DirectMem::new(&table);
        let n = probes.len();

        let mut seq = vec![0u32; n];
        let mut par = vec![u32::MAX; n];
        let seq_stats = bulk_rank_coro(mem, &probes, group, &mut seq);
        let par_stats = bulk_rank_coro_par(mem, &probes, group, ParConfig, &mut par);
        prop_assert_eq!(&par, &seq);

        // Sink coverage: every output slot was written exactly once
        // (no u32::MAX sentinel survives — ranks are < 12_000).
        prop_assert!(par.iter().all(|&r| r != u32::MAX));

        // The counters are the interleaved run's, except where there is
        // nothing to interleave with: a group of one, or one probe, runs
        // the non-suspending instantiation, which resumes once per
        // lookup and never switches.
        prop_assert_eq!(par_stats.lookups, seq_stats.lookups);
        prop_assert_eq!(par_stats.resumes, par_stats.lookups + par_stats.switches);
        if group < 2 || n < 2 {
            prop_assert_eq!(par_stats.switches, 0);
            prop_assert_eq!(par_stats.peak_in_flight, 1);
        } else {
            prop_assert_eq!(par_stats, seq_stats);
        }
    }
}
