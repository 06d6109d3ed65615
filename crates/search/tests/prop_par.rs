//! Property test for the chunk-parallel CORO driver: on arbitrary
//! sorted tables, probe lists and group sizes, `bulk_rank_coro_par`
//! produces byte-identical output to the single-threaded
//! `bulk_rank_coro` across thread counts {1, 2, 4, 8}, and its merged
//! `RunStats` preserve the sequential totals wherever a chunk holds
//! enough probes to interleave.

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

        for threads in [1usize, 2, 4, 8] {
            let cfg = ParConfig::with_threads(threads);
            // Every chunk holds `chunk` probes but the last, which holds
            // the rest.
            let chunk = n.div_ceil(threads.min(n));

            let seq_stats = bulk_rank_coro(mem, &probes, group, &mut seq);
            par.fill(u32::MAX);
            let par_stats = bulk_rank_coro_par(mem, &probes, group, cfg, &mut par);
            prop_assert_eq!(&par, &seq, "coro threads={}", threads);

            // Sink coverage: every output slot was written exactly once
            // (no u32::MAX sentinel survives — ranks are < 12_000).
            prop_assert!(par.iter().all(|&r| r != u32::MAX));

            // Merged stats preserve the totals: every lookup suspends a
            // fixed number of times regardless of partitioning, so
            // lookups/resumes/switches are partition-invariant — among
            // the chunks that interleave. A group of one, or a chunk of
            // one probe, runs the non-suspending instantiation: it
            // resumes once per lookup and never switches.
            prop_assert_eq!(par_stats.lookups, seq_stats.lookups);
            prop_assert_eq!(par_stats.resumes, par_stats.lookups + par_stats.switches);
            if group < 2 || chunk < 2 {
                prop_assert_eq!(par_stats.switches, 0);
            } else if n % chunk != 1 {
                prop_assert_eq!(par_stats.resumes, seq_stats.resumes);
                prop_assert_eq!(par_stats.switches, seq_stats.switches);
            } else {
                // The lone probe of the last chunk did not suspend.
                prop_assert!(par_stats.switches <= seq_stats.switches);
            }
            // ...while peak_in_flight maxes per chunk and is bounded
            // by the effective group (group size and chunk size cap the
            // slab fill).
            let cap = group.min(chunk) as u64;
            prop_assert!(par_stats.peak_in_flight <= cap,
                "peak {} > cap {}", par_stats.peak_in_flight, cap);
        }
    }
}
