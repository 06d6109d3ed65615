//! Property tests for the serving path's rank drivers: on arbitrary
//! sorted tables, probe lists and group sizes, `bulk_rank_coro_par`
//! produces byte-identical output to `bulk_rank_coro` and writes every
//! output slot, and its `RunStats` are the interleaved run's wherever
//! there is something to interleave with; and a `SortedShard`'s fenced
//! rank equals `bulk_rank_coro_par`'s over its key column.

use proptest::prelude::*;

use isi_core::mem::DirectMem;
use isi_core::par::ParConfig;
use isi_search::coro::bulk_rank_coro;
use isi_search::par::bulk_rank_coro_par;
use isi_search::SortedShard;

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

/// Column lengths at the fence's edges. A block is 8 keys: 0, 1, 7, 8
/// and 9 keys, then 2^k - 1, 2^k and 2^k + 1 blocks (a full Eytzinger
/// tree, one node on a new level, two), each with a full and a partial
/// last block. Blocks are index ranges of the column, not its memory
/// lines, so where the column sits in memory cannot change a rank.
fn fence_edge_lengths() -> Vec<usize> {
    let mut lens = vec![0, 1, 7, 8, 9];
    for k in 1..=6 {
        for blocks in [(1 << k) - 1, 1 << k, (1 << k) + 1] {
            lens.extend([8 * blocks - 3, 8 * blocks]);
        }
    }
    lens
}

const LONGEST: usize = 8 * 65;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fenced_rank_matches_the_binary_search(
        gaps in proptest::collection::vec(0u64..1 << 40, LONGEST..LONGEST + 1),
        spread in 0u32..3,
        first in 0u64..3,
        ends_at_max in 0u8..2,
    ) {
        for len in fence_edge_lengths() {
            // Strictly sorted: consecutive keys (spread 0), or gaps of
            // up to 2^20 or 2^40; the first key is 0 in a third of the
            // cases and the last is u64::MAX in half of them.
            let mut key = first;
            let mut col: Vec<u64> = gaps[..len]
                .iter()
                .map(|g| {
                    let k = key;
                    key += 1 + g % (1u64 << (20 * spread));
                    k
                })
                .collect();
            if ends_at_max == 1 {
                if let Some(last) = col.last_mut() {
                    *last = u64::MAX;
                }
            }
            let pairs: Vec<(u64, u64)> = col.iter().map(|&k| (k, !k)).collect();
            let shard = SortedShard::build(&pairs);
            let mut probes: Vec<u64> = col
                .iter()
                .flat_map(|&k| [k.wrapping_sub(1), k, k.wrapping_add(1)])
                .collect();
            probes.extend([0, u64::MAX]);
            for group in [1, 2, 24] {
                let mut fenced = vec![u32::MAX; probes.len()];
                let mut binary = vec![0u32; probes.len()];
                let stats = shard.rank_batch(&probes, group, &mut fenced);
                bulk_rank_coro_par(DirectMem::new(shard.keys()), &probes, group, ParConfig, &mut binary);
                prop_assert_eq!(&fenced, &binary, "len={} group={}", len, group);
                prop_assert_eq!(stats.lookups, probes.len() as u64);
            }
        }
    }
}
