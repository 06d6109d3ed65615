//! Property tests for the bulk probe drivers: every variant —
//! sequential, interleaved (across group sizes), AMAC, and
//! chunk-parallel (across thread counts) — must answer exactly like a
//! `HashMap` oracle on arbitrary tables and probe lists, including
//! tables deliberately undersized to force long chains.

use std::collections::HashMap;

use proptest::prelude::*;

use isi_core::par::ParConfig;
use isi_hash::table::ChainedHashTable;
use isi_hash::{bulk_probe_amac, bulk_probe_interleaved, bulk_probe_par, bulk_probe_seq};

/// Distinct key/value pairs, a probe list mixing hits/misses/extremes,
/// and a capacity divisor (1 = normal load, larger = forced chains).
fn table_and_probes() -> impl Strategy<Value = (Vec<(u64, u64)>, Vec<u64>, usize)> {
    (
        proptest::collection::btree_map(0u64..3_000, 0u64..1_000_000, 0..300),
        proptest::collection::vec(0u64..4_000, 0..400),
        1usize..64,
    )
        .prop_map(|(map, mut probes, squeeze)| {
            // Extremes the uniform range cannot reach.
            probes.extend([u64::MAX, u64::MAX - 1, 1 << 63]);
            (map.into_iter().collect(), probes, squeeze)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_bulk_probe_variants_match_hashmap_oracle(
        (pairs, probes, squeeze) in table_and_probes(),
    ) {
        // Undersizing the bucket array (capacity / squeeze) forces
        // multi-hop chains, the case interleaving exists for.
        let mut table = ChainedHashTable::with_capacity(pairs.len() / squeeze);
        for &(k, v) in &pairs {
            table.insert(k, v);
        }
        let oracle: HashMap<u64, u64> = pairs.iter().copied().collect();
        let expect: Vec<Option<u64>> =
            probes.iter().map(|k| oracle.get(k).copied()).collect();

        let mut out = vec![None; probes.len()];
        let stats = bulk_probe_seq(&table, &probes, &mut out);
        prop_assert_eq!(&out, &expect, "seq");
        prop_assert_eq!(stats.lookups, probes.len() as u64);
        prop_assert_eq!(stats.switches, 0);

        for group in [1usize, 6, 17] {
            let mut out = vec![None; probes.len()];
            bulk_probe_interleaved(&table, &probes, group, &mut out);
            prop_assert_eq!(&out, &expect, "interleaved group={}", group);

            let mut out = vec![None; probes.len()];
            bulk_probe_amac(&table, &probes, group, &mut out);
            prop_assert_eq!(&out, &expect, "amac group={}", group);
        }

        for threads in [1usize, 2, 4] {
            let cfg = ParConfig::with_threads(threads);
            let mut out = vec![None; probes.len()];
            let stats = bulk_probe_par(&table, &probes, 6, cfg, &mut out);
            prop_assert_eq!(&out, &expect, "par threads={}", threads);
            prop_assert_eq!(stats.lookups, probes.len() as u64);
        }
    }
}
