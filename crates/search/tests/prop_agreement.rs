//! Property-based tests: all five binary-search implementations compute
//! the identical rank function on arbitrary sorted arrays, lookup values
//! and group sizes. This is the correctness backbone of the whole
//! reproduction — every benchmark compares implementations that are
//! proven interchangeable here.

use proptest::prelude::*;

use isi_core::mem::DirectMem;
use isi_core::par::ParConfig;
use isi_search::coro::bulk_rank_coro;
use isi_search::key::Str16;
use isi_search::par::bulk_rank_coro_par;
use isi_search::seq::{rank_branchfree, rank_branchy, rank_oracle};
use isi_search::{bulk_rank_amac, bulk_rank_gp};

/// Strategy: a sorted (possibly duplicated) u32 table and probe values
/// drawn from a range that covers hits, misses and extremes.
fn table_and_probes() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (
        proptest::collection::vec(0u32..10_000, 0..300),
        proptest::collection::vec(0u32..12_000, 1..80),
    )
        .prop_map(|(mut t, p)| {
            t.sort_unstable();
            (t, p)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn all_five_implementations_agree((table, probes) in table_and_probes(), group in 1usize..16) {
        let mem = DirectMem::new(&table);
        let expect: Vec<u32> = probes.iter().map(|v| rank_oracle(&table, v)).collect();

        // Sequential implementations.
        for (i, v) in probes.iter().enumerate() {
            prop_assert_eq!(rank_branchy(&mem, *v), expect[i]);
            prop_assert_eq!(rank_branchfree(&mem, *v), expect[i]);
        }

        // Interleaved implementations.
        let mut gp = vec![0u32; probes.len()];
        bulk_rank_gp(&mem, &probes, group, &mut gp);
        prop_assert_eq!(&gp, &expect);

        let mut amac = vec![0u32; probes.len()];
        bulk_rank_amac(&mem, &probes, group, &mut amac);
        prop_assert_eq!(&amac, &expect);

        let mut coro = vec![0u32; probes.len()];
        bulk_rank_coro(mem, &probes, group, &mut coro);
        prop_assert_eq!(&coro, &expect);

        // Group 1 on one thread runs the non-suspending instantiation.
        let mut coro_seq = vec![0u32; probes.len()];
        let stats = bulk_rank_coro_par(mem, &probes, 1, ParConfig::with_threads(1), &mut coro_seq);
        prop_assert_eq!(&coro_seq, &expect);
        prop_assert_eq!(stats.switches, 0);
    }

    #[test]
    fn string_keys_agree_with_int_ranks(
        indices in proptest::collection::vec(0u64..5_000, 1..150),
        probes in proptest::collection::vec(0u64..6_000, 1..40),
        group in 1usize..12,
    ) {
        // Str16::from_index preserves numeric order, so ranks over the
        // string table must equal ranks over the index table.
        let mut idx = indices.clone();
        idx.sort_unstable();
        let int_table: Vec<u64> = idx.clone();
        let str_table: Vec<Str16> = idx.iter().map(|&i| Str16::from_index(i)).collect();

        let int_mem = DirectMem::new(&int_table);
        let str_mem = DirectMem::new(&str_table);
        let str_probes: Vec<Str16> = probes.iter().map(|&p| Str16::from_index(p)).collect();

        let mut out_int = vec![0u32; probes.len()];
        let mut out_str = vec![0u32; probes.len()];
        bulk_rank_coro(int_mem, &probes, group, &mut out_int);
        bulk_rank_coro(str_mem, &str_probes, group, &mut out_str);
        prop_assert_eq!(out_int, out_str);
    }

    #[test]
    fn locate_iff_value_present(
        (table, probes) in table_and_probes(),
    ) {
        use isi_search::locate::locate;
        let mem = DirectMem::new(&table);
        for v in &probes {
            let found = locate(&mem, *v);
            match found {
                Some(code) => prop_assert_eq!(table[code as usize], *v),
                None => prop_assert!(!table.contains(v)),
            }
        }
    }
}
