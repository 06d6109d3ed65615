//! Regression tests: every search variant agrees with `rank_oracle` on
//! the degenerate inputs where off-by-one bugs live — empty tables,
//! single elements, all-duplicate tables, and probes strictly below the
//! minimum or above the maximum value.

use isi_core::mem::DirectMem;
use isi_search::coro::bulk_rank_coro;
use isi_search::seq::{rank_branchfree, rank_branchy, rank_oracle};
use isi_search::{bulk_rank_amac, bulk_rank_gp};

/// Run all five variants over `table`/`probes` and assert each output
/// equals the oracle's, for a spread of group sizes.
fn assert_all_variants_agree(table: &[u32], probes: &[u32], context: &str) {
    let mem = DirectMem::new(table);
    let expect: Vec<u32> = probes.iter().map(|v| rank_oracle(table, v)).collect();

    for (i, v) in probes.iter().enumerate() {
        assert_eq!(
            rank_branchy(&mem, *v),
            expect[i],
            "{context}: rank_branchy, probe {v}"
        );
        assert_eq!(
            rank_branchfree(&mem, *v),
            expect[i],
            "{context}: rank_branchfree, probe {v}"
        );
    }

    for group in [1, 2, 6, 17] {
        let mut gp = vec![u32::MAX; probes.len()];
        bulk_rank_gp(&mem, probes, group, &mut gp);
        assert_eq!(gp, expect, "{context}: bulk_rank_gp, group {group}");

        let mut amac = vec![u32::MAX; probes.len()];
        bulk_rank_amac(&mem, probes, group, &mut amac);
        assert_eq!(amac, expect, "{context}: bulk_rank_amac, group {group}");

        let mut coro = vec![u32::MAX; probes.len()];
        bulk_rank_coro(mem, probes, group, &mut coro);
        assert_eq!(coro, expect, "{context}: bulk_rank_coro, group {group}");
    }
}

#[test]
fn empty_table() {
    assert_all_variants_agree(&[], &[0, 1, 42, u32::MAX], "empty table");
}

#[test]
fn single_element_table() {
    let table = [7u32];
    assert_all_variants_agree(&table, &[0, 6, 7, 8, u32::MAX], "single element");
}

#[test]
fn all_duplicates_table() {
    let table = [5u32; 64];
    assert_all_variants_agree(&table, &[0, 4, 5, 6, u32::MAX], "all duplicates");
    // A shorter duplicate run whose length is not a power of two.
    let odd = [9u32; 13];
    assert_all_variants_agree(&odd, &[8, 9, 10], "13 duplicates");
}

#[test]
fn probes_below_min_and_above_max() {
    let table: Vec<u32> = (0..100).map(|i| 1000 + i * 10).collect();
    let probes = [0, 999, 1000, 1990, 1991, 5000, u32::MAX];
    assert_all_variants_agree(&table, &probes, "below-min / above-max");

    // Below-min probes must clamp to rank 0 in every variant, exactly
    // like the oracle's saturating_sub.
    let mem = DirectMem::new(&table);
    assert_eq!(rank_oracle(&table, &0), 0);
    assert_eq!(rank_branchy(&mem, 0), 0);
    assert_eq!(rank_branchfree(&mem, 0), 0);

    // Above-max probes must clamp to the last index.
    assert_eq!(rank_oracle(&table, &u32::MAX), 99);
    assert_eq!(rank_branchy(&mem, u32::MAX), 99);
}

#[test]
fn boundary_table_sizes_brute_force() {
    // Exhaustive agreement for every table length 0..=17 (spanning the
    // pow2 / non-pow2 boundaries binary search is sensitive to).
    for len in 0..=17u32 {
        let table: Vec<u32> = (0..len).map(|i| i * 2 + 1).collect();
        let probes: Vec<u32> = (0..=(len * 2 + 2)).collect();
        assert_all_variants_agree(&table, &probes, &format!("len {len}"));
    }
}
