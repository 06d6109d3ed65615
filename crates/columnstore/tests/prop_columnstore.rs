//! Property-based tests for the column store: dictionary encoding is
//! lossless, IN-predicate execution matches a naive row-store oracle
//! for every execution mode, and delta merges never change the logical
//! table content.

use proptest::prelude::*;

use isi_columnstore::{
    execute_in, execute_in_naive, BitPackedVec, Column, DeltaDictionary, MainDictionary,
};
use isi_core::policy::Interleave;
use isi_search::locate::NOT_FOUND;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_roundtrip(
        main_rows in proptest::collection::vec(0u32..500, 0..200),
        delta_rows in proptest::collection::vec(0u32..700, 0..200),
    ) {
        let mut c = Column::from_rows(&main_rows);
        for v in &delta_rows {
            c.append(*v);
        }
        let decoded: Vec<u32> = (0..c.rows()).map(|i| c.get(i)).collect();
        let expect: Vec<u32> = main_rows.iter().chain(&delta_rows).copied().collect();
        prop_assert_eq!(decoded, expect);
    }

    #[test]
    fn in_query_matches_naive_all_modes(
        main_rows in proptest::collection::vec(0u32..300, 0..150),
        delta_rows in proptest::collection::vec(0u32..400, 0..150),
        values in proptest::collection::vec(0u32..500, 0..60),
        group in 1usize..10,
    ) {
        let mut c = Column::from_rows(&main_rows);
        for v in &delta_rows {
            c.append(*v);
        }
        let expect = execute_in_naive(&c, &values);
        let (seq, _) = execute_in(&c, &values, Interleave::Sequential);
        prop_assert_eq!(&seq, &expect);
        let (inter, _) = execute_in(&c, &values, Interleave::Interleaved(group));
        prop_assert_eq!(&inter, &expect);
    }

    #[test]
    fn merge_preserves_content_and_queries(
        main_rows in proptest::collection::vec(0u32..200, 0..100),
        delta_rows in proptest::collection::vec(0u32..300, 0..100),
        values in proptest::collection::vec(0u32..350, 0..40),
    ) {
        let mut c = Column::from_rows(&main_rows);
        for v in &delta_rows {
            c.append(*v);
        }
        let rows_before: Vec<u32> = (0..c.rows()).map(|i| c.get(i)).collect();
        let q_before = execute_in(&c, &values, Interleave::Interleaved(6)).0;
        c.merge_delta();
        let rows_after: Vec<u32> = (0..c.rows()).map(|i| c.get(i)).collect();
        let q_after = execute_in(&c, &values, Interleave::Interleaved(6)).0;
        prop_assert_eq!(&rows_before, &rows_after);
        prop_assert_eq!(q_before, q_after);
        prop_assert_eq!(c.delta.rows(), 0);
        // Main dictionary is strictly sorted (validated by constructor)
        // and minimal: every dict value occurs in some row.
        for v in c.main.dict.values() {
            prop_assert!(rows_after.contains(v));
        }
    }

    #[test]
    fn bitpacked_vec_roundtrips_any_width(
        codes in proptest::collection::vec(0u32..u32::MAX, 0..300),
    ) {
        let v: BitPackedVec = codes.iter().copied().collect();
        prop_assert_eq!(v.len(), codes.len());
        let back: Vec<u32> = v.iter().collect();
        prop_assert_eq!(back, codes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lookup lists of every length around 4096, where the engine once
    /// cut a batch into morsels, and up to 10 000 (one scheduler run on
    /// one thread): a bulk `locate` agrees with the per-value one, in
    /// both instantiations of the coroutine.
    #[test]
    fn bulk_locate_matches_locate_across_morsels(
        values in proptest::collection::vec(0u32..3000, 0..400),
        stride in 1u32..3000,
    ) {
        let dict: std::collections::BTreeSet<u32> = values.into_iter().collect();
        let main = MainDictionary::from_sorted(dict.iter().copied().collect());
        // Arrival order differs from sorted order: codes != ranks.
        let delta = DeltaDictionary::from_values(dict.iter().rev().copied().collect());
        for len in [0usize, 1, 4095, 4096, 4097, 10_000] {
            let lookups: Vec<u32> = (0..len as u32).map(|i| i.wrapping_mul(stride) % 3000).collect();
            let code = |c: Option<u32>| c.unwrap_or(NOT_FOUND);
            let main_expect: Vec<u32> = lookups.iter().map(|v| code(main.locate(*v))).collect();
            let delta_expect: Vec<u32> = lookups.iter().map(|v| code(delta.locate(*v))).collect();
            for mode in [
                Interleave::Sequential,
                Interleave::Interleaved(1),
                Interleave::Interleaved(24),
            ] {
                let mut out = vec![0u32; len];
                main.bulk_locate(&lookups, mode, &mut out);
                prop_assert!(out == main_expect, "main, {} values, {}", len, mode);
                delta.bulk_locate(&lookups, mode, &mut out);
                prop_assert!(out == delta_expect, "delta, {} values, {}", len, mode);
            }
        }
    }
}
