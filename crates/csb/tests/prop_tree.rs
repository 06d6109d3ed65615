//! Property-based tests: the CSB+-tree behaves exactly like a
//! `BTreeMap` under arbitrary interleavings of bulk-load, insert,
//! point-lookup and ordered-iteration operations, and every structural
//! invariant (sorted nodes, separator bounds, arena accounting) holds
//! after every batch of mutations.

use proptest::prelude::*;
use std::collections::BTreeMap;

use isi_core::coro::run_to_completion;
use isi_csb::{bulk_lookup_interleaved, lookup_coro, CsbTree, DirectTreeStore, TreeView};
use isi_memsim::{SharedMachine, SimArray};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn behaves_like_btreemap(
        bulk in proptest::collection::btree_map(0u32..2_000, 0u32..1_000_000, 0..400),
        inserts in proptest::collection::vec((0u32..2_000, 0u32..1_000_000), 0..300),
        probes in proptest::collection::vec(0u32..2_500, 0..100),
    ) {
        let pairs: Vec<(u32, u32)> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
        let mut tree = CsbTree::from_sorted(&pairs);
        let mut model: BTreeMap<u32, u32> = bulk;

        for (k, v) in inserts {
            prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
        }
        tree.validate();
        prop_assert_eq!(tree.len(), model.len());

        for p in probes {
            prop_assert_eq!(tree.get(&p), model.get(&p).copied());
        }

        // Full ordered iteration agrees.
        let items = tree.items();
        let expect: Vec<(u32, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(items, expect);
    }

    #[test]
    fn interleaved_lookup_agrees_with_get(
        inserts in proptest::collection::vec((0u32..3_000, 0u32..100), 1..400),
        probes in proptest::collection::vec(0u32..3_500, 1..120),
        group in 1usize..12,
    ) {
        let mut tree = CsbTree::new();
        for (k, v) in inserts {
            tree.insert(k, v);
        }
        let store = DirectTreeStore::new(&tree);
        let mut out = vec![None; probes.len()];
        bulk_lookup_interleaved(store, &probes, group, &mut out);
        for (i, p) in probes.iter().enumerate() {
            prop_assert_eq!(out[i], tree.get(p));
        }
    }

    // The simulated path is the shipped coroutine over `SimMem` views,
    // so it answers to the shipped oracle.
    #[test]
    fn simulated_view_agrees_with_get(
        bulk in proptest::collection::btree_map(0u32..3_000, 0u32..100, 0..400),
        inserts in proptest::collection::vec((0u32..3_000, 0u32..100), 0..300),
        probes in proptest::collection::vec(0u32..3_500, 1..60),
    ) {
        let mut tree = CsbTree::from_sorted(&bulk.into_iter().collect::<Vec<_>>());
        for (k, v) in inserts {
            tree.insert(k, v);
        }
        let machine = SharedMachine::haswell();
        let inners = SimArray::new(&machine, tree.inners().to_vec());
        let leaves = SimArray::new(&machine, tree.leaves().to_vec());
        let view = TreeView {
            inners: inners.mem(),
            leaves: leaves.mem(),
            root: tree.root(),
            height: tree.height(),
        };
        for p in probes {
            let want = tree.get(&p);
            prop_assert_eq!(run_to_completion(lookup_coro::<false, _, _, _, _>(view, p)), want);
            prop_assert_eq!(run_to_completion(lookup_coro::<true, _, _, _, _>(view, p)), want);
        }
    }

    #[test]
    fn rebuild_preserves_content(
        inserts in proptest::collection::vec((0u32..1_000, 0u32..50), 0..300),
    ) {
        let mut tree = CsbTree::new();
        for (k, v) in inserts {
            tree.insert(k, v);
        }
        let rebuilt = tree.rebuilt();
        rebuilt.validate();
        prop_assert_eq!(rebuilt.items(), tree.items());
        prop_assert_eq!(rebuilt.garbage(), (0, 0));
    }
}
