//! Cross-crate integration tests: the whole stack — workload generators,
//! search kernels, CSB+-tree, column store, hash join, schedulers and
//! the simulator — exercised together, checked against independent
//! oracles.

use coro_isi::columnstore::{execute_in, execute_in_naive, Column, Table};
use coro_isi::core::mem::DirectMem;
use coro_isi::core::policy::Interleave;
use coro_isi::csb::{bulk_lookup_interleaved, CsbTree, DirectTreeStore};
use coro_isi::hash::{hash_join, nested_loop_join};
use coro_isi::memsim::{SharedMachine, SimArray};
use coro_isi::search::coro::bulk_rank_coro;
use coro_isi::search::key::Str16;
use coro_isi::search::rank_oracle;
use coro_isi::workloads as wl;

#[test]
fn full_table_lifecycle_with_interleaved_queries() {
    // Build a two-column table, query it in every phase of the
    // main/delta lifecycle, and cross-check with the naive oracle.
    let mut table = Table::new(&["zip", "qty"]);
    let zips = wl::tpcds_q8_zipcodes(500, 3);
    for i in 0..20_000u64 {
        table.insert(&[zips[(i * 7 % 500) as usize], Str16::from_index(i % 100)]);
    }
    let in_list: Vec<Str16> = zips.iter().step_by(13).copied().collect();

    let before_merge = table.select_in("zip", &in_list, Interleave::Interleaved(6));
    assert_eq!(
        before_merge.0,
        execute_in_naive(table.column("zip"), &in_list),
        "delta-resident rows"
    );

    table.merge_all_deltas();
    let after_merge = table.select_in("zip", &in_list, Interleave::Interleaved(6));
    assert_eq!(
        before_merge.0, after_merge.0,
        "merge must not change results"
    );

    // Post-merge appends land in a fresh delta.
    for i in 0..5_000u64 {
        table.insert(&[zips[(i % 500) as usize], Str16::from_index(i % 100)]);
    }
    let (rows, stats) = table.select_in("zip", &in_list, Interleave::Interleaved(6));
    assert_eq!(rows, execute_in_naive(table.column("zip"), &in_list));
    assert!(stats.main_matches > 0 && stats.rows > after_merge.1.rows);
}

#[test]
fn search_and_tree_agree_on_the_same_dictionary() {
    // The same sorted value set indexed two ways (sorted array and
    // CSB+-tree) must locate every value identically.
    let n = 50_000u32;
    let dict: Vec<u32> = (0..n).map(|i| i * 3 + 1).collect();
    let pairs: Vec<(u32, u32)> = dict
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, i as u32))
        .collect();
    let tree = CsbTree::from_sorted(&pairs);
    let store = DirectTreeStore::new(&tree);
    let mem = DirectMem::new(&dict);

    let probes: Vec<u32> = wl::uniform_indices(dict.len(), 3000, 17)
        .into_iter()
        .map(|i| dict[i])
        .chain((0..500).map(|i| i * 7)) // misses too
        .collect();

    let mut ranks = vec![0u32; probes.len()];
    bulk_rank_coro(mem, &probes, 6, &mut ranks);
    let mut tree_out = vec![None; probes.len()];
    bulk_lookup_interleaved(store, &probes, 6, &mut tree_out);

    for (i, p) in probes.iter().enumerate() {
        let arr_code = (dict[ranks[i] as usize] == *p).then_some(ranks[i]);
        assert_eq!(arr_code, tree_out[i], "probe {p}");
        assert_eq!(ranks[i], rank_oracle(&dict, p));
    }
}

#[test]
fn hash_join_consistent_with_in_predicate_semantics() {
    // An IN-predicate is a semi-join: row ids from execute_in must equal
    // the probe-side matches of a hash join against the IN list.
    let rows: Vec<u32> = (0..30_000).map(|i| i % 997).collect();
    let column = Column::from_rows(&rows);
    let in_list: Vec<u32> = (0..200).map(|i| i * 5).collect();

    let (row_ids, _) = execute_in(&column, &in_list, Interleave::Interleaved(6));

    let build: Vec<(u32, ())> = in_list.iter().map(|v| (*v, ())).collect();
    let probe: Vec<(u32, u64)> = rows
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, i as u64))
        .collect();
    let mut joined: Vec<u64> = hash_join(&build, &probe, Interleave::Interleaved(6))
        .into_iter()
        .map(|(_, _, row)| row)
        .collect();
    joined.sort_unstable();
    assert_eq!(row_ids, joined);

    // And the join itself agrees with the nested-loop oracle.
    let small_build = &build[..20];
    let small_probe = &probe[..500];
    assert_eq!(
        hash_join(small_build, small_probe, Interleave::Interleaved(4)),
        nested_loop_join(small_build, small_probe)
    );
}

#[test]
fn simulator_and_real_memory_agree_on_results() {
    // The same coroutine must produce identical ranks on DirectMem and
    // on the simulator (the backends differ only in cost accounting).
    let table: Vec<u32> = (0..200_000u32).collect();
    let lookups = wl::uniform_lookups(table.len(), 2000);

    let mut direct = vec![0u32; lookups.len()];
    bulk_rank_coro(DirectMem::new(&table), &lookups, 6, &mut direct);

    let machine = SharedMachine::haswell();
    let arr = SimArray::new(&machine, table);
    let mut simulated = vec![0u32; lookups.len()];
    bulk_rank_coro(arr.mem(), &lookups, 6, &mut simulated);

    assert_eq!(direct, simulated);
    assert!(machine.stats().loads > 0, "the simulator actually ran");
}

#[test]
fn string_and_int_columns_behave_identically() {
    // Str16::from_index is order-preserving, so a string column built
    // from indices must answer IN queries exactly like the int column.
    let int_rows: Vec<u64> = (0..10_000u64).map(|i| (i * 13) % 2000).collect();
    let str_rows: Vec<Str16> = int_rows.iter().map(|&v| Str16::from_index(v)).collect();
    let int_col = Column::from_rows(&int_rows);
    let str_col = Column::from_rows(&str_rows);

    let int_list: Vec<u64> = (0..100).map(|i| i * 19).collect();
    let str_list: Vec<Str16> = int_list.iter().map(|&v| Str16::from_index(v)).collect();

    let (int_ids, int_stats) = execute_in(&int_col, &int_list, Interleave::Interleaved(6));
    let (str_ids, str_stats) = execute_in(&str_col, &str_list, Interleave::Interleaved(6));
    assert_eq!(int_ids, str_ids);
    assert_eq!(int_stats, str_stats);
}
