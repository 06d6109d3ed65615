//! IN-predicate queries on a dictionary-encoded column store — the
//! paper's running example (TPC-DS Q8-style zip-code extraction), end
//! to end: load a table, append rows to the delta, query with a
//! sequential and an interleaved encode phase, then delta-merge and
//! query again.
//!
//! Run with: `cargo run --release --example in_predicate`

use std::time::Instant;

use coro_isi::columnstore::{Interleave, Table};
use coro_isi::search::Str16;
use coro_isi::workloads;

fn main() {
    // customer_address(ca_zip, ca_city_id): 2M rows over ~60k zips.
    let mut table = Table::new(&["ca_zip", "ca_city_id"]);
    let zips = workloads::tpcds_q8_zipcodes(60_000, 1);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    println!("loading 2,000,000 rows into customer_address ...");
    for _ in 0..2_000_000u32 {
        workloads::xorshift64(&mut x);
        let zip = zips[(x % zips.len() as u64) as usize];
        let city = Str16::from_index(x % 10_000);
        table.insert(&[zip, city]);
    }
    // The freshly loaded rows live in the delta; merge them into the
    // read-optimized main part (what HANA's delta merge does).
    table.merge_all_deltas();

    // A few late arrivals stay in the delta.
    for i in 0..50_000u64 {
        let zip = zips[((i * 31) % zips.len() as u64) as usize];
        table.insert(&[zip, Str16::from_index(i % 10_000)]);
    }

    // TPC-DS Q8: 400 zip codes in the IN list.
    let in_list = workloads::tpcds_q8_zipcodes(400, 2);

    let t = Instant::now();
    let (rows_seq, stats) = table.select_in("ca_zip", &in_list, Interleave::Sequential);
    let seq = t.elapsed();

    let t = Instant::now();
    let (rows_int, stats_int) = table.select_in("ca_zip", &in_list, Interleave::Interleaved(6));
    let inter = t.elapsed();

    assert_eq!(rows_seq, rows_int, "execution mode must not change results");
    assert_eq!(stats, stats_int);

    println!(
        "SELECT ... WHERE ca_zip IN (<400 zips>): {} rows ({} zips matched main, {} delta)",
        stats.rows, stats.main_matches, stats.delta_matches
    );
    println!("  sequential encode : {seq:>9.2?}");
    println!("  interleaved encode: {inter:>9.2?}");
    println!(
        "  (the encode phase is the index join the paper accelerates; on a column\n   this small it is scan-dominated — run `isi-bench --bin fig1` for the sweep)"
    );
}
