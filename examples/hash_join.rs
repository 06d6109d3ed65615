//! Hash join with an interleaved probe phase — the paper's Section 6
//! extension. Joins an orders table against a customers table and
//! compares sequential vs interleaved probing.
//!
//! Run with: `cargo run --release --example hash_join`

use std::time::Instant;

use coro_isi::core::policy::Interleave;
use coro_isi::hash::hash_join;

fn main() {
    // customers(cust_id, region), ~8M build tuples (out of cache).
    let n_cust: u64 = 8 << 20;
    let customers: Vec<(u64, u32)> = (0..n_cust)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i % 25) as u32))
        .collect();

    // orders(cust_id, amount), 100k probe tuples, ~50% match rate.
    let orders: Vec<(u64, u32)> = (0..100_000u64)
        .map(|i| {
            let cust = (i * 48271) % (2 * n_cust);
            (cust.wrapping_mul(0x9E37_79B9_7F4A_7C15), (i % 1000) as u32)
        })
        .collect();

    let t = Instant::now();
    let seq = hash_join(&customers, &orders, Interleave::Sequential);
    let t_seq = t.elapsed();

    let t = Instant::now();
    let inter = hash_join(&customers, &orders, Interleave::Interleaved(6));
    let t_int = t.elapsed();

    assert_eq!(seq, inter, "join output must not depend on the probe mode");
    println!(
        "customers: {} | orders: {} | matches: {}",
        n_cust,
        orders.len(),
        seq.len()
    );
    println!("  sequential probe : {t_seq:>9.2?}");
    println!("  interleaved probe: {t_int:>9.2?}");
    println!(
        "  speedup: {:.2}x (chains are pointer chases: one potential miss per hop)",
        t_seq.as_secs_f64() / t_int.as_secs_f64()
    );
}
