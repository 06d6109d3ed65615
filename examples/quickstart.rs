//! Quickstart: turn a binary search into a coroutine, run it
//! sequentially and interleaved, and watch interleaving hide the cache
//! misses on an out-of-cache array.
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Instant;

use coro_isi::core::coro::suspend;
use coro_isi::core::mem::{DirectMem, IndexedMem};
use coro_isi::core::sched::{run_interleaved, run_sequential};
use coro_isi::workloads::xorshift64;

/// The paper's Listing 5 in Rust: the sequential binary search plus a
/// prefetch and a suspension before the access that would miss. The
/// `INTERLEAVE` const generic resolves at compile time, so the
/// sequential instantiation is exactly the original loop.
async fn rank<const INTERLEAVE: bool, M: IndexedMem<u64>>(mem: M, value: u64) -> u32 {
    let mut size = mem.len();
    let mut low = 0usize;
    loop {
        let half = size / 2;
        if half == 0 {
            break;
        }
        let probe = low + half;
        if INTERLEAVE {
            mem.prefetch(probe);
            suspend().await;
        }
        let le = (*mem.at(probe) <= value) as usize;
        low = le * probe + (1 - le) * low;
        size -= half;
    }
    low as u32
}

fn main() {
    // 128 MB sorted array — larger than most L3 caches.
    let n: usize = 16 << 20;
    let table: Vec<u64> = (0..n as u64).map(|i| i * 2).collect();
    let mem = DirectMem::new(&table);

    // 10_000 uniformly random lookups.
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let lookups: Vec<u64> = (0..10_000)
        .map(|_| (xorshift64(&mut x) % n as u64) * 2)
        .collect();
    let mut out = vec![0u32; lookups.len()];

    // Sequential: the same coroutine with INTERLEAVE = false.
    let t = Instant::now();
    run_sequential(
        lookups.iter().copied(),
        |v| rank::<false, _>(mem, v),
        |i, r| out[i] = r,
    );
    let seq = t.elapsed();
    let check: u64 = out.iter().map(|&r| r as u64).sum();

    // Interleaved: six lookups time-share the core, switching at every
    // prefetch. Same results, fewer memory stalls.
    let t = Instant::now();
    run_interleaved(
        6,
        lookups.iter().copied(),
        |v| rank::<true, _>(mem, v),
        |i, r| out[i] = r,
    );
    let inter = t.elapsed();
    assert_eq!(check, out.iter().map(|&r| r as u64).sum::<u64>());

    println!("array: {} MB, lookups: {}", (n * 8) >> 20, lookups.len());
    println!(
        "sequential : {:>8.2?}  ({:.0} ns/lookup)",
        seq,
        seq.as_nanos() as f64 / 1e4
    );
    println!(
        "interleaved: {:>8.2?}  ({:.0} ns/lookup)",
        inter,
        inter.as_nanos() as f64 / 1e4
    );
    println!(
        "speedup    : {:.2}x (same coroutine, different scheduler)",
        seq.as_secs_f64() / inter.as_secs_f64()
    );
}
