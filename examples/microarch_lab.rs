//! Microarchitecture lab: run the same binary-search code on the
//! simulated Haswell of the paper (25 MB LLC, 10 line-fill buffers,
//! 182-cycle DRAM) and print the TMAM story of why interleaving works —
//! a miniature of Figures 5 and 6 you can play with interactively.
//!
//! Run with: `cargo run --release --example microarch_lab`

use coro_isi::memsim::{MachineStats, SharedMachine, SimArray};
use coro_isi::search::coro::bulk_rank_coro;
use coro_isi::search::seq::rank_branchfree;
use coro_isi::workloads::xorshift64;

fn breakdown(label: &str, s: &MachineStats, lookups: usize) {
    let (r, m, c, b, f) = s.tmam_fractions();
    println!(
        "{label:<22} {:>7.0} cycles/lookup | retiring {:>4.1}% memory {:>4.1}% core {:>4.1}% badspec {:>4.1}% frontend {:>4.1}%",
        s.cycles / lookups as f64,
        r * 100.0,
        m * 100.0,
        c * 100.0,
        b * 100.0,
        f * 100.0
    );
    println!(
        "{:<22} loads: L1 {:>6} | LFB {:>6} | L2 {:>6} | L3 {:>6} | DRAM {:>6} | pagewalks {:>6}",
        "",
        s.l1_hits,
        s.lfb_hits,
        s.l2_hits,
        s.l3_hits,
        s.dram_loads,
        s.pw_l1 + s.pw_l2 + s.pw_l3 + s.pw_dram
    );
}

fn main() {
    const LOOKUPS: usize = 2000;
    // 64 MB array on the paper's 25 MB-LLC machine: out of cache.
    let machine = SharedMachine::haswell();
    let arr = SimArray::new(&machine, (0..16u32 << 20).collect());

    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut fresh = |count: usize| -> Vec<u32> {
        (0..count)
            .map(|_| (xorshift64(&mut x) % (16 << 20)) as u32)
            .collect()
    };

    // Warm the hot top levels (the paper's steady state).
    for v in fresh(LOOKUPS) {
        rank_branchfree(&arr.mem(), v);
    }

    println!("binary search over a 64 MB array, simulated Haswell (25 MB LLC):\n");

    machine.reset_stats();
    for v in fresh(LOOKUPS) {
        rank_branchfree(&arr.mem(), v);
    }
    breakdown("sequential (baseline)", &machine.stats(), LOOKUPS);
    println!();

    for group in [1usize, 6] {
        machine.reset_stats();
        let vals = fresh(LOOKUPS);
        let mut out = vec![0u32; vals.len()];
        bulk_rank_coro(arr.mem(), &vals, group, &mut out);
        breakdown(
            &format!("coroutines, group={group}"),
            &machine.stats(),
            LOOKUPS,
        );
        println!();
    }

    println!("takeaways (paper §5.4): group=1 only adds switch overhead; group=6 turns");
    println!("DRAM demand loads into line-fill-buffer hits and removes the memory stalls,");
    println!("paying with extra retiring work — the interleaving trade.");
}
