//! Section 6 extension — interleaved hash-join probes: the paper names
//! "the probe phases of hash joins" as the straightforward next target
//! for coroutine interleaving. Sweeps the build-table size and compares
//! sequential, AMAC and coroutine probes (wall clock).
//!
//! Methodology: every repetition probes a *fresh* key set — re-probing
//! the same keys would find their buckets cache-resident and measure
//! nothing but scheduler overhead.
//!
//! Usage: `cargo run --release -p isi-bench --bin hash_join`

use isi_bench::{banner, HarnessCfg};
use isi_core::stats::Stopwatch;
use isi_hash::{bulk_probe_amac, bulk_probe_interleaved, bulk_probe_seq, ChainedHashTable};
use isi_workloads::xorshift64;

fn probe_set(n: u64, count: usize, seed: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..count)
        .map(|_| (xorshift64(&mut x) % (2 * n)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

fn main() {
    let cfg = HarnessCfg::from_env();
    banner(
        "Hash-join probe (Section 6 extension): cycles per probe",
        &cfg,
    );
    let group = cfg.groups.2;
    println!(
        "\n{:>12} {:>12} {:>12} {:>12} {:>9}",
        "build size", "Sequential", "AMAC", "CORO", "speedup"
    );

    let max_entries = (cfg.max_mb * (1 << 20) / 16).max(1 << 20);
    let mut n = 1usize << 20;
    while n <= max_entries {
        let mut table = ChainedHashTable::with_capacity(n);
        for i in 0..n as u64 {
            table.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        }
        let mut out = vec![None; cfg.lookups];
        type ProbeFn<'a> = &'a mut dyn FnMut(&[u64], &mut [Option<u64>]);

        // Average cycles/probe over `reps` runs, each with fresh keys.
        let mut measure = |f: ProbeFn, salt: u64| -> f64 {
            let mut total_ns = 0.0;
            for rep in 0..cfg.reps as u64 {
                let probes = probe_set(n as u64, cfg.lookups, salt * 1000 + rep * 2 + 1);
                let sw = Stopwatch::start();
                f(&probes, &mut out);
                total_ns += sw.elapsed().as_nanos() as f64;
                std::hint::black_box(&mut out);
            }
            total_ns * cfg.cycles_per_ns() / (cfg.reps * cfg.lookups) as f64
        };

        let seq = measure(
            &mut |p, o| {
                bulk_probe_seq(&table, p, o);
            },
            1,
        );
        let amac = measure(&mut |p, o| bulk_probe_amac(&table, p, group, o), 2);
        let coro = measure(
            &mut |p, o| {
                bulk_probe_interleaved(&table, p, group, o);
            },
            3,
        );
        println!(
            "{:>9} MB {:>12.0} {:>12.0} {:>12.0} {:>8.2}x",
            n * 16 / (1 << 20),
            seq,
            amac,
            coro,
            seq / coro.max(1e-9)
        );
        n *= 4;
    }
    // Simulator section: the same probe coroutine on the paper's
    // machine (25 MB LLC, 182-cycle DRAM), where 2-hop chains stall
    // hard enough for interleaving to pay — wall-clock results above
    // depend on this host's (much larger) LLC and (virtualized) memory
    // latency.
    println!("\n## simulated paper machine (cycles per probe)");
    println!(
        "{:>12} {:>12} {:>12} {:>9}",
        "build size", "Sequential", "CORO", "speedup"
    );
    use isi_core::sched::{run_interleaved, run_sequential};
    use isi_hash::probe_coro_on;
    use isi_memsim::{SharedMachine, SimArray};
    for mb in [16usize, 64, 256] {
        let n = mb * (1 << 20) / 16;
        let mut table = ChainedHashTable::with_capacity(n);
        for i in 0..n as u64 {
            table.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        }
        let machine = SharedMachine::haswell();
        let buckets = SimArray::new(&machine, table.buckets().to_vec());
        let entries = SimArray::new(&machine, table.entries().to_vec());
        let mask = table.mask();
        let lookups = cfg.lookups.min(3000);
        let run = |inter: bool, salt: u64| -> f64 {
            let probes = probe_set(n as u64, lookups, salt);
            machine.reset_stats();
            let mut found = 0usize;
            if inter {
                run_interleaved(
                    group,
                    probes,
                    |k| {
                        probe_coro_on::<true, u64, u64, _, _>(buckets.mem(), entries.mem(), mask, k)
                    },
                    |_, r: Option<u64>| found += r.is_some() as usize,
                );
            } else {
                run_sequential(
                    probes,
                    |k| {
                        probe_coro_on::<false, u64, u64, _, _>(
                            buckets.mem(),
                            entries.mem(),
                            mask,
                            k,
                        )
                    },
                    |_, r: Option<u64>| found += r.is_some() as usize,
                );
            }
            std::hint::black_box(found);
            machine.stats().cycles / lookups as f64
        };
        let _ = run(false, 11); // warm hot buckets
        let seq = run(false, 13);
        let coro = run(true, 17);
        println!(
            "{:>9} MB {:>12.0} {:>12.0} {:>8.2}x",
            mb,
            seq,
            coro,
            seq / coro.max(1e-9)
        );
    }

    println!("\n# expected shape: interleaving wins once the table outsizes the LLC;");
    println!("# CORO tracks AMAC (same dynamic-interleaving capability, no state machine).");
}
