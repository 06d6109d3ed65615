//! Figure 4 — binary searches with **sorted** lookup values: sorting the
//! lookup list adds temporal locality between consecutive searches but
//! cannot remove compulsory misses (paper §5.3).
//!
//! Prints both the sorted-lookup cycles and the speedup factor over the
//! unsorted run (the paper reports up to 2.6x for std, ~1.9x for
//! AMAC/CORO on integers).
//!
//! Usage: `cargo run --release -p isi-bench --bin fig4`

use isi_bench::wall::{cycles_per_search, SearchImpl};
use isi_bench::{banner, size_sweep_mb, HarnessCfg};
use isi_workloads as wl;

fn main() {
    let cfg = HarnessCfg::from_env();
    banner(
        "Figure 4: binary searches with sorted lookup values (cycles per search, x100)",
        &cfg,
    );
    let (g_gp, g_amac, g_coro) = cfg.groups;
    let impls = [
        SearchImpl::Std,
        SearchImpl::Baseline,
        SearchImpl::Gp(g_gp),
        SearchImpl::Amac(g_amac),
        SearchImpl::Coro(g_coro),
    ];

    println!("\n## (a) integer array — sorted lookups (and speedup vs unsorted)");
    println!(
        "{:>8} {:>16} {:>16} {:>16} {:>16} {:>16}",
        "size", "std", "Baseline", "GP", "AMAC", "CORO"
    );
    for mb in size_sweep_mb(cfg.max_mb) {
        let table = wl::int_array(wl::ints_for_mb(mb));
        let unsorted = wl::uniform_lookups(table.len(), cfg.lookups);
        let sorted = wl::sorted_lookups(table.len(), cfg.lookups);
        print!("{:>6}MB", mb);
        for impl_ in impls {
            let c_u = cycles_per_search(&table, &unsorted, impl_, cfg.reps, cfg.cycles_per_ns());
            let c_s = cycles_per_search(&table, &sorted, impl_, cfg.reps, cfg.cycles_per_ns());
            print!(" {:>9.2} ({:>4.2}x)", c_s / 100.0, c_u / c_s.max(1e-9));
        }
        println!();
    }

    println!("\n## (b) string array — sorted lookups (and speedup vs unsorted)");
    println!(
        "{:>8} {:>16} {:>16} {:>16} {:>16} {:>16}",
        "size", "std", "Baseline", "GP", "AMAC", "CORO"
    );
    for mb in size_sweep_mb(cfg.max_mb) {
        let table = wl::string_array(wl::strings_for_mb(mb));
        let idx_unsorted = wl::uniform_indices(table.len(), cfg.lookups, wl::SEED);
        let unsorted: Vec<_> = idx_unsorted
            .iter()
            .map(|&i| isi_search::key::Str16::from_index(i as u64))
            .collect();
        let mut sorted = unsorted.clone();
        sorted.sort_unstable();
        print!("{:>6}MB", mb);
        for impl_ in impls {
            let c_u = cycles_per_search(&table, &unsorted, impl_, cfg.reps, cfg.cycles_per_ns());
            let c_s = cycles_per_search(&table, &sorted, impl_, cfg.reps, cfg.cycles_per_ns());
            print!(" {:>9.2} ({:>4.2}x)", c_s / 100.0, c_u / c_s.max(1e-9));
        }
        println!();
    }
    println!("\n# paper shape: sorting helps every implementation (temporal locality) but");
    println!("# interleaving still wins out-of-cache — compulsory misses remain.");
}
