//! Figure 7 — the effect of group size on runtime (256 MB int array),
//! plus the Section 3 / Inequality 1 group-size estimates derived from
//! profile measurements (§5.4.5).
//!
//! Runs on the simulator (paper cache sizes, groups 1–12: the Haswell
//! model's optimum is 5–6) and, with `ISI_FIG7_WALL=1`, wall clock on
//! real memory over [`GROUPS`] (1–48: this box's plateau is 16–48).
//!
//! Usage: `cargo run --release -p isi-bench --bin fig7`

use isi_bench::sim::SimBench;
use isi_bench::wall::{cycles_per_search, SearchImpl, GROUPS};
use isi_bench::{banner, HarnessCfg};
use isi_core::model::{optimal_group_size_capped, params_from_profile};
use isi_workloads as wl;

fn main() {
    let cfg = HarnessCfg::from_env();
    banner(
        "Figure 7: cycles per search vs group size (256 MB int array)",
        &cfg,
    );
    let mb = 256.min(cfg.max_mb.max(16));
    let lookups = cfg.lookups.min(3000);

    println!("\n## simulator (paper cache sizes)");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>12}",
        "G", "GP", "AMAC", "CORO", "Baseline(ref)"
    );
    let mut b = SimBench::new(mb, lookups);
    let base_vals = b.fresh(lookups);
    let base = b.run(SearchImpl::Baseline, &base_vals);
    let base_per = base.cycles / lookups as f64 / 100.0;

    // Profile-derived model estimate (§5.4.5): T_stall from the baseline
    // memory component, T_compute from the rest, T_switch from the
    // retiring delta of each interleaved implementation at G = 1.
    let misses = base.l1_misses() as f64 / lookups as f64;
    let stall_per_miss = base.memory / lookups as f64 / misses;
    let other_per_miss = (base.cycles - base.memory) / lookups as f64 / misses;

    let mut g1_retiring = std::collections::BTreeMap::new();
    for g in 1..=12usize {
        let impls = [SearchImpl::Gp(g), SearchImpl::Amac(g), SearchImpl::Coro(g)];
        print!("{:>6}", g);
        for impl_ in impls {
            let vals = b.fresh(lookups);
            let s = b.run(impl_, &vals);
            if g == 1 {
                g1_retiring.insert(
                    impl_.name(),
                    (s.retiring + s.core) / lookups as f64 / misses,
                );
            }
            print!(" {:>10.2}", s.cycles / lookups as f64 / 100.0);
        }
        println!(" {:>12.2}", base_per);
    }

    println!("\n## Inequality 1 estimates (from the profile, LFB-capped at 10)");
    println!("# (the simulated paper platform's cap, not this box's: see the last line)");
    let base_retiring = (base.retiring + base.core) / lookups as f64 / misses;
    for name in ["GP", "AMAC", "CORO"] {
        let p = params_from_profile(
            stall_per_miss,
            other_per_miss,
            *g1_retiring.get(name).unwrap_or(&base_retiring),
            base_retiring,
        );
        println!(
            "  {:<5} T_compute={:>5.1} T_switch={:>5.1} T_stall={:>6.1}  =>  G* = {}",
            name,
            p.t_compute,
            p.t_switch,
            p.t_stall,
            optimal_group_size_capped(p, 10)
        );
    }

    if std::env::var("ISI_FIG7_WALL").is_ok() {
        println!("\n## wall clock (this machine)");
        let table = wl::int_array(wl::ints_for_mb(mb));
        let lk = wl::uniform_lookups(table.len(), cfg.lookups);
        println!("{:>6} {:>10} {:>10} {:>10}", "G", "GP", "AMAC", "CORO");
        for g in GROUPS {
            print!("{g:>6}");
            for impl_ in [SearchImpl::Gp(g), SearchImpl::Amac(g), SearchImpl::Coro(g)] {
                let c = cycles_per_search(&table, &lk, impl_, cfg.reps, cfg.cycles_per_ns());
                print!(" {:>10.2}", c / 100.0);
            }
            println!();
        }
    }

    println!("\n# paper shape: G=1 slower than Baseline (pure switch overhead); GP keeps");
    println!("# improving to ~10 (LFB-capped); AMAC/CORO flatten at 5-6 — on the simulated");
    println!("# paper platform; this box plateaus at 16-48 under PREFETCHT0 (README");
    println!("# \"Deviations from the paper's §5.1 constants\").");
}
