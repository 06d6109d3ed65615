//! Table 2 — pipeline-slot breakdown for `locate` (TMAM categories),
//! Main and Delta, cache-resident vs out-of-cache, on the simulator.
//!
//! Usage: `cargo run --release -p isi-bench --bin table2`
//! (`ISI_MAX_MB=2048` for the paper's 2 GB point.)

use isi_bench::sim::{SimBench, SimDeltaBench};
use isi_bench::wall::SearchImpl;
use isi_bench::{banner, HarnessCfg};
use isi_memsim::MachineStats;

fn row(label: &str, s: &MachineStats) {
    let (r, m, c, b, f) = s.tmam_fractions();
    println!(
        "{:<14} {:>9.1}% {:>15.1}% {:>8.1}% {:>6.1}% {:>9.1}%",
        label,
        f * 100.0,
        b * 100.0,
        m * 100.0,
        c * 100.0,
        r * 100.0
    );
}

fn main() {
    let cfg = HarnessCfg::from_env();
    banner(
        "Table 2: pipeline-slot breakdown for locate (simulated)",
        &cfg,
    );
    let lookups = cfg.lookups.min(5000);

    println!(
        "\n{:<14} {:>10} {:>16} {:>9} {:>7} {:>10}",
        "", "Front-End", "Bad speculation", "Memory", "Core", "Retiring"
    );
    for mb in [1, cfg.max_mb] {
        let mut b = SimBench::new(mb, lookups);
        let vals = b.fresh(lookups);
        let s = b.run(SearchImpl::Std, &vals); // speculative Main locate
        row(&format!("Main {mb}MB"), &s);
    }
    for mb in [1, cfg.max_mb] {
        let mut b = SimDeltaBench::new(mb, lookups);
        let vals = b.fresh(lookups);
        let s = b.run_locate(&vals, None); // branch-free Delta locate
        row(&format!("Delta {mb}MB"), &s);
    }
    println!("\n# paper: Main has a large bad-speculation share at both sizes (43.3% /");
    println!("# 26.1%) and memory jumps 2.8% -> 46.0%; Delta has no speculation and");
    println!("# memory jumps 30.8% -> 85.9%.");
}
