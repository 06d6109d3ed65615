//! Table 1 — execution details of `locate`: its share of total query
//! runtime and its CPI, for Main and Delta at a cache-resident size
//! (1 MB) and an out-of-cache size (default 256 MB; the paper uses 2 GB
//! — set `ISI_MAX_MB=2048` to match, memory permitting).
//!
//! Runs on the simulator configured as the paper's machine. The Main
//! `locate` is the branchy HANA-style search (hence its bad-speculation
//! profile in Table 2); the query's non-locate work (code-vector scan
//! over `ISI_ROWS` rows) is modelled as a fixed per-row cost.
//!
//! Usage: `cargo run --release -p isi-bench --bin table1`

use isi_bench::sim::{scan_cycles, SimBench, SimDeltaBench};
use isi_bench::wall::SearchImpl;
use isi_bench::{banner, HarnessCfg};

fn main() {
    let cfg = HarnessCfg::from_env();
    let rows: usize = std::env::var("ISI_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000_000);
    banner("Table 1: execution details of locate (simulated)", &cfg);
    println!(
        "# sizes: 1 MB vs {} MB (paper: 1 MB vs 2048 MB); rows={rows}",
        cfg.max_mb
    );
    let lookups = cfg.lookups.min(5000);

    // Locate cost is measured per lookup, then scaled to the full
    // predicate-list length (the paper's 10 K values).
    let scale = cfg.lookups as f64 / lookups as f64;
    let mut results: Vec<(String, f64, f64)> = Vec::new(); // (label, runtime %, cpi)
    for mb in [1, cfg.max_mb] {
        let mut b = SimBench::new(mb, lookups);
        let vals = b.fresh(lookups);
        let s = b.run(SearchImpl::Std, &vals); // HANA Main locate is speculative
        let locate_cycles = s.cycles * scale;
        let pct = 100.0 * locate_cycles / (locate_cycles + scan_cycles(rows));
        results.push((format!("Main {mb}MB"), pct, s.cpi()));
    }
    for mb in [1, cfg.max_mb] {
        let mut b = SimDeltaBench::new(mb, lookups);
        let vals = b.fresh(lookups);
        let s = b.run_locate(&vals, None);
        let locate_cycles = s.cycles * scale;
        let pct = 100.0 * locate_cycles / (locate_cycles + scan_cycles(rows));
        results.push((format!("Delta {mb}MB"), pct, s.cpi()));
    }

    println!(
        "\n{:<14} {:>12} {:>22}",
        "", "Runtime %", "Cycles per Instruction"
    );
    for (label, pct, cpi) in &results {
        println!("{:<14} {:>11.1}% {:>22.2}", label, pct, cpi);
    }
    println!("\n# paper: Main 21.4% -> 65.7%, CPI 0.9 -> 6.3; Delta 34.3% -> 78.8%,");
    println!("# CPI 0.7 -> 4.2. Expected shape: both shares and CPIs rise several-fold");
    println!("# from the cache-resident to the out-of-cache dictionary.");
}
