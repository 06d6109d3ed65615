//! Figure 1 — response time of an IN-predicate query with 10 K INTEGER
//! values against the Main part, sequential vs interleaved, as the
//! dictionary grows from 1 MB to the configured maximum.
//!
//! The column holds `ISI_ROWS` (default 4 M) rows drawn uniformly from
//! the dictionary domain; the encode phase (bulk `locate` = the index
//! join) is what interleaving accelerates, while the code-vector scan is
//! a constant base cost — reproducing the paper's flat-then-rising
//! sequential curve and the much flatter interleaved one.
//!
//! Usage: `cargo run --release -p isi-bench --bin fig1`

use isi_columnstore::{execute_in, Column, Interleave, MainDictionary, MainPart};
use isi_core::stats::time_avg;

use isi_bench::{banner, packed_codes, size_sweep_mb, HarnessCfg};

fn main() {
    let cfg = HarnessCfg::from_env();
    let rows: usize = std::env::var("ISI_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000_000);
    banner(
        "Figure 1: IN-predicate query response time, Main part",
        &cfg,
    );
    println!("# rows={rows}, predicate values={}", cfg.lookups);
    println!(
        "\n{:>8} {:>14} {:>18} {:>9}",
        "dict", "Main (ms)", "Main-Interleaved", "speedup"
    );

    let group = cfg.groups.2;
    for mb in size_sweep_mb(cfg.max_mb) {
        let n = mb * (1 << 20) / 4;
        let dict = MainDictionary::from_sorted((0..n as u32).collect());
        let codes = packed_codes(n, rows, 0x2545_F491_4F6C_DD1D);
        let column = Column {
            main: MainPart { dict, codes },
            delta: Default::default(),
        };
        let values: Vec<u32> = isi_workloads::uniform_lookups(n, cfg.lookups);

        let seq = time_avg(cfg.reps, || {
            std::hint::black_box(execute_in(&column, &values, Interleave::Sequential));
        });
        let inter = time_avg(cfg.reps, || {
            std::hint::black_box(execute_in(&column, &values, Interleave::Interleaved(group)));
        });
        println!(
            "{:>6}MB {:>14.2} {:>18.2} {:>8.2}x",
            mb,
            seq.as_secs_f64() * 1e3,
            inter.as_secs_f64() * 1e3,
            seq.as_secs_f64() / inter.as_secs_f64().max(1e-12)
        );
    }
    println!("\n# paper shape: both flat while the dictionary fits the LLC; sequential");
    println!("# rises steeply past it, interleaved rises much less (paper: -40% at 2 GB).");
}
