//! Figure 8 — IN-predicate queries with 10 K INTEGER values on both
//! column parts: Main (binary search) and Delta (CSB+-tree with
//! dictionary-array leaf accesses, §5.5), sequential vs interleaved.
//!
//! Usage: `cargo run --release -p isi-bench --bin fig8`
//! (Delta trees are memory-hungry: ~2.5x the dictionary size.)

use isi_columnstore::{
    execute_in, BitPackedVec, Column, DeltaDictionary, DeltaPart, Interleave, MainDictionary,
    MainPart,
};
use isi_core::stats::time_avg;

use isi_bench::{banner, packed_codes, size_sweep_mb, HarnessCfg};

fn main() {
    let cfg = HarnessCfg::from_env();
    let rows: usize = std::env::var("ISI_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000_000);
    banner(
        "Figure 8: IN-predicate queries, Main and Delta parts (ms)",
        &cfg,
    );
    println!("# rows={rows}, predicate values={}", cfg.lookups);
    println!(
        "\n{:>8} {:>10} {:>12} {:>10} {:>12}",
        "dict", "Main", "Main-Inter", "Delta", "Delta-Inter"
    );

    let group = cfg.groups.2;
    for mb in size_sweep_mb(cfg.max_mb) {
        let n = mb * (1 << 20) / 4;
        let values: Vec<u32> = isi_workloads::uniform_lookups(n, cfg.lookups);

        // Main-only column.
        let main_col = Column {
            main: MainPart {
                dict: MainDictionary::from_sorted((0..n as u32).collect()),
                codes: packed_codes(n, rows, 7),
            },
            delta: Default::default(),
        };
        let m_seq = time_avg(cfg.reps, || {
            std::hint::black_box(execute_in(&main_col, &values, Interleave::Sequential));
        });
        let m_int = time_avg(cfg.reps, || {
            std::hint::black_box(execute_in(
                &main_col,
                &values,
                Interleave::Interleaved(group),
            ));
        });
        drop(main_col);

        // Delta-only column: unsorted dictionary + CSB+-tree index.
        let delta_col = Column {
            main: MainPart {
                dict: MainDictionary::from_sorted(Vec::new()),
                codes: BitPackedVec::new(),
            },
            delta: DeltaPart {
                dict: DeltaDictionary::from_values(isi_workloads::shuffled_indices(n, 42)),
                codes: packed_codes(n, rows, 9),
            },
        };
        let d_seq = time_avg(cfg.reps, || {
            std::hint::black_box(execute_in(&delta_col, &values, Interleave::Sequential));
        });
        let d_int = time_avg(cfg.reps, || {
            std::hint::black_box(execute_in(
                &delta_col,
                &values,
                Interleave::Interleaved(group),
            ));
        });
        drop(delta_col);

        println!(
            "{:>6}MB {:>10.2} {:>12.2} {:>10.2} {:>12.2}",
            mb,
            m_seq.as_secs_f64() * 1e3,
            m_int.as_secs_f64() * 1e3,
            d_seq.as_secs_f64() * 1e3,
            d_int.as_secs_f64() * 1e3,
        );
    }
    println!("\n# paper shape: interleaving reduces Main runtime past the LLC (up to -40%)");
    println!("# and Delta runtime at every size (-10% at 1 MB to -30% at 2 GB).");
}
