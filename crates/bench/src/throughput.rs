//! The `throughput` sweep: {variant × table size × thread count} →
//! lookups/sec, written as machine-readable JSON (`BENCH_throughput.json`)
//! so the perf trajectory has data a tool can diff across commits.
//!
//! Methodology: per cell, one untimed warmup run, then `reps` timed
//! runs of the full bulk lookup; the **median** run is reported
//! (one-sided interference only ever adds time, and the median
//! discards it without the minimum's optimism). All parallel cells go
//! through the morsel engine of [`isi_core::par`]; `threads = 1` uses
//! its no-spawn fast path, so the 1-thread column is the sequential
//! engine, not "parallel with one worker" overhead.

use isi_core::mem::DirectMem;
use isi_core::par::ParConfig;
use isi_core::stats::Stopwatch;
use isi_search::{
    bulk_rank_amac_par, bulk_rank_branchfree_par, bulk_rank_coro_par, bulk_rank_gp_par,
};
use isi_workloads::{int_array, uniform_lookups};

use crate::json::{self, num, obj, str, Json};

/// Schema tag written into (and required from) every result document.
pub const SCHEMA: &str = "isi-throughput/v1";

/// The four swept variants: the sequential conditional-move baseline
/// and the three interleaving techniques, each behind its morsel-
/// parallel driver.
pub const VARIANTS: [&str; 4] = ["branchfree", "GP", "AMAC", "CORO"];

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ThroughputCfg {
    /// Table sizes in elements (u32 keys).
    pub table_sizes: Vec<usize>,
    /// Thread counts to sweep.
    pub thread_counts: Vec<usize>,
    /// Number of lookups per bulk run.
    pub lookups: usize,
    /// Timed repetitions per cell (median reported).
    pub reps: usize,
    /// Group sizes for (GP, AMAC, CORO) — the paper's best: 10, 6, 6.
    pub groups: (usize, usize, usize),
    /// Morsel size for the parallel engine.
    pub morsel_size: usize,
}

/// Thread counts {1, 2, 4, ...} up to the machine's available
/// parallelism — always including a multi-threaded point (at least 2),
/// so the thread-scaling column exists even on single-core CI boxes.
pub fn default_thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    let mut counts = vec![1];
    let mut t = 2;
    while t < max {
        counts.push(t);
        t *= 2;
    }
    counts.push(max);
    counts.dedup();
    counts
}

impl ThroughputCfg {
    /// Full sweep: an in-cache (256 KiB) and an out-of-cache (64 MiB)
    /// table, 1 M lookups, median of 5.
    pub fn full() -> Self {
        Self {
            table_sizes: vec![1 << 16, 1 << 24],
            thread_counts: default_thread_counts(),
            lookups: 1 << 20,
            reps: 5,
            groups: (10, 6, 6),
            morsel_size: 4096,
        }
    }

    /// Smoke sweep for CI: a tiny table and few lookups — seconds, not
    /// minutes — but the same cell grid shape as the full sweep.
    pub fn smoke() -> Self {
        Self {
            table_sizes: vec![1 << 12],
            thread_counts: vec![1, 2],
            lookups: 1 << 13,
            reps: 2,
            groups: (10, 6, 6),
            morsel_size: 1024,
        }
    }

    fn group_for(&self, variant: &str) -> usize {
        match variant {
            "GP" => self.groups.0,
            "AMAC" => self.groups.1,
            "CORO" => self.groups.2,
            _ => 1,
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Variant name (one of [`VARIANTS`]).
    pub variant: &'static str,
    /// Table size in elements.
    pub table_size: usize,
    /// Worker-thread count.
    pub threads: usize,
    /// Interleave group size used (1 for the sequential baseline).
    pub group_size: usize,
    /// Median wall time of one full bulk run, nanoseconds.
    pub median_ns: f64,
    /// Lookups per second derived from the median run.
    pub lookups_per_sec: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Run one cell: warmup + `reps` timed bulk runs, median reported.
pub fn measure_cell(
    variant: &'static str,
    table: &[u32],
    probes: &[u32],
    threads: usize,
    cfg: &ThroughputCfg,
) -> Cell {
    let mem = DirectMem::new(table);
    let par = ParConfig {
        threads,
        morsel_size: cfg.morsel_size,
    };
    let group = cfg.group_for(variant);
    let mut out = vec![0u32; probes.len()];
    let run = |out: &mut [u32]| match variant {
        "branchfree" => bulk_rank_branchfree_par(&mem, probes, par, out),
        "GP" => bulk_rank_gp_par(&mem, probes, group, par, out),
        "AMAC" => bulk_rank_amac_par(&mem, probes, group, par, out),
        "CORO" => {
            bulk_rank_coro_par(mem, probes, group, par, out);
        }
        other => panic!("unknown variant {other}"),
    };

    run(&mut out); // warmup
    let mut samples: Vec<f64> = (0..cfg.reps.max(1))
        .map(|_| {
            let sw = Stopwatch::start();
            run(&mut out);
            std::hint::black_box(&mut out);
            sw.elapsed().as_nanos() as f64
        })
        .collect();
    let median_ns = median(&mut samples);
    Cell {
        variant,
        table_size: table.len(),
        threads,
        group_size: group,
        median_ns,
        lookups_per_sec: probes.len() as f64 / (median_ns * 1e-9),
    }
}

/// Run the whole sweep. `progress` receives one line per finished cell
/// (pass `|_| {}` to silence).
pub fn run_sweep(cfg: &ThroughputCfg, mut progress: impl FnMut(&Cell)) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &size in &cfg.table_sizes {
        let table: Vec<u32> = int_array(size);
        let probes = uniform_lookups(size, cfg.lookups);
        for variant in VARIANTS {
            for &threads in &cfg.thread_counts {
                let cell = measure_cell(variant, &table, &probes, threads, cfg);
                progress(&cell);
                cells.push(cell);
            }
        }
    }
    cells
}

/// Serialize a finished sweep to the `isi-throughput/v1` document.
pub fn to_json(cfg: &ThroughputCfg, cells: &[Cell]) -> Json {
    let rate_at_1t = |variant: &str, size: usize| {
        cells
            .iter()
            .find(|c| c.variant == variant && c.table_size == size && c.threads == 1)
            .map(|c| c.lookups_per_sec)
    };
    let results: Vec<Json> = cells
        .iter()
        .map(|c| {
            let speedup = rate_at_1t(c.variant, c.table_size)
                .map(|base| c.lookups_per_sec / base)
                .map(|s| num((s * 1000.0).round() / 1000.0))
                .unwrap_or(Json::Null);
            obj(vec![
                ("variant", str(c.variant)),
                ("table_size", num(c.table_size as f64)),
                ("threads", num(c.threads as f64)),
                ("group_size", num(c.group_size as f64)),
                ("median_ns", num(c.median_ns.round())),
                ("lookups_per_sec", num(c.lookups_per_sec.round())),
                ("speedup_vs_1t", speedup),
            ])
        })
        .collect();
    obj(vec![
        ("schema", str(SCHEMA)),
        (
            "machine",
            obj(vec![
                (
                    "available_parallelism",
                    num(std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1) as f64),
                ),
                ("arch", str(std::env::consts::ARCH)),
                ("os", str(std::env::consts::OS)),
            ]),
        ),
        (
            "config",
            obj(vec![
                (
                    "table_sizes",
                    Json::Arr(cfg.table_sizes.iter().map(|&s| num(s as f64)).collect()),
                ),
                (
                    "thread_counts",
                    Json::Arr(cfg.thread_counts.iter().map(|&t| num(t as f64)).collect()),
                ),
                ("variants", Json::Arr(VARIANTS.map(str).to_vec())),
                ("lookups", num(cfg.lookups as f64)),
                ("reps", num(cfg.reps as f64)),
                ("warmup_runs", num(1.0)),
                (
                    "groups",
                    obj(vec![
                        ("GP", num(cfg.groups.0 as f64)),
                        ("AMAC", num(cfg.groups.1 as f64)),
                        ("CORO", num(cfg.groups.2 as f64)),
                    ]),
                ),
                ("morsel_size", num(cfg.morsel_size as f64)),
            ]),
        ),
        ("results", Json::Arr(results)),
    ])
}

/// Validate a result document: schema tag, and exactly one result cell
/// with positive throughput for every `variant × table size × thread
/// count` combination the document's own config declares. Used by the
/// CI smoke job and by the binary's self-check after a sweep.
pub fn verify(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema tag is not {SCHEMA:?}"));
    }
    let config = doc.get("config").ok_or("missing config")?;
    let usize_list = |key: &str| -> Result<Vec<usize>, String> {
        config
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("missing config.{key}"))?
            .iter()
            .map(|v| v.as_usize().ok_or(format!("non-integer in config.{key}")))
            .collect()
    };
    let sizes = usize_list("table_sizes")?;
    let threads = usize_list("thread_counts")?;
    let variants: Vec<&str> = config
        .get("variants")
        .and_then(Json::as_arr)
        .ok_or("missing config.variants")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    if sizes.is_empty() || threads.is_empty() || variants.is_empty() {
        return Err("empty sweep axes".into());
    }
    for required in VARIANTS {
        if !variants.contains(&required) {
            return Err(format!("variant {required:?} missing from sweep"));
        }
    }
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results")?;
    for v in &variants {
        for &s in &sizes {
            for &t in &threads {
                let matching: Vec<&Json> = results
                    .iter()
                    .filter(|c| {
                        c.get("variant").and_then(Json::as_str) == Some(v)
                            && c.get("table_size").and_then(Json::as_usize) == Some(s)
                            && c.get("threads").and_then(Json::as_usize) == Some(t)
                    })
                    .collect();
                if matching.len() != 1 {
                    return Err(format!(
                        "expected exactly 1 cell for {v}/size={s}/threads={t}, found {}",
                        matching.len()
                    ));
                }
                let rate = matching[0]
                    .get("lookups_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!(
                        "non-positive lookups_per_sec for {v}/size={s}/threads={t}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Parse and validate a result file's contents.
pub fn verify_text(text: &str) -> Result<(), String> {
    verify(&json::parse(text).map_err(|e| format!("JSON parse error: {e}"))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ThroughputCfg {
        ThroughputCfg {
            table_sizes: vec![256],
            thread_counts: vec![1, 2],
            lookups: 512,
            reps: 1,
            groups: (4, 4, 4),
            morsel_size: 64,
        }
    }

    #[test]
    fn sweep_produces_a_cell_per_combination_and_verifies() {
        let cfg = tiny_cfg();
        let cells = run_sweep(&cfg, |_| {});
        assert_eq!(cells.len(), VARIANTS.len() * 2);
        assert!(cells.iter().all(|c| c.lookups_per_sec > 0.0));
        let doc = to_json(&cfg, &cells);
        verify(&doc).expect("self-produced document must verify");
        // And it round-trips through the serializer + parser.
        verify_text(&doc.to_pretty()).expect("round-trip verify");
    }

    #[test]
    fn verify_rejects_missing_cells_and_bad_schema() {
        let cfg = tiny_cfg();
        let cells = run_sweep(&cfg, |_| {});
        let doc = to_json(&cfg, &cells);

        // Drop one result cell.
        let mut truncated = doc.clone();
        if let Json::Obj(pairs) = &mut truncated {
            for (k, v) in pairs.iter_mut() {
                if k == "results" {
                    if let Json::Arr(items) = v {
                        items.pop();
                    }
                }
            }
        }
        assert!(verify(&truncated).is_err());

        // Wrong schema tag.
        let mut wrong = doc;
        if let Json::Obj(pairs) = &mut wrong {
            pairs[0].1 = str("other/v0");
        }
        assert!(verify(&wrong).is_err());

        // Not even JSON.
        assert!(verify_text("{nope").is_err());
    }

    #[test]
    fn default_thread_counts_always_include_a_parallel_point() {
        let counts = default_thread_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.iter().any(|&t| t >= 2));
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }
}
