//! `serve` — load sweeps of the sharded, admission-batched lookup
//! service ([`isi_serve`]).
//!
//! The default sweep measures read-only throughput and
//! admission-to-response latency quantiles for {backend} × {shard
//! count} × {batch policy} × {closed, open} load modes and writes a
//! machine-readable `BENCH_serve.json` (schema `isi-serve/v2`).
//!
//! `--mixed` instead sweeps {backend} × {shard count} × {write
//! fraction} × {merge threshold} over the **writable**
//! store — closed-loop clients whose op streams mix
//! `get`/`put`/`remove`/`get_range` — and writes
//! `BENCH_serve_mixed.json` (schema `isi-serve-mixed/v8`), including
//! merge counts (background vs foreground), merge latency, published
//! delta runs and stack compactions, plan-stage delta hits / residual
//! fraction, range-scan counts, hot-key-cache hits, and — with `--wal
//! on` — WAL record/fsync counts plus the timed crash recovery each
//! cell runs at teardown. Both binaries' documents self-verify before
//! exiting.
//!
//! ```text
//! serve [--smoke] [--out PATH]        run the read-only sweep
//! serve --mixed [--smoke] [--out PATH] run the mixed read/write sweep
//! serve --verify PATH                 validate an existing file
//!                                     (either schema, by its tag)
//! ```
//!
//! Knobs (apply on top of the chosen preset): `--keys N`,
//! `--clients N`, `--requests N` (per client), `--shards a,b,..`,
//! `--rate RPS` (open-loop offered load, read-only sweep),
//! `--group N`, `--threshold N` (pin the merge-threshold axis to one
//! value, mixed sweep), `--write-frac F` (pin the write-fraction axis
//! to one value in [0, 1], mixed sweep),
//! `--cache N` (hot-key cache slots, mixed sweep),
//! `--repeat N` (measurements per cell, best throughput kept — the
//! full preset's default is 3, mixed sweep),
//! `--range F` (range-scan fraction in [0, 1], mixed sweep),
//! `--bg-merge on|off`
//! (background merger vs inline write-path merges, mixed sweep),
//! `--wal on|off` (per-shard write-ahead log with group-commit fsyncs
//! and snapshot-at-merge; each cell times a full crash recovery at
//! teardown, mixed sweep), `--obs` (capture the observability layer:
//! per-shard per-stage latency rows in the document plus a
//! chrome://tracing export of the last cell, mixed sweep) and
//! `--trace-out PATH` (where `--obs` writes that export; default
//! `BENCH_serve_trace.json`).

use isi_bench::serve::{
    run_mixed_sweep, run_sweep, to_json, to_mixed_json, verify, verify_any_text, verify_mixed,
    MixedBenchCfg, ServeBenchCfg,
};

fn fail(msg: &str) -> ! {
    eprintln!("serve: {msg}");
    std::process::exit(1)
}

fn parse_usize(s: &str, flag: &str) -> usize {
    s.parse()
        .ok()
        .filter(|&v: &usize| v > 0)
        .unwrap_or_else(|| fail(&format!("bad {flag} (need integer >= 1)")))
}

fn parse_shards(s: &str) -> Vec<usize> {
    let list: Vec<usize> = s
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .ok()
                .filter(|&v: &usize| v.is_power_of_two())
                .unwrap_or_else(|| fail(&format!("bad --shards entry {p:?} (need power of two)")))
        })
        .collect();
    if list.is_empty() {
        fail("--shards must be a non-empty list");
    }
    list
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Mode flags pick the base preset before the knob flags apply, so
    // flag order does not matter.
    let smoke = args.iter().any(|a| a == "--smoke");
    let mixed = args.iter().any(|a| a == "--mixed");
    let mut cfg = if smoke {
        ServeBenchCfg::smoke()
    } else {
        ServeBenchCfg::full()
    };
    let mut mixed_cfg = if smoke {
        MixedBenchCfg::smoke()
    } else {
        MixedBenchCfg::full()
    };
    let mut out_path = if mixed {
        "BENCH_serve_mixed.json".to_string()
    } else {
        "BENCH_serve.json".to_string()
    };
    let mut verify_path: Option<String> = None;
    let mut trace_out = "BENCH_serve_trace.json".to_string();
    // Mode-specific flags seen, so a flag that only applies to the
    // *other* sweep fails loudly instead of silently steering nothing.
    let mut mixed_only_flags: Vec<&'static str> = Vec::new();
    let mut readonly_only_flags: Vec<&'static str> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--smoke" | "--mixed" => {}
            "--out" => out_path = value("--out"),
            "--verify" => verify_path = Some(value("--verify")),
            "--keys" => {
                cfg.store_keys = parse_usize(&value("--keys"), "--keys");
                mixed_cfg.store_keys = cfg.store_keys;
            }
            "--clients" => {
                cfg.clients = parse_usize(&value("--clients"), "--clients");
                mixed_cfg.clients = cfg.clients;
            }
            "--requests" => {
                cfg.requests_per_client = parse_usize(&value("--requests"), "--requests");
                mixed_cfg.requests_per_client = cfg.requests_per_client;
            }
            "--group" => {
                cfg.group = parse_usize(&value("--group"), "--group");
                mixed_cfg.group = cfg.group;
            }
            "--threshold" => {
                mixed_only_flags.push("--threshold");
                mixed_cfg.merge_thresholds =
                    vec![parse_usize(&value("--threshold"), "--threshold")];
            }
            "--write-frac" => {
                mixed_only_flags.push("--write-frac");
                mixed_cfg.write_fractions = vec![value("--write-frac")
                    .parse()
                    .ok()
                    .filter(|&v: &f64| (0.0..=1.0).contains(&v))
                    .unwrap_or_else(|| fail("bad --write-frac (need fraction in [0, 1])"))];
            }
            "--cache" => {
                mixed_only_flags.push("--cache");
                // 0 is meaningful here: it disables the hot-key cache.
                mixed_cfg.hot_cache_slots = value("--cache")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --cache (need integer >= 0)"));
            }
            "--repeat" => {
                mixed_only_flags.push("--repeat");
                mixed_cfg.repeat = parse_usize(&value("--repeat"), "--repeat");
            }
            "--range" => {
                mixed_only_flags.push("--range");
                mixed_cfg.range_fraction = value("--range")
                    .parse()
                    .ok()
                    .filter(|&v: &f64| (0.0..=1.0).contains(&v))
                    .unwrap_or_else(|| fail("bad --range (need fraction in [0, 1])"));
            }
            "--bg-merge" => {
                mixed_only_flags.push("--bg-merge");
                mixed_cfg.bg_merge = match value("--bg-merge").as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => fail(&format!("bad --bg-merge {other:?} (need on|off)")),
                };
            }
            "--wal" => {
                mixed_only_flags.push("--wal");
                mixed_cfg.wal = match value("--wal").as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => fail(&format!("bad --wal {other:?} (need on|off)")),
                };
            }
            "--obs" => {
                mixed_only_flags.push("--obs");
                mixed_cfg.obs = true;
            }
            "--trace-out" => {
                mixed_only_flags.push("--trace-out");
                trace_out = value("--trace-out");
            }
            "--rate" => {
                readonly_only_flags.push("--rate");
                cfg.open_rate_rps = value("--rate")
                    .parse()
                    .ok()
                    .filter(|&v: &f64| v.is_finite() && v > 0.0)
                    .unwrap_or_else(|| fail("bad --rate (need positive number)"))
            }
            "--shards" => {
                cfg.shard_counts = parse_shards(&value("--shards"));
                mixed_cfg.shard_counts = cfg.shard_counts.clone();
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    // A sweep is about to run: a flag for the other mode would be
    // silently inert, which reads as "I ran that experiment" when
    // nothing happened. (--verify runs no sweep, so it skips this.)
    if verify_path.is_none() {
        if !mixed && !mixed_only_flags.is_empty() {
            fail(&format!(
                "{} only appl{} to --mixed; add --mixed or drop {}",
                mixed_only_flags.join(", "),
                if mixed_only_flags.len() == 1 {
                    "ies"
                } else {
                    "y"
                },
                if mixed_only_flags.len() == 1 {
                    "it"
                } else {
                    "them"
                },
            ));
        }
        if mixed && !readonly_only_flags.is_empty() {
            fail(&format!(
                "{} only applies to the read-only sweep; drop it or drop --mixed",
                readonly_only_flags.join(", "),
            ));
        }
    }

    if let Some(path) = verify_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
        match verify_any_text(&text) {
            Ok(()) => println!("{path}: OK ({} bytes)", text.len()),
            Err(e) => fail(&format!("{path}: INVALID: {e}")),
        }
        return;
    }

    let doc = if mixed {
        println!(
            "# mixed serve sweep: backends={:?} shards={:?} write-fractions={:?} range-fraction={} keys={} clients={} reqs/client={} thresholds={:?} cache={} bg-merge={} wal={} obs={} repeat={}",
            mixed_cfg.backends.iter().map(|b| b.name()).collect::<Vec<_>>(),
            mixed_cfg.shard_counts,
            mixed_cfg.write_fractions,
            mixed_cfg.range_fraction,
            mixed_cfg.store_keys,
            mixed_cfg.clients,
            mixed_cfg.requests_per_client,
            mixed_cfg.merge_thresholds,
            mixed_cfg.hot_cache_slots,
            mixed_cfg.bg_merge,
            mixed_cfg.wal,
            mixed_cfg.obs,
            mixed_cfg.repeat,
        );
        let cells = run_mixed_sweep(&mixed_cfg, |c| {
            println!(
                "{:>6} shards={:<2} writes={:<4} thr={:<5} {:>10.0} op/s  p50={:<9} p99={:<9} merges={:<4} bg={:<4} runs={:<5} folds={:<4} scans={:<4} resid={:.3} delta={:<5} cache_hits={:<5}",
                c.backend.name(),
                c.shards,
                format!("{}%", (c.write_fraction * 100.0).round()),
                c.merge_threshold,
                c.throughput_rps,
                format!("{}ns", c.p50_ns),
                format!("{}ns", c.p99_ns),
                c.merges,
                c.bg_merges,
                c.delta_runs,
                c.compactions,
                c.range_scans,
                c.residual_frac,
                c.delta_keys,
                c.cache_hits,
            );
        });
        let doc = to_mixed_json(&mixed_cfg, &cells);
        verify_mixed(&doc)
            .unwrap_or_else(|e| fail(&format!("produced document failed self-check: {e}")));
        if mixed_cfg.obs {
            // The document carries every cell's stage rows; the chrome
            // trace (one timeline per run) is the last cell's.
            let trace = &cells.last().expect("verified sweep has cells").trace_json;
            if !trace.contains("\"traceEvents\"") {
                fail("obs run produced an empty chrome trace");
            }
            std::fs::write(&trace_out, trace)
                .unwrap_or_else(|e| fail(&format!("write {trace_out}: {e}")));
            println!("wrote {trace_out}");
        }
        doc
    } else {
        println!(
            "# serve sweep: backends={:?} shards={:?} policies={:?} keys={} clients={} reqs/client={} open-rate={}",
            cfg.backends.iter().map(|b| b.name()).collect::<Vec<_>>(),
            cfg.shard_counts,
            cfg.policies,
            cfg.store_keys,
            cfg.clients,
            cfg.requests_per_client,
            cfg.open_rate_rps,
        );
        let cells = run_sweep(&cfg, |c| {
            println!(
                "{:>6} {:>6} shards={:<2} batch={:<4} {:>10.0} req/s  p50={:<9} p99={:<9} mean_batch={:.1}",
                c.mode,
                c.backend.name(),
                c.shards,
                c.policy.max_batch,
                c.throughput_rps,
                format!("{}ns", c.p50_ns),
                format!("{}ns", c.p99_ns),
                c.mean_batch,
            );
        });
        let doc = to_json(&cfg, &cells);
        verify(&doc).unwrap_or_else(|e| fail(&format!("produced document failed self-check: {e}")));
        doc
    };
    std::fs::write(&out_path, doc.to_pretty())
        .unwrap_or_else(|e| fail(&format!("write {out_path}: {e}")));
    println!("wrote {out_path}");
}
