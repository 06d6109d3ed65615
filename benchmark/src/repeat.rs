//! `repeat`: is the benchmark steady enough to judge a change by?
//!
//! Runs two interleaved sets of N untraced runs of every workload,
//! each run a fresh process with its own seed, and prints per
//! end-to-end metric each set's median and quartiles, each set's
//! spread (quartile distance over median) and how much worse the
//! second median is than the first — the two things the bound in
//! `BENCHMARK.json` has to cover before it can catch a regression.

use std::process::{Command, ExitCode, Stdio};

use crate::stats::{median, quartiles};
use crate::workload::WORKLOADS;
use crate::Args;
use isi_bench::json::{self, Json};

struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared() -> Result<Vec<Metric>, String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end in BENCHMARK.json")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            Ok(Metric {
                name: text("name")?.into(),
                unit: text("unit")?.into(),
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// One untraced run in a child process; its metrics by name.
fn one_run(args: &Args, workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let done = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&done.stdout);
    if !done.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}",
            done.status
        ));
    }
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let doc = json::parse(last)?;
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| "result without metrics".into())
}

pub fn run(args: &Args) -> ExitCode {
    let metrics = match declared() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // values[set][workload][metric] = one value per run.
    let mut values = vec![vec![vec![Vec::new(); metrics.len()]; WORKLOADS.len()]; 2];
    for r in 0..args.runs {
        for (set, per_workload) in values.iter_mut().enumerate() {
            for ((workload, _), per_metric) in WORKLOADS.iter().zip(per_workload.iter_mut()) {
                let seed = args.seed + (2 * r + set) as u64;
                eprintln!(
                    "run {}/{} set {} {workload} seed {seed}",
                    r + 1,
                    args.runs,
                    ["A", "B"][set]
                );
                let got = match one_run(args, workload, seed) {
                    Ok(got) => got,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                for (m, samples) in metrics.iter().zip(per_metric.iter_mut()) {
                    match got
                        .get(&m.name)
                        .and_then(|v| v.get("value"))
                        .and_then(Json::as_f64)
                    {
                        Some(v) => samples.push(v),
                        None => {
                            eprintln!("{workload} did not report {}", m.name);
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
        }
    }

    println!(
        "Two interleaved sets (A, B) of {} runs per workload, {} s measured per run, \
         seeds {}..{}; one build.\n",
        args.runs,
        args.seconds(),
        args.seed,
        args.seed + 2 * args.runs as u64 - 1
    );
    println!("machine: {{{}}}\n", crate::context::machine_json());
    println!(
        "`spread` is (Q3 − Q1) / median of a set, quartiles as Python's \
         `statistics.quantiles(n=4)`; `B worse by` is how far set B's median is on the \
         worse side of set A's. PASS needs both spreads and `B worse by` within the \
         bound; `steady` also needs every spread within a third and the gap within half \
         of it.\n"
    );
    println!("| workload | metric | unit | A median [Q1, Q3] | A spread | B median [Q1, Q3] | B spread | B worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for (wi, (workload, _)) in WORKLOADS.iter().enumerate() {
        for (mi, m) in metrics.iter().enumerate() {
            let summary = |set: usize| {
                let v: &Vec<f64> = &values[set][wi][mi];
                let (q1, q3) = quartiles(v);
                let med = median(v);
                (med, q1, q3, (q3 - q1) / med)
            };
            let (a, b) = (summary(0), summary(1));
            let worse = if m.lower_is_better {
                (b.0 - a.0) / a.0
            } else {
                (a.0 - b.0) / a.0
            };
            let spreads_within = |limit: f64| a.3 <= limit && b.3 <= limit;
            let verdict = if worse > m.bound || !spreads_within(m.bound) {
                all_pass = false;
                "FAIL"
            } else if worse <= m.bound / 2.0 && spreads_within(m.bound / 3.0) {
                "PASS (steady)"
            } else {
                "PASS"
            };
            let cell = |s: (f64, f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", s.0, s.1, s.2);
            println!(
                "| {workload} | {} | {} | {} | {:.2}% | {} | {:.2}% | {:+.2}% | {:.0}% | {verdict} |",
                m.name,
                m.unit,
                cell(a),
                a.3 * 100.0,
                cell(b),
                b.3 * 100.0,
                worse * 100.0,
                m.bound * 100.0,
            );
        }
    }
    println!("\n{}", if all_pass { "all PASS" } else { "some FAIL" });
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
