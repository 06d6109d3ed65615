//! The repo benchmark: four closed-loop workloads against
//! `isi_serve::LookupService`, checked against an arithmetic oracle.
//! See `README.md` for what is measured and why.
//!
//! ```text
//! isi-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! isi-benchmark repeat [--runs N] [--seconds S] [--smoke] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero if any operation failed.

mod awake;
mod context;
mod gen;
mod repeat;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Outcome;
use workload::{Scale, Workload, WORKLOADS};

/// Seconds one run measures when `--seconds` is not given; the same
/// number is `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 20170826;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
    pub runs: usize,
}

impl Args {
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }

    /// Measured seconds: `--seconds`, else 0.4 s at smoke scale (two
    /// windows of 0.2 s), else the default.
    pub fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.4 } else { DEFAULT_SECONDS })
    }
}

fn parse_args(argv: &[String]) -> Result<(bool, Args), String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        // From the repo root (how the driver runs it) results land in
        // benchmark/out; from inside benchmark/ in out.
        out: if std::path::Path::new("benchmark/Cargo.toml").is_file() {
            "benchmark/out".into()
        } else {
            "out".into()
        },
        runs: 5,
    };
    let repeat = argv.first().is_some_and(|a| a == "repeat");
    let mut it = argv.iter().skip(usize::from(repeat));
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--runs" => {
                let v = value()?;
                args.runs = v.parse().ok().filter(|&n| n >= 2).ok_or_else(|| bad(v))?;
            }
            "--out" => args.out = value()?.into(),
            "--smoke" => args.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((repeat, args))
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: isi-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]\n\
         \x20      isi-benchmark repeat [--runs N] [--seconds S] [--smoke] [--out DIR]",
        names.join("|")
    )
}

/// Print the run for a reader, then the contract's result line.
fn report(args: &Args, w: &Workload, spinning: usize, outcome: &Outcome) {
    println!(
        "context: {{{}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
         \"seconds\": {}, \"rounds\": {}, \"windows_per_round\": {}, \"idle_spinners\": {spinning}}}",
        context::machine_json(),
        w.name,
        args.seed,
        args.trace,
        args.smoke,
        args.seconds(),
        args.scale().rounds,
        args.scale().windows,
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (repeat, args) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(why) = context::refusal() {
        eprintln!("{why}");
        return ExitCode::from(3);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    if repeat {
        return repeat::run(&args);
    }
    let scale = args.scale();
    let Some(w) = args
        .workload
        .as_deref()
        .and_then(|name| Workload::new(name, args.seed, &scale))
    else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let awake = awake::KeepAwake::start(context::nproc());
    let outcome = if args.trace {
        trace::run(&w, &scale, args.seed, &args.out)
    } else {
        run::measure(&w, &scale, args.seconds(), &args.out)
    };
    report(&args, &w, awake.spinning, &outcome);
    drop(awake);
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isi_bench::json::{self, Json};

    /// `BENCHMARK.json` is written by hand; the program is what runs.
    /// They must name the same workloads, metrics and run length.
    #[test]
    fn benchmark_json_declares_what_the_program_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |item: &Json, key: &str| -> String {
            item.get(key).and_then(Json::as_str).expect(key).to_string()
        };

        let declared: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(declared, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let declared: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = trace::PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(declared, ours);

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        // The contract caps a bound at 0.25 and gives set-up time the
        // largest one.
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(name, _)| name == "setup_s")
            .expect("setup_s is declared")
            .1;
        assert!(bounds
            .iter()
            .all(|&(_, b)| b > 0.0 && b <= setup && setup <= 0.25));
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload join_hot --seed 7 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let (repeat, args) = parse_args(&argv).expect("parses");
        assert!(!repeat && args.trace && !args.smoke);
        assert_eq!(
            (args.workload.as_deref(), args.seed, args.seconds()),
            (Some("join_hot"), 7, 20.0)
        );
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--workload",
            "--frobnicate",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }
}
