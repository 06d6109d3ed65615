//! Every workload, traced and untraced, at smoke scale, through the
//! command line the driver uses: the result line must carry exactly
//! what `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use isi_bench::json::{self, Json};

/// `(name, unit)` of every metric in `list` of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let text = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).expect(key).to_string();
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("list present")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// The result line, checked for exactly the contract's keys, and the
/// `(name, unit)` of every metric in it.
fn emitted(line: &str) -> BTreeMap<String, String> {
    let Json::Obj(fields) = json::parse(line).expect("result line parses") else {
        panic!("result is not an object: {line}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(fields[0].1, Json::Bool(true), "{line}");
    assert!(fields[1].1.as_f64().expect("attempted") >= 1.0);
    assert_eq!(fields[2].1.as_f64(), Some(0.0), "{line}");
    let Json::Obj(metrics) = &fields[3].1 else {
        panic!("metrics is not an object: {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{name} = {value}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn run(workload: &str, trace: bool, out: &Path) -> String {
    let done = Command::new(env!("CARGO_BIN_EXE_isi-benchmark"))
        .args(["--workload", workload, "--seed", "11", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn benchmark");
    let stdout = String::from_utf8(done.stdout).expect("utf-8 output");
    assert!(
        done.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&done.stderr)
    );
    stdout
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out);
    for workload in ["join_cold", "join_hot", "serve_point", "serve_mixed"] {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let stdout = run(workload, trace, &out);
            let got = emitted(stdout.lines().last().expect("a result line"));
            assert_eq!(got, declared(list), "{workload} trace={trace}");
            for name in got.keys() {
                assert!(
                    name.len() <= 64
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
            }
            if workload == "serve_mixed" && !trace {
                assert!(
                    stdout.contains("written keys read back"),
                    "no recovery read-back:\n{stdout}"
                );
            }
            if trace {
                let spans = out.join(format!("trace-{workload}-11.json"));
                let text = std::fs::read_to_string(&spans).expect("span file written");
                assert!(text.contains("\"name\": \"store.lookup_batch\", \"start_ns\": "));
                assert!(text.contains("\"parent\": 0") || text.contains("\"parent\": 1"));
            }
        }
    }
    // Only span files stay behind: every WAL directory is gone.
    for entry in std::fs::read_dir(&out).expect("out dir") {
        let name = entry
            .expect("entry")
            .file_name()
            .into_string()
            .expect("utf-8 name");
        assert!(
            name.starts_with("trace-") && name.ends_with(".json"),
            "left behind: {name}"
        );
    }
}

#[test]
fn a_failed_operation_or_bad_argument_is_a_non_zero_exit() {
    let done = Command::new(env!("CARGO_BIN_EXE_isi-benchmark"))
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("spawn benchmark");
    assert!(!done.status.success());
    assert!(done.stdout.is_empty(), "no result line on a refused run");
}
