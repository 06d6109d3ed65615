//! The machine and checkout a run happened on, recorded with every
//! result so two numbers are only ever compared like for like.

use std::fs;
use std::path::Path;

/// Cores the benchmark needs: one client plus two dispatchers share
/// them, so fewer than two measures scheduling, not the service.
pub const MIN_CPUS: usize = 2;
/// Available memory needed: the 2^24-pair store peaks near 0.8 GiB
/// while building and the traced ladder holds a second copy of a shard.
pub const MIN_AVAILABLE_MIB: u64 = 2048;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
///
/// # Panics
/// Panics where `/proc/self/status` has no `VmHWM` (not Linux): a
/// silent 0 would read as a memory win.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

pub fn available_mib() -> Option<u64> {
    let info = fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

/// Why this machine cannot give a meaningful run, if it cannot.
pub fn refusal() -> Option<String> {
    if nproc() < MIN_CPUS {
        return Some(format!(
            "refusing to run: {} CPU available, the benchmark needs {MIN_CPUS} \
             (one client thread plus the service's two dispatchers)",
            nproc()
        ));
    }
    match available_mib() {
        Some(mib) if mib < MIN_AVAILABLE_MIB => Some(format!(
            "refusing to run: {mib} MiB of memory available, the benchmark needs \
             {MIN_AVAILABLE_MIB} MiB (the 2^24-pair store would swap)"
        )),
        _ => None,
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d=48K L2=2048K …` from cpu0's sysfs cache directory.
fn caches() -> String {
    let mut found = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |name: &str| fs::read_to_string(format!("{dir}/{name}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let suffix = match kind.trim() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        found.push(format!("L{}{suffix}={}", level.trim(), size.trim()));
    }
    if found.is_empty() {
        "unknown".into()
    } else {
        found.join(" ")
    }
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `unknown` outside a repository (the driver's
/// checkout is not one).
fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let head = ["", "../"].iter().find_map(|up| {
        let head = read(&format!("{up}.git/HEAD"))?;
        match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!("{up}.git/{reference}")),
            None => Some(head),
        }
    });
    head.unwrap_or_else(|| "unknown".into())
}

/// The filesystem type `dir` lives on (`tmpfs`, `ext4`, …): the mount
/// with the longest mount-point prefix of the canonical path.
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (point, kind) = (fields.nth(1)?, fields.next()?);
            dir.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind.to_string())
}

/// `text` as a JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The fixed part of a run's context as JSON object fields (no braces).
pub fn machine_json() -> String {
    format!(
        "\"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"caches\": {}, \"mem_available_mib\": {}",
        quote(&git_commit()),
        nproc(),
        quote(&cpu_model()),
        quote(&caches()),
        available_mib().unwrap_or(0),
    )
}
