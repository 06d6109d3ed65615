//! # isi-bench — harnesses that regenerate every table and figure
//!
//! One binary per paper artifact, twelve in all — whatever is in
//! `src/bin/` (Cargo discovers them; the README's "Paper figure /
//! table binaries" table says how to run and read each):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1` | Fig. 1 — IN-predicate response time vs dictionary size (Main) |
//! | `fig3` | Fig. 3 — cycles/search vs array size, int & string, 5 impls |
//! | `fig4` | Fig. 4 — same with sorted lookup values |
//! | `fig5` | Fig. 5 — TMAM execution-time breakdown (simulator) |
//! | `fig6` | Fig. 6 — L1D-miss breakdown (simulator) |
//! | `fig7` | Fig. 7 — group-size sweep + Inequality-1 estimates |
//! | `fig8` | Fig. 8 — IN-predicate response time, Main & Delta |
//! | `table1` | Table 1 — `locate` runtime share and CPI (simulator) |
//! | `table2` | Table 2 — pipeline-slot breakdown of `locate` (simulator) |
//! | `table3` | Table 3 — qualitative technique properties + measured switch cost |
//! | `table5` | Table 5 — implementation complexity / code footprint (LoC) |
//! | `hash_join` | §6 extension — interleaved hash-join probe |
//!
//! Two criterion benches sit beside them in `benches/`:
//! `binary_search` (the five implementations and CORO's two ablations)
//! and `group_size` (the sweep behind `Interleave::default()`: binary
//! search, CSB+-tree and hash probe, sequential baseline and CORO at
//! [`wall::GROUPS`]). Other kernel cells are not re-timed here: the
//! `benchmark/` ladder has `csb.*`, `hash.*` and `columnstore.in_*` on
//! the service's own data, `fig1`/`fig8` the IN-predicate.
//!
//! Environment knobs (all optional): `ISI_MAX_MB` (top of the size sweep
//! and the out-of-cache point of `table1`/`table2`, default 256),
//! `ISI_LOOKUPS` (lookup-list length, default 10000),
//! `ISI_REPS` (wall-clock repetitions, default 3), `ISI_GROUPS`
//! ("gp,amac,coro" group sizes, default "10,6,6"), `ISI_FIG7_WALL`
//! (set to anything: `fig7` adds its wall-clock sweep over
//! [`wall::GROUPS`]).
//!
//! [`json`] has no caller left in this crate: the repo benchmark
//! (`benchmark/`, its own workspace) reads `BENCHMARK.json` and its
//! result lines with it.

pub mod json;
pub mod loc;
pub mod sim;
pub mod wall;

use std::time::Duration;

use isi_columnstore::{bits_for, BitPackedVec};
use isi_workloads::xorshift64;

/// Harness configuration parsed from the environment.
#[derive(Debug, Clone)]
pub struct HarnessCfg {
    /// Largest array/dictionary size in MB for sweeps.
    pub max_mb: usize,
    /// Lookup-list length (the paper's default is 10 K).
    pub lookups: usize,
    /// Wall-clock repetitions per data point (average reported, as in
    /// the paper's methodology of §5.3).
    pub reps: usize,
    /// Group sizes for (GP, AMAC, CORO) — the paper's best: 10, 6, 6.
    pub groups: (usize, usize, usize),
    /// Calibrated TSC frequency in cycles/ns (None if unavailable).
    pub ghz: Option<f64>,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl HarnessCfg {
    /// Parse configuration from `ISI_*` environment variables and
    /// calibrate the cycle counter.
    pub fn from_env() -> Self {
        let groups_raw = std::env::var("ISI_GROUPS").unwrap_or_else(|_| "10,6,6".into());
        let mut it = groups_raw.split(',').filter_map(|s| s.trim().parse().ok());
        let groups = (
            it.next().unwrap_or(10),
            it.next().unwrap_or(6),
            it.next().unwrap_or(6),
        );
        Self {
            max_mb: env_usize("ISI_MAX_MB", 256),
            lookups: env_usize("ISI_LOOKUPS", 10_000),
            reps: env_usize("ISI_REPS", 3),
            groups,
            ghz: isi_core::stats::calibrate_tsc(Duration::from_millis(50)),
        }
    }

    /// Cycles per nanosecond, falling back to the nominal 2.1 GHz of
    /// this machine when the TSC is unavailable.
    pub fn cycles_per_ns(&self) -> f64 {
        self.ghz.unwrap_or(2.1)
    }
}

/// The paper's size ladder: 1, 2, 4, ... MB up to `max_mb`.
pub fn size_sweep_mb(max_mb: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = 1;
    while s <= max_mb {
        v.push(s);
        s *= 2;
    }
    v
}

/// A code vector of `rows` rows drawn uniformly from an `n`-value
/// dictionary — the column `fig1` and `fig8` scan. Deterministic in
/// `seed` (made odd: xorshift has no zero state).
pub fn packed_codes(n: usize, rows: usize, seed: u64) -> BitPackedVec {
    let mut codes = BitPackedVec::with_width(bits_for(n));
    let mut x = seed | 1;
    for _ in 0..rows {
        codes.push((xorshift64(&mut x) % n as u64) as u32);
    }
    codes
}

/// Render a harness header with the reproduction context.
pub fn banner(title: &str, cfg: &HarnessCfg) {
    println!("# {title}");
    println!(
        "# lookups={} reps={} groups(GP,AMAC,CORO)=({},{},{}) tsc={:.2} GHz max={} MB",
        cfg.lookups,
        cfg.reps,
        cfg.groups.0,
        cfg.groups.1,
        cfg.groups.2,
        cfg.cycles_per_ns(),
        cfg.max_mb
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_powers_of_two() {
        assert_eq!(size_sweep_mb(8), vec![1, 2, 4, 8]);
        assert_eq!(size_sweep_mb(1), vec![1]);
        assert_eq!(size_sweep_mb(0), Vec::<usize>::new());
        assert_eq!(size_sweep_mb(100), vec![1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn cfg_has_sane_defaults() {
        let cfg = HarnessCfg::from_env();
        assert!(cfg.max_mb >= 1);
        assert!(cfg.lookups >= 1);
        assert!(cfg.reps >= 1);
        assert!(cfg.cycles_per_ns() > 0.1);
    }
}
