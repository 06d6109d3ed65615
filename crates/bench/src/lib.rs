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
//! ("gp,amac,coro" group sizes, default "10,6,6"), `ISI_ROWS` (rows of
//! the `fig1`/`fig8`/`table1` column, default 4 M), `ISI_FIG7_WALL`
//! (set to anything: `fig7` adds its wall-clock sweep over
//! [`wall::GROUPS`]). A numeric knob that is set must be a positive
//! integer; anything else stops the binary with a message naming it.
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

impl HarnessCfg {
    /// Parse configuration from `ISI_*` environment variables and
    /// calibrate the cycle counter. Exits with a message naming the
    /// variable when one is set to a value the parse rejects (see
    /// [`env_positive`]; `ISI_GROUPS` takes one to three positive
    /// integers separated by commas).
    pub fn from_env() -> Self {
        let cfg = Self::parse(|name| std::env::var(name).ok()).unwrap_or_else(|e| exit_with(&e));
        Self {
            ghz: isi_core::stats::calibrate_tsc(Duration::from_millis(50)),
            ..cfg
        }
    }

    /// The settings `var` (an environment lookup) gives, without the
    /// TSC calibration. `ISI_GROUPS` positions are GP, AMAC, CORO, each
    /// parsed on its own; an absent trailing position keeps its default.
    fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let mut groups = [10, 6, 6];
        if let Some(raw) = var("ISI_GROUPS") {
            let parts: Vec<&str> = raw.split(',').collect();
            if parts.len() > groups.len() {
                return Err(format!(
                    "ISI_GROUPS={raw:?}: expected at most three group sizes (GP,AMAC,CORO)"
                ));
            }
            for (i, (slot, part)) in groups.iter_mut().zip(parts).enumerate() {
                *slot = positive("ISI_GROUPS", part)
                    .map_err(|e| format!("{e} (position {} of {raw:?})", i + 1))?;
            }
        }
        let setting =
            |name: &str, default: usize| var(name).map_or(Ok(default), |raw| positive(name, &raw));
        Ok(Self {
            max_mb: setting("ISI_MAX_MB", 256)?,
            lookups: setting("ISI_LOOKUPS", 10_000)?,
            reps: setting("ISI_REPS", 3)?,
            groups: (groups[0], groups[1], groups[2]),
            ghz: None,
        })
    }

    /// Cycles per nanosecond, falling back to the nominal 2.1 GHz of
    /// this machine when the TSC is unavailable.
    pub fn cycles_per_ns(&self) -> f64 {
        self.ghz.unwrap_or(2.1)
    }
}

/// Environment variable `name` as a positive integer, `default` when
/// unset. Exits with a message naming `name` when it is set to
/// anything else.
pub fn env_positive(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .map_or(Ok(default), |raw| positive(name, &raw))
        .unwrap_or_else(|e| exit_with(&e))
}

fn positive(name: &str, raw: &str) -> Result<usize, String> {
    match raw.trim().parse() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(format!("{name}={raw:?}: expected a positive integer")),
    }
}

fn exit_with(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
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

    fn parse(vars: &[(&str, &str)]) -> Result<HarnessCfg, String> {
        HarnessCfg::parse(|name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_variables_keep_their_defaults() {
        let cfg = parse(&[]).unwrap();
        assert_eq!((cfg.max_mb, cfg.lookups, cfg.reps), (256, 10_000, 3));
        assert_eq!(cfg.groups, (10, 6, 6));
    }

    #[test]
    fn each_group_position_is_parsed_on_its_own() {
        let cfg = parse(&[("ISI_GROUPS", "12, 8,4"), ("ISI_REPS", "5")]).unwrap();
        assert_eq!(cfg.groups, (12, 8, 4));
        assert_eq!(cfg.reps, 5);
        assert_eq!(parse(&[("ISI_GROUPS", "16")]).unwrap().groups, (16, 6, 6));
        // A malformed middle entry used to be skipped, shifting 8 onto AMAC.
        let err = parse(&[("ISI_GROUPS", "10,x,8")]).unwrap_err();
        assert!(err.starts_with("ISI_GROUPS="), "{err}");
        assert!(parse(&[("ISI_GROUPS", "10,,8")]).is_err());
        assert!(parse(&[("ISI_GROUPS", "10,6,6,6")]).is_err());
    }

    #[test]
    fn zero_or_malformed_values_are_rejected_by_name() {
        for name in ["ISI_MAX_MB", "ISI_LOOKUPS", "ISI_REPS", "ISI_GROUPS"] {
            for bad in ["0", "-1", "many", ""] {
                let err = parse(&[(name, bad)]).unwrap_err();
                assert!(err.starts_with(&format!("{name}=")), "{err}");
            }
        }
    }
}
