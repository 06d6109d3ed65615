//! Table 5 — implementation complexity and code footprint, measured on
//! *this repository's own source code*.
//!
//! The paper compares lines of code (LoC) that differ between each
//! interleaved implementation and the original sequential binary search
//! (Diff-to-Original), and the total LoC one must maintain to support
//! both execution modes (Total Code Footprint). We compute both metrics
//! from the marked regions in `isi-search`'s sources:
//!
//! * code lines = non-empty lines that are not pure comments,
//! * Diff-to-Original = code lines of the implementation not textually
//!   present (after whitespace normalization) in the baseline region,
//! * footprint = implementation + baseline for the separate-codepath
//!   techniques (GP, AMAC, CORO-S); the unified CORO-U stands alone.

/// The marked sources, embedded at compile time so the analysis always
/// matches the code actually benchmarked.
const SEQ_SRC: &str = include_str!("../../search/src/seq.rs");
const GP_SRC: &str = include_str!("../../search/src/gp.rs");
const AMAC_SRC: &str = include_str!("../../search/src/amac.rs");
const CORO_SRC: &str = include_str!("../../search/src/coro.rs");

/// Extract the region between `[table5:<name>:begin]` and `:end]`.
///
/// # Panics
/// Panics if the markers are missing (the analysis would silently lie).
pub(crate) fn region(src: &str, name: &str) -> Vec<String> {
    let begin = format!("[table5:{name}:begin]");
    let end = format!("[table5:{name}:end]");
    let mut in_region = false;
    let mut out = Vec::new();
    for line in src.lines() {
        if line.contains(&begin) {
            in_region = true;
            continue;
        }
        if line.contains(&end) {
            return out;
        }
        if in_region {
            out.push(line.to_string());
        }
    }
    panic!("table5 markers for {name:?} not found or unterminated");
}

/// Is this a code line (non-empty, not a pure comment)?
fn is_code(line: &str) -> bool {
    let t = line.trim();
    !t.is_empty() && !t.starts_with("//") && !t.starts_with("///") && !t.starts_with("//!")
}

/// Count code lines in a region.
pub(crate) fn loc(lines: &[String]) -> usize {
    lines.iter().filter(|l| is_code(l)).count()
}

/// Code lines of `lines` not present in `baseline` (whitespace-
/// normalized multiset difference — re-used lines count once each).
pub(crate) fn diff_to_original(lines: &[String], baseline: &[String]) -> usize {
    let mut base: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for l in baseline.iter().filter(|l| is_code(l)) {
        *base.entry(normalize(l)).or_default() += 1;
    }
    let mut diff = 0;
    for l in lines.iter().filter(|l| is_code(l)) {
        let n = normalize(l);
        match base.get_mut(&n) {
            Some(c) if *c > 0 => *c -= 1,
            _ => diff += 1,
        }
    }
    diff
}

fn normalize(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// One Table 5 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table5Row {
    /// Technique name as in the paper.
    pub technique: &'static str,
    /// LoC of the interleaved implementation.
    pub interleaved: usize,
    /// LoC differing from the original sequential code.
    pub diff_to_original: usize,
    /// LoC maintained to support both sequential and interleaved modes.
    pub total_footprint: usize,
}

/// Compute all four rows of Table 5 from this repository's sources.
pub fn table5_rows() -> Vec<Table5Row> {
    let baseline = region(SEQ_SRC, "baseline");
    let gp = region(GP_SRC, "gp");
    let amac = region(AMAC_SRC, "amac");
    let coro_u = region(CORO_SRC, "coro-u");
    let coro_s = region(CORO_SRC, "coro-s");

    let base_loc = loc(&baseline);
    vec![
        Table5Row {
            technique: "GP",
            interleaved: loc(&gp),
            diff_to_original: diff_to_original(&gp, &baseline),
            total_footprint: loc(&gp) + base_loc,
        },
        Table5Row {
            technique: "AMAC",
            interleaved: loc(&amac),
            diff_to_original: diff_to_original(&amac, &baseline),
            total_footprint: loc(&amac) + base_loc,
        },
        Table5Row {
            technique: "CORO-U",
            interleaved: loc(&coro_u),
            diff_to_original: diff_to_original(&coro_u, &baseline),
            // Unified: the same code serves both modes.
            total_footprint: loc(&coro_u),
        },
        Table5Row {
            technique: "CORO-S",
            interleaved: loc(&coro_s),
            diff_to_original: diff_to_original(&coro_s, &baseline),
            total_footprint: loc(&coro_s) + base_loc,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_exist_and_are_nonempty() {
        for (src, name) in [
            (SEQ_SRC, "baseline"),
            (GP_SRC, "gp"),
            (AMAC_SRC, "amac"),
            (CORO_SRC, "coro-u"),
            (CORO_SRC, "coro-s"),
        ] {
            let r = region(src, name);
            assert!(loc(&r) > 5, "{name} region too small");
        }
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn missing_region_panics() {
        region("fn main() {}", "nope");
    }

    #[test]
    fn code_line_classifier() {
        assert!(is_code("    let x = 1;"));
        assert!(!is_code("   // comment"));
        assert!(!is_code("/// doc"));
        assert!(!is_code(""));
        assert!(is_code("} // trailing comment is still code"));
    }

    #[test]
    fn table5_reproduces_paper_ordering() {
        let rows = table5_rows();
        let get = |t: &str| rows.iter().find(|r| r.technique == t).unwrap().clone();
        let gp = get("GP");
        let amac = get("AMAC");
        let coro_u = get("CORO-U");
        let coro_s = get("CORO-S");

        // Paper Table 5's qualitative claims:
        // CORO-U requires the fewest modifications and smallest footprint.
        assert!(coro_u.diff_to_original < gp.diff_to_original);
        assert!(coro_u.diff_to_original < amac.diff_to_original);
        assert!(coro_u.total_footprint < gp.total_footprint);
        assert!(coro_u.total_footprint < amac.total_footprint);
        assert!(coro_u.total_footprint <= coro_s.total_footprint);
        // Both CORO variants have less code than GP and AMAC.
        assert!(coro_s.interleaved < gp.interleaved || coro_s.interleaved < amac.interleaved);
        // AMAC is the heavyweight.
        assert!(amac.interleaved > gp.interleaved);
        assert!(amac.diff_to_original > gp.diff_to_original);
    }

    #[test]
    fn diff_counts_are_sane() {
        let baseline = region(SEQ_SRC, "baseline");
        // Diff of the baseline to itself is zero.
        assert_eq!(diff_to_original(&baseline, &baseline), 0);
        // Diff of anything to empty is its own LoC.
        let gp = region(GP_SRC, "gp");
        assert_eq!(diff_to_original(&gp, &[]), loc(&gp));
    }
}
