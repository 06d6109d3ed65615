//! IN-predicate query execution — the paper's running example
//! (Sections 1-2, Figures 1 and 8).
//!
//! `SELECT ... WHERE col IN (v1, ..., vk)` over a dictionary-encoded
//! column runs in two phases:
//!
//! 1. **Encode** the predicate values: a bulk `locate` against the Main
//!    dictionary (binary search) and the Delta dictionary (CSB+-tree) —
//!    the index join `S ⋈ D` whose memory stalls the paper hides with
//!    interleaving. This phase is where the shared
//!    [`Interleave`] policy chooses sequential or interleaved
//!    execution.
//! 2. **Scan** the code vectors with a membership bitmap over the
//!    matched codes, emitting qualifying row ids.

use isi_core::policy::Interleave;
use isi_search::key::SearchKey;
use isi_search::locate::NOT_FOUND;

use crate::codevec::Bitset;
use crate::column::Column;

/// Statistics of one IN-predicate execution (for harness output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InQueryStats {
    /// Predicate values found in the Main dictionary.
    pub main_matches: usize,
    /// Predicate values found in the Delta dictionary.
    pub delta_matches: usize,
    /// Qualifying rows emitted.
    pub rows: usize,
}

/// Execute `column IN (values)`: returns qualifying global row ids (main
/// rows first, then delta rows) plus match statistics.
pub fn execute_in<K: SearchKey + Default>(
    column: &Column<K>,
    values: &[K],
    mode: Interleave,
) -> (Vec<u64>, InQueryStats) {
    let mut stats = InQueryStats::default();
    let mut rows = Vec::new();

    // Phase 1a: encode against the Main dictionary.
    let mut main_codes = vec![0u32; values.len()];
    column.main.dict.bulk_locate(values, mode, &mut main_codes);

    // Phase 1b: encode against the Delta dictionary.
    let mut delta_codes = vec![0u32; values.len()];
    column
        .delta
        .dict
        .bulk_locate(values, mode, &mut delta_codes);

    // Phase 2: membership bitsets + code-vector scans.
    let mut main_member = Bitset::new(column.main.dict.len());
    for &c in &main_codes {
        if c != NOT_FOUND && main_member.set(c as usize) {
            stats.main_matches += 1;
        }
    }
    let mut delta_member = Bitset::new(column.delta.dict.len());
    for &c in &delta_codes {
        if c != NOT_FOUND && delta_member.set(c as usize) {
            stats.delta_matches += 1;
        }
    }

    column
        .main
        .codes
        .scan_in_set(&main_member, |pos, _| rows.push(pos as u64));
    let offset = column.main.rows() as u64;
    column
        .delta
        .codes
        .scan_in_set(&delta_member, |pos, _| rows.push(offset + pos as u64));

    stats.rows = rows.len();
    (rows, stats)
}

/// Naive row-store oracle for tests: scan all rows, decode, compare.
pub fn execute_in_naive<K: SearchKey + Default>(column: &Column<K>, values: &[K]) -> Vec<u64> {
    let set: std::collections::BTreeSet<K> = values.iter().copied().collect();
    (0..column.rows())
        .filter(|&i| set.contains(&column.get(i)))
        .map(|i| i as u64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_column() -> Column<u32> {
        // Main rows over values {0, 10, ..., 990}, delta rows over a
        // shuffled overlapping domain.
        let main_rows: Vec<u32> = (0..5000).map(|i| (i % 100) * 10).collect();
        let mut c = Column::from_rows(&main_rows);
        for i in 0..2000u32 {
            c.append((i * 37) % 1500);
        }
        c
    }

    #[test]
    fn matches_naive_oracle_both_modes() {
        let c = sample_column();
        let values: Vec<u32> = (0..300).map(|i| i * 7).collect();
        let expect = execute_in_naive(&c, &values);
        let (seq, seq_stats) = execute_in(&c, &values, Interleave::Sequential);
        assert_eq!(seq, expect);
        assert_eq!(seq_stats.rows, expect.len());
        for group in [1, 6, 16] {
            let (inter, stats) = execute_in(&c, &values, Interleave::Interleaved(group));
            assert_eq!(inter, expect, "group={group}");
            assert_eq!(stats, seq_stats);
        }
    }

    #[test]
    fn no_matches_yields_empty() {
        let c = sample_column();
        let values = vec![100_000u32, 200_000];
        let (rows, stats) = execute_in(&c, &values, Interleave::Interleaved(6));
        assert!(rows.is_empty());
        assert_eq!(stats.main_matches + stats.delta_matches, 0);
    }

    #[test]
    fn empty_predicate_list() {
        let c = sample_column();
        let (rows, stats) = execute_in(&c, &[], Interleave::Interleaved(6));
        assert!(rows.is_empty());
        assert_eq!(stats.rows, 0);
    }

    #[test]
    fn duplicate_predicate_values_count_once() {
        let c = Column::from_rows(&[5u32, 6, 5, 7]);
        let (rows, stats) = execute_in(&c, &[5, 5, 5], Interleave::Sequential);
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(stats.main_matches, 1);
    }

    #[test]
    fn delta_only_column() {
        let mut c = Column::<u32>::new();
        for v in [4u32, 8, 15, 16, 23, 42] {
            c.append(v);
        }
        let (rows, stats) = execute_in(&c, &[8, 42, 99], Interleave::Interleaved(4));
        assert_eq!(rows, vec![1, 5]);
        assert_eq!(stats.delta_matches, 2);
        assert_eq!(stats.main_matches, 0);
    }

    #[test]
    fn results_stable_across_merge() {
        let mut c = sample_column();
        let values: Vec<u32> = (0..200).map(|i| i * 11).collect();
        let before = execute_in(&c, &values, Interleave::Interleaved(6)).0;
        c.merge_delta();
        let after = execute_in(&c, &values, Interleave::Interleaved(6)).0;
        assert_eq!(before, after, "row ids preserved across delta merge");
    }

    #[test]
    fn string_column_in_query() {
        use isi_search::key::Str16;
        let rows: Vec<Str16> = (0..1000u64).map(|i| Str16::from_index(i % 77)).collect();
        let mut c = Column::from_rows(&rows);
        c.append(Str16::from_index(500));
        let values = vec![Str16::from_index(5), Str16::from_index(500)];
        let expect = execute_in_naive(&c, &values);
        let (got, _) = execute_in(&c, &values, Interleave::Interleaved(6));
        assert_eq!(got, expect);
        assert!(got.contains(&1000u64), "delta row matched");
    }
}
