//! Sequential binary-search implementations: the branchy
//! `std::lower_bound`-style search and the branch-free `Baseline` of the
//! paper's Listing 2.
//!
//! All searches in this crate share one result convention, **rank**: the
//! largest index `i` with `table[i] <= value`, or `0` if no such index
//! exists (callers distinguish the two zero cases via
//! [`locate`](crate::locate::locate)). The convention matches the paper's
//! listings, which track a `low` cursor moved by `table[probe] <= value`
//! comparisons, and makes every implementation's output byte-identical —
//! the property the cross-implementation tests assert.

use isi_core::mem::IndexedMem;

use crate::cost;
use crate::key::SearchKey;

/// Branchy binary search in the style of `std::lower_bound`.
///
/// The comparison result steers an actual conditional branch, which the
/// hardware predicts with ~50% accuracy on uniform lookups — the *bad
/// speculation* the paper profiles in Section 2.2. On the simulator the
/// branch is reported via [`IndexedMem::branch`]; pair it with a
/// speculative memory handle (`SimArray::mem_speculative`) to model the
/// stall overlap speculation buys (§5.4.1).
pub fn rank_branchy<K: SearchKey, M: IndexedMem<K>>(mem: &M, value: K) -> u32 {
    let mut lo = 0usize;
    let mut size = mem.len();
    while size > 0 {
        let half = size / 2;
        let mid = lo + half;
        mem.compute(cost::BRANCHY_ITER + K::COMPARE_COST);
        let taken = *mem.at(mid) <= value;
        mem.branch(taken);
        if taken {
            lo = mid + 1;
            size -= half + 1;
        } else {
            size = half;
        }
    }
    lo.saturating_sub(1) as u32
}

/// One branch-free halving: the new `low` is `probe` when
/// `table[probe] <= value` (`le`), else `low` is kept.
///
/// Every binary search in the workspace (Baseline, GP, AMAC, CORO and
/// the delta dictionary's leaf search) selects through this one step.
/// The arithmetic form (`probe` times the comparison result plus `low`
/// times its complement) is lowered by LLVM to a conditional branch on
/// the comparison inside interleaved loops (and in the bulk Baseline
/// once inlined), and that branch mispredicts about once every two
/// halvings on uniform keys; `select_unpredictable` keeps the CMOV.
#[inline(always)]
pub fn next_low(le: bool, probe: usize, low: usize) -> usize {
    std::hint::select_unpredictable(le, probe, low)
}

// [table5:baseline:begin]
/// Branch-free binary search — the paper's `Baseline` (Listing 2 with the
/// conditional move the text describes).
///
/// The comparison selects the new `low` with a conditional move
/// ([`next_low`]), so no branch is speculated and no pipeline slots are
/// wasted; the price is that the dependent load cannot issue before the
/// comparison resolves, which is exactly why `std` overtakes `Baseline` once the array outgrows the
/// cache (§5.4.1).
pub fn rank_branchfree<K: SearchKey, M: IndexedMem<K>>(mem: &M, value: K) -> u32 {
    let mut low = 0usize;
    let mut size = mem.len();
    loop {
        let half = size / 2;
        if half == 0 {
            break;
        }
        let probe = low + half;
        mem.compute(cost::BASE_ITER + K::COMPARE_COST);
        low = next_low(*mem.at(probe) <= value, probe, low);
        size -= half;
    }
    low as u32
}
// [table5:baseline:end]

/// Bulk wrapper over [`rank_branchy`]: one output rank per value.
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_rank_branchy<K: SearchKey, M: IndexedMem<K>>(mem: &M, values: &[K], out: &mut [u32]) {
    assert_eq!(values.len(), out.len(), "output length mismatch");
    for (v, o) in values.iter().zip(out.iter_mut()) {
        *o = rank_branchy(mem, *v);
    }
}

/// Bulk wrapper over [`rank_branchfree`].
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_rank_branchfree<K: SearchKey, M: IndexedMem<K>>(
    mem: &M,
    values: &[K],
    out: &mut [u32],
) {
    assert_eq!(values.len(), out.len(), "output length mismatch");
    for (v, o) in values.iter().zip(out.iter_mut()) {
        *o = rank_branchfree(mem, *v);
    }
}

/// Reference implementation via the standard library, used by tests as an
/// oracle: `partition_point` gives the first index with `table[i] >
/// value`; rank is the element before it (clamped to 0).
pub fn rank_oracle<K: Ord>(table: &[K], value: &K) -> u32 {
    table.partition_point(|x| x <= value).saturating_sub(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use isi_core::mem::DirectMem;

    fn check_all(table: &[u32]) {
        let mem = DirectMem::new(table);
        // Probe every present value, every gap, and both extremes.
        let mut probes: Vec<u32> = table.to_vec();
        probes.extend(table.iter().map(|v| v.wrapping_add(1)));
        probes.extend([0, u32::MAX]);
        for v in probes {
            let expect = rank_oracle(table, &v);
            assert_eq!(rank_branchy(&mem, v), expect, "branchy, v={v}, t={table:?}");
            assert_eq!(rank_branchfree(&mem, v), expect, "branchfree, v={v}");
        }
    }

    #[test]
    fn agrees_with_oracle_on_small_tables() {
        check_all(&[]);
        check_all(&[5]);
        check_all(&[1, 3]);
        check_all(&[1, 3, 3, 9]); // duplicates
        check_all(&[0, 2, 4, 6, 8, 10, 12]);
        check_all(&(0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_table_ranks_zero() {
        let t: Vec<u32> = vec![];
        let mem = DirectMem::new(&t);
        assert_eq!(rank_branchy(&mem, 7), 0);
        assert_eq!(rank_branchfree(&mem, 7), 0);
    }

    #[test]
    fn value_below_minimum_ranks_zero() {
        let t = vec![10u32, 20, 30];
        let mem = DirectMem::new(&t);
        assert_eq!(rank_branchy(&mem, 5), 0);
        assert_eq!(rank_branchfree(&mem, 5), 0);
    }

    #[test]
    fn value_above_maximum_ranks_last() {
        let t = vec![10u32, 20, 30];
        let mem = DirectMem::new(&t);
        assert_eq!(rank_branchy(&mem, 99), 2);
        assert_eq!(rank_branchfree(&mem, 99), 2);
    }

    #[test]
    fn duplicates_rank_to_last_occurrence() {
        let t = vec![1u32, 5, 5, 5, 9];
        let mem = DirectMem::new(&t);
        assert_eq!(rank_branchy(&mem, 5), 3);
        assert_eq!(rank_branchfree(&mem, 5), 3);
    }

    #[test]
    fn bulk_wrappers_match_scalar() {
        let t: Vec<u32> = (0..64).map(|i| i * 2).collect();
        let mem = DirectMem::new(&t);
        let values: Vec<u32> = vec![0, 1, 63, 64, 126, 127, 200];
        let mut a = vec![0u32; values.len()];
        let mut b = vec![0u32; values.len()];
        bulk_rank_branchy(&mem, &values, &mut a);
        bulk_rank_branchfree(&mem, &values, &mut b);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(a[i], rank_oracle(&t, v));
            assert_eq!(b[i], rank_oracle(&t, v));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bulk_checks_lengths() {
        let t = vec![1u32];
        let mem = DirectMem::new(&t);
        bulk_rank_branchy(&mem, &[1, 2], &mut [0u32]);
    }

    #[test]
    fn works_with_string_keys() {
        use crate::key::Str16;
        let t: Vec<Str16> = (0..50).map(|i| Str16::from_index(i * 2)).collect();
        let mem = DirectMem::new(&t);
        for probe in 0..100u64 {
            let v = Str16::from_index(probe);
            let expect = rank_oracle(&t, &v);
            assert_eq!(rank_branchy(&mem, v), expect);
            assert_eq!(rank_branchfree(&mem, v), expect);
        }
    }
}
