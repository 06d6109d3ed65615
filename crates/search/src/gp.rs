//! Group prefetching (GP) — the paper's Listing 3, after Chen et al.
//!
//! GP is *static* interleaving: the binary-search loop is shared by the
//! whole group, so all instruction streams advance in lock-step through
//! the same `size` sequence. Each iteration first issues the prefetch for
//! every stream's probe position, then performs every stream's load and
//! comparison — by which time the earlier prefetches have (partially)
//! completed. Coupling the streams keeps per-stream state minimal (just
//! `low`; `probe` is recomputed), which is why GP has the lowest switch
//! overhead of the three techniques (§5.4.4) — but it only applies when
//! every stream executes the same stage sequence.

use isi_core::mem::IndexedMem;

use crate::cost;
use crate::key::SearchKey;
use crate::seq::next_low;

/// Maximum group size accepted (a GP group shares one state array; huge
/// groups would only thrash the cache — §5.4.5).
pub const MAX_GROUP: usize = 64;

// [table5:gp:begin]
/// Bulk rank with group prefetching. Processes `values` in groups of
/// `group_size`, writing `out[i]` = rank of `values[i]`.
///
/// # Panics
/// Panics if `out.len() != values.len()` or `group_size == 0` or
/// `group_size > MAX_GROUP`.
pub fn bulk_rank_gp<K: SearchKey, M: IndexedMem<K>>(
    mem: &M,
    values: &[K],
    group_size: usize,
    out: &mut [u32],
) {
    assert_eq!(values.len(), out.len(), "output length mismatch");
    assert!(
        (1..=MAX_GROUP).contains(&group_size),
        "group_size must be in 1..={MAX_GROUP}"
    );
    let n = mem.len();
    let mut lows = [0usize; MAX_GROUP];

    let mut base = 0;
    for group in values.chunks(group_size) {
        let g = group.len();
        lows[..g].fill(0);
        // The search loop is shared by the whole group (stream coupling).
        let mut size = n;
        loop {
            let half = size / 2;
            if half == 0 {
                break;
            }
            // Prefetch stage: issue every stream's probe.
            for low in &lows[..g] {
                mem.compute(cost::GP_PREFETCH);
                mem.prefetch(low + half);
            }
            // Load stage: by now the first prefetches have had `g - 1`
            // streams' worth of work to complete.
            for (i, low) in lows[..g].iter_mut().enumerate() {
                let probe = *low + half;
                *low = next_low(*mem.at(probe) <= group[i], probe, *low);
                mem.compute(cost::GP_ITER + K::COMPARE_COST);
            }
            size -= half;
        }
        for (i, low) in lows[..g].iter().enumerate() {
            out[base + i] = *low as u32;
        }
        base += g;
    }
}
// [table5:gp:end]

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::rank_oracle;
    use isi_core::mem::DirectMem;

    fn check(table: &[u32], values: &[u32], group: usize) {
        let mem = DirectMem::new(table);
        let mut out = vec![0u32; values.len()];
        bulk_rank_gp(&mem, values, group, &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(table, v), "v={v} group={group}");
        }
    }

    #[test]
    fn agrees_with_oracle_across_group_sizes() {
        let table: Vec<u32> = (0..257).map(|i| i * 3).collect();
        let values: Vec<u32> = (0..100).map(|i| i * 7 + 1).collect();
        for group in [1, 2, 3, 5, 8, 10, 16, 64] {
            check(&table, &values, group);
        }
    }

    #[test]
    fn partial_final_group() {
        // 10 values with group 4 leaves a final group of 2.
        let table: Vec<u32> = (0..64).collect();
        let values: Vec<u32> = (0..10).map(|i| i * 5).collect();
        check(&table, &values, 4);
    }

    #[test]
    fn empty_values() {
        let table: Vec<u32> = (0..8).collect();
        check(&table, &[], 4);
    }

    #[test]
    fn empty_table_ranks_zero() {
        let table: Vec<u32> = vec![];
        let mem = DirectMem::new(&table);
        let mut out = vec![9u32; 3];
        bulk_rank_gp(&mem, &[1, 2, 3], 2, &mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    fn single_element_table() {
        check(&[42], &[0, 42, 100], 2);
    }

    #[test]
    #[should_panic(expected = "group_size")]
    fn zero_group_rejected() {
        let t = vec![1u32];
        let mem = DirectMem::new(&t);
        bulk_rank_gp(&mem, &[1], 0, &mut [0]);
    }

    #[test]
    #[should_panic(expected = "group_size")]
    fn oversized_group_rejected() {
        let t = vec![1u32];
        let mem = DirectMem::new(&t);
        bulk_rank_gp(&mem, &[1], MAX_GROUP + 1, &mut [0]);
    }

    #[test]
    fn string_keys_work() {
        use crate::key::Str16;
        let table: Vec<Str16> = (0..100).map(|i| Str16::from_index(i * 2)).collect();
        let mem = DirectMem::new(&table);
        let values: Vec<Str16> = (0..40).map(|i| Str16::from_index(i * 5 + 1)).collect();
        let mut out = vec![0u32; values.len()];
        bulk_rank_gp(&mem, &values, 6, &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(&table, v));
        }
    }
}
