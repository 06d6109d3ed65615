//! Asynchronous memory access chaining (AMAC) — the paper's Listing 4,
//! after Kocberber et al. (PVLDB 9(4), 2015).
//!
//! AMAC is *dynamic* interleaving by hand: the binary search is rewritten
//! as an explicit finite state machine, one `match` arm per stage, and a
//! circular buffer of per-stream states is serviced round-robin. Each
//! stream carries its complete loop state (`value`, `low`, `probe`,
//! `size`, `stage`), so streams progress independently — the flexibility
//! the paper's coroutines match without the manual rewrite. This module
//! exists both as a baseline for the performance comparison and as the
//! "very high added code complexity" exhibit of Table 3: compare its
//! bulk lookup with the six added lines of [`crate::coro::rank_coro`].

use isi_core::mem::IndexedMem;

use crate::cost;
use crate::key::SearchKey;
use crate::seq::next_low;

// [table5:amac:begin]
/// Stage of one AMAC instruction stream (Listing 4's `enum stage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Pick up the next input value, or retire the slot.
    Init,
    /// Compute the probe, issue its prefetch, halve the range.
    Prefetch,
    /// Consume the prefetched element and fold it into `low`.
    Access,
    /// Slot has no more work.
    Done,
}

/// Per-stream state, the hand-maintained analogue of a coroutine frame.
#[derive(Debug, Clone, Copy)]
struct State<K> {
    value: K,
    input: usize,
    low: usize,
    probe: usize,
    size: usize,
    stage: Stage,
}

/// Bulk rank with AMAC. Writes `out[i]` = rank of `values[i]`.
///
/// # Panics
/// Panics if `out.len() != values.len()` or `group_size == 0`.
pub fn bulk_rank_amac<K: SearchKey, M: IndexedMem<K>>(
    mem: &M,
    values: &[K],
    group_size: usize,
    out: &mut [u32],
) {
    assert_eq!(values.len(), out.len(), "output length mismatch");
    assert!(group_size > 0, "group_size must be positive");
    if values.is_empty() {
        return;
    }
    let n = mem.len();
    let g = group_size.min(values.len());

    // Circular buffer of stream states (Listing 4 line 14).
    let mut buf: Vec<State<K>> = (0..g)
        .map(|_| State {
            value: values[0],
            input: 0,
            low: 0,
            probe: 0,
            size: 0,
            stage: Stage::Init,
        })
        .collect();
    let mut next_input = 0usize;
    let mut not_done = g;
    let mut cursor = 0usize;

    while not_done > 0 {
        let st = &mut buf[cursor];
        match st.stage {
            Stage::Init => {
                if next_input < values.len() {
                    st.value = values[next_input];
                    st.input = next_input;
                    st.low = 0;
                    st.size = n;
                    st.stage = Stage::Prefetch;
                    next_input += 1;
                    // Fall through to Prefetch on the next visit; charge
                    // the state-management cost of this visit.
                    mem.compute(cost::AMAC_ITER / 2);
                } else {
                    st.stage = Stage::Done;
                    not_done -= 1;
                }
            }
            Stage::Prefetch => {
                let half = st.size / 2;
                if half > 0 {
                    st.probe = st.low + half;
                    mem.compute(cost::AMAC_ITER / 2);
                    mem.prefetch(st.probe);
                    st.size -= half;
                    st.stage = Stage::Access;
                } else {
                    // Output the result and start the next lookup.
                    out[st.input] = st.low as u32;
                    st.stage = Stage::Init;
                }
            }
            Stage::Access => {
                st.low = next_low(*mem.at(st.probe) <= st.value, st.probe, st.low);
                // State writeback to the circular buffer cannot overlap
                // the miss it just consumed.
                mem.compute(cost::AMAC_ITER / 2 + K::COMPARE_COST);
                st.stage = Stage::Prefetch;
            }
            Stage::Done => {}
        }
        cursor += 1;
        if cursor == g {
            cursor = 0;
        }
    }
}
// [table5:amac:end]

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::rank_oracle;
    use isi_core::mem::DirectMem;

    fn check(table: &[u32], values: &[u32], group: usize) {
        let mem = DirectMem::new(table);
        let mut out = vec![u32::MAX; values.len()];
        bulk_rank_amac(&mem, values, group, &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(table, v), "v={v} group={group}");
        }
    }

    #[test]
    fn agrees_with_oracle_across_group_sizes() {
        let table: Vec<u32> = (0..300).map(|i| i * 2 + 1).collect();
        let values: Vec<u32> = (0..120).map(|i| i * 5).collect();
        for group in [1, 2, 3, 6, 10, 32, 120, 500] {
            check(&table, &values, group);
        }
    }

    #[test]
    fn group_larger_than_input_is_clamped() {
        check(&[1, 2, 3], &[0, 2, 9], 64);
    }

    #[test]
    fn empty_values_return_immediately() {
        let table: Vec<u32> = (0..8).collect();
        check(&table, &[], 4);
    }

    #[test]
    fn empty_table_ranks_zero() {
        let table: Vec<u32> = vec![];
        let mem = DirectMem::new(&table);
        let mut out = vec![9u32; 2];
        bulk_rank_amac(&mem, &[4, 5], 2, &mut out);
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn every_output_slot_is_written() {
        let table: Vec<u32> = (0..1000).collect();
        let values: Vec<u32> = (0..77).map(|i| i * 13).collect();
        let mem = DirectMem::new(&table);
        let mut out = vec![u32::MAX; values.len()];
        bulk_rank_amac(&mem, &values, 6, &mut out);
        assert!(out.iter().all(|&o| o != u32::MAX));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_rejected() {
        let t = vec![1u32];
        let mem = DirectMem::new(&t);
        bulk_rank_amac(&mem, &[1], 0, &mut [0]);
    }

    #[test]
    fn string_keys_work() {
        use crate::key::Str16;
        let table: Vec<Str16> = (0..128).map(|i| Str16::from_index(i * 3)).collect();
        let mem = DirectMem::new(&table);
        let values: Vec<Str16> = (0..50).map(|i| Str16::from_index(i * 7)).collect();
        let mut out = vec![0u32; values.len()];
        bulk_rank_amac(&mem, &values, 6, &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(&table, v));
        }
    }

    #[test]
    fn streams_progress_independently() {
        // A table of 1 element finishes in zero iterations while a big
        // range takes many: mixing lookups over the same table with very
        // different convergence is handled by per-stream state.
        let table: Vec<u32> = (0..1 << 14).collect();
        let values: Vec<u32> = vec![0, 1 << 13, 3, 16000, 42, 9999, 1, 12345];
        check(&table, &values, 3);
    }
}
