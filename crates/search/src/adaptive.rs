//! Adaptive suspension — the paper's Section 6 "hardware support for
//! interleaving" hypothesis, made testable.
//!
//! The paper: *"we could conditionally switch instruction streams with
//! hardware support in the form of an instruction [that] tells if a
//! memory address is cached; with such an instruction, we could avoid
//! suspension when the data is cached and unnecessary overhead."*
//!
//! [`rank_coro_adaptive`] is the CORO binary search with exactly that
//! change: before suspending it consults
//! [`IndexedMem::probably_cached`]; if the backend answers
//! `Some(true)`, the lookup loads directly — no prefetch, no switch. On
//! real hardware the hint is unavailable (`None` — always suspend, i.e.
//! plain CORO); on the simulator the hint reads the modelled caches, so
//! the `hwhint` harness quantifies what the proposed instruction would
//! buy: the upper index levels stop paying switch overhead while the
//! cold leaf levels keep interleaving.

use isi_core::coro::suspend;
use isi_core::mem::IndexedMem;
use isi_core::sched::{run_interleaved, RunStats};

use crate::cost;
use crate::key::SearchKey;

/// Binary-search coroutine with conditional suspension: suspend only
/// when the (hypothetical) cache-residency instruction says the probe
/// would miss. Identical results to every other rank implementation.
pub async fn rank_coro_adaptive<K: SearchKey, M: IndexedMem<K>>(mem: M, value: K) -> u32 {
    let mut size = mem.len();
    let mut low = 0usize;
    loop {
        let half = size / 2;
        if half == 0 {
            break;
        }
        let probe = low + half;
        // `Some(true)` => skip the suspension entirely.
        let cached = mem.probably_cached(probe) == Some(true);
        if !cached {
            mem.prefetch(probe);
            suspend().await;
        }
        mem.compute(cost::CORO_ITER + K::COMPARE_COST);
        let le = (*mem.at(probe) <= value) as usize;
        if !cached {
            mem.compute(cost::CORO_SWITCH);
        }
        low = le * probe + (1 - le) * low;
        size -= half;
    }
    low as u32
}

/// Bulk rank through the adaptive coroutine.
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_rank_coro_adaptive<K: SearchKey, M: IndexedMem<K> + Copy>(
    mem: M,
    values: &[K],
    group_size: usize,
    out: &mut [u32],
) -> RunStats {
    assert_eq!(values.len(), out.len(), "output length mismatch");
    run_interleaved(
        group_size,
        values.iter().copied(),
        |v| rank_coro_adaptive::<K, M>(mem, v),
        |i, r| out[i] = r,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::rank_oracle;
    use isi_core::mem::DirectMem;

    #[test]
    fn adaptive_agrees_with_oracle_on_direct_memory() {
        // DirectMem has no hint (None) -> behaves exactly like CORO.
        let table: Vec<u32> = (0..4096).map(|i| i * 2).collect();
        let values: Vec<u32> = (0..300).map(|i| i * 31 % 9000).collect();
        let mem = DirectMem::new(&table);
        let mut out = vec![0u32; values.len()];
        let stats = bulk_rank_coro_adaptive(mem, &values, 6, &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(&table, v));
        }
        // Without a hint every iteration suspends, like plain CORO.
        assert!(stats.switches > 0);
    }

    #[test]
    fn empty_and_tiny_tables() {
        let empty: Vec<u32> = vec![];
        let mem = DirectMem::new(&empty);
        let mut out = vec![9u32; 1];
        bulk_rank_coro_adaptive(mem, &[5], 4, &mut out);
        assert_eq!(out, [0]);

        let one = vec![7u32];
        let mem = DirectMem::new(&one);
        bulk_rank_coro_adaptive(mem, &[7], 4, &mut out);
        assert_eq!(out, [0]);
    }
}
