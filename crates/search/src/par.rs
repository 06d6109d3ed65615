//! The coroutine search's bulk driver, the one the serving path
//! (`isi_serve::Main::probe_batch`) and `benchmark/` call.
//!
//! One batch is one scheduler run on the calling thread
//! ([`run_batch`]): the *same* coroutine as
//! [`bulk_rank_coro`](crate::coro::bulk_rank_coro), with zero heap
//! allocations per lookup, and its non-suspending instantiation where
//! there is nothing to interleave with. It writes `out[i]` = rank of
//! `values[i]`, exactly as the sequential drivers do.

use isi_core::mem::IndexedMem;
use isi_core::par::ParConfig;
use isi_core::sched::{run_batch, RunStats};

use crate::coro::rank_coro;
use crate::key::SearchKey;

/// The paper's CORO over one batch: [`rank_coro`] under the
/// interleaved scheduler, or, with a `group_size` below two or a batch
/// of one value, its non-suspending instantiation (see [`run_batch`]).
/// `_par` is ignored; it stays while the benchmark passes it.
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_rank_coro_par<K, M>(
    mem: M,
    values: &[K],
    group_size: usize,
    _par: ParConfig,
    out: &mut [u32],
) -> RunStats
where
    K: SearchKey,
    M: IndexedMem<K> + Copy,
{
    run_batch(
        group_size,
        values,
        |v| rank_coro::<false, K, M>(mem, v),
        |v| rank_coro::<true, K, M>(mem, v),
        out,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::rank_oracle;
    use isi_core::mem::DirectMem;

    #[test]
    fn all_parallel_variants_agree_with_oracle() {
        let table: Vec<u32> = (0..4096).map(|i| i * 3).collect();
        let values: Vec<u32> = (0..1777).map(|i| i * 7 % 13_000).collect();
        let expect: Vec<u32> = values.iter().map(|v| rank_oracle(&table, v)).collect();
        let mem = DirectMem::new(&table);
        for group in [1, 6] {
            let mut out = vec![u32::MAX; values.len()];
            let stats = bulk_rank_coro_par(mem, &values, group, ParConfig, &mut out);
            assert_eq!(out, expect, "group={group}");
            assert_eq!(stats.lookups, values.len() as u64);
        }
    }

    #[test]
    fn empty_values_are_fine() {
        let table: Vec<u32> = (0..16).collect();
        let mem = DirectMem::new(&table);
        let mut out: Vec<u32> = vec![];
        let stats = bulk_rank_coro_par(mem, &[], 4, ParConfig, &mut out);
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn string_keys_work_in_parallel() {
        use crate::key::Str16;
        let table: Vec<Str16> = (0..600).map(|i| Str16::from_index(i * 2)).collect();
        let values: Vec<Str16> = (0..300).map(|i| Str16::from_index(i * 5 + 1)).collect();
        let mem = DirectMem::new(&table);
        let mut out = vec![0u32; values.len()];
        bulk_rank_coro_par(mem, &values, 6, ParConfig, &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(&table, v));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let table: Vec<u32> = (0..8).collect();
        let mem = DirectMem::new(&table);
        bulk_rank_coro_par(mem, &[1, 2], 4, ParConfig, &mut [0u32]);
    }
}
