//! Thread-parallel bulk driver for the coroutine search.
//!
//! A thin layer over [`isi_core::par`]: the batch is split into one
//! contiguous chunk per thread, and each chunk runs through the *same*
//! coroutine and scheduler as the single-threaded
//! [`bulk_rank_coro`](crate::coro::bulk_rank_coro) (zero heap
//! allocations per lookup).
//!
//! It writes `out[i]` = rank of `values[i]`, exactly as the sequential
//! drivers do; with `cfg.threads == 1` it is one scheduler run on the
//! calling thread. This is the driver the serving path
//! (`isi_serve::Main::probe_batch`) and `benchmark/` call.

use isi_core::mem::IndexedMem;
use isi_core::par::{run_interleaved_par, ParConfig};
use isi_core::sched::RunStats;

use crate::coro::rank_coro;
use crate::key::SearchKey;

/// Chunk-parallel coroutine interleaving — the paper's CORO composed
/// with thread-level parallelism. The same
/// [`rank_coro`] coroutine and the same
/// interleaved scheduler run on every thread's chunk. A `group_size` of
/// one, or a chunk of a single value, runs the coroutine's
/// non-suspending instantiation instead (see [`run_interleaved_par`]).
///
/// Returns the merged [`RunStats`] (totals sum; `peak_in_flight` is the
/// per-chunk peak).
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_rank_coro_par<K, M>(
    mem: M,
    values: &[K],
    group_size: usize,
    cfg: ParConfig,
    out: &mut [u32],
) -> RunStats
where
    K: SearchKey + Sync,
    M: IndexedMem<K> + Copy + Sync,
{
    run_interleaved_par(
        cfg,
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
        for threads in [1, 2, 4] {
            let cfg = ParConfig::with_threads(threads);
            let mut out = vec![u32::MAX; values.len()];
            let stats = bulk_rank_coro_par(mem, &values, 6, cfg, &mut out);
            assert_eq!(out, expect, "coro threads={threads}");
            assert_eq!(stats.lookups, values.len() as u64);
        }
    }

    #[test]
    fn empty_values_are_fine() {
        let table: Vec<u32> = (0..16).collect();
        let mem = DirectMem::new(&table);
        let mut out: Vec<u32> = vec![];
        let stats = bulk_rank_coro_par(mem, &[], 4, ParConfig::with_threads(4), &mut out);
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn string_keys_work_in_parallel() {
        use crate::key::Str16;
        let table: Vec<Str16> = (0..600).map(|i| Str16::from_index(i * 2)).collect();
        let values: Vec<Str16> = (0..300).map(|i| Str16::from_index(i * 5 + 1)).collect();
        let mem = DirectMem::new(&table);
        let mut out = vec![0u32; values.len()];
        bulk_rank_coro_par(mem, &values, 6, ParConfig::with_threads(4), &mut out);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(out[i], rank_oracle(&table, v));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let table: Vec<u32> = (0..8).collect();
        let mem = DirectMem::new(&table);
        bulk_rank_coro_par(mem, &[1, 2], 4, ParConfig::with_threads(2), &mut [0u32]);
    }
}
