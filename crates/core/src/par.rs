//! [`ParConfig`], the thread count of a bulk run, which is always one.
//!
//! Every batch is one scheduler run on its caller
//! ([`run_batch`](crate::sched::run_batch)). Thread parallelism, the
//! paper's Section 5 composition, comes from the service's shards: each
//! shard's batch runs on the thread that holds the shard, and a fan-out
//! runs the shards' batches in parallel.
//!
//! The tests below are the batch driver's: its output, its write of
//! every slot, its choice of instantiation and its unwinding.

/// The thread count of a bulk run: always one.
///
/// Nothing reads it. The type stays while the benchmark names it
/// (`ParConfig::with_threads(1)`, `ServeConfig::par`, and the `par`
/// parameter of `bulk_rank_coro_par`, `Main::probe_batch` and
/// `ShardedStore::lookup_batch`); it and those parameters go together
/// with the benchmark's mention.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParConfig;

impl ParConfig {
    /// One thread, the only count there is.
    ///
    /// # Panics
    /// Panics unless `threads == 1`.
    pub fn with_threads(threads: usize) -> Self {
        assert_eq!(
            threads, 1,
            "a bulk run has one thread; ParConfig stays only because the benchmark names it"
        );
        Self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro::suspend;
    use crate::sched::{run_batch, run_interleaved, RunStats};
    use std::sync::atomic::{AtomicUsize, Ordering};

    async fn lookup(v: u32) -> u32 {
        for _ in 0..(v % 5) {
            suspend().await;
        }
        v.wrapping_mul(3)
    }

    /// `lookup`'s non-suspending instantiation.
    async fn lookup_seq(v: u32) -> u32 {
        v.wrapping_mul(3)
    }

    fn batch_out(values: &[u32], group: usize) -> (Vec<u32>, RunStats) {
        let mut out = vec![0u32; values.len()];
        let stats = run_batch(group, values, lookup_seq, lookup, &mut out);
        (out, stats)
    }

    /// The batch's output equals one `run_interleaved` run's. One thread
    /// is the only count left; the name dates from when there were more.
    #[test]
    fn parallel_matches_sequential_across_thread_counts() {
        // Shrunk under Miri: interpreted coroutines are ~100x slower.
        let n: u32 = if cfg!(miri) { 300 } else { 10_000 };
        let values: Vec<u32> = (0..n).map(|i| i * 7 % 997).collect();
        let mut expect = vec![0u32; values.len()];
        run_interleaved(6, values.iter().copied(), lookup, |i, r| expect[i] = r);
        let (out, _) = batch_out(&values, 6);
        assert_eq!(out, expect);
    }

    /// The batch's `RunStats` equal one `run_interleaved` run's; there
    /// are no per-chunk stats left to merge.
    #[test]
    fn merged_stats_match_sequential_totals() {
        let n: u32 = if cfg!(miri) { 300 } else { 10_000 };
        let values: Vec<u32> = (0..n).map(|i| i * 7 % 997).collect();
        let want = run_interleaved(6, values.iter().copied(), lookup, |_, _| {});
        let (_, stats) = batch_out(&values, 6);
        assert_eq!(stats, want);
        assert_eq!(stats.peak_in_flight, 6);
    }

    #[test]
    fn empty_input_returns_empty_stats_without_spawning() {
        let (out, stats) = batch_out(&[], 4);
        assert!(out.is_empty());
        assert_eq!(stats, RunStats::default());
    }

    /// Output cell that counts its own drops.
    struct Counted<'a> {
        id: usize,
        drops: &'a [AtomicUsize],
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn sink_sees_every_global_index_exactly_once() {
        // A write drops the slot's previous value: after the run every
        // initial value (ids `0..n`) has been dropped once — a slot
        // never written would leave a zero — and no result (ids
        // `n..2n`) has been dropped — a slot written twice would have
        // dropped its first.
        let check = |n: usize, group| {
            let values: Vec<u32> = (0..n as u32).collect();
            let drops: Vec<AtomicUsize> = (0..2 * n).map(|_| AtomicUsize::new(0)).collect();
            let cell = |id| Counted { id, drops: &drops };
            let mut out: Vec<Counted> = (0..n).map(cell).collect();
            run_batch(
                group,
                &values,
                |v| async move { cell(n + v as usize) },
                |v| async move {
                    for _ in 0..(v % 3) {
                        suspend().await;
                    }
                    cell(n + v as usize)
                },
                &mut out,
            );
            let at = format!("n={n} group={group}");
            let dropped: Vec<usize> = drops.iter().map(|d| d.load(Ordering::Relaxed)).collect();
            assert_eq!(dropped[..n], vec![1; n], "initial values, {at}");
            assert_eq!(dropped[n..], vec![0; n], "results, {at}");
            assert!(out.iter().enumerate().all(|(i, c)| c.id == n + i), "{at}");
        };
        for group in [0, 1, 6] {
            for n in [0, 1, 2, 1_000] {
                check(n, group);
            }
        }
    }

    #[test]
    fn one_at_a_time_runs_the_non_suspending_instantiation() {
        // A group of one, and a one-lookup batch under any group: same
        // results, and not one switch — `lookup` would have suspended
        // 2 000 times over 1 000 inputs.
        let values: Vec<u32> = (0..1_000).collect();
        let expect: Vec<u32> = values.iter().map(|v| v.wrapping_mul(3)).collect();
        for group in [0, 1] {
            let (out, stats) = batch_out(&values, group);
            assert_eq!(out, expect, "group={group}");
            assert_eq!(
                (stats.lookups, stats.resumes, stats.switches),
                (1_000, 1_000, 0)
            );
            assert_eq!(stats.peak_in_flight, 1);
        }
        let (out, stats) = batch_out(&values[4..5], 6);
        assert_eq!(out, [12]);
        assert_eq!((stats.switches, stats.peak_in_flight), (0, 1));
        // Two lookups are enough to interleave: inputs 3 and 4 suspend
        // 3 + 4 times.
        let (_, stats) = batch_out(&values[3..5], 6);
        assert_eq!((stats.switches, stats.peak_in_flight), (7, 2));
    }

    #[test]
    fn every_lookup_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for group in [0, 1, 6] {
            for n in [0u32, 1, 2, 1_000] {
                let values: Vec<u32> = (0..n).collect();
                let mut out = vec![None; values.len()];
                run_batch(
                    group,
                    &values,
                    |_| async { Some(std::thread::current().id()) },
                    |v| async move {
                        suspend().await;
                        let id = std::thread::current().id();
                        for _ in 0..(v % 3) {
                            suspend().await;
                        }
                        Some(id)
                    },
                    &mut out,
                );
                assert!(
                    out.iter().all(|&id| id == Some(caller)),
                    "group={group} n={n}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_lookup_panics_the_caller() {
        // The lookup of input 7 panics mid-run; the call must unwind on
        // the calling thread with the lookup's own message.
        let values: Vec<u32> = (0..10).collect();
        let caught = std::panic::catch_unwind(|| {
            let mut out = vec![0u32; values.len()];
            run_batch(
                4,
                &values,
                lookup_seq,
                |v| async move {
                    suspend().await;
                    assert_ne!(v, 7, "lookup 7 failed");
                    v
                },
                &mut out,
            );
        });
        let panic = caught.expect_err("the lookup's panic must reach the caller");
        let msg = panic
            .downcast_ref::<String>()
            .expect("assert_ne! panics with a formatted message");
        assert!(msg.contains("lookup 7 failed"), "{msg}");
    }

    #[test]
    fn only_one_thread_exists() {
        let default: ParConfig = Default::default();
        assert_eq!(ParConfig::with_threads(1), default);
        for threads in [0, 2] {
            let panic = std::panic::catch_unwind(|| ParConfig::with_threads(threads))
                .expect_err("only one thread exists");
            let msg = panic
                .downcast_ref::<String>()
                .expect("assert_eq! panics with a formatted message");
            assert!(msg.contains("benchmark"), "threads={threads}: {msg}");
        }
    }
}
