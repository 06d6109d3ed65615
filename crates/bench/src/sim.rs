//! Simulator-backed measurement: the same implementations run against
//! the `isi-memsim` model of the paper's Haswell Xeon, producing the
//! microarchitectural breakdowns of Figures 5-6 and Tables 1-2. "The
//! same" is literal: every index here is the shipped coroutine over
//! `SimMem` views — one for the sorted array, a `TreeView` of two for
//! the Delta dictionary's tree (as `bin/hash_join` does for the table).
//!
//! Methodology: each measured phase uses *fresh* lookup values so the
//! hot top levels of the index stay warm (the paper's steady state)
//! while leaf-level lines are cold — re-measuring previously looked-up
//! values would find everything cached and hide the misses under study.

use isi_columnstore::{delta_locate_coro, DeltaDictionary};
use isi_core::sched::{run_interleaved, run_sequential};
use isi_csb::{InnerNode, LeafNode, TreeView};
use isi_memsim::{MachineStats, SharedMachine, SimArray};
use isi_search::coro::bulk_rank_coro;
use isi_search::locate::NOT_FOUND;
use isi_search::{bulk_rank_amac, bulk_rank_gp, rank_branchfree, rank_branchy};

use isi_workloads::xorshift64;

use crate::wall::SearchImpl;

/// A simulated sorted-array benchmark: machine + table + fresh-value
/// stream.
pub struct SimBench {
    machine: SharedMachine,
    arr: SimArray<u32>,
    rng: u64,
}

impl SimBench {
    /// Build an `mb`-megabyte sorted u32 array on a fresh Haswell-model
    /// machine and warm the hot index levels with `warm` lookups.
    pub fn new(mb: usize, warm: usize) -> Self {
        let n = mb * (1 << 20) / 4;
        let machine = SharedMachine::haswell();
        let arr = SimArray::new(&machine, (0..n as u32).collect());
        let mut b = Self {
            machine,
            arr,
            rng: 0x2545_F491_4F6C_DD1D,
        };
        let w = b.fresh(warm);
        b.run(SearchImpl::Baseline, &w);
        b
    }

    /// `count` fresh lookup values (never produced before).
    pub fn fresh(&mut self, count: usize) -> Vec<u32> {
        let n = self.arr.len() as u64;
        (0..count)
            .map(|_| (xorshift64(&mut self.rng) % n) as u32)
            .collect()
    }

    /// Run one implementation over `vals`, returning the stats of just
    /// that window.
    pub fn run(&self, impl_: SearchImpl, vals: &[u32]) -> MachineStats {
        self.machine.reset_stats();
        let mut out = vec![0u32; vals.len()];
        match impl_ {
            SearchImpl::Std => {
                let mem = self.arr.mem_speculative();
                for (o, v) in out.iter_mut().zip(vals) {
                    *o = rank_branchy(&mem, *v);
                }
            }
            SearchImpl::Baseline => {
                let mem = self.arr.mem();
                for (o, v) in out.iter_mut().zip(vals) {
                    *o = rank_branchfree(&mem, *v);
                }
            }
            SearchImpl::Gp(g) => bulk_rank_gp(&self.arr.mem(), vals, g, &mut out),
            SearchImpl::Amac(g) => bulk_rank_amac(&self.arr.mem(), vals, g, &mut out),
            SearchImpl::Coro(g) => {
                bulk_rank_coro(self.arr.mem(), vals, g, &mut out);
            }
        }
        std::hint::black_box(&out);
        self.machine.stats()
    }
}

/// A simulated Delta-dictionary benchmark: unsorted value array +
/// CSB+-tree index, both in the machine's address space, probed with
/// the Section 5.5 lookup (leaf comparisons fetch the dictionary array).
pub struct SimDeltaBench {
    machine: SharedMachine,
    values: SimArray<u32>,
    inners: SimArray<InnerNode<u32>>,
    leaves: SimArray<LeafNode<u32, u32>>,
    root: u32,
    height: u32,
    domain: u64,
    rng: u64,
}

impl SimDeltaBench {
    /// Build a Delta dictionary of `mb` megabytes of distinct u32 values
    /// (insertion order shuffled) and warm the top tree levels.
    pub fn new(mb: usize, warm: usize) -> Self {
        let n = mb * (1 << 20) / 4;
        let dict = DeltaDictionary::from_values(isi_workloads::shuffled_indices(n, 42));
        let machine = SharedMachine::haswell();
        let values = SimArray::new(&machine, dict.values().to_vec());
        let tree = dict.index();
        let mut b = Self {
            inners: SimArray::new(&machine, tree.inners().to_vec()),
            leaves: SimArray::new(&machine, tree.leaves().to_vec()),
            root: tree.root(),
            height: tree.height(),
            machine,
            values,
            domain: n as u64,
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        let w = b.fresh(warm);
        b.run_locate(&w, None);
        b
    }

    /// Fresh lookup values (all present in the dictionary).
    pub fn fresh(&mut self, count: usize) -> Vec<u32> {
        (0..count)
            .map(|_| (xorshift64(&mut self.rng) % self.domain) as u32)
            .collect()
    }

    /// Bulk locate; `group = None` runs sequentially, `Some(g)`
    /// interleaved. Returns the stats of the window. Panics if any
    /// value fails to locate (they are all present by construction).
    pub fn run_locate(&self, vals: &[u32], group: Option<usize>) -> MachineStats {
        self.machine.reset_stats();
        let store = TreeView {
            inners: self.inners.mem(),
            leaves: self.leaves.mem(),
            root: self.root,
            height: self.height,
        };
        let dict = self.values.mem();
        let mut found = 0usize;
        match group {
            None => {
                run_sequential(
                    vals.iter().copied(),
                    |v| delta_locate_coro::<false, u32, _, _, _>(store, dict, v),
                    |_, r| found += (r != NOT_FOUND) as usize,
                );
            }
            Some(g) => {
                run_interleaved(
                    g,
                    vals.iter().copied(),
                    |v| delta_locate_coro::<true, u32, _, _, _>(store, dict, v),
                    |_, r| found += (r != NOT_FOUND) as usize,
                );
            }
        }
        assert_eq!(found, vals.len(), "all generated values exist");
        self.machine.stats()
    }
}

/// Helper for Tables 1-2: an IN-predicate query's non-locate work
/// (code-vector scan, result materialization) modelled as a fixed
/// per-row cost on a hardware-prefetched stream.
pub fn scan_cycles(rows: usize) -> f64 {
    rows as f64 * 2.2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_bench_runs_all_impls() {
        let mut b = SimBench::new(2, 100);
        let v = b.fresh(50);
        for impl_ in [
            SearchImpl::Std,
            SearchImpl::Baseline,
            SearchImpl::Gp(10),
            SearchImpl::Amac(6),
            SearchImpl::Coro(6),
        ] {
            let s = b.run(impl_, &v);
            assert!(s.cycles > 0.0, "{impl_:?}");
            assert!(s.loads > 0);
        }
    }

    #[test]
    fn delta_bench_locates_everything() {
        let mut b = SimDeltaBench::new(1, 100);
        let v = b.fresh(80);
        let seq = b.run_locate(&v, None);
        let v2 = b.fresh(80);
        let inter = b.run_locate(&v2, Some(6));
        assert!(seq.cycles > 0.0 && inter.cycles > 0.0);
        // Interleaving must issue prefetches; sequential must not.
        assert_eq!(seq.prefetches, 0);
        assert!(inter.prefetches > 0);
    }

    #[test]
    fn scan_cost_is_linear() {
        assert!(scan_cycles(1000) > scan_cycles(100));
        assert_eq!(scan_cycles(0), 0.0);
    }
}
