//! Simulated-memory backends for the [`IndexedMem`] abstraction.
//!
//! [`SimArray`] owns a typed array plus a region of the machine's
//! synthetic address space; [`SimMem`] is a cheap handle implementing
//! [`IndexedMem`] so that the *same* lookup algorithms that run on real
//! memory ([`isi_core::mem::DirectMem`]) run unmodified on the simulator,
//! producing the paper's microarchitectural breakdowns.

use std::cell::RefCell;
use std::rc::Rc;

use isi_core::mem::IndexedMem;

use crate::machine::{Machine, MachineStats};

/// A shared handle to a simulated machine.
///
/// Cloning is cheap (reference counted). All arrays attached to the same
/// `SharedMachine` contend for the same caches, TLBs and fill buffers —
/// which is the point: a CSB+-tree's nodes and a dictionary's value array
/// interact in the cache exactly as the paper's Section 5.5 describes.
#[derive(Clone)]
pub struct SharedMachine {
    inner: Rc<RefCell<Machine>>,
}

impl SharedMachine {
    /// Wrap a machine for sharing.
    pub fn new(machine: Machine) -> Self {
        Self {
            inner: Rc::new(RefCell::new(machine)),
        }
    }

    /// The paper's Haswell Xeon (Table 4).
    pub fn haswell() -> Self {
        Self::new(Machine::haswell())
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> MachineStats {
        self.inner.borrow().stats()
    }

    /// Zero counters, keep warm caches.
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().reset_stats()
    }

    /// Cold caches and TLBs.
    pub fn flush_caches(&self) {
        self.inner.borrow_mut().flush_caches()
    }

    /// Run `f` with mutable access to the machine.
    pub fn with<R>(&self, f: impl FnOnce(&mut Machine) -> R) -> R {
        f(&mut self.inner.borrow_mut())
    }
}

/// A typed array living in the simulated address space.
pub struct SimArray<T> {
    machine: SharedMachine,
    data: Vec<T>,
    base: u64,
}

impl<T> SimArray<T> {
    /// Move `data` into the simulated address space of `machine`.
    pub fn new(machine: &SharedMachine, data: Vec<T>) -> Self {
        let bytes = data.len() * std::mem::size_of::<T>();
        let base = machine.inner.borrow_mut().alloc_region(bytes.max(1));
        Self {
            machine: machine.clone(),
            data,
            base,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying data without charging simulated cost
    /// (for result verification in tests and harnesses).
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// Synthetic base address of the array.
    pub fn base_addr(&self) -> u64 {
        self.base
    }

    /// A non-speculative access handle (for branch-free / interleaved
    /// algorithms).
    pub fn mem(&self) -> SimMem<'_, T> {
        SimMem {
            arr: self,
            speculative: false,
        }
    }

    /// A speculative access handle: loads issued through it model
    /// out-of-order speculation across the data-dependent branches that a
    /// *branchy* algorithm reports via [`IndexedMem::branch`].
    pub fn mem_speculative(&self) -> SimMem<'_, T> {
        SimMem {
            arr: self,
            speculative: true,
        }
    }

    /// Touch every element once (sequentially) to warm caches/TLBs as far
    /// as capacity allows.
    pub fn warm(&self) {
        let size = std::mem::size_of::<T>().max(1) as u64;
        let mut machine = self.machine.inner.borrow_mut();
        let lines = (self.data.len() as u64 * size).div_ceil(64);
        for l in 0..lines {
            machine.load(self.base + l * 64, 1, false);
        }
    }
}

/// [`IndexedMem`] view over a [`SimArray`]. Copyable; carries the
/// speculation flag chosen at construction.
pub struct SimMem<'a, T> {
    arr: &'a SimArray<T>,
    speculative: bool,
}

impl<'a, T> Clone for SimMem<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for SimMem<'a, T> {}

impl<'a, T> SimMem<'a, T> {
    #[inline]
    fn addr_of(&self, idx: usize) -> u64 {
        self.arr.base + (idx * std::mem::size_of::<T>()) as u64
    }
}

impl<'a, T> IndexedMem<T> for SimMem<'a, T> {
    #[inline]
    fn len(&self) -> usize {
        self.arr.data.len()
    }

    #[inline]
    fn at(&self, idx: usize) -> &T {
        let size = std::mem::size_of::<T>();
        self.arr
            .machine
            .inner
            .borrow_mut()
            .load(self.addr_of(idx), size.max(1), self.speculative);
        &self.arr.data[idx]
    }

    #[inline]
    fn prefetch(&self, idx: usize) {
        if idx < self.arr.data.len() {
            let size = std::mem::size_of::<T>();
            self.arr
                .machine
                .inner
                .borrow_mut()
                .prefetch(self.addr_of(idx), size.max(1));
        }
    }

    #[inline]
    fn compute(&self, cycles: u32) {
        self.arr.machine.inner.borrow_mut().compute(cycles);
    }

    #[inline]
    fn branch(&self, taken: bool) {
        self.arr.machine.inner.borrow_mut().branch(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::Machine;

    fn shared_tiny() -> SharedMachine {
        SharedMachine::new(Machine::new(MachineConfig::tiny()))
    }

    #[test]
    fn simmem_reads_correct_values() {
        let m = shared_tiny();
        let arr = SimArray::new(&m, vec![10u32, 20, 30]);
        let mem = arr.mem();
        assert_eq!(mem.len(), 3);
        assert_eq!(*mem.at(1), 20);
        assert_eq!(arr.raw(), &[10, 20, 30]);
        assert_eq!(m.stats().loads, 1);
    }

    #[test]
    fn two_arrays_have_disjoint_addresses() {
        let m = shared_tiny();
        let a = SimArray::new(&m, vec![0u8; 100]);
        let b = SimArray::new(&m, vec![0u8; 100]);
        assert!(b.base_addr() >= a.base_addr() + 4096);
        assert!(!a.is_empty());
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn out_of_bounds_prefetch_is_ignored() {
        let m = shared_tiny();
        let arr = SimArray::new(&m, vec![1u64; 4]);
        arr.mem().prefetch(1000);
        assert_eq!(m.stats().prefetches, 0);
        arr.mem().prefetch(0);
        assert_eq!(m.stats().prefetches, 1);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let m = shared_tiny();
        let arr = SimArray::new(&m, vec![1u8; 2]);
        let _ = *arr.mem().at(2);
    }

    #[test]
    fn repeated_access_becomes_cache_hit() {
        let m = shared_tiny();
        let arr = SimArray::new(&m, vec![7u32; 16]);
        let mem = arr.mem();
        let _ = mem.at(0);
        let before = m.stats();
        let _ = mem.at(0);
        let d = m.stats().delta_since(&before);
        assert_eq!(d.l1_hits, 1);
        assert!(d.memory < 1.0);
    }

    #[test]
    fn speculative_flag_routes_to_speculative_loads() {
        let m = shared_tiny();
        // Large enough that index 512 is cold.
        let arr = SimArray::new(&m, vec![0u64; 4096]);
        arr.mem().at(0); // warm TLB for first page
        m.reset_stats();
        let full = {
            let _ = arr.mem().at(9); // cold line, non-speculative
            m.stats().memory
        };
        m.reset_stats();
        let _ = arr.mem_speculative().at(17); // cold line, same page
        let spec = m.stats().memory;
        assert!(spec < full, "speculative stall {spec} < full {full}");
    }

    #[test]
    fn branch_is_forwarded() {
        let m = shared_tiny();
        let arr = SimArray::new(&m, vec![0u8; 8]);
        let mem = arr.mem();
        for i in 0..100 {
            mem.branch(i % 3 == 0);
        }
        assert_eq!(m.stats().branches, 100);
    }

    #[test]
    fn compute_is_forwarded() {
        let m = shared_tiny();
        let arr = SimArray::new(&m, vec![0u8; 8]);
        arr.mem().compute(42);
        assert_eq!(m.stats().cycles, 42.0);
    }

    #[test]
    fn warm_loads_every_line() {
        let m = shared_tiny();
        let arr = SimArray::new(&m, vec![0u8; 256]); // 4 lines
        arr.warm();
        assert_eq!(m.stats().loads, 4);
    }

    #[test]
    fn empty_array_is_fine() {
        let m = shared_tiny();
        let arr = SimArray::new(&m, Vec::<u32>::new());
        assert!(arr.mem().is_empty());
        arr.warm();
    }
}
