//! [`EpochCell`]: an epoch-stamped `Arc` swap for publish/subscribe
//! versioned state.
//!
//! The writable serving layer needs one primitive: a cell holding the
//! current immutable version of a structure, where
//!
//! * **readers** take a cheap snapshot (`load` clones the inner `Arc`)
//!   and keep using it for as long as they like — an in-flight batch
//!   dispatched against version *n* finishes against version *n* even
//!   if a merge publishes version *n+1* midway, because the snapshot
//!   keeps the old allocation alive;
//! * **writers** publish a fully-built replacement with a single
//!   pointer `store` — they never mutate shared state in place, so
//!   readers never observe a torn or half-merged version.
//!
//! `load` holds a shared lock only long enough to clone the `Arc`
//! (a reference-count increment) and `store` holds the exclusive lock
//! only for one pointer assignment, so neither side can stall the
//! other behind long-running work. Every `store` bumps a monotonically
//! increasing **epoch**, which readers can use to detect that a swap
//! happened between two snapshots (e.g. to count merges or to verify
//! that a cached derivation is still current).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::sync::RwLockExt;

/// A versioned cell: the current `Arc<T>` plus a swap counter.
///
/// See the [module docs](self) for the reader/writer contract.
#[derive(Debug)]
pub struct EpochCell<T> {
    current: RwLock<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochCell<T> {
    /// Wrap `value` as epoch 0.
    pub fn new(value: T) -> Self {
        Self {
            current: RwLock::new(Arc::new(value)),
            epoch: AtomicU64::new(0),
        }
    }

    /// Snapshot the current version. The returned `Arc` stays valid
    /// (and unchanged) across any number of subsequent [`store`]s.
    ///
    /// [`store`]: Self::store
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.pread("EpochCell::load"))
    }

    /// Publish `value` as the new current version and return the new
    /// epoch. Readers holding older snapshots are unaffected.
    pub fn store(&self, value: Arc<T>) -> u64 {
        let mut slot = self.current.pwrite("EpochCell::store");
        *slot = value;
        // Bump under the write lock so epoch order matches publication
        // order (two concurrent stores cannot observe swapped stamps).
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// Number of [`store`](Self::store)s so far (0 for a fresh cell).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip_and_epoch_counts() {
        let cell = EpochCell::new(10u64);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(*cell.load(), 10);
        assert_eq!(cell.store(Arc::new(11)), 1);
        assert_eq!(cell.store(Arc::new(12)), 2);
        assert_eq!(*cell.load(), 12);
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn old_snapshots_survive_swaps() {
        let cell = EpochCell::new(vec![1, 2, 3]);
        let before = cell.load();
        cell.store(Arc::new(vec![9]));
        // The snapshot taken before the swap still reads the old data.
        assert_eq!(*before, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn concurrent_readers_see_monotone_versions() {
        // A writer publishes 1..=N in order; readers must only ever
        // observe non-decreasing values (no torn or reordered
        // publication).
        // Miri interprets every access; a short run still crosses many
        // reader/writer interleavings. (Exhaustive interleaving coverage
        // of this protocol lives in isi_check's epoch model.)
        const N: u64 = if cfg!(miri) { 50 } else { 2_000 };
        let cell = EpochCell::new(0u64);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for v in 1..=N {
                    cell.store(Arc::new(v));
                }
            });
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut last = 0u64;
                    while last < N {
                        let v = *cell.load();
                        assert!(v >= last, "version went backwards: {v} < {last}");
                        last = last.max(v);
                    }
                });
            }
            writer.join().unwrap();
        });
        assert_eq!(cell.epoch(), N);
    }
}
