//! The per-shard hot-key result cache.

use isi_hash::table::HashKey;

/// The hot-key result cache: direct-mapped, one `(key, result)` pair
/// per slot. Only the holder of the shard's token mutates it (inserts
/// after a read run, invalidates when applying a write), so its
/// contents always reflect a prefix of the shard's serialized
/// operation order; everyone else only probes.
pub(super) struct HotCache {
    slots: Vec<Option<(u64, Option<u64>)>>,
}

impl HotCache {
    pub(super) fn new(slots: usize) -> Self {
        Self {
            slots: vec![None; slots],
        }
    }

    /// Slot index: hash bits 16.. keep the map independent of both
    /// shard routing (top bits) and hash-backend bucketing (bits 32..
    /// of the same hash, which matter only inside the backend).
    #[inline]
    fn idx(&self, key: u64) -> usize {
        (key.hash64() >> 16) as usize % self.slots.len()
    }

    pub(super) fn probe(&self, key: u64) -> Option<Option<u64>> {
        self.slots[self.idx(key)]
            .filter(|&(k, _)| k == key)
            .map(|(_, result)| result)
    }

    pub(super) fn insert(&mut self, key: u64, result: Option<u64>) {
        let i = self.idx(key);
        self.slots[i] = Some((key, result));
    }

    pub(super) fn invalidate(&mut self, key: u64) {
        let i = self.idx(key);
        if self.slots[i].is_some_and(|(k, _)| k == key) {
            self.slots[i] = None;
        }
    }
}
