//! The per-shard hot-key result cache.

use isi_hash::table::HashKey;

/// Slots per shard, 24 B each: 1.5 MiB, about one core's L2.
const SLOTS: usize = 1 << 16;

/// A slot's third word: `EMPTY` (zero, so a zeroed table is empty),
/// or whether the cached key is stored (`PRESENT`, value in the
/// second word) or not (`ABSENT`).
const EMPTY: u64 = 0;
const ABSENT: u64 = 1;
const PRESENT: u64 = 2;

/// Misses (admitted `get`s) per verdict on the table.
pub(super) const WINDOW: u64 = 1 << 12;
/// Misses the table stays dropped for before a fresh one is tried.
pub(super) const BYPASS: u64 = 8 * WINDOW;

/// The hot-key result cache: direct-mapped, one `[key, value, tag]`
/// per slot. Only the holder of the shard's token mutates it (inserts
/// after a read run, invalidates when applying a write), so its
/// contents always reflect a prefix of the shard's serialized
/// operation order; everyone else only probes. An empty slot is all
/// zeros, so the table is allocated zeroed rather than written slot
/// by slot (a debug build would take ~1 ms a shard).
///
/// On keys without skew almost every probe misses, and each costs a
/// cold line of the table and evicts a line of the store from L2. So
/// every [`WINDOW`] misses the token holder compares them with the
/// window's hits: under one hit per eight misses the table is dropped
/// (probes miss at once, fills and invalidations do nothing), and
/// after [`BYPASS`] more misses a fresh, empty one is tried.
pub(super) struct HotCache {
    /// Empty while the cache is bypassed.
    slots: Vec<[u64; 3]>,
    /// Misses so far in this window.
    misses: u64,
    /// The shard's `cache_hits` when this window began.
    hits_before: u64,
}

impl Default for HotCache {
    fn default() -> Self {
        Self {
            slots: vec![[0; 3]; SLOTS],
            misses: 0,
            hits_before: 0,
        }
    }
}

impl HotCache {
    /// Slot index: hash bits 16.. keep the map independent of both
    /// shard routing (top bits) and hash-backend bucketing (bits 32..
    /// of the same hash, which matter only inside the backend).
    #[inline]
    pub(super) fn idx(key: u64) -> usize {
        (key.hash64() >> 16) as usize & (SLOTS - 1)
    }

    pub(super) fn probe(&self, key: u64) -> Option<Option<u64>> {
        let [k, value, tag] = *self.slots.get(Self::idx(key))?;
        (tag != EMPTY && k == key).then_some((tag == PRESENT).then_some(value))
    }

    /// Cache a missed `get`'s result.
    pub(super) fn insert(&mut self, key: u64, result: Option<u64>) {
        self.misses += 1;
        if let Some(slot) = self.slots.get_mut(Self::idx(key)) {
            *slot = match result {
                Some(value) => [key, value, PRESENT],
                None => [key, 0, ABSENT],
            };
        }
    }

    pub(super) fn invalidate(&mut self, key: u64) {
        if let Some(slot) = self.slots.get_mut(Self::idx(key)) {
            if slot[0] == key {
                *slot = [0, 0, EMPTY];
            }
        }
    }

    /// After a read run's inserts: once a window is full, keep, drop
    /// or retry the table. `hits` is the shard's `cache_hits` count.
    pub(super) fn end_run(&mut self, hits: u64) {
        let bypassed = self.slots.is_empty();
        if self.misses < if bypassed { BYPASS } else { WINDOW } {
            return;
        }
        if bypassed {
            self.slots = vec![[0; 3]; SLOTS];
        } else if (hits - self.hits_before) * 8 < self.misses {
            self.slots = Vec::new();
        }
        self.misses = 0;
        self.hits_before = hits;
    }
}
