//! A set-associative cache with true-LRU replacement.
//!
//! Used for the three data-cache levels and (with page-granularity keys)
//! for the two TLB levels. Tags are full 64-bit keys, so the model never
//! suffers false aliasing; LRU is tracked with a per-access monotonically
//! increasing stamp.

/// Sentinel tag for an empty way.
const EMPTY: u64 = u64::MAX;

/// Set-associative LRU cache over abstract 64-bit keys (cache-line or
/// page numbers).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    /// `sets * assoc` tags, row-major by set.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
}

impl Cache {
    /// Create a cache with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    /// Panics if `sets` or `assoc` is zero.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets > 0 && assoc > 0, "cache must have at least one way");
        Self {
            sets,
            assoc,
            tags: vec![EMPTY; sets * assoc],
            stamps: vec![0; sets * assoc],
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key as usize) % self.sets
    }

    /// Probe for `key`; on hit, refresh its LRU stamp. Returns whether it
    /// was present.
    pub fn access(&mut self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY, "key collides with the empty sentinel");
        self.tick += 1;
        let set = self.set_of(key);
        let base = set * self.assoc;
        for way in 0..self.assoc {
            if self.tags[base + way] == key {
                self.stamps[base + way] = self.tick;
                return true;
            }
        }
        false
    }

    /// Probe without updating LRU (used for "is this line
    /// cached?" checks that must not disturb replacement state).
    pub(crate) fn peek(&self, key: u64) -> bool {
        let set = self.set_of(key);
        let base = set * self.assoc;
        (0..self.assoc).any(|w| self.tags[base + w] == key)
    }

    /// Insert `key`, evicting the LRU way of its set if needed. Returns
    /// the evicted key, if any. Inserting a present key just refreshes it.
    pub fn insert(&mut self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY);
        self.tick += 1;
        let set = self.set_of(key);
        let base = set * self.assoc;
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for way in 0..self.assoc {
            let tag = self.tags[base + way];
            if tag == key {
                self.stamps[base + way] = self.tick;
                return None;
            }
            if tag == EMPTY {
                // Prefer an empty way; stamp 0 makes it the victim unless
                // an earlier empty way was already chosen.
                if oldest != 0 {
                    victim = way;
                    oldest = 0;
                }
            } else if self.stamps[base + way] < oldest {
                victim = way;
                oldest = self.stamps[base + way];
            }
        }
        let evicted = self.tags[base + victim];
        self.tags[base + victim] = key;
        self.stamps[base + victim] = self.tick;
        (evicted != EMPTY).then_some(evicted)
    }

    /// Remove every entry.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
        self.tick = 0;
    }

    /// Number of resident entries (O(capacity); for tests/debugging).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut c = Cache::new(2, 2);
        assert!(!c.access(10));
        c.insert(10);
        assert!(c.access(10));
        assert!(c.peek(10));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(1, 2); // one set, two ways
        c.insert(1);
        c.insert(2);
        assert!(c.access(1)); // 1 is now MRU
        let evicted = c.insert(3); // must evict 2
        assert_eq!(evicted, Some(2));
        assert!(c.peek(1));
        assert!(c.peek(3));
        assert!(!c.peek(2));
    }

    #[test]
    fn insert_present_key_refreshes_not_duplicates() {
        let mut c = Cache::new(1, 2);
        c.insert(7);
        assert_eq!(c.insert(7), None);
        assert_eq!(c.occupancy(), 1);
        c.insert(8);
        // 7 was refreshed by the second insert, so inserting 9 evicts 8.
        c.access(7);
        assert_eq!(c.insert(9), Some(8));
    }

    #[test]
    fn sets_isolate_keys() {
        let mut c = Cache::new(2, 1); // keys map to sets by parity
        c.insert(0); // set 0
        c.insert(1); // set 1
        assert!(c.peek(0));
        assert!(c.peek(1));
        c.insert(2); // set 0: evicts 0, leaves 1 alone
        assert!(!c.peek(0));
        assert!(c.peek(1));
        assert!(c.peek(2));
    }

    #[test]
    fn empty_ways_fill_before_eviction() {
        let mut c = Cache::new(1, 4);
        for k in 1..=4 {
            assert_eq!(c.insert(k), None, "no eviction while ways are free");
        }
        assert_eq!(c.occupancy(), 4);
        assert!(c.insert(5).is_some());
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = Cache::new(4, 4);
        for k in 0..16 {
            c.insert(k);
        }
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.peek(3));
    }

    #[test]
    fn peek_does_not_affect_lru() {
        let mut c = Cache::new(1, 2);
        c.insert(1);
        c.insert(2);
        // Peeking 1 must NOT make it MRU.
        assert!(c.peek(1));
        // 1 is still LRU, so inserting 3 evicts 1.
        assert_eq!(c.insert(3), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_geometry_rejected() {
        let _ = Cache::new(0, 4);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(4, 2); // 8 entries
                                      // Stream 32 distinct keys twice: second pass still misses (LRU
                                      // with a cyclic access pattern larger than capacity never hits).
        let mut hits = 0;
        for _ in 0..2 {
            for k in 0..32u64 {
                if c.access(k) {
                    hits += 1;
                } else {
                    c.insert(k);
                }
            }
        }
        assert_eq!(hits, 0);
    }
}
