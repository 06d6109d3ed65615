//! The per-shard hot-key result cache.

use isi_hash::table::HashKey;

/// Ways per set: a set's keys and values are one 64-byte line.
const WAYS: usize = 4;
/// Words of one line: `WAYS` keys, then their `WAYS` values.
const LINE: usize = 2 * WAYS;
/// Sets per shard: 2^16 slots in 1 MiB of lines, about one core's L2.
const SETS: usize = 1 << 14;

/// A way's tag: `EMPTY` (zero, so a zeroed table is empty), or whether
/// the cached key is stored (`PRESENT`, value in the line) or not
/// (`ABSENT`). `REFERENCED` is or-ed in when a probe hits the way.
const EMPTY: u8 = 0;
const ABSENT: u8 = 1;
const PRESENT: u8 = 2;
const REFERENCED: u8 = 4;

/// Misses (admitted `get`s) per verdict on the table.
pub(super) const WINDOW: u64 = 1 << 12;
/// Misses the table stays dropped for before a fresh one is tried.
pub(super) const BYPASS: u64 = 8 * WINDOW;

/// The hot-key result cache: 4-way set-associative with not-recently-
/// used replacement. Only the holder of the shard's token fills or
/// invalidates it (after a read run, when applying a write), so its
/// contents always reflect a prefix of the shard's serialized
/// operation order; a probe only sets a way's referenced bit, under
/// the same queue lock.
///
/// A fill that finds its key in the set overwrites that way: two
/// queued `get`s of one key fill it twice, and a second copy would
/// outlive the next invalidation. Otherwise it takes the set's first
/// empty way, else its first unreferenced one; if all four were
/// referenced, the bits are cleared and way 0 goes. A filled way
/// starts unreferenced, so a key read once evicts only other keys
/// read once since the set's last sweep (NRU with LRU-insertion,
/// Qureshi et al., ISCA 2007); on `serve_point`'s Zipf keys that keeps
/// ~70 % of gets off the tree against ~60 % for a direct-mapped table
/// of the same 2^16 slots.
///
/// On keys without skew almost every probe misses, and each costs a
/// cold line of the table and evicts a line of the store from L2. So
/// every [`WINDOW`] misses the token holder compares them with the
/// window's hits: under one hit per eight misses the table is dropped
/// (probes miss at once, fills and invalidations do nothing), and
/// after [`BYPASS`] more misses a fresh, empty one is tried.
pub(super) struct HotCache {
    /// `None` while the cache is bypassed.
    table: Option<Table>,
    /// Misses so far in this window.
    misses: u64,
    /// The shard's `cache_hits` when this window began.
    hits_before: u64,
}

/// One table. Both arrays are allocated zeroed, which is empty, so
/// their pages are only touched as sets fill: a `Vec` of a 64-byte-
/// aligned line type would be written line by line at start.
struct Table {
    /// `SETS` lines from `base`, the first 64-byte boundary.
    words: Vec<u64>,
    base: usize,
    /// Per set and way, the tag and the referenced bit: 64 KiB.
    tags: Vec<[u8; WAYS]>,
}

impl Table {
    fn new() -> Self {
        let words = vec![0u64; SETS * LINE + LINE - 1];
        // `align_offset` may decline (`usize::MAX`): lines then
        // straddle, nothing else changes.
        let base = words.as_ptr().align_offset(LINE * 8).min(LINE - 1);
        Self {
            words,
            base,
            tags: vec![[EMPTY; WAYS]; SETS],
        }
    }

    /// Set `set`'s line and tags, and the way holding `key`, if any.
    fn find(&mut self, set: usize, key: u64) -> (&mut [u64], &mut [u8; WAYS], Option<usize>) {
        let line = &mut self.words[self.base + set * LINE..][..LINE];
        let tags = &mut self.tags[set];
        let way = (0..WAYS).find(|&w| tags[w] != EMPTY && line[w] == key);
        (line, tags, way)
    }
}

impl Default for HotCache {
    fn default() -> Self {
        Self {
            table: Some(Table::new()),
            misses: 0,
            hits_before: 0,
        }
    }
}

impl HotCache {
    /// Set index: hash bits 16.. keep the map independent of both
    /// shard routing (top bits) and hash-backend bucketing (bits 32..
    /// of the same hash, which matter only inside the backend).
    #[inline]
    pub(super) fn idx(key: u64) -> usize {
        (key.hash64() >> 16) as usize & (SETS - 1)
    }

    pub(super) fn probe(&mut self, key: u64) -> Option<Option<u64>> {
        let (line, tags, way) = self.table.as_mut()?.find(Self::idx(key), key);
        let w = way?;
        tags[w] |= REFERENCED;
        Some((tags[w] & PRESENT != 0).then_some(line[WAYS + w]))
    }

    /// Cache a missed `get`'s result.
    pub(super) fn insert(&mut self, key: u64, result: Option<u64>) {
        self.misses += 1;
        let Some(table) = self.table.as_mut() else {
            return;
        };
        let (line, tags, way) = table.find(Self::idx(key), key);
        let w = way
            .or_else(|| tags.iter().position(|&t| t == EMPTY))
            .or_else(|| tags.iter().position(|&t| t & REFERENCED == 0))
            .unwrap_or_else(|| {
                for t in tags.iter_mut() {
                    *t &= !REFERENCED;
                }
                0
            });
        (line[w], line[WAYS + w], tags[w]) = match result {
            Some(value) => (key, value, PRESENT),
            None => (key, 0, ABSENT),
        };
    }

    pub(super) fn invalidate(&mut self, key: u64) {
        if let Some(table) = self.table.as_mut() {
            if let (_, tags, Some(w)) = table.find(Self::idx(key), key) {
                tags[w] = EMPTY;
            }
        }
    }

    /// After a read run's inserts: once a window is full, keep, drop
    /// or retry the table. `hits` is the shard's `cache_hits` count.
    pub(super) fn end_run(&mut self, hits: u64) {
        let bypassed = self.table.is_none();
        if self.misses < if bypassed { BYPASS } else { WINDOW } {
            return;
        }
        if bypassed {
            self.table = Some(Table::new());
        } else if (hits - self.hits_before) * 8 < self.misses {
            self.table = None;
        }
        self.misses = 0;
        self.hits_before = hits;
    }
}
