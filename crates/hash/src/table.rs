//! A chained hash table — the paper's Section 6 candidate for
//! interleaving ("a hash-table with bucket lists is such an index, so
//! the probe phases of hash joins that use it are straightforward
//! candidates for our technique").
//!
//! Layout: a power-of-two array of bucket heads plus an entry arena;
//! each entry links to the next entry of its bucket. Probing chases
//! `bucket head -> entry -> next entry`, a pointer chain with one
//! potential cache miss per hop — exactly the access pattern
//! interleaving hides (see [`crate::probe`]).

use isi_core::topo::advise_huge_pages;

/// Sentinel for "no entry".
pub(crate) const NONE: u32 = u32::MAX;

/// Hashable fixed-size key.
pub trait HashKey: Copy + Eq {
    /// 64-bit hash (need not be cryptographic; must be deterministic).
    fn hash64(&self) -> u64;
}

/// Fibonacci multiplicative hashing: cheap and well-spread for integer
/// keys (Knuth's 2^64 / phi).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

macro_rules! impl_hash_int {
    ($($t:ty),*) => {
        $(impl HashKey for $t {
            #[inline(always)]
            fn hash64(&self) -> u64 {
                (*self as u64).wrapping_mul(FIB)
            }
        })*
    };
}
impl_hash_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<const N: usize> HashKey for isi_search::key::FixedStr<N> {
    #[inline]
    fn hash64(&self) -> u64 {
        // FNV-1a over the bytes, finished with a Fibonacci mix.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &self.0 {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h.wrapping_mul(FIB)
    }
}

/// One chain entry.
#[derive(Debug, Clone, Copy)]
pub struct Entry<K, V> {
    /// The key.
    pub key: K,
    /// The payload.
    pub val: V,
    /// Arena index of the next entry in this bucket, or [`NONE`].
    pub next: u32,
}

/// A chained hash table. Duplicate keys are allowed (hash-join
/// semantics): new entries are pushed at the chain head, and
/// a probe walks every match.
#[derive(Debug, Clone)]
pub struct ChainedHashTable<K, V> {
    buckets: Vec<u32>,
    entries: Vec<Entry<K, V>>,
    mask: u64,
}

impl<K: HashKey, V: Copy> ChainedHashTable<K, V> {
    /// Create a table sized for `expected` entries at load factor <= 1.
    /// Both arrays are advised onto huge pages before their first touch
    /// ([`advise_huge_pages`]): a probe lands on a random bucket and a
    /// random entry, each on a page of its own once the table outgrows
    /// the TLB's reach.
    pub fn with_capacity(expected: usize) -> Self {
        let nbuckets = expected.next_power_of_two().max(8);
        let mut buckets = Vec::with_capacity(nbuckets);
        let mut entries = Vec::with_capacity(expected);
        advise_huge_pages(buckets.spare_capacity_mut());
        advise_huge_pages(entries.spare_capacity_mut());
        buckets.resize(nbuckets, NONE);
        Self {
            buckets,
            entries,
            mask: (nbuckets - 1) as u64,
        }
    }

    /// Bucket index of `key`.
    #[inline(always)]
    pub(crate) fn bucket_of(&self, key: &K) -> usize {
        // High bits of the multiplicative hash are the well-mixed ones.
        ((key.hash64() >> 32) & self.mask) as usize
    }

    /// Insert (duplicates allowed; newest entry shadows older ones for
    /// a single-match probe).
    pub fn insert(&mut self, key: K, val: V) {
        let b = self.bucket_of(&key);
        let idx = self.entries.len() as u32;
        assert!(idx != NONE, "table full");
        self.entries.push(Entry {
            key,
            val,
            next: self.buckets[b],
        });
        self.buckets[b] = idx;
    }

    /// First (most recently inserted) value for `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut e = self.buckets[self.bucket_of(key)];
        while e != NONE {
            let entry = &self.entries[e as usize];
            if entry.key == *key {
                return Some(entry.val);
            }
            e = entry.next;
        }
        None
    }

    /// Every value stored under `key`, newest first.
    pub(crate) fn get_all(&self, key: &K) -> Vec<V> {
        let mut out = Vec::new();
        let mut e = self.buckets[self.bucket_of(key)];
        while e != NONE {
            let entry = &self.entries[e as usize];
            if entry.key == *key {
                out.push(entry.val);
            }
            e = entry.next;
        }
        out
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of buckets.
    #[cfg(test)]
    fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Length of the longest chain (diagnostics).
    #[cfg(test)]
    fn max_chain(&self) -> usize {
        let mut max = 0;
        for &head in &self.buckets {
            let mut n = 0;
            let mut e = head;
            while e != NONE {
                n += 1;
                e = self.entries[e as usize].next;
            }
            max = max.max(n);
        }
        max
    }

    /// Raw bucket heads (probe coroutines; also lets callers copy the
    /// table into a simulated address space).
    #[inline(always)]
    pub fn buckets(&self) -> &[u32] {
        &self.buckets
    }

    /// Raw entry arena.
    #[inline(always)]
    pub fn entries(&self) -> &[Entry<K, V>] {
        &self.entries
    }

    /// Bucket mask (`num_buckets - 1`); bucket of a key is
    /// `(key.hash64() >> 32) & mask`.
    #[inline(always)]
    pub fn mask(&self) -> u64 {
        self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = ChainedHashTable::with_capacity(100);
        for i in 0..100u64 {
            t.insert(i, i * 2);
        }
        assert_eq!(t.len(), 100);
        for i in 0..100u64 {
            assert_eq!(t.get(&i), Some(i * 2));
        }
        assert_eq!(t.get(&100), None);
    }

    #[test]
    fn duplicates_newest_first() {
        let mut t = ChainedHashTable::with_capacity(8);
        t.insert(5u32, 'a');
        t.insert(5u32, 'b');
        assert_eq!(t.get(&5), Some('b'));
        assert_eq!(t.get_all(&5), vec!['b', 'a']);
        assert_eq!(t.get_all(&6), Vec::<char>::new());
    }

    #[test]
    fn collisions_are_chained_not_lost() {
        // Force collisions with a table of 8 buckets and 1000 keys.
        let mut t = ChainedHashTable::with_capacity(1);
        assert_eq!(t.num_buckets(), 8);
        for i in 0..1000u32 {
            t.insert(i, i);
        }
        for i in 0..1000u32 {
            assert_eq!(t.get(&i), Some(i), "i={i}");
        }
        assert!(t.max_chain() >= 1000 / 8);
    }

    #[test]
    fn string_keys_hash() {
        use isi_search::key::Str16;
        let mut t = ChainedHashTable::with_capacity(64);
        for i in 0..50u64 {
            t.insert(Str16::from_index(i), i);
        }
        for i in 0..50u64 {
            assert_eq!(t.get(&Str16::from_index(i)), Some(i));
        }
        assert_eq!(t.get(&Str16::from_index(999)), None);
    }

    #[test]
    fn empty_table() {
        let t = ChainedHashTable::<u64, u64>::with_capacity(0);
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.max_chain(), 0);
    }

    #[test]
    fn hash_spreads_buckets() {
        let mut t = ChainedHashTable::<u64, u64>::with_capacity(1024);
        for i in 0..1024u64 {
            t.insert(i, i);
        }
        // With 1024 buckets and 1024 sequential keys, the multiplicative
        // hash should keep chains short.
        assert!(t.max_chain() <= 8, "max chain {}", t.max_chain());
    }
}
