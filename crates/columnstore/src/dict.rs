//! Dictionaries: the always-indexed relations of the paper's
//! introduction, with the two access methods of Section 2.1 —
//! `extract(code) -> value` and `locate(value) -> code`.
//!
//! * [`MainDictionary`]: a sorted array of the distinct domain values;
//!   codes are array positions, `extract` is an array read, `locate` is
//!   a binary search — in bulk, the `isi-search` coroutine through the
//!   engine's bulk driver ([`run_batch`]), which runs it sequentially or
//!   interleaved per the shared [`Interleave`] policy.
//! * [`DeltaDictionary`]: an *unsorted* array that appends new values in
//!   arrival order, indexed by a CSB+-tree for `locate`. Following the
//!   HANA design the paper describes in Section 5.5, the tree's leaves
//!   conceptually hold **codes**, so every leaf comparison fetches the
//!   actual value from the dictionary array — an extra suspension point
//!   in the interleaved lookup.

use std::future::Future;

use isi_core::coro::suspend;
use isi_core::mem::{DirectMem, IndexedMem};
use isi_core::policy::Interleave;
use isi_core::sched::run_batch;
use isi_csb::descend_level;
use isi_csb::{CsbTree, InnerNode, LeafNode, TreeView};
use isi_search::coro::rank_coro;
use isi_search::cost;
use isi_search::key::SearchKey;
use isi_search::locate::{resolve_rank, NOT_FOUND};
use isi_search::seq::next_low;

/// Read-optimized dictionary: sorted distinct values; code = position.
#[derive(Debug, Clone, Default)]
pub struct MainDictionary<K> {
    values: Vec<K>,
}

impl<K: SearchKey> MainDictionary<K> {
    /// Build from sorted, distinct values.
    ///
    /// # Panics
    /// Panics if `values` is not strictly sorted.
    pub fn from_sorted(values: Vec<K>) -> Self {
        for w in values.windows(2) {
            assert!(w[0] < w[1], "main dictionary must be strictly sorted");
        }
        Self { values }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted value array.
    pub fn values(&self) -> &[K] {
        &self.values
    }

    /// `extract`: the value for `code`.
    ///
    /// # Panics
    /// Panics if `code` is out of range.
    #[inline]
    pub(crate) fn extract(&self, code: u32) -> K {
        self.values[code as usize]
    }

    /// `locate` one value (branch-free binary search).
    pub fn locate(&self, value: K) -> Option<u32> {
        isi_search::locate(&DirectMem::new(&self.values), value)
    }

    /// Bulk `locate`, sequential or interleaved per `mode`. Absent
    /// values map to [`NOT_FOUND`]. This is the index join `S ⋈ D` of
    /// Section 2.1.
    ///
    /// # Panics
    /// Panics if `out.len() != lookups.len()`.
    pub fn bulk_locate(&self, lookups: &[K], mode: Interleave, out: &mut [u32]) {
        let mem = DirectMem::new(&self.values);
        run_batch(
            mode.group_or_one(),
            lookups,
            |v| rank_coro::<false, K, _>(mem, v),
            |v| rank_coro::<true, K, _>(mem, v),
            out,
        );
        // Ranks to codes in place: the rank position is hot in cache
        // right after the search touched it, so this pass is cheap.
        for (o, v) in out.iter_mut().zip(lookups) {
            *o = resolve_rank(&mem, *o, *v).unwrap_or(NOT_FOUND);
        }
    }
}

/// Update-friendly dictionary: values in arrival order plus a CSB+-tree
/// index `value -> code`.
#[derive(Debug, Clone)]
pub struct DeltaDictionary<K> {
    values: Vec<K>,
    index: CsbTree<K, u32>,
}

impl<K: SearchKey + Default> Default for DeltaDictionary<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: SearchKey + Default> DeltaDictionary<K> {
    /// An empty delta dictionary.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            index: CsbTree::new(),
        }
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values in arrival (code) order.
    pub fn values(&self) -> &[K] {
        &self.values
    }

    /// The CSB+-tree index.
    pub fn index(&self) -> &CsbTree<K, u32> {
        &self.index
    }

    /// `extract`: the value for `code`.
    ///
    /// # Panics
    /// Panics if `code` is out of range.
    #[inline]
    pub(crate) fn extract(&self, code: u32) -> K {
        self.values[code as usize]
    }

    /// Bulk-construct from distinct values in arrival order (codes =
    /// positions): sorts `(value, code)` pairs and bulk-loads the tree.
    /// Orders of magnitude faster than repeated inserts
    /// for benchmark-scale dictionaries.
    ///
    /// # Panics
    /// Panics if `values` contains duplicates.
    pub fn from_values(values: Vec<K>) -> Self {
        let mut pairs: Vec<(K, u32)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, i as u32))
            .collect();
        pairs.sort_unstable_by_key(|a| a.0);
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0, "delta dictionary values must be distinct");
        }
        Self {
            values,
            index: CsbTree::from_sorted(&pairs),
        }
    }

    /// Code for `value`, inserting it if new.
    pub(crate) fn insert_or_get(&mut self, value: K) -> u32 {
        if let Some(code) = self.index.get(&value) {
            return code;
        }
        let code = self.values.len() as u32;
        self.values.push(value);
        self.index.insert(value, code);
        code
    }

    /// `locate` one value through the tree index.
    pub fn locate(&self, value: K) -> Option<u32> {
        self.index.get(&value)
    }

    /// Bulk `locate` through the tree index, sequential or interleaved
    /// per `mode`; interleaved lookups have the extra suspension point
    /// on the dictionary-array accesses (§5.5). Absent values map to
    /// [`NOT_FOUND`].
    ///
    /// # Panics
    /// Panics if `out.len() != lookups.len()`.
    pub fn bulk_locate(&self, lookups: &[K], mode: Interleave, out: &mut [u32]) {
        let store = isi_csb::DirectTreeStore::new(&self.index);
        let dict = DirectMem::new(&self.values);
        run_batch(
            mode.group_or_one(),
            lookups,
            |v| delta_locate_coro::<false, K, _, _, _>(store, dict, v),
            |v| delta_locate_coro::<true, K, _, _, _>(store, dict, v),
            out,
        );
    }
}

/// Delta `locate` coroutine (paper §5.5): a CSB+-tree descent whose
/// *leaf* phase compares against the dictionary array.
///
/// Inner levels are Listing 6's — the level step `isi_csb`'s own
/// lookup makes ([`descend_level`]), then suspend. At the leaf, the
/// stored per-entry payloads are codes; each comparison fetches
/// `dict[code]`, adding one suspension point per comparison when
/// interleaved. Generic over the memory behind the tree and behind the
/// dictionary array, so the same code runs on real and simulated
/// memory. Returns the value's code, or [`NOT_FOUND`] — what a bulk
/// `locate` stores, so the engine writes it as it comes.
#[expect(clippy::manual_async_fn, reason = "async fn doubles the frame")]
pub fn delta_locate_coro<const INTERLEAVE: bool, K, MI, ML, M>(
    store: TreeView<MI, ML>,
    dict: M,
    value: K,
) -> impl Future<Output = u32>
where
    K: SearchKey + Default,
    MI: IndexedMem<InnerNode<K>>,
    ML: IndexedMem<LeafNode<K, u32>>,
    M: IndexedMem<K>,
{
    async move {
        let mut idx = store.root;
        let mut below = store.height;
        while below > 0 {
            below -= 1;
            idx = descend_level::<INTERLEAVE, K, u32, MI, ML>(&store, idx, below, &value);
            if INTERLEAVE {
                suspend().await;
            }
        }
        let leaf = store.leaves.at(idx as usize);
        if INTERLEAVE && store.height > 0 {
            store.leaves.compute(cost::CORO_SWITCH);
        }
        let n = leaf.nkeys as usize;
        if n == 0 {
            return NOT_FOUND;
        }
        // Leaf phase: binary search over the leaf's codes, each comparison
        // reading the dictionary array (the extra suspension point).
        let mut low = 0usize;
        let mut size = n;
        loop {
            let half = size / 2;
            if half == 0 {
                break;
            }
            let probe = low + half;
            let code = leaf.values[probe];
            if INTERLEAVE {
                dict.prefetch(code as usize);
                suspend().await;
                dict.compute(cost::CORO_SWITCH);
            }
            dict.compute(cost::CORO_ITER + K::COMPARE_COST);
            low = next_low(*dict.at(code as usize) <= value, probe, low);
            size -= half;
        }
        let code = leaf.values[low];
        if INTERLEAVE {
            dict.prefetch(code as usize);
            suspend().await;
            dict.compute(cost::CORO_SWITCH);
        }
        dict.compute(K::COMPARE_COST);
        if *dict.at(code as usize) == value {
            code
        } else {
            NOT_FOUND
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn main_dict(n: u32) -> MainDictionary<u32> {
        MainDictionary::from_sorted((0..n).map(|i| i * 2).collect())
    }

    // Frame sizes of the instantiations the store and the benchmark
    // run, pinned at their measured size: every in-flight lookup of a
    // group holds one frame, so growth costs slab lines.
    #[test]
    fn delta_locate_coro_u32_frame_is_at_most_120_bytes() {
        let d = DeltaDictionary::<u32>::from_values(vec![5, 1, 3]);
        let store = isi_csb::DirectTreeStore::new(&d.index);
        let frame = delta_locate_coro::<true, u32, _, _, _>(store, DirectMem::new(&d.values), 1);
        assert!(size_of_val(&frame) <= 120, "{} bytes", size_of_val(&frame));
    }

    #[test]
    fn delta_locate_coro_u64_frame_is_at_most_128_bytes() {
        let d = DeltaDictionary::<u64>::from_values(vec![5, 1, 3]);
        let store = isi_csb::DirectTreeStore::new(&d.index);
        let frame = delta_locate_coro::<true, u64, _, _, _>(store, DirectMem::new(&d.values), 1);
        assert!(size_of_val(&frame) <= 128, "{} bytes", size_of_val(&frame));
    }

    #[test]
    fn main_extract_locate_are_inverse() {
        let d = main_dict(1000);
        assert_eq!(d.len(), 1000);
        for code in 0..1000u32 {
            let v = d.extract(code);
            assert_eq!(d.locate(v), Some(code));
        }
        assert_eq!(d.locate(1), None);
        assert_eq!(d.locate(2001), None);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn main_rejects_unsorted() {
        MainDictionary::from_sorted(vec![2u32, 1]);
    }

    #[test]
    fn main_bulk_locate_all_strategies_agree() {
        let d = main_dict(4096);
        let lookups: Vec<u32> = (0..800).map(|i| i * 11 % 9000).collect();
        let expect: Vec<u32> = lookups
            .iter()
            .map(|v| d.locate(*v).unwrap_or(NOT_FOUND))
            .collect();
        for mode in [Interleave::Sequential, Interleave::Interleaved(6)] {
            let mut out = vec![0u32; lookups.len()];
            d.bulk_locate(&lookups, mode, &mut out);
            assert_eq!(out, expect, "{mode}");
        }
    }

    #[test]
    fn main_bulk_locate_on_empty_dict() {
        let d = MainDictionary::<u32>::from_sorted(vec![]);
        let mut out = vec![0u32; 2];
        d.bulk_locate(&[1, 2], Interleave::Interleaved(4), &mut out);
        assert_eq!(out, [NOT_FOUND, NOT_FOUND]);
    }

    #[test]
    fn delta_insert_or_get_deduplicates() {
        let mut d = DeltaDictionary::new();
        assert_eq!(d.insert_or_get(50u32), 0);
        assert_eq!(d.insert_or_get(20), 1);
        assert_eq!(d.insert_or_get(50), 0, "existing value keeps its code");
        assert_eq!(d.insert_or_get(80), 2);
        assert_eq!(d.len(), 3);
        assert_eq!(d.values(), &[50, 20, 80], "arrival order");
        assert_eq!(d.extract(1), 20);
        assert_eq!(d.locate(20), Some(1));
        assert_eq!(d.locate(21), None);
    }

    #[test]
    fn delta_bulk_locate_seq_and_interleaved_agree() {
        let mut d = DeltaDictionary::new();
        // Insert in shuffled order so codes != sorted positions.
        for i in [7u32, 3, 11, 1, 9, 5, 13, 2, 8, 0, 12, 4, 10, 6, 14] {
            d.insert_or_get(i * 10);
        }
        // Grow it to multiple tree levels.
        for i in 15..5000u32 {
            d.insert_or_get(i * 10 + (i % 7));
        }
        let lookups: Vec<u32> = (0..2000).map(|i| i * 13 % 50_100).collect();
        let expect: Vec<u32> = lookups
            .iter()
            .map(|v| d.locate(*v).unwrap_or(NOT_FOUND))
            .collect();

        let mut seq = vec![0u32; lookups.len()];
        d.bulk_locate(&lookups, Interleave::Sequential, &mut seq);
        assert_eq!(seq, expect);

        for group in [1, 6, 16] {
            let mut inter = vec![0u32; lookups.len()];
            d.bulk_locate(&lookups, Interleave::Interleaved(group), &mut inter);
            assert_eq!(inter, expect, "group={group}");
        }
    }

    #[test]
    fn delta_locate_on_empty() {
        let d = DeltaDictionary::<u32>::new();
        assert_eq!(d.locate(5), None);
        let mut out = vec![0u32; 1];
        d.bulk_locate(&[5], Interleave::Interleaved(4), &mut out);
        assert_eq!(out, [NOT_FOUND]);
    }

    #[test]
    fn delta_extract_locate_roundtrip_strings() {
        use isi_search::key::Str16;
        let mut d = DeltaDictionary::new();
        let words: Vec<Str16> = (0..500u64)
            .map(|i| Str16::from_index(i * 3 % 997))
            .collect();
        let codes: Vec<u32> = words.iter().map(|w| d.insert_or_get(*w)).collect();
        for (w, c) in words.iter().zip(&codes) {
            assert_eq!(d.extract(*c), *w);
            assert_eq!(d.locate(*w), Some(*c));
        }
    }
}
