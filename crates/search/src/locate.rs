//! `locate`: the dictionary access method built on rank.
//!
//! A sorted dictionary array supports `locate(value) -> code` by binary
//! search (paper Section 2.1): the code of `value` is its array position
//! if present, or "absent" otherwise. `locate` composes a rank
//! implementation with one equality check on the rank position
//! ([`resolve_rank`]).

use isi_core::mem::IndexedMem;

use crate::coro::{bulk_rank_coro, bulk_rank_coro_seq};
use crate::key::SearchKey;
use crate::seq::rank_branchfree;

/// Code returned by bulk locate for values absent from the dictionary
/// (the paper's "special code that denotes absence").
pub const NOT_FOUND: u32 = u32::MAX;

/// Resolve a computed rank into a code: `Some(rank)` iff the element at
/// `rank` equals `value`.
#[inline]
pub fn resolve_rank<K: SearchKey, M: IndexedMem<K>>(mem: &M, rank: u32, value: K) -> Option<u32> {
    if mem.is_empty() {
        return None;
    }
    (*mem.at(rank as usize) == value).then_some(rank)
}

/// Sequential locate via the branch-free baseline search.
pub fn locate<K: SearchKey, M: IndexedMem<K>>(mem: &M, value: K) -> Option<u32> {
    let r = rank_branchfree(mem, value);
    resolve_rank(mem, r, value)
}

/// Bulk locate, sequential coroutine execution. Absent values map to
/// [`NOT_FOUND`].
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_locate_seq<K: SearchKey, M: IndexedMem<K> + Copy>(
    mem: M,
    values: &[K],
    out: &mut [u32],
) {
    bulk_rank_coro_seq(mem, values, out);
    finish_bulk(mem, values, out);
}

/// Bulk locate, interleaved coroutine execution. Absent values map to
/// [`NOT_FOUND`].
///
/// # Panics
/// Panics if `out.len() != values.len()`.
pub fn bulk_locate_interleaved<K: SearchKey, M: IndexedMem<K> + Copy>(
    mem: M,
    values: &[K],
    group_size: usize,
    out: &mut [u32],
) {
    bulk_rank_coro(mem, values, group_size, &mut out[..]);
    finish_bulk(mem, values, out);
}

/// Turn in-place ranks into codes by equality check. The rank position is
/// hot in cache right after the search touched it, so this pass is cheap.
fn finish_bulk<K: SearchKey, M: IndexedMem<K>>(mem: M, values: &[K], out: &mut [u32]) {
    for (o, v) in out.iter_mut().zip(values) {
        *o = resolve_rank(&mem, *o, *v).unwrap_or(NOT_FOUND);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isi_core::mem::DirectMem;

    #[test]
    fn locate_finds_present_values() {
        let dict: Vec<u32> = (0..100).map(|i| i * 2).collect();
        let mem = DirectMem::new(&dict);
        for (code, v) in dict.iter().enumerate() {
            assert_eq!(locate(&mem, *v), Some(code as u32));
        }
    }

    #[test]
    fn locate_rejects_absent_values() {
        let dict: Vec<u32> = (0..100).map(|i| i * 2).collect();
        let mem = DirectMem::new(&dict);
        for v in [1u32, 3, 77, 199, 200, u32::MAX] {
            assert_eq!(locate(&mem, v), None, "v={v}");
        }
    }

    #[test]
    fn locate_on_empty_dictionary() {
        let dict: Vec<u32> = vec![];
        let mem = DirectMem::new(&dict);
        assert_eq!(locate(&mem, 5), None);
    }

    #[test]
    fn bulk_locate_matches_scalar_paths() {
        let dict: Vec<u32> = (0..512).map(|i| i * 3).collect();
        let mem = DirectMem::new(&dict);
        let values: Vec<u32> = (0..200).collect(); // mix of hits and misses
        let expect: Vec<u32> = values
            .iter()
            .map(|v| locate(&mem, *v).unwrap_or(NOT_FOUND))
            .collect();

        let mut seq = vec![0u32; values.len()];
        bulk_locate_seq(mem, &values, &mut seq);
        assert_eq!(seq, expect);

        for group in [1, 6, 32] {
            let mut inter = vec![0u32; values.len()];
            bulk_locate_interleaved(mem, &values, group, &mut inter);
            assert_eq!(inter, expect, "group={group}");
        }
    }

    #[test]
    fn bulk_locate_on_empty_dictionary_fills_not_found() {
        let dict: Vec<u32> = vec![];
        let mem = DirectMem::new(&dict);
        let mut out = vec![0u32; 3];
        bulk_locate_seq(mem, &[1, 2, 3], &mut out);
        assert_eq!(out, [NOT_FOUND; 3]);
        bulk_locate_interleaved(mem, &[1, 2, 3], 2, &mut out);
        assert_eq!(out, [NOT_FOUND; 3]);
    }

    #[test]
    fn duplicates_locate_to_last_occurrence() {
        let dict = vec![1u32, 5, 5, 9];
        let mem = DirectMem::new(&dict);
        assert_eq!(locate(&mem, 5), Some(2));
    }
}
