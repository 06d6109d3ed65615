//! `locate`: the dictionary access method built on rank.
//!
//! A sorted dictionary array supports `locate(value) -> code` by binary
//! search (paper Section 2.1): the code of `value` is its array position
//! if present, or "absent" otherwise. `locate` composes a rank
//! implementation with one equality check on the rank position
//! ([`resolve_rank`]).

use isi_core::mem::IndexedMem;

use crate::key::SearchKey;
use crate::seq::rank_branchfree;

/// Code a bulk `locate` returns for values absent from the dictionary
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
    fn duplicates_locate_to_last_occurrence() {
        let dict = vec![1u32, 5, 5, 9];
        let mem = DirectMem::new(&dict);
        assert_eq!(locate(&mem, 5), Some(2));
    }
}
