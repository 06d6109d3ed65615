//! # isi-csb — a cache-sensitive B+-tree with interleaved lookups
//!
//! The CSB+-tree of Rao & Ross (SIGMOD 2000) is the index behind the
//! paper's Delta dictionaries: children of a node are stored in one
//! contiguous *node group*, so a node stores only a `first_child` index
//! and packs more keys per cache line. This crate implements the tree
//! from scratch — bulk load, inserts with node-group splits, range
//! scans — plus the paper's Listing 6: a lookup coroutine that
//! prefetches every cache line of the next node and suspends once per
//! level. The coroutine sees the tree as a [`TreeView`] of two
//! `isi_core::mem::IndexedMem` arenas — the memory abstraction of every
//! index in the workspace — so the one implementation runs on real
//! memory ([`DirectTreeStore`]) and on the `isi-memsim` model.
//!
//! ```
//! use isi_csb::{CsbTree, DirectTreeStore, bulk_lookup_interleaved};
//!
//! let tree = CsbTree::from_sorted(&(0..10_000u32).map(|i| (i * 2, i)).collect::<Vec<_>>());
//! let store = DirectTreeStore::new(&tree);
//! let probes = [0u32, 42, 19_998, 5];
//! let mut out = vec![None; probes.len()];
//! bulk_lookup_interleaved(store, &probes, 6, &mut out);
//! assert_eq!(out, [Some(0), Some(21), Some(9_999), None]);
//! ```

#![forbid(unsafe_code)]

mod lookup;
mod node;
mod shard;
mod store;
mod tree;

pub use lookup::{
    bulk_lookup_interleaved, bulk_lookup_par, bulk_lookup_seq, descend_level, lookup_coro,
};
pub use node::{InnerNode, LeafNode};
pub use shard::CsbShard;
pub use store::{DirectTreeStore, TreeView};
pub use tree::{CsbTree, CsbTreeBuilder};
