//! # isi-hash — chained hash table with interleaved probes
//!
//! The paper's Section 6 names hash-table probing as the next target for
//! coroutine interleaving, following Kocberber et al.'s AMAC work on
//! hash joins. This crate provides that extension: a chained hash table
//! ([`ChainedHashTable`]), a probe coroutine with bucket- and entry-level
//! suspension points ([`probe_coro_on`]), the AMAC state-machine
//! baseline, and a hash-join operator with a sequential or interleaved
//! probe phase ([`hash_join`]).
//!
//! Chains have data-dependent length, so instruction streams *diverge* —
//! the case static interleaving (GP) cannot handle and dynamic
//! interleaving exists for.
//!
//! ```
//! use isi_core::policy::Interleave;
//! use isi_hash::hash_join;
//!
//! let orders = [(1u32, "ord-a"), (2, "ord-b"), (1, "ord-c")];
//! let users = [(1u32, "alice"), (2, "bob"), (3, "carol")];
//! let pairs = hash_join(&orders, &users, Interleave::Interleaved(6));
//! assert_eq!(pairs.len(), 3); // user 1 matches twice, user 2 once
//! ```

#![forbid(unsafe_code)]

mod join;
mod probe;
mod shard;
mod table;

pub use join::{hash_join, nested_loop_join};
pub use probe::{
    bulk_probe_amac, bulk_probe_interleaved, bulk_probe_par, bulk_probe_seq, probe_coro_on,
};
pub use shard::{HashShard, HashShardBuilder};
pub use table::{ChainedHashTable, HashKey};
