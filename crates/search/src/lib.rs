//! # isi-search — binary search five ways
//!
//! The microbenchmark subjects of the paper's Section 5: five binary
//! search implementations over a sorted array, two sequential and three
//! interleaved, all generic over the key type ([`key::SearchKey`]) and
//! the memory backend ([`isi_core::mem::IndexedMem`]):
//!
//! | paper name | module / function | kind |
//! |---|---|---|
//! | `std`      | [`seq::rank_branchy`]     | sequential, speculative branch |
//! | `Baseline` | [`seq::rank_branchfree`]  | sequential, conditional move (Listing 2) |
//! | `GP`       | [`gp::bulk_rank_gp`]      | static interleaving (Listing 3) |
//! | `AMAC`     | [`amac::bulk_rank_amac`]  | dynamic interleaving, hand-written state machine (Listing 4) |
//! | `CORO`     | [`coro::rank_coro`]       | dynamic interleaving, compiler-generated state machine (Listing 5) |
//!
//! Every implementation computes the same **rank** function — largest
//! index `i` with `table[i] <= value`, clamped to 0 — so their outputs
//! are interchangeable and cross-checked in the test suite.
//! [`locate`](locate::locate) builds the dictionary access method on top.
//! [`par`] holds the CORO bulk driver the serving path calls (same
//! coroutine, one scheduler run on the caller, sequential where there
//! is nothing to interleave with).

#![forbid(unsafe_code)]

mod amac;
pub mod coro;
pub mod cost;
mod gp;
pub mod key;
pub mod locate;
pub mod par;
pub mod seq;
mod shard;

pub use amac::bulk_rank_amac;
pub use gp::bulk_rank_gp;
pub use shard::{SortedShard, SortedShardBuilder};
