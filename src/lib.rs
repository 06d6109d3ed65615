//! # coro-isi — interleaving with coroutines for robust index joins
//!
//! A from-scratch Rust reproduction of *Psaropoulos, Legler, May,
//! Ailamaki — "Interleaving with Coroutines: A Practical Approach for
//! Robust Index Joins" (PVLDB 11(2), 2017)*.
//!
//! Index lookups over data larger than the last-level cache spend most
//! of their time stalled on main memory. This library hides those
//! stalls by *instruction stream interleaving*: a group of independent
//! lookups runs as coroutines (`async fn` state machines), each issuing
//! a software prefetch for the line it is about to touch and suspending;
//! while the miss is in flight, the scheduler resumes the other lookups.
//! One source-level implementation serves both sequential and
//! interleaved execution — the paper's practicality argument.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — suspension machinery, schedulers (Listing 7),
//!   prefetch, the Section 3 analytic model.
//! * [`search`] — binary search five ways: `std`-style,
//!   branch-free baseline, GP, AMAC, CORO (Listings 2-5).
//! * [`csb`] — a cache-sensitive B+-tree with interleaved
//!   lookups (Listing 6).
//! * [`hash`] — chained hash table + hash join with
//!   interleaved probes (the Section 6 extension).
//! * [`columnstore`] — a HANA-style dictionary-encoded
//!   column store with Main/Delta parts and IN-predicate execution.
//! * [`memsim`] — a software model of the paper's Haswell
//!   memory hierarchy for the microarchitectural experiments.
//! * [`serve`] — a sharded, admission-batched point-lookup
//!   service that coalesces concurrent single-key requests into
//!   interleaved batches.
//! * [`workloads`] — the paper's data/lookup generators.
//!
//! ## Quickstart
//!
//! ```
//! use coro_isi::columnstore::{Column, execute_in};
//! use coro_isi::core::policy::Interleave;
//!
//! // A dictionary-encoded column: 100k rows over 10k distinct values.
//! let rows: Vec<u32> = (0..100_000).map(|i| i % 10_000).collect();
//! let column = Column::from_rows(&rows);
//!
//! // SELECT ... WHERE col IN (...) with an interleaved encode phase.
//! let in_list: Vec<u32> = (0..500).map(|i| i * 20).collect();
//! let (row_ids, stats) = execute_in(&column, &in_list, Interleave::Interleaved(6));
//! assert_eq!(stats.rows, row_ids.len());
//! assert_eq!(row_ids.len(), 500 * 10); // each matched value appears 10x
//! ```

pub use isi_columnstore as columnstore;
pub use isi_core as core;
pub use isi_csb as csb;
pub use isi_hash as hash;
pub use isi_memsim as memsim;
pub use isi_search as search;
pub use isi_serve as serve;
pub use isi_workloads as workloads;
