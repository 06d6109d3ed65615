//! # isi-core — instruction stream interleaving with coroutines
//!
//! This crate implements the primary contribution of *Psaropoulos et al.,
//! "Interleaving with Coroutines: A Practical Approach for Robust Index
//! Joins" (PVLDB 11(2), 2017)*: hiding the latency of main-memory accesses
//! in index lookups by interleaving the instruction streams of a group of
//! independent lookups, switching streams at every probable cache miss.
//!
//! The paper uses C++ coroutines TS (`co_await`); this crate uses Rust
//! `async fn`, which performs the same compiler transformation (the function
//! body becomes a state machine whose live variables are stored in an inline
//! frame). A lookup coroutine issues a software [`prefetch`]
//! for the cache line it is about to dereference and then
//! [`suspend`](coro::suspend)s; the [interleaved
//! scheduler](crate::sched::run_interleaved) resumes the next lookup in the
//! group while the miss is in flight.
//!
//! ## Module map
//!
//! * [`prefetch`] — thin wrappers over the hardware prefetch instruction
//!   (`PREFETCHT0` on x86-64), no-ops elsewhere.
//! * [`mem`] — the [`IndexedMem`](mem::IndexedMem) abstraction that lets the
//!   *same* lookup code run against raw memory (for wall-clock benchmarks)
//!   or against a simulated memory hierarchy (crate `isi-memsim`).
//! * [`coro`] — `suspend()`, the yield-once future, and
//!   [`resume`](coro::resume), whose `Poll` result is the
//!   resume/is-done/get-result API of the paper's Section 4 handle.
//! * [`sched`] — the `runSequential` / `runInterleaved` schedulers of the
//!   paper's Listing 7, generic over any lookup coroutine, with
//!   allocation-free frame recycling (Section 4, "performance
//!   considerations"), and [`run_batch`](sched::run_batch), the bulk
//!   driver every index runs a batch through: one scheduler run on the
//!   caller, sequential or interleaved.
//! * [`par`] — [`ParConfig`](par::ParConfig), a thread count that is
//!   always one; thread parallelism comes from the serving layer's
//!   shards.
//! * [`model`] — the analytic interleaving model of Section 3
//!   (Inequality 1): estimating the optimal group size from per-stream
//!   compute, switch and stall cycles.
//! * [`policy`] — the shared [`Interleave`](policy::Interleave)
//!   execution-policy type (sequential vs interleaved-with-group-size)
//!   used by every operator in the workspace.
//! * [`topo`] — best-effort placement hints by raw syscall: thread
//!   pinning ([`Topology::pin_current`](topo::Topology::pin_current),
//!   `sched_setaffinity`) and huge pages under a reserved buffer
//!   ([`advise_huge_pages`](topo::advise_huge_pages), `madvise`), with
//!   silent fallbacks on unsupported targets or kernel refusal.
//! * [`epoch`] — the [`EpochCell`](epoch::EpochCell) versioned-`Arc`
//!   swap the writable serving layer publishes merged shard versions
//!   through (readers snapshot, writers swap, nobody blocks long).
//! * [`stats`] — cycle/wall measurement helpers and the log-bucketed
//!   [`LatencyHist`](stats::LatencyHist) used by the serving layer.
//! * [`sync`] — the poison-aware lock helpers
//!   ([`MutexExt::plock`](sync::MutexExt::plock) and friends) that the
//!   serving layer is required (by `clippy::disallowed_methods`, set
//!   in `crates/{serve,durable}/clippy.toml`) to acquire locks through:
//!   a poisoned lock re-panics with a context tag instead of an opaque
//!   `PoisonError` unwrap.
//!
//! ## Quick start
//!
//! ```
//! use isi_core::mem::{DirectMem, IndexedMem};
//! use isi_core::coro::suspend;
//! use isi_core::sched::{run_sequential, run_interleaved};
//!
//! /// Binary-search coroutine: the sequential code plus one prefetch and
//! /// one suspension per probable cache miss (paper Listing 5).
//! async fn rank<const INTERLEAVE: bool, M: IndexedMem<u32>>(mem: M, value: u32) -> u32 {
//!     let mut size = mem.len();
//!     let mut low = 0usize;
//!     loop {
//!         let half = size / 2;
//!         if half == 0 {
//!             break;
//!         }
//!         let probe = low + half;
//!         if INTERLEAVE {
//!             mem.prefetch(probe);
//!             suspend().await;
//!         }
//!         if *mem.at(probe) <= value {
//!             low = probe;
//!         }
//!         size -= half;
//!     }
//!     low as u32
//! }
//!
//! let table: Vec<u32> = (0..1024).map(|i| i * 2).collect();
//! let lookups = [4u32, 100, 2046];
//! let mut out = vec![0u32; lookups.len()];
//!
//! // Sequential execution: the coroutine never suspends.
//! run_sequential(
//!     lookups.iter().copied(),
//!     |v| rank::<false, _>(DirectMem::new(&table), v),
//!     |i, r| out[i] = r,
//! );
//! assert_eq!(out, [2, 50, 1023]);
//!
//! // Interleaved execution: groups of 6 lookups time-share the core.
//! run_interleaved(
//!     6,
//!     lookups.iter().copied(),
//!     |v| rank::<true, _>(DirectMem::new(&table), v),
//!     |i, r| out[i] = r,
//! );
//! assert_eq!(out, [2, 50, 1023]);
//! ```

pub mod coro;
pub mod epoch;
pub mod mem;
pub mod model;
pub mod par;
pub mod policy;
pub mod prefetch;
pub mod sched;
pub mod stats;
pub mod sync;
pub mod topo;
