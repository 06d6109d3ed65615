//! # isi-check — deterministic concurrency model checking for the
//! serve path
//!
//! A hand-rolled, dependency-free (pure `std`) stateless model
//! checker in the CHESS/loom tradition, plus executable models of the
//! riskiest concurrency protocols in this workspace. The serving
//! layer (`isi_serve`) is a small zoo of hand-written protocols —
//! epoch-swapped publication, Main/Delta merges, conditional condvar
//! notifies, backpressure — whose bugs are exactly the kind that unit
//! tests and even sanitizers only catch when the OS scheduler happens
//! to cooperate. This crate removes the "happens to": it runs a model
//! under **every** bounded interleaving and replays any failure
//! deterministically from a printed seed.
//!
//! ## How it works
//!
//! * [`vt`] spawns *virtual threads*: real OS threads that the
//!   `rt`-internal controller gates so exactly one runs at a time.
//! * [`sync`] provides `Mutex`/`RwLock`/`Condvar`/atomic shims whose
//!   every operation is a scheduling point; blocking parks the
//!   virtual thread *in the runtime*, so deadlocks and lost wakeups
//!   are detected, not hung on.
//! * [`explore`] drives the schedule: bounded-exhaustive DFS
//!   ([`explore::explore`]/[`explore::check`]), randomized sampling
//!   ([`explore::explore_random`]), and deterministic replay
//!   ([`explore::replay`]) from the seed printed with every
//!   violation.
//! * [`models`] are the protocol models checked in CI; see its table.
//!
//! ## Writing a model
//!
//! ```
//! use isi_check::explore::{check, Config};
//! use isi_check::sync::Mutex;
//! use isi_check::vt;
//! use std::sync::Arc;
//!
//! let interleavings = check("two increments", Config::default(), || {
//!     let n = Arc::new(Mutex::new(0));
//!     let handles: Vec<_> = (0..2)
//!         .map(|_| {
//!             let n = Arc::clone(&n);
//!             vt::spawn(move || *n.lock() += 1)
//!         })
//!         .collect();
//!     handles.into_iter().for_each(|h| h.join());
//!     assert_eq!(*n.lock(), 2);
//! });
//! assert!(interleavings >= 2);
//! ```
//!
//! Keep models tiny: state spaces grow factorially in operations ×
//! threads, and the value of the checker is *exhaustiveness* within
//! its bounds. Model the order of lock/publish/notify operations —
//! that is what the invariants depend on — and elide everything else.

pub mod explore;
pub mod models;
mod rt;
pub mod sync;
pub mod vt;
