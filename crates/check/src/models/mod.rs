//! Executable models of the serve-path concurrency protocols.
//!
//! Each model is a small, closed re-statement of one protocol from
//! `isi_core`/`isi_serve`, built from the [`crate::sync`] shims so the
//! explorer can enumerate its interleavings, with the protocol's
//! invariant stated as plain `assert!`s. The models are deliberately
//! tiny — two or three virtual threads, a handful of operations — so
//! bounded-exhaustive DFS covers *every* interleaving in well under a
//! second; what they preserve from the real code is the *order of
//! lock/publish/notify operations*, which is exactly what the
//! invariants depend on.
//!
//! | model | protocol under test |
//! |---|---|
//! | [`epoch`] | `EpochCell` publish: snapshots never torn, versions monotone |
//! | [`runs`] | run-stack delta over a mid tier: compaction + identity-residual merge, minor or major, never lose the newest write, and a merge drains what it pinned |
//! | [`cache`] | hot-key cache under the queue lock, queued or direct `get`: invalidate-before-ack and refill-before-hand-back ⇒ no stale read after own-write ack |
//! | [`queue`] | caller-runs admission: token hand-back strands no entry, no deadlock at backpressure |
//! | [`wal`] | WAL group commit + snapshot-truncate: acked ⇒ durable, frontier monotone |
//! //!
//! [`epoch::torn_publish`], [`wal::truncate_before_snapshot_sync`],
//! [`runs::oldest_run_wins`], [`runs::fold_across_the_cut`],
//! [`runs::fold_into_the_mid`], [`cache::ack_before_invalidate`],
//! [`cache::refill_after_handback`] and
//! [`queue::handback_without_notify`] are
//! **known-bad** models kept as calibration targets: the test suite
//! asserts the explorer *finds* their violations and that the printed
//! seeds replay them.

pub mod cache;
pub mod epoch;
pub mod queue;
pub mod runs;
pub mod wal;
