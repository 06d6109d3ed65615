//! Model of `isi_core::epoch::EpochCell` publication.
//!
//! The real cell is an `RwLock<Arc<T>>`. The model replaces the
//! `Arc<T>` payload with a `(value, tag)` pair whose tag is a function
//! of the value, so a torn publication (a reader observing half of one
//! version and half of another) is directly assertable. The
//! invariants:
//!
//! 1. **Never torn** — every snapshot's tag matches its value.
//! 2. **Monotone** — a reader's successive snapshots never go
//!    backwards.
//!
//! [`torn_publish`] is the deliberately broken variant: the payload
//! halves live in two separate atomics with no lock around the pair,
//! so some interleaving *must* observe a mixed snapshot. The test
//! suite uses it to prove the explorer actually finds such bugs.

use std::sync::Arc;

use crate::sync::atomic::AtomicU64;
use crate::sync::{Ordering, RwLock};
use crate::vt;

/// Tag function: what the payload's second half must be for `v`.
fn tag_of(v: u64) -> u64 {
    v.wrapping_mul(1_000).wrapping_add(v)
}

/// The faithful model: publish under a write lock; snapshots are
/// never torn and versions are monotone.
pub fn publish_never_torn() {
    let cell = Arc::new(RwLock::new((0, tag_of(0))));

    let writer = {
        let cell = Arc::clone(&cell);
        vt::spawn(move || {
            for v in 1..=2u64 {
                *cell.write() = (v, tag_of(v));
            }
        })
    };

    // The main virtual thread is the reader.
    let mut last = 0u64;
    for _ in 0..2 {
        let (v, tag) = *cell.read();
        assert_eq!(tag, tag_of(v), "torn snapshot: value {v} with tag {tag}");
        assert!(v >= last, "version went backwards: {v} < {last}");
        last = v;
    }
    writer.join();
}

/// The known-bad variant: the two payload halves are published as two
/// independent atomic stores with no lock, so a reader scheduled
/// between them observes a torn snapshot. The explorer must find this
/// (see `tests/models.rs`).
pub fn torn_publish() {
    let lo = Arc::new(AtomicU64::new(0));
    let hi = Arc::new(AtomicU64::new(0));

    let writer = {
        let (lo, hi) = (Arc::clone(&lo), Arc::clone(&hi));
        vt::spawn(move || {
            lo.store(1, Ordering::SeqCst);
            hi.store(1, Ordering::SeqCst);
        })
    };

    let h = hi.load(Ordering::SeqCst);
    let l = lo.load(Ordering::SeqCst);
    assert_eq!(l, h, "torn publish observed: lo={l} hi={h}");
    writer.join();
}
