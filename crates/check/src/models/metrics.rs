//! Model of the `isi_obs::Counter` read-order contract.
//!
//! The store and the service export pairs of counters with a
//! cross-metric invariant, e.g. `wal_syncs ≤ wal_records`: every sync
//! covers a record that was appended first. Nothing ties the two
//! atomics together — the contract is pure ordering:
//!
//! - the **writer** bumps the ≥-side (`records`) *before* the ≤-side
//!   (`syncs`);
//! - the **snapshot** reads the ≤-side *before* the ≥-side (in the
//!   real code one read function per owner fixes this order:
//!   `ShardedStore::wal_stats` loads `wal_syncs` first).
//!
//! Read that way, any `syncs` value the snapshot observes was preceded
//! by at least that many `records` bumps, so the skew can only be
//! conservative. [`snapshot_reads_records_first`] is the **known-bad**
//! variant — an old `wal_stats()` bug, which loaded
//! `records` first and could observe a sync without the record it
//! covered; the explorer must find that interleaving and its seed
//! must replay it (see `tests/models.rs`).

use std::sync::Arc;

use crate::sync::atomic::AtomicU64;
use crate::sync::Ordering;
use crate::vt;

/// One writer doing `records += 1; syncs += 1` rounds, as the durable
/// write path does per group commit.
fn spawn_writer(records: &Arc<AtomicU64>, syncs: &Arc<AtomicU64>) -> vt::JoinHandle {
    let (records, syncs) = (Arc::clone(records), Arc::clone(syncs));
    vt::spawn(move || {
        for _ in 0..2 {
            records.fetch_add(1, Ordering::SeqCst);
            syncs.fetch_add(1, Ordering::SeqCst);
        }
    })
}

/// The faithful model: the snapshot reads the ≤-side (`syncs`) before
/// the ≥-side (`records`), so `syncs ≤ records` holds in every
/// interleaving.
pub fn snapshot_reads_covered_side_first() {
    let records = Arc::new(AtomicU64::new(0));
    let syncs = Arc::new(AtomicU64::new(0));
    let writer = spawn_writer(&records, &syncs);

    // The main virtual thread is the monitor taking snapshots.
    for _ in 0..2 {
        let s = syncs.load(Ordering::SeqCst);
        let r = records.load(Ordering::SeqCst);
        assert!(s <= r, "skewed snapshot: {s} syncs > {r} records");
    }
    writer.join();
}

/// The known-bad variant: reading `records` first (the old
/// field-by-field `wal_stats()` order) lets the writer complete a
/// whole round between the two loads, so some interleaving observes
/// more syncs than records. The explorer must catch it.
pub fn snapshot_reads_records_first() {
    let records = Arc::new(AtomicU64::new(0));
    let syncs = Arc::new(AtomicU64::new(0));
    let writer = spawn_writer(&records, &syncs);

    for _ in 0..2 {
        let r = records.load(Ordering::SeqCst);
        let s = syncs.load(Ordering::SeqCst);
        assert!(s <= r, "skewed snapshot: {s} syncs > {r} records");
    }
    writer.join();
}
