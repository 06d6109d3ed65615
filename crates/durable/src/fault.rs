//! Fault injection: a [`FaultFs`] wrapper over [`MemFs`] that can
//! drop fsyncs, tear records at arbitrary byte offsets, leave
//! [`crate::DiskFs`]'s preallocated zeros past them, fail every
//! operation once the disk "fills up" ([`FaultFs::fill_disk`]) — at
//! once or in the middle of an append ([`FaultFs::fill_disk_mid_append`])
//! — and "kill" the store at any operation in the
//! write/snapshot/recover protocol.
//!
//! Killing is modeled as **crash-image capture** rather than a panic:
//! when the mutating-operation counter reaches
//! [`FaultPlan::kill_at_op`], the wrapper snapshots what a crash at
//! that instant would leave on disk ([`MemFs::crash_view`], with the
//! plan's tear applied to every unsynced tail) and lets the live
//! store continue unharmed. The test then recovers from the captured
//! image and checks it against the oracle — every fs operation index
//! is a samplable crash point, with no unwinding, no poisoned locks,
//! and no special store shutdown path.

use std::io;
use std::sync::Mutex;

use isi_core::sync::MutexExt;

use crate::fs::{Fs, MemFs};

/// What to inject. The default plan injects nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Capture the crash image just before the Nth mutating fs
    /// operation (0-based; appends, writes, syncs, renames, removes
    /// and dir-syncs count; reads and listings do not).
    pub kill_at_op: Option<u64>,
    /// Make [`Fs::sync`] and [`Fs::sync_dir`] silently do nothing —
    /// a lying disk. Acked writes may then be lost at a crash;
    /// recovery must still restore a consistent prefix.
    pub drop_syncs: bool,
    /// How much of each file's unsynced suffix survives into the
    /// crash image, in eighths (0 = none, 8 = all). Intermediate
    /// values tear the tail record at an arbitrary byte offset.
    pub tear_keep_eighths: u8,
    /// Flip one bit in the last surviving torn byte (media corruption
    /// in the torn region; must be caught by the record CRC).
    pub flip_torn_bit: bool,
    /// End each appended file of the crash image in zero bytes past
    /// what survived: what a [`crate::DiskFs`] WAL, grown in
    /// preallocated chunks, shows after a crash. Recovery must cut
    /// them like any torn tail.
    pub zero_tail: bool,
}

struct FaultState {
    plan: FaultPlan,
    ops: u64,
    image: Option<MemFs>,
    /// Set by [`FaultFs::fill_disk`].
    full: bool,
    /// Set by [`FaultFs::fill_disk_mid_append`]: how many bytes of the
    /// next append land before the disk is full.
    short_append: Option<usize>,
}

/// A fault-injecting [`Fs`] over an in-memory store (the fault model
/// is described at the top of `fault.rs`).
pub struct FaultFs {
    mem: MemFs,
    state: Mutex<FaultState>,
}

impl FaultFs {
    /// An empty in-memory store with `plan` armed.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            mem: MemFs::new(),
            state: Mutex::new(FaultState {
                plan,
                ops: 0,
                image: None,
                full: false,
                short_append: None,
            }),
        }
    }

    /// Count one mutating operation, capturing the crash image if the
    /// kill point has been reached. Returns whether syncs are being
    /// dropped, or the injected error if the disk is "full".
    fn before_op(&self) -> io::Result<bool> {
        let mut st = self.state.plock("fault state");
        if st.image.is_none() && st.plan.kill_at_op == Some(st.ops) {
            st.image = Some(self.crash_view(&st.plan));
        }
        st.ops += 1;
        if st.full {
            return Err(disk_full());
        }
        Ok(st.plan.drop_syncs)
    }

    fn crash_view(&self, plan: &FaultPlan) -> MemFs {
        self.mem
            .crash_view(plan.tear_keep_eighths, plan.flip_torn_bit, plan.zero_tail)
    }

    /// The disk fills up: from now on every mutating operation fails
    /// with [`io::ErrorKind::StorageFull`] and changes nothing. What
    /// the caller does with the error (the store's write path panics)
    /// is what a test arms this for.
    pub fn fill_disk(&self) {
        self.state.plock("fault state").full = true;
    }

    /// The disk fills up in the middle of the next append: that append
    /// keeps its first `keep` bytes (all but its last byte, if it is
    /// no longer), unsynced like any append, and fails with
    /// [`io::ErrorKind::StorageFull`]. From then on the disk is full,
    /// as after [`fill_disk`](Self::fill_disk): a short write.
    pub fn fill_disk_mid_append(&self, keep: usize) {
        self.state.plock("fault state").short_append = Some(keep);
    }

    /// Mutating operations performed so far.
    pub fn ops_done(&self) -> u64 {
        self.state.plock("fault state").ops
    }

    /// True once the kill point has been reached and the crash image
    /// captured.
    pub fn killed(&self) -> bool {
        self.state.plock("fault state").image.is_some()
    }

    /// Take the captured crash image (a fully-durable [`MemFs`] of
    /// what survived), if the kill point was reached.
    pub fn take_crash_image(&self) -> Option<MemFs> {
        self.state.plock("fault state").image.take()
    }

    /// The crash image as of *right now* (no kill point needed), with
    /// this plan's tear applied — what pulling the plug at this
    /// instant would leave.
    pub fn crash_now(&self) -> MemFs {
        let st = self.state.plock("fault state");
        self.crash_view(&st.plan)
    }
}

fn disk_full() -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        "injected fault: no space left on device",
    )
}

impl Fs for FaultFs {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.before_op()?;
        let short = {
            let mut st = self.state.plock("fault state");
            let keep = st.short_append.take();
            st.full |= keep.is_some();
            keep
        };
        match short {
            None => self.mem.append(name, data),
            Some(keep) => {
                self.mem
                    .append(name, &data[..keep.min(data.len().saturating_sub(1))])?;
                Err(disk_full())
            }
        }
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.before_op()?;
        self.mem.write_all(name, data)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.mem.read(name)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        if self.before_op()? {
            return Ok(()); // lying disk: report success, persist nothing
        }
        self.mem.sync(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.before_op()?;
        self.mem.rename(from, to)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.before_op()?;
        self.mem.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.mem.list()
    }

    fn sync_dir(&self) -> io::Result<()> {
        if self.before_op()? {
            return Ok(());
        }
        self.mem.sync_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_point_freezes_the_image_and_the_live_store_continues() {
        // Ops: 0=append 1=sync 2=sync_dir 3=append 4=sync ...
        let fs = FaultFs::new(FaultPlan {
            kill_at_op: Some(3),
            ..FaultPlan::default()
        });
        fs.append("wal", b"first").unwrap();
        fs.sync("wal").unwrap();
        fs.sync_dir().unwrap();
        assert!(!fs.killed());
        fs.append("wal", b"-second").unwrap(); // op 3: image captured first
        fs.sync("wal").unwrap();
        assert!(fs.killed());
        assert_eq!(fs.ops_done(), 5);
        // Live store kept going...
        assert_eq!(fs.read("wal").unwrap(), b"first-second");
        // ...but the image is frozen at the pre-append durable state.
        let img = fs.take_crash_image().unwrap();
        assert_eq!(img.read("wal").unwrap(), b"first");
        assert!(fs.take_crash_image().is_none());
    }

    #[test]
    fn dropped_syncs_lie_and_lose_data_at_the_crash() {
        let fs = FaultFs::new(FaultPlan {
            drop_syncs: true,
            ..FaultPlan::default()
        });
        fs.append("wal", b"acked").unwrap();
        fs.sync("wal").unwrap(); // reports Ok, persists nothing
        fs.sync_dir().unwrap();
        let img = fs.crash_now();
        assert!(img.list().unwrap().is_empty(), "nothing was truly durable");
    }

    #[test]
    fn a_full_disk_fails_every_later_op_and_changes_nothing() {
        let fs = FaultFs::new(FaultPlan::default());
        fs.append("wal", b"kept").unwrap();
        fs.sync("wal").unwrap();
        fs.fill_disk();
        for _ in 0..2 {
            let e = fs.append("wal", b"-lost").unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        }
        assert!(fs.sync("wal").is_err());
        assert_eq!(fs.read("wal").unwrap(), b"kept");
        assert_eq!(fs.ops_done(), 5);
    }

    #[test]
    fn tearing_applies_to_the_captured_image() {
        let fs = FaultFs::new(FaultPlan {
            kill_at_op: Some(4),
            tear_keep_eighths: 4,
            ..FaultPlan::default()
        });
        fs.append("wal", b"SYNC").unwrap();
        fs.sync("wal").unwrap();
        fs.sync_dir().unwrap();
        fs.append("wal", b"ABCDEFGH").unwrap();
        fs.sync("wal").unwrap(); // op 4: image captured before this sync
        let img = fs.take_crash_image().unwrap();
        // Half of the 8 unsynced bytes survived the tear.
        assert_eq!(img.read("wal").unwrap(), b"SYNCABCD");
    }

    #[test]
    fn a_short_append_keeps_a_prefix_and_then_the_disk_is_full() {
        let fs = FaultFs::new(FaultPlan {
            tear_keep_eighths: 8,
            ..FaultPlan::default()
        });
        fs.append("wal", b"kept").unwrap();
        fs.sync("wal").unwrap();
        fs.sync_dir().unwrap();
        fs.fill_disk_mid_append(3);
        let e = fs.append("wal", b"-torn").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(fs.read("wal").unwrap(), b"kept-to");
        assert!(fs.sync("wal").is_err(), "the disk stays full");
        // The prefix was never synced; a crash keeps what the tear keeps.
        assert_eq!(fs.crash_now().read("wal").unwrap(), b"kept-to");
        // A prefix is never the whole append.
        let fs = FaultFs::new(FaultPlan::default());
        fs.fill_disk_mid_append(usize::MAX);
        assert!(fs.append("wal", b"abc").is_err());
        assert_eq!(fs.read("wal").unwrap(), b"ab");
    }
}
