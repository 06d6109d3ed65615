//! The file-system seam: an object-safe [`Fs`] trait over one flat
//! directory of named files, with a real implementation ([`DiskFs`])
//! and an in-memory crash-semantics model ([`MemFs`]).
//!
//! The durability protocol only ever needs eight operations —
//! append, whole-file write, read, data sync, rename, remove, list,
//! and directory fsync — all on names relative to one store
//! directory. Keeping the trait this small is what makes the
//! fault-injection wrapper ([`crate::FaultFs`]) able to intercept
//! *every* point in the protocol.
//!
//! [`Fs::sync`] makes a file's content and the length needed to read
//! it durable (`fdatasync`), nothing more. [`DiskFs`] grows an appended
//! file in preallocated chunks, so a WAL append overwrites space the
//! file already has and its sync commits no new length. A crash can
//! therefore leave zero bytes past a file's last synced record; WAL
//! decoding treats them as a torn tail and recovery cuts them away.
//!
//! [`MemFs`] models what POSIX guarantees survives a crash, not what
//! usually survives one:
//!
//! * file **content** survives only up to the last [`Fs::sync`] of
//!   that file (the unsynced suffix is gone, or — under fault
//!   injection — torn at an arbitrary byte, and followed by
//!   [`DiskFs`]'s preallocated zeros);
//! * **directory entries** (creates, renames, removes) survive only
//!   once [`Fs::sync_dir`] runs; before that, a crash exposes the old
//!   directory, though a surviving entry always shows its file's
//!   synced content (fsync durability is per-inode).

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use isi_core::sync::MutexExt;

/// One flat directory of named files — the only I/O surface the
/// durability protocol uses. All names are relative (no separators).
pub trait Fs: Send + Sync {
    /// Append `data` to `name`, creating the file if absent.
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Create or replace `name` with exactly `data`.
    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()>;
    /// The full current content of `name`.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Make `name`'s content and the length needed to read it durable
    /// (a data sync: `fdatasync`, not `fsync`). A file whose space is
    /// preallocated may show zero bytes past that length after a
    /// crash.
    fn sync(&self, name: &str) -> io::Result<()>;
    /// Atomically rename `from` to `to`, replacing `to` if it exists.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
    /// Delete `name`.
    fn remove(&self, name: &str) -> io::Result<()>;
    /// All file names in the directory, sorted.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Make the directory's entries durable (fsync the directory).
    fn sync_dir(&self) -> io::Result<()>;
}

/// [`DiskFs`] grows an appended file in steps of this many bytes.
/// Within a step an append overwrites space the file already has, so
/// its data sync has no new length to commit.
const CHUNK: u64 = 1 << 20;

/// The handle [`DiskFs`] keeps on a file it appends to.
struct Appended {
    file: File,
    /// Held across a write: appends to one file are ordered by it.
    ends: Mutex<Ends>,
}

struct Ends {
    /// Bytes appended: what [`Fs::read`] returns.
    len: u64,
    /// The file's length on disk, `len` or more; past `len` it is
    /// zeros.
    alloc: u64,
}

/// [`Fs`] over a real directory. `sync` and `sync_dir` issue actual
/// data syncs and directory fsyncs, so the crash-ordering protocol
/// holds on disk, not just in the model.
///
/// A file that is appended to keeps one open handle and grows in
/// 1 MiB chunks of zeros that later appends overwrite. `read` returns
/// only what was appended, and a clean drop trims each such file to
/// that length and syncs it. A crash, or a second `DiskFs` on the
/// same directory, sees the zeros.
pub struct DiskFs {
    root: PathBuf,
    /// Never held across a write or a sync: two shards' WALs do not
    /// wait on each other here.
    appended: Mutex<HashMap<String, Arc<Appended>>>,
}

impl DiskFs {
    /// Open `root`, creating the directory (and parents) if needed.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self::at(root))
    }

    /// Open an existing store directory (recovery entry point).
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("store directory {} does not exist", root.display()),
            ));
        }
        Ok(Self::at(root))
    }

    fn at(root: PathBuf) -> Self {
        Self {
            root,
            appended: Mutex::new(HashMap::new()),
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        debug_assert!(
            !name.contains('/') && !name.contains('\\'),
            "flat namespace only: {name}"
        );
        self.root.join(name)
    }

    /// The kept handle on `name`, if it was appended to.
    fn kept(&self, name: &str) -> Option<Arc<Appended>> {
        self.appended.plock("disk fs handles").get(name).cloned()
    }

    /// The kept handle on `name`, opening the file (created if absent)
    /// on its first append.
    fn kept_or_open(&self, name: &str) -> io::Result<Arc<Appended>> {
        if let Some(kept) = self.kept(name) {
            return Ok(kept);
        }
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.path(name))?;
        let len = file.metadata()?.len();
        let opened = Arc::new(Appended {
            file,
            ends: Mutex::new(Ends { len, alloc: len }),
        });
        let mut handles = self.appended.plock("disk fs handles");
        Ok(Arc::clone(
            handles.entry(name.to_string()).or_insert(opened),
        ))
    }

    /// Stop keeping a handle on `name`: its file is about to be
    /// replaced, removed or renamed.
    fn forget(&self, name: &str) -> Option<Arc<Appended>> {
        self.appended.plock("disk fs handles").remove(name)
    }
}

impl Fs for DiskFs {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let kept = self.kept_or_open(name)?;
        let mut ends = kept.ends.plock("disk fs file ends");
        let end = ends.len + data.len() as u64;
        if end > ends.alloc {
            let alloc = end.next_multiple_of(CHUNK);
            kept.file.set_len(alloc)?;
            ends.alloc = alloc;
        }
        let mut file = &kept.file;
        file.seek(SeekFrom::Start(ends.len))?;
        file.write_all(data)?;
        ends.len = end;
        Ok(())
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.forget(name);
        std::fs::write(self.path(name), data)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let Some(kept) = self.kept(name) else {
            return std::fs::read(self.path(name));
        };
        let ends = kept.ends.plock("disk fs file ends");
        let len = usize::try_from(ends.len).expect("an appended file fits in memory");
        let mut bytes = vec![0; len];
        let mut file = &kept.file;
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut bytes)?;
        Ok(bytes)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        match self.kept(name) {
            Some(kept) => kept.file.sync_data(),
            None => File::open(self.path(name))?.sync_data(),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        if let Some(kept) = self.forget(from) {
            // The file keeps its content under the new name, not its
            // preallocated zeros.
            let len = kept.ends.plock("disk fs file ends").len;
            kept.file.set_len(len)?;
        }
        self.forget(to);
        std::fs::rename(self.path(from), self.path(to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.forget(name);
        std::fs::remove_file(self.path(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    fn sync_dir(&self) -> io::Result<()> {
        std::fs::File::open(&self.root)?.sync_all()
    }
}

impl Drop for DiskFs {
    /// A clean close leaves every appended file at its exact length,
    /// durably. Best effort: errors are ignored, and recovery cuts the
    /// zeros of a file this did not reach.
    fn drop(&mut self) {
        let handles = self
            .appended
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for kept in handles.values() {
            if let Ok(ends) = kept.ends.try_lock() {
                let _ = kept.file.set_len(ends.len);
                let _ = kept.file.sync_data();
            }
        }
    }
}

/// One in-memory file: its live content and how much of it is synced.
struct FileBuf {
    data: Vec<u8>,
    /// Bytes of `data` made durable by the last [`Fs::sync`].
    synced: usize,
    /// Appended to since it was last written whole: on [`DiskFs`] the
    /// file has preallocated zeros past its content.
    appended: bool,
}

/// The zero bytes a crash view with `zero_tail` puts past an appended
/// file's surviving content: more than a test schedule's records, so a
/// torn length prefix can frame a record that runs into them.
const ZERO_TAIL: usize = 4096;

/// Files are identified by index so renames move *names*, not
/// content: a crash-surviving directory entry always resolves to its
/// inode's synced bytes, even if the live directory renamed it since.
struct MemInner {
    files: Vec<FileBuf>,
    /// The live directory: what [`Fs::read`]/[`Fs::list`] see.
    live: BTreeMap<String, usize>,
    /// The durable directory: entries as of the last [`Fs::sync_dir`].
    shadow: BTreeMap<String, usize>,
}

/// In-memory [`Fs`] with crash semantics (described at the top of
/// `fs.rs`): only synced bytes and synced directory entries survive a
/// crash.
pub struct MemFs {
    inner: Mutex<MemInner>,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// An empty in-memory directory.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(MemInner {
                files: Vec::new(),
                live: BTreeMap::new(),
                shadow: BTreeMap::new(),
            }),
        }
    }

    /// The store a crash right now would leave behind, as a fresh
    /// fully-durable `MemFs`: durable directory entries only, each
    /// file cut to its synced prefix plus `keep_eighths/8` of its
    /// unsynced suffix (a torn append). With `flip_bit`, the last
    /// surviving torn byte gets one bit flipped (media corruption in
    /// the torn region). With `zero_tail`, each file that was appended
    /// to ends in [`ZERO_TAIL`] zero bytes past that, as [`DiskFs`]'s
    /// preallocated chunk shows after a crash.
    pub(crate) fn crash_view(&self, keep_eighths: u8, flip_bit: bool, zero_tail: bool) -> MemFs {
        let inner = self.inner.plock("memfs state");
        let mut files = Vec::new();
        let mut names = BTreeMap::new();
        for (name, &id) in &inner.shadow {
            let f = &inner.files[id];
            let mut data = f.data[..f.synced].to_vec();
            let unsynced = f.data.len() - f.synced;
            let keep = unsynced * usize::from(keep_eighths.min(8)) / 8;
            data.extend_from_slice(&f.data[f.synced..f.synced + keep]);
            if flip_bit && keep > 0 {
                let last = data.len() - 1;
                data[last] ^= 1;
            }
            if zero_tail && f.appended {
                data.resize(data.len() + ZERO_TAIL, 0);
            }
            let new_id = files.len();
            files.push(FileBuf {
                synced: data.len(),
                data,
                appended: false,
            });
            names.insert(name.clone(), new_id);
        }
        MemFs {
            inner: Mutex::new(MemInner {
                files,
                live: names.clone(),
                shadow: names,
            }),
        }
    }
}

fn not_found(name: &str) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
}

impl Fs for MemFs {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.plock("memfs state");
        let id = match inner.live.get(name) {
            Some(&id) => id,
            None => {
                let id = inner.files.len();
                inner.files.push(FileBuf {
                    data: Vec::new(),
                    synced: 0,
                    appended: false,
                });
                inner.live.insert(name.to_string(), id);
                id
            }
        };
        let file = &mut inner.files[id];
        file.data.extend_from_slice(data);
        file.appended = true;
        Ok(())
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.plock("memfs state");
        match inner.live.get(name) {
            Some(&id) => {
                // In-place truncate-and-rewrite: the old content is
                // no longer guaranteed durable, and the new content
                // is not durable until the next sync.
                inner.files[id] = FileBuf {
                    data: data.to_vec(),
                    synced: 0,
                    appended: false,
                };
            }
            None => {
                let id = inner.files.len();
                inner.files.push(FileBuf {
                    data: data.to_vec(),
                    synced: 0,
                    appended: false,
                });
                inner.live.insert(name.to_string(), id);
            }
        }
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let inner = self.inner.plock("memfs state");
        match inner.live.get(name) {
            Some(&id) => Ok(inner.files[id].data.clone()),
            None => Err(not_found(name)),
        }
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        let mut inner = self.inner.plock("memfs state");
        match inner.live.get(name) {
            Some(&id) => {
                inner.files[id].synced = inner.files[id].data.len();
                Ok(())
            }
            None => Err(not_found(name)),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut inner = self.inner.plock("memfs state");
        match inner.live.remove(from) {
            Some(id) => {
                inner.live.insert(to.to_string(), id);
                Ok(())
            }
            None => Err(not_found(from)),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut inner = self.inner.plock("memfs state");
        match inner.live.remove(name) {
            Some(_) => Ok(()),
            None => Err(not_found(name)),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let inner = self.inner.plock("memfs state");
        Ok(inner.live.keys().cloned().collect())
    }

    fn sync_dir(&self) -> io::Result<()> {
        let mut inner = self.inner.plock("memfs state");
        inner.shadow = inner.live.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crashed(fs: &MemFs) -> Vec<(String, Vec<u8>)> {
        let view = fs.crash_view(0, false, false);
        let names = view.list().unwrap();
        names
            .into_iter()
            .map(|n| {
                let data = view.read(&n).unwrap();
                (n, data)
            })
            .collect()
    }

    #[test]
    fn append_read_roundtrip_and_listing() {
        let fs = MemFs::new();
        fs.append("a", b"hel").unwrap();
        fs.append("a", b"lo").unwrap();
        fs.write_all("b", b"xyz").unwrap();
        assert_eq!(fs.read("a").unwrap(), b"hello");
        assert_eq!(fs.read("b").unwrap(), b"xyz");
        assert_eq!(fs.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        assert!(fs.read("missing").is_err());
        assert!(fs.remove("missing").is_err());
        assert!(fs.rename("missing", "x").is_err());
    }

    #[test]
    fn unsynced_content_does_not_survive_a_crash() {
        let fs = MemFs::new();
        fs.append("wal", b"durable").unwrap();
        fs.sync("wal").unwrap();
        fs.sync_dir().unwrap();
        fs.append("wal", b"-lost").unwrap();
        assert_eq!(fs.read("wal").unwrap(), b"durable-lost");
        assert_eq!(crashed(&fs), vec![("wal".to_string(), b"durable".to_vec())]);
    }

    #[test]
    fn unsyncdired_entries_do_not_survive_a_crash() {
        let fs = MemFs::new();
        fs.write_all("tmp", b"snapshot").unwrap();
        fs.sync("tmp").unwrap();
        // Content is synced but the directory entry is not.
        assert_eq!(crashed(&fs), vec![]);
        fs.sync_dir().unwrap();
        assert_eq!(
            crashed(&fs),
            vec![("tmp".to_string(), b"snapshot".to_vec())]
        );
    }

    #[test]
    fn rename_before_sync_dir_exposes_the_old_name_with_synced_content() {
        let fs = MemFs::new();
        fs.write_all("old", b"v1").unwrap();
        fs.sync("old").unwrap();
        fs.sync_dir().unwrap();
        fs.rename("old", "new").unwrap();
        // The rename is not durable yet: a crash shows "old".
        assert_eq!(crashed(&fs), vec![("old".to_string(), b"v1".to_vec())]);
        fs.sync_dir().unwrap();
        assert_eq!(crashed(&fs), vec![("new".to_string(), b"v1".to_vec())]);
    }

    #[test]
    fn rename_over_existing_replaces_it_once_durable() {
        let fs = MemFs::new();
        fs.write_all("wal", b"old-wal").unwrap();
        fs.sync("wal").unwrap();
        fs.sync_dir().unwrap();
        fs.write_all("wal.tmp", b"new-wal").unwrap();
        fs.sync("wal.tmp").unwrap();
        fs.rename("wal.tmp", "wal").unwrap();
        // Crash before sync_dir: the old WAL survives.
        assert_eq!(crashed(&fs), vec![("wal".to_string(), b"old-wal".to_vec())]);
        fs.sync_dir().unwrap();
        assert_eq!(crashed(&fs), vec![("wal".to_string(), b"new-wal".to_vec())]);
        assert_eq!(fs.read("wal").unwrap(), b"new-wal");
        assert!(fs.read("wal.tmp").is_err());
    }

    #[test]
    fn torn_tail_keeps_a_prefix_of_the_unsynced_suffix() {
        let fs = MemFs::new();
        fs.append("wal", b"SYNCED::").unwrap();
        fs.sync("wal").unwrap();
        fs.sync_dir().unwrap();
        fs.append("wal", b"ABCDEFGH").unwrap(); // 8 unsynced bytes
        let half = fs.crash_view(4, false, false);
        assert_eq!(half.read("wal").unwrap(), b"SYNCED::ABCD");
        let full = fs.crash_view(8, false, false);
        assert_eq!(full.read("wal").unwrap(), b"SYNCED::ABCDEFGH");
        let flipped = fs.crash_view(8, true, false);
        assert_eq!(flipped.read("wal").unwrap(), b"SYNCED::ABCDEFGI");
        // The synced prefix is never touched by tearing.
        let none = fs.crash_view(0, true, false);
        assert_eq!(none.read("wal").unwrap(), b"SYNCED::");
    }

    #[test]
    fn a_zero_tail_follows_the_surviving_bytes_of_appended_files_only() {
        let fs = MemFs::new();
        fs.append("wal", b"SYNCED::").unwrap();
        fs.sync("wal").unwrap();
        fs.write_all("snap", b"whole").unwrap();
        fs.sync("snap").unwrap();
        fs.sync_dir().unwrap();
        fs.append("wal", b"ABCDEFGH").unwrap();
        let view = fs.crash_view(4, true, true);
        let zeros = [0u8; ZERO_TAIL];
        assert_eq!(
            view.read("wal").unwrap(),
            [&b"SYNCED::ABCE"[..], &zeros].concat()
        );
        assert_eq!(view.read("snap").unwrap(), b"whole");
        // Written whole again, the WAL loses its preallocation.
        fs.write_all("wal", b"").unwrap();
        fs.sync("wal").unwrap();
        assert_eq!(fs.crash_view(8, false, true).read("wal").unwrap(), b"");
    }

    /// A fresh directory for one [`DiskFs`] test (tests run in
    /// parallel, so each has its own).
    fn temp_root(test: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("isi-durable-fs-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn disk_len(root: &std::path::Path, name: &str) -> u64 {
        std::fs::metadata(root.join(name)).unwrap().len()
    }

    #[test]
    fn disk_fs_roundtrip_in_a_temp_dir() {
        let root = temp_root("roundtrip");
        let fs = DiskFs::create(&root).unwrap();
        fs.append("wal", b"one").unwrap();
        fs.append("wal", b"two").unwrap();
        fs.sync("wal").unwrap();
        fs.write_all("snap.tmp", b"pairs").unwrap();
        fs.sync("snap.tmp").unwrap();
        fs.rename("snap.tmp", "snap.1").unwrap();
        fs.sync_dir().unwrap();
        assert_eq!(fs.read("wal").unwrap(), b"onetwo");
        assert_eq!(fs.read("snap.1").unwrap(), b"pairs");
        assert_eq!(
            fs.list().unwrap(),
            vec!["snap.1".to_string(), "wal".to_string()]
        );
        // A second `DiskFs` would see the first one's preallocated
        // zeros; dropped, the first leaves the WAL at its exact length.
        drop(fs);
        assert_eq!(disk_len(&root, "wal"), 6);
        let reopened = DiskFs::open(&root).unwrap();
        assert_eq!(reopened.read("wal").unwrap(), b"onetwo");
        reopened.remove("wal").unwrap();
        assert_eq!(reopened.list().unwrap(), vec!["snap.1".to_string()]);
        assert!(DiskFs::open(root.join("nope")).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn disk_fs_reads_what_was_appended_not_the_preallocated_zeros() {
        let root = temp_root("prealloc");
        let fs = DiskFs::create(&root).unwrap();
        fs.append("wal", b"abc").unwrap();
        assert_eq!(disk_len(&root, "wal"), CHUNK);
        assert_eq!(fs.read("wal").unwrap(), b"abc");
        // An append that crosses the chunk grows the file by another.
        let big = vec![7u8; CHUNK as usize];
        fs.append("wal", &big).unwrap();
        fs.sync("wal").unwrap();
        assert_eq!(disk_len(&root, "wal"), 2 * CHUNK);
        let read = fs.read("wal").unwrap();
        assert_eq!(read.len(), 3 + big.len());
        assert!(read.starts_with(b"abc") && read[3..] == big[..]);
        // Renamed, an appended file keeps its content, not its zeros.
        fs.append("moved", b"xy").unwrap();
        fs.rename("moved", "kept").unwrap();
        assert_eq!(disk_len(&root, "kept"), 2);
        assert_eq!(fs.read("kept").unwrap(), b"xy");
        drop(fs);
        assert_eq!(disk_len(&root, "wal"), 3 + CHUNK);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn disk_fs_appends_to_the_file_a_rename_put_over_an_open_wal() {
        let root = temp_root("rename");
        let fs = DiskFs::create(&root).unwrap();
        fs.append("wal", b"old-records").unwrap();
        fs.sync("wal").unwrap();
        fs.write_all("wal.tmp", b"new").unwrap();
        fs.sync("wal.tmp").unwrap();
        fs.rename("wal.tmp", "wal").unwrap();
        fs.sync_dir().unwrap();
        fs.append("wal", b"+more").unwrap();
        assert_eq!(fs.read("wal").unwrap(), b"new+more");
        fs.sync("wal").unwrap();
        drop(fs);
        assert_eq!(std::fs::read(root.join("wal")).unwrap(), b"new+more");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The WAL protocol on a real directory: a clean drop needs no
    /// repair; a crash (the handle leaked, never trimmed) leaves zeros
    /// that recovery cuts, and the next append follows the last valid
    /// record.
    #[test]
    fn disk_fs_recovery_cuts_a_crashed_wal_back_to_its_records() {
        use crate::wal::{decode_wal, encode_record, init_store, recover_shard, wal_name};
        let root = temp_root("recover");
        let wal = wal_name(0);
        let records: Vec<Vec<u8>> = (1..=3)
            .map(|seq| encode_record(seq, &[(seq, Some(seq * 10))]))
            .collect();
        let fs = DiskFs::create(&root).unwrap();
        init_store(&fs, &[2], &[(1, 1), (2, 2)], |_| 0).unwrap();
        fs.append(&wal, &records[0]).unwrap();
        fs.sync(&wal).unwrap();
        drop(fs);
        assert_eq!(disk_len(&root, &wal), records[0].len() as u64);
        let fs = DiskFs::open(&root).unwrap();
        let clean = recover_shard(&fs, 0).unwrap();
        assert!(!clean.repaired);
        assert_eq!(clean.next_seq, 1);

        fs.append(&wal, &records[1]).unwrap();
        fs.sync(&wal).unwrap();
        std::mem::forget(fs);
        assert_eq!(disk_len(&root, &wal), CHUNK);
        let fs = DiskFs::open(&root).unwrap();
        let crashed = recover_shard(&fs, 0).unwrap();
        assert!(crashed.repaired);
        assert_eq!((crashed.tail.len(), crashed.next_seq), (2, 2));
        let cut = records[..2].concat();
        assert_eq!(fs.read(&wal).unwrap(), cut);

        fs.append(&wal, &records[2]).unwrap();
        fs.sync(&wal).unwrap();
        drop(fs);
        let bytes = std::fs::read(root.join(&wal)).unwrap();
        assert_eq!(bytes, records.concat());
        let decoded = decode_wal(&bytes);
        assert!(decoded.clean);
        assert_eq!(decoded.records.len(), 3);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
