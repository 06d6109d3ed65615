//! The file-system seam: an object-safe [`Fs`] trait over one flat
//! directory of named files, with a real implementation ([`DiskFs`])
//! and an in-memory crash-semantics model ([`MemFs`]).
//!
//! The durability protocol only ever needs eight operations —
//! append, whole-file write, read, fsync, rename, remove, list, and
//! directory fsync — all on names relative to one store directory.
//! Keeping the trait this small is what makes the fault-injection
//! wrapper ([`crate::FaultFs`]) able to intercept *every* point in
//! the protocol.
//!
//! [`MemFs`] models what POSIX guarantees survives a crash, not what
//! usually survives one:
//!
//! * file **content** survives only up to the last [`Fs::sync`] of
//!   that file (the unsynced suffix is gone, or — under fault
//!   injection — torn at an arbitrary byte);
//! * **directory entries** (creates, renames, removes) survive only
//!   once [`Fs::sync_dir`] runs; before that, a crash exposes the old
//!   directory, though a surviving entry always shows its file's
//!   synced content (fsync durability is per-inode).

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

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
    /// Make `name`'s content durable (fsync).
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

/// [`Fs`] over a real directory. `sync` and `sync_dir` issue actual
/// `fsync`s, so the crash-ordering protocol holds on disk, not just
/// in the model.
pub struct DiskFs {
    root: PathBuf,
}

impl DiskFs {
    /// Open `root`, creating the directory (and parents) if needed.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
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
        Ok(Self { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        debug_assert!(
            !name.contains('/') && !name.contains('\\'),
            "flat namespace only: {name}"
        );
        self.root.join(name)
    }
}

impl Fs for DiskFs {
    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        std::fs::write(self.path(name), data)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        std::fs::File::open(self.path(name))?.sync_all()
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
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

/// One in-memory file: its live content and how much of it is synced.
struct FileBuf {
    data: Vec<u8>,
    /// Bytes of `data` made durable by the last [`Fs::sync`].
    synced: usize,
}

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
    /// the torn region).
    pub(crate) fn crash_view(&self, keep_eighths: u8, flip_bit: bool) -> MemFs {
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
            let new_id = files.len();
            files.push(FileBuf {
                synced: data.len(),
                data,
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
                });
                inner.live.insert(name.to_string(), id);
                id
            }
        };
        inner.files[id].data.extend_from_slice(data);
        Ok(())
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.plock("memfs state");
        match inner.live.get(name) {
            Some(&id) => {
                // In-place truncate-and-rewrite: the old content is
                // no longer guaranteed durable, and the new content
                // is not durable until the next sync.
                inner.files[id].data = data.to_vec();
                inner.files[id].synced = 0;
            }
            None => {
                let id = inner.files.len();
                inner.files.push(FileBuf {
                    data: data.to_vec(),
                    synced: 0,
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
        let view = fs.crash_view(0, false);
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
        let half = fs.crash_view(4, false);
        assert_eq!(half.read("wal").unwrap(), b"SYNCED::ABCD");
        let full = fs.crash_view(8, false);
        assert_eq!(full.read("wal").unwrap(), b"SYNCED::ABCDEFGH");
        let flipped = fs.crash_view(8, true);
        assert_eq!(flipped.read("wal").unwrap(), b"SYNCED::ABCDEFGI");
        // The synced prefix is never touched by tearing.
        let none = fs.crash_view(0, true);
        assert_eq!(none.read("wal").unwrap(), b"SYNCED::");
    }

    #[test]
    fn disk_fs_roundtrip_in_a_temp_dir() {
        let root = std::env::temp_dir().join(format!("isi-durable-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
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
        let reopened = DiskFs::open(&root).unwrap();
        assert_eq!(reopened.read("wal").unwrap(), b"onetwo");
        reopened.remove("wal").unwrap();
        assert_eq!(reopened.list().unwrap(), vec!["snap.1".to_string()]);
        assert!(DiskFs::open(root.join("nope")).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
