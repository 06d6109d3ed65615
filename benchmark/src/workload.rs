//! The four workloads: what each stores, how it calls the service, and
//! why it is in the benchmark.

use std::path::{Path, PathBuf};

use isi_serve::{Backend, FsyncMode, ShardedStore, StoreConfig};

use crate::gen::{self, Dataset, Op, Rng};

/// Always two shards: the box has two cores and the service runs one
/// dispatcher per shard.
pub const SHARDS: usize = 2;
/// Keys per `get_many` call.
const BATCH: usize = 8192;

/// Name and reason of every workload (the reasons are also the `why`
/// lines of `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "join_cold",
        "index join as a client sees it: get_many of 8192 uniform keys on 2^24 sorted pairs; memory stalls dominate, so kernel, interleaving and engine changes must show here",
    ),
    (
        "join_hot",
        "same store, API and batch as join_cold but keys from a 2048-key hot set: stalls vanish, service overhead dominates; a kernel change predicts no change, a cost on cached lookups shows as a loss",
    ),
    (
        "serve_point",
        "single-key get, Zipf 0.99 over 2^24 pairs on the CSB+-tree: one key per batch, so admission, flush timer and tickets are everything; admission or hot-cache changes can only show here",
    ),
    (
        "serve_mixed",
        "single-key 50% get / 40% put / 10% remove over 2^22 pairs, merge threshold 512, group-commit WAL: a read gain that costs writes, delta overlay, merges or the WAL shows here",
    ),
];

/// Sizes of one run. `full` is what `BENCHMARK.json` measures; `smoke`
/// runs the same code in a second or two for the test suite.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// log2 pairs of the out-of-cache store (`D16`).
    pub big_log2: u32,
    /// log2 pairs of the merging store (`D4`): small enough that the
    /// merger completes many cycles per shard in one run.
    pub small_log2: u32,
    /// Rounds per untraced run, each a full set-up and the windows
    /// below; `setup_s` is the median over the rounds.
    pub rounds: usize,
    /// Measured windows per round.
    pub windows: usize,
    /// Unrecorded windows before them in every round: a fresh store's
    /// pages and the caches fill during its first second, and the
    /// merging store runs about 7 % faster until its delta has filled
    /// and its merges have started to cycle.
    pub warmup_windows: usize,
    /// Calls a traced run replays: joins, `serve_point`, `serve_mixed`.
    pub trace_calls: [usize; 3],
    /// Calls a traced run issues first, unrecorded, on a service of
    /// their own: the traced prefix is short, and would otherwise lie
    /// entirely inside the fresh store's slow first second.
    pub trace_warmup: [usize; 3],
    /// Bytes read between traced rows so each starts with cold caches.
    pub evict_bytes: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        big_log2: 24,
        small_log2: 22,
        rounds: 5,
        windows: 8,
        warmup_windows: 3,
        trace_calls: [64, 2048, 4096],
        trace_warmup: [768, 2048, 2048],
        evict_bytes: 320 << 20,
    };

    pub const SMOKE: Scale = Scale {
        big_log2: 16,
        small_log2: 16,
        rounds: 2,
        windows: 1,
        warmup_windows: 1,
        trace_calls: [8, 128, 512],
        trace_warmup: [8, 32, 32],
        evict_bytes: 8 << 20,
    };
}

/// One client call.
#[derive(Debug, Clone, Copy)]
pub enum Call<'a> {
    Many(&'a [u64]),
    One(Op),
}

/// The pre-generated requests of a workload; calls wrap around.
pub enum Stream {
    Batches { keys: Vec<u64>, batch: usize },
    Ops(Vec<Op>),
}

impl Stream {
    fn calls(&self) -> usize {
        match self {
            Stream::Batches { keys, batch } => keys.len() / batch,
            Stream::Ops(ops) => ops.len(),
        }
    }

    /// Call number `i` (modulo the stream length).
    pub fn call(&self, i: usize) -> Call<'_> {
        let i = i % self.calls();
        match self {
            Stream::Batches { keys, batch } => Call::Many(&keys[i * batch..(i + 1) * batch]),
            Stream::Ops(ops) => Call::One(ops[i]),
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub ds: Dataset,
    pub backend: Backend,
    /// Whether the store logs to a WAL (and is recovered at teardown).
    pub durable: bool,
    pub stream: Stream,
    /// Calls the traced run replays, after `trace_warmup` unrecorded ones.
    pub trace_calls: usize,
    pub trace_warmup: usize,
}

impl Workload {
    /// The workload called `name` with inputs from `seed`, or `None`
    /// for an unknown name.
    pub fn new(name: &str, seed: u64, scale: &Scale) -> Option<Self> {
        let name = WORKLOADS.iter().find(|(n, _)| *n == name)?.0;
        let big = Dataset::new(1 << scale.big_log2);
        let mut rng = Rng::new(seed);
        // Stream lengths are fixed, not scaled to the run: memory must
        // not depend on how fast a commit is. 2^22 cold keys touch far
        // more search paths than any cache holds before they repeat.
        let batches = |keys| Stream::Batches { keys, batch: BATCH };
        Some(match name {
            "join_cold" => Workload {
                name,
                ds: big,
                backend: Backend::Sorted,
                durable: false,
                stream: batches(gen::uniform_keys(&big, 1 << 22, &mut rng)),
                trace_calls: scale.trace_calls[0],
                trace_warmup: scale.trace_warmup[0],
            },
            "join_hot" => Workload {
                name,
                ds: big,
                backend: Backend::Sorted,
                durable: false,
                stream: batches(gen::hot_keys(&big, 2048, 1 << 22, &mut rng)),
                trace_calls: scale.trace_calls[0],
                trace_warmup: scale.trace_warmup[0],
            },
            "serve_point" => Workload {
                name,
                ds: big,
                backend: Backend::Csb,
                durable: false,
                stream: Stream::Ops(
                    gen::zipf_keys(&big, 1 << 20, 0.99, seed)
                        .into_iter()
                        .map(Op::Get)
                        .collect(),
                ),
                trace_calls: scale.trace_calls[1],
                trace_warmup: scale.trace_warmup[1],
            },
            "serve_mixed" => {
                let small = Dataset::new(1 << scale.small_log2);
                Workload {
                    name,
                    ds: small,
                    backend: Backend::Csb,
                    durable: true,
                    stream: Stream::Ops(gen::mixed_ops(&small, 1 << 20, &mut rng)),
                    trace_calls: scale.trace_calls[2],
                    trace_warmup: scale.trace_warmup[2],
                }
            }
            _ => unreachable!("name is one of WORKLOADS"),
        })
    }

    /// Store configuration of the durable workload, for building and
    /// for recovering.
    pub fn durable_cfg(dir: &Path) -> StoreConfig {
        StoreConfig::with_threshold(512).durable(dir, FsyncMode::Group)
    }

    /// One full store build: generate the pairs, partition, sort, build
    /// every shard's index (and, when durable, initialise `wal_dir`).
    pub fn build_store(&self, wal_dir: Option<&Path>) -> ShardedStore {
        let pairs = self.ds.pairs();
        match wal_dir {
            Some(dir) => {
                ShardedStore::build_with(self.backend, SHARDS, &pairs, Self::durable_cfg(dir))
            }
            None => ShardedStore::build(self.backend, SHARDS, &pairs),
        }
    }
}

/// A directory that is removed when the guard drops, also on panic.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `<parent>/<name>-<pid>` (removing any leftover).
    pub fn create(parent: &Path, name: &str) -> std::io::Result<Self> {
        let path = parent.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_panic() {
        let parent = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let dir = TempDir::create(parent, "guard-drop").expect("create");
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("shard-0000.wal"), b"x").expect("write");
        drop(dir);
        assert!(!path.exists());

        let seen = std::sync::Mutex::new(None);
        let caught = std::panic::catch_unwind(|| {
            let dir = TempDir::create(parent, "guard-panic").expect("create");
            *seen.lock().expect("unpoisoned") = Some(dir.path().to_path_buf());
            panic!("mid-run failure");
        });
        assert!(caught.is_err());
        let path = seen
            .into_inner()
            .expect("unpoisoned")
            .expect("dir was created");
        assert!(!path.exists());
    }

    #[test]
    fn every_workload_builds_and_wraps_its_stream() {
        for (name, _) in WORKLOADS {
            let w = Workload::new(name, 1, &Scale::SMOKE).expect("known name");
            let calls = w.stream.calls();
            assert!(
                calls >= w.trace_warmup + 2 * w.trace_calls,
                "{name}: {calls} calls"
            );
            match (w.stream.call(0), w.stream.call(calls)) {
                (Call::Many(a), Call::Many(b)) => assert_eq!(a, b, "{name}"),
                (Call::One(a), Call::One(b)) => assert_eq!(a, b, "{name}"),
                _ => panic!("{name}: call shape changes on wrap"),
            }
        }
        assert!(Workload::new("nope", 1, &Scale::SMOKE).is_none());
    }
}
