//! The traced run: a fixed prefix of the workload's calls, replayed at
//! each layer's public boundary, one boundary lower each time.
//!
//! This change may not instrument the program, so a request's child
//! spans come from replaying the same keys below the boundary that
//! served it: the service row times `get_many`/`get`/`put`; the rows
//! under it run single-threaded on shard 0 with exactly the key
//! sub-sequences shard 0's dispatcher received. Every row reads an
//! eviction buffer first, so all start equally cold and adjacent rows
//! subtract: `*.self_ns_per_key` is a row minus the row below it.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use isi_columnstore::{execute_in, Column};
use isi_core::mem::DirectMem;
use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;
use isi_csb::{bulk_lookup_interleaved, bulk_lookup_seq, CsbShard, DirectTreeStore};
use isi_durable::{wal, DiskFs, Fs};
use isi_hash::{bulk_probe_interleaved, bulk_probe_seq, HashShard};
use isi_obs::Stage;
use isi_search::coro::bulk_rank_coro;
use isi_search::par::bulk_rank_coro_par;
use isi_search::seq::bulk_rank_branchfree;
use isi_search::SortedShard;
use isi_serve::{
    Backend, BatchPlan, LookupScratch, LookupService, ServeConfig, ShardedStore, WriteScratch,
};

use crate::context::{self, quote};
use crate::gen::{self, Op, Oracle, Rng};
use crate::run::{recover_and_check, Client, Latencies, Outcome};
use crate::workload::{Call, Scale, TempDir, Workload, SHARDS};

/// Every per-layer metric a traced run emits, with its unit and the
/// direction that is better — the `per_layer` list of `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str, &str); 42] = [
    ("search.seq_ns_per_key", "ns", "lower"),
    ("search.coro_ns_per_key", "ns", "lower"),
    ("csb.seq_ns_per_key", "ns", "lower"),
    ("csb.coro_ns_per_key", "ns", "lower"),
    ("hash.seq_ns_per_key", "ns", "lower"),
    ("hash.coro_ns_per_key", "ns", "lower"),
    ("columnstore.in_seq_ns_per_value", "ns", "lower"),
    ("columnstore.in_coro_ns_per_value", "ns", "lower"),
    ("par.ns_per_key", "ns", "lower"),
    ("par.self_ns_per_key", "ns", "lower"),
    ("par.switches_per_key", "count", "lower"),
    ("par.peak_in_flight", "count", "higher"),
    ("backend.probe_ns_per_key", "ns", "lower"),
    ("backend.self_ns_per_key", "ns", "lower"),
    ("plan.resolve_ns_per_key", "ns", "lower"),
    ("store.lookup_ns_per_key", "ns", "lower"),
    ("store.self_ns_per_key", "ns", "lower"),
    ("store.delta_hit_frac", "ratio", "higher"),
    ("store.write_ns_per_op", "ns", "lower"),
    ("store.merges", "count", "lower"),
    ("store.writes_per_merge", "count", "higher"),
    ("store.merge_mean_ms", "ms", "lower"),
    ("store.compactions", "count", "lower"),
    ("store.peak_rss_mib", "MiB", "lower"),
    ("service.ns_per_key", "ns", "lower"),
    ("service.self_ns_per_key", "ns", "lower"),
    ("service.get_ns", "ns", "lower"),
    ("service.admission_wait_frac", "ratio", "lower"),
    ("service.engine_frac", "ratio", "higher"),
    ("service.full_flush_frac", "ratio", "higher"),
    ("service.mean_batch_keys", "count", "higher"),
    ("service.cache_hit_frac", "ratio", "higher"),
    ("service.read_p99_us", "us", "lower"),
    ("service.write_p50_us", "us", "lower"),
    ("service.write_p99_us", "us", "lower"),
    ("durable.encode_ns_per_op", "ns", "lower"),
    ("durable.append_sync_us", "us", "lower"),
    ("durable.wal_records", "count", "lower"),
    ("durable.syncs_per_record", "ratio", "lower"),
    ("durable.dir_bytes_per_live_byte", "ratio", "lower"),
    ("durable.recover_s", "s", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
];

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// The client call both belong to.
    req: usize,
}

/// Spans are kept in memory and written when the run ends.
struct Tracer {
    anchor: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        took: Duration,
        parent: Option<usize>,
        req: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a span; returns its nanoseconds.
    fn time(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        f: impl FnOnce(),
    ) -> u64 {
        let start_ns = self.now();
        let t = Instant::now();
        f();
        let took = t.elapsed();
        self.push(name, start_ns, took, parent, req);
        took.as_nanos() as u64
    }

    fn write(&self, path: &Path, context: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"context\": {{{context}}},\n \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                f,
                "  {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}{comma}",
                quote(s.name),
                s.start_ns,
                s.end_ns,
                s.req
            )?;
        }
        writeln!(f, " ]}}")?;
        f.flush()
    }
}

/// Reads a buffer larger than the last-level cache, so the next row
/// finds none of the previous row's lines.
struct Evictor(Vec<u64>);

impl Evictor {
    fn new(bytes: usize) -> Self {
        Self(vec![1; bytes / 8])
    }

    fn evict(&self) {
        black_box(self.0.iter().fold(0u64, |a, &x| a.wrapping_add(x)));
    }
}

/// One pass of traced calls through the service.
struct ServiceRow {
    wall_ns: u64,
    /// Σ over calls of keys per shard the call touches: the divisor
    /// that makes the service row comparable to the one-shard rows.
    shard_keys: f64,
    read_calls: u64,
    read_ns: u64,
    lat: Latencies,
    /// `(call, its span)`, for the rows below to name as parent.
    spans: Vec<(usize, usize)>,
}

impl ServiceRow {
    fn ns_per_key(&self) -> f64 {
        self.wall_ns as f64 / self.shard_keys
    }
}

/// Issue the `w.trace_calls` calls from `from` on, one span each.
fn service_row(
    tr: &mut Tracer,
    client: &mut Client,
    svc: &LookupService,
    w: &Workload,
    from: usize,
) -> ServiceRow {
    let mut row = ServiceRow {
        wall_ns: 0,
        shard_keys: 0.0,
        read_calls: 0,
        read_ns: 0,
        lat: Latencies::default(),
        spans: Vec::with_capacity(w.trace_calls),
    };
    for i in from..from + w.trace_calls {
        let call = w.stream.call(i);
        let start_ns = tr.now();
        let (latency, keys) = client.issue(svc, call);
        let ns = latency.as_nanos() as u64;
        let name = match call {
            Call::Many(_) => "service.get_many",
            Call::One(Op::Get(_)) => "service.get",
            Call::One(Op::Put(..)) => "service.put",
            Call::One(Op::Remove(_)) => "service.remove",
        };
        row.spans
            .push((i, tr.push(name, start_ns, latency, None, i)));
        row.wall_ns += ns;
        row.shard_keys += match call {
            Call::Many(_) => keys as f64 / SHARDS as f64,
            Call::One(_) => 1.0,
        };
        if !matches!(call, Call::One(op) if op.is_write()) {
            row.read_calls += 1;
            row.read_ns += ns;
        }
        row.lat.record(call, latency);
    }
    row
}

/// The store's own counters. They run from the build on, so a row's
/// share is the difference of two readings.
#[derive(Clone, Copy)]
struct StoreCounters {
    engine_ns: u64,
    merges: u64,
    merge_ns: u64,
    compactions: u64,
    wal_records: u64,
    wal_syncs: u64,
}

impl StoreCounters {
    /// Read after waiting out queued merges, so counts do not depend
    /// on how far the merger happened to be.
    fn read(store: &ShardedStore) -> Self {
        store.quiesce();
        let (wal_records, wal_syncs) = store.wal_stats();
        Self {
            engine_ns: (0..store.num_shards())
                .map(|s| store.obs().stage_hist(s, Stage::Engine).sum())
                .sum(),
            merges: store.merges(),
            merge_ns: store.merge_latency().sum(),
            compactions: store.compactions(),
            wal_records,
            wal_syncs,
        }
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            engine_ns: self.engine_ns - earlier.engine_ns,
            merges: self.merges - earlier.merges,
            merge_ns: self.merge_ns - earlier.merge_ns,
            compactions: self.compactions - earlier.compactions,
            wal_records: self.wal_records - earlier.wal_records,
            wal_syncs: self.wal_syncs - earlier.wal_syncs,
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One traced read call's keys on shard 0.
struct Slice {
    call: usize,
    /// The service span that served the call.
    parent: usize,
    keys: Vec<u64>,
}

/// What every row below the service shares.
struct Ladder {
    tr: Tracer,
    evictor: Evictor,
    slices: Vec<Slice>,
    /// Keys over all slices.
    keys: usize,
    out: Outcome,
    /// Metrics measured so far.
    m: Vec<(&'static str, f64)>,
}

/// Passes over the slices per ladder row. A row is a fraction of a
/// second, short enough to sit inside one of the machine's slow
/// bursts; the fastest of three passes rarely does, and adjacent rows
/// only subtract when neither did.
const ROW_PASSES: u64 = 3;

impl Ladder {
    /// Time `probe` on every slice, `ROW_PASSES` times over and each
    /// time from cold caches, and check every output with `ok`;
    /// returns nanoseconds per key of the fastest pass. Whatever
    /// `probe` counts, it counts `ROW_PASSES` times.
    fn row<T: Clone + Default>(
        &mut self,
        name: &'static str,
        mut probe: impl FnMut(&[u64], &mut [T]),
        mut ok: impl FnMut(u64, &T) -> bool,
    ) -> f64 {
        let mut best = u64::MAX;
        let mut buf: Vec<T> = Vec::new();
        for _ in 0..ROW_PASSES {
            self.evictor.evict();
            let mut total = 0u64;
            for slice in &self.slices {
                buf.clear();
                buf.resize(slice.keys.len(), T::default());
                total += self.tr.time(name, Some(slice.parent), slice.call, || {
                    probe(&slice.keys, &mut buf)
                });
                self.out.attempted += slice.keys.len() as u64;
                for (&k, r) in slice.keys.iter().zip(&buf) {
                    self.out.failed += u64::from(!ok(k, r));
                }
            }
            best = best.min(total);
        }
        best as f64 / self.keys as f64
    }

    /// Time `f` on each of `items`, from cold caches, in spans of their
    /// own; returns the total nanoseconds.
    fn each<I>(
        &mut self,
        name: &'static str,
        items: impl IntoIterator<Item = I>,
        mut f: impl FnMut(I, &mut Outcome),
    ) -> f64 {
        self.evictor.evict();
        let mut total = 0u64;
        for (i, item) in items.into_iter().enumerate() {
            let out = &mut self.out;
            total += self.tr.time(name, None, i, || f(item, out));
        }
        total as f64
    }
}

/// The service rows: warm-up, the traced calls with the program's
/// defaults, then the next calls with its event tracing on. Returns
/// the first pass and pushes every `service.*`, `obs.*` and counted
/// `store.*`/`durable.*` metric.
fn service_rows(
    w: &Workload,
    store: &Arc<ShardedStore>,
    wal_dir: Option<&Path>,
    tr: &mut Tracer,
    client: &mut Client,
    m: &mut Vec<(&'static str, f64)>,
) -> ServiceRow {
    let cfg = ServeConfig::default();
    // Warm-up on a service of its own, so the measured service's
    // counters cover the traced calls only.
    let svc = LookupService::start(Arc::clone(store), cfg);
    for i in 0..w.trace_warmup {
        client.issue(&svc, w.stream.call(i));
    }
    drop(svc);

    let before = StoreCounters::read(store);
    let svc = LookupService::start(Arc::clone(store), cfg);
    let plain = service_row(tr, client, &svc, w, w.trace_warmup);
    let counted = StoreCounters::read(store).since(before);
    let stats = svc.stats();
    let admission_ns: u64 = (0..SHARDS)
        .map(|s| svc.obs().stage_hist(s, Stage::AdmissionWait).sum())
        .sum();
    // Before anything else is allocated: set-up plus serving.
    m.push(("store.peak_rss_mib", context::peak_rss_mib()));
    drop(svc);

    let svc = LookupService::start(
        Arc::clone(store),
        ServeConfig {
            trace_events: 1 << 14,
            ..cfg
        },
    );
    let traced = service_row(tr, client, &svc, w, w.trace_warmup + w.trace_calls);
    drop(svc);
    store.quiesce();

    let entry_ns = stats.latency.sum() as f64;
    let writes = (stats.puts + stats.removes) as f64;
    let reads = (stats.gets + stats.many_keys) as f64;
    m.extend([
        ("service.ns_per_key", plain.ns_per_key()),
        (
            "service.get_ns",
            ratio(plain.read_ns as f64, plain.read_calls as f64),
        ),
        (
            "service.admission_wait_frac",
            ratio(admission_ns as f64, entry_ns),
        ),
        (
            "service.engine_frac",
            ratio(counted.engine_ns as f64, entry_ns),
        ),
        (
            "service.full_flush_frac",
            ratio(stats.full_flushes as f64, stats.batches as f64),
        ),
        (
            "service.mean_batch_keys",
            ratio(reads + writes, stats.batches as f64),
        ),
        (
            "service.cache_hit_frac",
            ratio(
                stats.cache_hits as f64,
                (stats.gets + stats.cache_hits) as f64,
            ),
        ),
        ("service.read_p99_us", plain.lat.read.quantile(0.99) / 1e3),
        ("service.write_p50_us", plain.lat.write.quantile(0.5) / 1e3),
        ("service.write_p99_us", plain.lat.write.quantile(0.99) / 1e3),
        (
            "obs.trace_overhead_frac",
            traced.ns_per_key() / plain.ns_per_key() - 1.0,
        ),
        ("store.merges", counted.merges as f64),
        (
            "store.writes_per_merge",
            ratio(writes, counted.merges as f64),
        ),
        (
            "store.merge_mean_ms",
            ratio(counted.merge_ns as f64, counted.merges as f64) / 1e6,
        ),
        ("store.compactions", counted.compactions as f64),
        ("durable.wal_records", counted.wal_records as f64),
        (
            "durable.syncs_per_record",
            ratio(counted.wal_syncs as f64, counted.wal_records as f64),
        ),
        (
            "durable.dir_bytes_per_live_byte",
            wal_dir.map_or(0.0, |d| {
                ratio(dir_bytes(d) as f64, store.len() as f64 * 16.0)
            }),
        ),
    ]);
    plain
}

/// Backend, engine and kernel rows over shard 0's pairs, each index
/// built, measured and dropped in turn; then the self times.
fn read_rows(l: &mut Ladder, w: &Workload, shard0: &[(u64, u64)], store_ns: f64, service_ns: f64) {
    let cfg = ServeConfig::default();
    let group = cfg.policy.group_or_one();
    let base = |k: u64| w.ds.lookup(k);
    let value_ok = |k: u64, v: &Option<u64>| *v == base(k);

    let backend = w.backend.build_shard(shard0);
    let mut ranks = Vec::new();
    let backend_ns = l.row(
        "backend.probe_batch",
        |keys, vals| {
            backend.probe_batch(keys, cfg.policy, cfg.par, &mut ranks, vals);
        },
        value_ok,
    );
    drop(backend);

    let sorted = SortedShard::build(shard0);
    let column = sorted.keys();
    let mem = DirectMem::new(column);
    let rank_ok = |k: u64, r: &u32| (column[*r as usize] == k) == base(k).is_some();
    let mut engine = RunStats::default();
    let par_ns = l.row(
        "par.bulk_rank_coro_par",
        |keys, ranks| {
            engine.merge(&bulk_rank_coro_par(
                mem,
                keys,
                group,
                ParConfig::with_threads(1),
                ranks,
            ))
        },
        rank_ok,
    );
    let coro_ns = l.row(
        "search.bulk_rank_coro",
        |keys, ranks| {
            bulk_rank_coro(mem, keys, group, ranks);
        },
        rank_ok,
    );
    let seq_ns = l.row(
        "search.bulk_rank_branchfree",
        |keys, ranks| bulk_rank_branchfree(&mem, keys, ranks),
        rank_ok,
    );
    drop(sorted);

    let csb = CsbShard::build(shard0);
    let tree = DirectTreeStore::new(csb.tree());
    let csb_coro_ns = l.row(
        "csb.bulk_lookup_interleaved",
        |keys, vals| {
            bulk_lookup_interleaved(tree, keys, group, vals);
        },
        value_ok,
    );
    let csb_seq_ns = l.row(
        "csb.bulk_lookup_seq",
        |keys, vals| {
            bulk_lookup_seq(tree, keys, vals);
        },
        value_ok,
    );
    drop(csb);

    let hash = HashShard::build(shard0);
    let hash_coro_ns = l.row(
        "hash.bulk_probe_interleaved",
        |keys, vals| {
            bulk_probe_interleaved(hash.table(), keys, group, vals);
        },
        value_ok,
    );
    let hash_seq_ns = l.row(
        "hash.bulk_probe_seq",
        |keys, vals| {
            bulk_probe_seq(hash.table(), keys, vals);
        },
        value_ok,
    );
    drop(hash);

    // Self time: a row minus the row one boundary lower.
    let below_backend = match w.backend {
        Backend::Sorted => par_ns,
        Backend::Csb => csb_coro_ns,
        Backend::Hash => hash_coro_ns,
    };
    l.m.extend([
        ("backend.probe_ns_per_key", backend_ns),
        ("par.ns_per_key", par_ns),
        (
            "par.switches_per_key",
            (engine.switches / ROW_PASSES) as f64 / l.keys as f64,
        ),
        ("par.peak_in_flight", engine.peak_in_flight as f64),
        ("search.coro_ns_per_key", coro_ns),
        ("search.seq_ns_per_key", seq_ns),
        ("csb.coro_ns_per_key", csb_coro_ns),
        ("csb.seq_ns_per_key", csb_seq_ns),
        ("hash.coro_ns_per_key", hash_coro_ns),
        ("hash.seq_ns_per_key", hash_seq_ns),
        ("par.self_ns_per_key", par_ns - coro_ns),
        ("backend.self_ns_per_key", backend_ns - below_backend),
        ("store.self_ns_per_key", store_ns - backend_ns),
        ("service.self_ns_per_key", service_ns - store_ns),
    ]);
}

/// The paper's IN-predicate over a main-only column of shard 0's keys:
/// a few IN-lists only, since each also scans the code vector.
fn columnstore_rows(l: &mut Ladder, w: &Workload, shard0: &[(u64, u64)]) {
    let group = ServeConfig::default().policy.group_or_one();
    let all: Vec<u64> = l
        .slices
        .iter()
        .flat_map(|s| s.keys.iter().copied())
        .collect();
    let lists: Vec<&[u64]> = all.chunks(4096).take(4).collect();
    let values: usize = lists.iter().map(|list| list.len()).sum();
    let keys: Vec<u64> = shard0.iter().map(|p| p.0).collect();
    let col = Column::<u64>::from_rows(&keys);
    for (name, span, mode) in [
        (
            "columnstore.in_coro_ns_per_value",
            "columnstore.execute_in.coro",
            Interleave::Interleaved(group),
        ),
        (
            "columnstore.in_seq_ns_per_value",
            "columnstore.execute_in.seq",
            Interleave::Sequential,
        ),
    ] {
        let total = l.each(span, &lists, |list, out| {
            let matches = execute_in(&col, list, mode).1.main_matches;
            let mut stored: Vec<u64> = list
                .iter()
                .copied()
                .filter(|&k| w.ds.lookup(k).is_some())
                .collect();
            stored.sort_unstable();
            stored.dedup();
            out.attempted += 1;
            out.failed += u64::from(matches != stored.len());
        });
        l.m.push((name, total / values as f64));
    }
}

/// Write-side rows on inputs of their own: 64-op write runs, the unit
/// the dispatcher hands the store and the WAL.
fn write_rows(l: &mut Ladder, w: &Workload, seed: u64, out_dir: &Path) {
    let writes: Vec<(u64, Option<u64>)> = gen::mixed_ops(&w.ds, 1 << 15, &mut Rng::new(!seed))
        .into_iter()
        .filter_map(|op| match op {
            Op::Put(k, v) => Some((k, Some(v))),
            Op::Remove(k) => Some((k, None)),
            Op::Get(_) => None,
        })
        .take(8192)
        .collect();
    let runs: Vec<&[(u64, Option<u64>)]> = writes.chunks(64).collect();

    // The plan stage: the traced read slices against a delta of 8 runs.
    let delta: Vec<Vec<(u64, Option<u64>)>> = runs
        .iter()
        .take(8)
        .map(|run| {
            let mut run = run.to_vec();
            run.sort_by_key(|e| e.0);
            run.dedup_by_key(|e| e.0);
            run
        })
        .collect();
    let mut plan = BatchPlan::default();
    let mut decided = 0;
    let plan_ns = l.row::<()>(
        "plan.resolve",
        |keys, _| {
            plan.resolve(&delta, keys);
            decided += plan.delta_hits() + plan.residual();
        },
        |_, _| true,
    );
    l.out.failed += u64::from(decided != ROW_PASSES * l.keys as u64);
    l.m.push(("plan.resolve_ns_per_key", plan_ns));

    // The store's write path on a fresh store without a WAL.
    let fresh = ShardedStore::build(w.backend, SHARDS, &w.ds.pairs());
    let mut model = Oracle::new(w.ds);
    let (mut prevs, mut scratch) = (Vec::new(), WriteScratch::default());
    let write_ns = l.each("store.apply_write_run", &runs, |run, out| {
        fresh.apply_write_run_with(run, &mut prevs, &mut scratch);
        for (&(k, v), &prev) in run.iter().zip(&prevs) {
            let want = match v {
                Some(v) => model.put(k, v),
                None => model.remove(k),
            };
            out.attempted += 1;
            out.failed += u64::from(prev != want);
        }
    });
    drop(fresh);
    l.m.push(("store.write_ns_per_op", write_ns / writes.len() as f64));

    let mut seq = 0;
    let encode_ns = l.each("durable.encode_record", &runs, |run, _| {
        seq += 1;
        black_box(wal::encode_record(seq, black_box(run)));
    });
    l.m.push(("durable.encode_ns_per_op", encode_ns / writes.len() as f64));

    let dir = TempDir::create(out_dir, "walprobe").expect("create WAL probe dir");
    let fs = DiskFs::create(dir.path()).expect("open WAL probe dir");
    let records: Vec<Vec<u8>> = runs
        .iter()
        .take(64)
        .map(|run| wal::encode_record(0, run))
        .collect();
    let sync_ns = l.each("durable.append_sync", &records, |record, _| {
        fs.append("probe.wal", record).expect("append to WAL probe");
        fs.sync("probe.wal").expect("sync WAL probe");
    });
    l.m.push((
        "durable.append_sync_us",
        sync_ns / records.len() as f64 / 1e3,
    ));
    l.out.notes.push(format!(
        "wal_fs {} ({})",
        context::fs_type(dir.path()),
        dir.path().display()
    ));
}

/// The traced run of `w`: every per-layer metric.
pub fn run(w: &Workload, scale: &Scale, seed: u64, out_dir: &Path) -> Outcome {
    let mut tr = Tracer {
        anchor: Instant::now(),
        spans: Vec::new(),
    };
    let mut m = Vec::new();
    let wal = w
        .durable
        .then(|| TempDir::create(out_dir, &format!("wal-{}", w.name)).expect("create WAL dir"));
    let wal_dir = wal.as_ref().map(TempDir::path);
    let store = Arc::new(w.build_store(wal_dir));
    let mut client = Client::new(Oracle::new(w.ds));
    let plain = service_rows(w, &store, wal_dir, &mut tr, &mut client, &mut m);

    // Shard 0's share of the first pass's read calls.
    let slices: Vec<Slice> = plain
        .spans
        .iter()
        .filter_map(|&(call, parent)| {
            let keys: Vec<u64> = match w.stream.call(call) {
                Call::Many(keys) => keys
                    .iter()
                    .copied()
                    .filter(|&k| store.shard_of(k) == 0)
                    .collect(),
                Call::One(Op::Get(k)) if store.shard_of(k) == 0 => vec![k],
                Call::One(_) => Vec::new(),
            };
            (!keys.is_empty()).then_some(Slice { call, parent, keys })
        })
        .collect();
    assert!(!slices.is_empty(), "no traced read reached shard 0");
    let shard0: Vec<(u64, u64)> = (0..w.ds.len())
        .map(|i| w.ds.key(i))
        .filter(|&k| store.shard_of(k) == 0)
        .map(|k| (k, w.ds.value(k)))
        .collect();
    let mut l = Ladder {
        tr,
        // Allocated only now: `store.peak_rss_mib` is already sampled.
        evictor: Evictor::new(scale.evict_bytes),
        keys: slices.iter().map(|s| s.keys.len()).sum(),
        slices,
        out: Outcome {
            attempted: client.attempted,
            failed: client.failed,
            ..Outcome::default()
        },
        m,
    };
    let oracle = client.oracle;

    // Store row: the live store, delta overlay included.
    let cfg = ServeConfig::default();
    let mut scratch = LookupScratch::default();
    let mut delta_hits = 0u64;
    let store_ns = l.row(
        "store.lookup_batch",
        |keys, vals| {
            delta_hits += store
                .lookup_batch(0, keys, cfg.policy, cfg.par, &mut scratch, vals)
                .delta_hits;
        },
        |k, v| *v == oracle.get(k),
    );
    l.m.push(("store.lookup_ns_per_key", store_ns));
    l.m.push((
        "store.delta_hit_frac",
        (delta_hits / ROW_PASSES) as f64 / l.keys as f64,
    ));

    // The store is done: recover the durable one from its directory
    // alone and read every acknowledged write back.
    drop(store);
    let recover_s = wal_dir.map_or(0.0, |dir| {
        recover_and_check(w, dir, &oracle, &mut l.out).as_secs_f64()
    });
    l.m.push(("durable.recover_s", recover_s));
    drop(wal);

    read_rows(&mut l, w, &shard0, store_ns, plain.ns_per_key());
    columnstore_rows(&mut l, w, &shard0);
    drop(shard0);
    write_rows(&mut l, w, seed, out_dir);

    let Ladder {
        tr,
        keys,
        mut out,
        m,
        ..
    } = l;
    let span_file = out_dir.join(format!("trace-{}-{seed}.json", w.name));
    let ctx = format!(
        "{}, \"workload\": {}, \"seed\": {seed}",
        context::machine_json(),
        quote(w.name)
    );
    tr.write(&span_file, &ctx).expect("write span file");
    out.notes.push(format!(
        "{} spans in {}",
        tr.spans.len(),
        span_file.display()
    ));
    out.notes.push(format!(
        "service row: {} calls ({keys} read keys on shard 0), reads {} / writes {} \
         (a p99 has ten samples beyond it from 1000 calls up)",
        w.trace_calls,
        plain.lat.read.count(),
        plain.lat.write.count(),
    ));
    out.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = m
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} not measured"))
                .1;
            (name, value, unit)
        })
        .collect();
    out
}
