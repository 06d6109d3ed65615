//! The `serve` sweep: load-tests the admission-batched lookup service
//! over {backend × shard count × batch policy × load mode} and writes
//! a machine-readable `BENCH_serve.json` (schema `isi-serve/v2`).
//!
//! Two load modes per cell:
//!
//! * **closed** — each client thread issues its next request the
//!   moment the previous one returns; measures the service's
//!   saturation throughput under the policy.
//! * **open** — each client issues on a fixed schedule (total target
//!   rate split across clients), sleeping until the next slot when
//!   ahead and issuing immediately when behind (paced open loop,
//!   bounded by client concurrency); measures latency at a fixed
//!   offered load, where most requests find their shard idle and run
//!   on the caller.
//!
//! Latency quantiles come from the service's own log-bucketed
//! [`LatencyHist`](isi_core::stats::LatencyHist) (admission →
//! response), so the document records the queueing cost of batching,
//! not just engine time.
//!
//! A second, **mixed read/write** sweep (`--mixed`, schema
//! `isi-serve-mixed/v8`) drives closed-loop clients whose operation
//! streams contain a configurable write fraction (puts + removes) and
//! range-scan fraction (`get_range` over a fixed key span) against a
//! writable store, with merges on the background merger thread by
//! default (`bg_merge`, toggleable to foreground for A/B runs). The
//! sweep has a **merge-threshold axis** (`merge_thresholds`): the
//! run-stack delta keeps write cost O(run log run) regardless of how
//! many entries the delta holds, so a large threshold (rare merges,
//! deep delta) should cost write throughput almost nothing — the
//! axis is the regression sentinel for that claim. Cells record merge
//! counts and latency, background-merge counts, published delta runs
//! and stack compactions, residual delta size, plan-stage delta hits
//! and residual fraction, and hot-key-cache hits alongside the usual
//! throughput/latency columns.
//! With the observability layer on (`--obs`) each cell additionally
//! captures the service's per-shard per-stage latency breakdown
//! ([`LookupService::stage_breakdown`]), the end-to-end latency sum
//! (so the verifier can cross-check that request-path stage time never
//! exceeds it) and a chrome://tracing export of the cell's event
//! rings.

use std::time::{Duration, Instant};

use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_serve::{
    Backend, BatchPolicy, FsyncMode, LookupService, ServeConfig, ShardedStore, Stage, StoreConfig,
};
use isi_workloads::uniform_indices;

use crate::json::{self, num, obj, str, Json};

/// Schema tag written into (and required from) every result document
/// (defined in the [`crate::schema`] registry).
pub use crate::schema::SERVE as SCHEMA;

/// The two load modes, in sweep order.
pub const MODES: [&str; 2] = ["closed", "open"];

/// One admission-queue batch policy of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicySpec {
    /// Most queued requests one batch takes.
    pub max_batch: usize,
}

impl PolicySpec {
    fn to_batch_policy(self) -> BatchPolicy {
        BatchPolicy {
            max_batch: self.max_batch,
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct ServeBenchCfg {
    /// Backends to sweep.
    pub backends: Vec<Backend>,
    /// Shard counts to sweep (powers of two).
    pub shard_counts: Vec<usize>,
    /// Batch policies to sweep.
    pub policies: Vec<PolicySpec>,
    /// Key/value pairs in the store (keys are `0, 2, 4, ...`).
    pub store_keys: usize,
    /// Concurrent client threads per cell.
    pub clients: usize,
    /// Requests each client issues per cell.
    pub requests_per_client: usize,
    /// Total offered arrival rate for open-loop cells (req/s).
    pub open_rate_rps: f64,
    /// Interleave group size for dispatched batches.
    pub group: usize,
    /// Per-shard admission-queue bound.
    pub queue_cap: usize,
}

impl ServeBenchCfg {
    /// Full sweep: a 1M-pair store, all backends, shards {1, 2, 4},
    /// three batch limits from small to large.
    pub fn full() -> Self {
        Self {
            backends: Backend::ALL.to_vec(),
            shard_counts: vec![1, 2, 4],
            policies: vec![
                PolicySpec { max_batch: 8 },
                PolicySpec { max_batch: 64 },
                PolicySpec { max_batch: 256 },
            ],
            store_keys: 1 << 20,
            clients: 8,
            requests_per_client: 2_000,
            open_rate_rps: 20_000.0,
            group: 6,
            queue_cap: 1024,
        }
    }

    /// Smoke sweep for CI: tiny store and request counts — seconds,
    /// not minutes — but the same cell grid shape as the full sweep.
    pub fn smoke() -> Self {
        Self {
            backends: Backend::ALL.to_vec(),
            shard_counts: vec![1, 2],
            policies: vec![PolicySpec { max_batch: 16 }],
            store_keys: 1 << 12,
            clients: 4,
            requests_per_client: 256,
            open_rate_rps: 50_000.0,
            group: 6,
            queue_cap: 256,
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Load mode (one of [`MODES`]).
    pub mode: &'static str,
    /// Store backend.
    pub backend: Backend,
    /// Shard count.
    pub shards: usize,
    /// Batch policy used.
    pub policy: PolicySpec,
    /// Requests answered (clients × requests_per_client).
    pub requests: u64,
    /// Requests that found their key.
    pub hits: u64,
    /// Wall time of the whole cell, nanoseconds.
    pub elapsed_ns: f64,
    /// Answered requests per second.
    pub throughput_rps: f64,
    /// Latency quantiles (admission → response), nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile latency.
    pub p95_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch: f64,
    /// Batches cut at `max_batch` entries.
    pub full_flushes: u64,
    /// Batches executed by a submitting thread (the rest ran on a
    /// shard's helper).
    pub caller_runs: u64,
}

/// Build the store for one (backend, shards) point: `store_keys`
/// pairs with keys `0, 2, 4, ...` so half the probe space misses.
fn build_store(backend: Backend, shards: usize, store_keys: usize) -> ShardedStore {
    let pairs: Vec<(u64, u64)> = (0..store_keys as u64).map(|i| (i * 2, i)).collect();
    ShardedStore::build(backend, shards, &pairs)
}

/// Deterministic per-client probe list over `[0, 2·store_keys)` —
/// uniform mix of hits and misses, distinct stream per client.
fn client_probes(store_keys: usize, count: usize, client: usize) -> Vec<u64> {
    uniform_indices(store_keys * 2, count, client as u64 + 1)
        .into_iter()
        .map(|i| i as u64)
        .collect()
}

/// Run one cell: spin up a fresh service, drive it with `clients`
/// threads in the given mode, and read the service's own metrics.
pub fn measure_cell(
    mode: &'static str,
    store: &std::sync::Arc<ShardedStore>,
    policy: PolicySpec,
    cfg: &ServeBenchCfg,
) -> ServeCell {
    let backend = store.backend();
    let shards = store.num_shards();
    let svc = LookupService::start(
        std::sync::Arc::clone(store),
        ServeConfig {
            policy: Interleave::from_group(cfg.group),
            batch: policy.to_batch_policy(),
            queue_cap: cfg.queue_cap,
            par: ParConfig::with_threads(1),
            hot_cache_slots: 0,
            trace_events: 0,
        },
    );
    // Open-loop pacing: the total offered rate split across clients.
    let interval = Duration::from_secs_f64(cfg.clients as f64 / cfg.open_rate_rps.max(1.0));
    let t0 = Instant::now();
    let hits: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let svc = &svc;
                let probes = client_probes(cfg.store_keys, cfg.requests_per_client, c);
                scope.spawn(move || {
                    let start = Instant::now();
                    let mut hits = 0u64;
                    for (i, &key) in probes.iter().enumerate() {
                        if mode == "open" {
                            let due = start + interval * i as u32;
                            let now = Instant::now();
                            if now < due {
                                std::thread::sleep(due - now);
                            }
                        }
                        hits += svc.get(key).is_some() as u64;
                    }
                    hits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    let stats = svc.stats();
    ServeCell {
        mode,
        backend,
        shards,
        policy,
        requests: stats.requests,
        hits,
        elapsed_ns,
        throughput_rps: stats.requests as f64 / (elapsed_ns * 1e-9),
        p50_ns: stats.latency.p50(),
        p95_ns: stats.latency.p95(),
        p99_ns: stats.latency.p99(),
        mean_ns: stats.latency.mean(),
        batches: stats.batches,
        mean_batch: stats.mean_batch(),
        full_flushes: stats.full_flushes,
        caller_runs: stats.caller_runs,
    }
}

/// Run the whole sweep. `progress` receives one line per finished
/// cell (pass `|_| {}` to silence).
pub fn run_sweep(cfg: &ServeBenchCfg, mut progress: impl FnMut(&ServeCell)) -> Vec<ServeCell> {
    let mut cells = Vec::new();
    for &backend in &cfg.backends {
        for &shards in &cfg.shard_counts {
            // The store depends only on (backend, shards): build it
            // once and share it across every policy x mode cell.
            let store = std::sync::Arc::new(build_store(backend, shards, cfg.store_keys));
            for &policy in &cfg.policies {
                for mode in MODES {
                    let cell = measure_cell(mode, &store, policy, cfg);
                    progress(&cell);
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// Serialize a finished sweep to the `isi-serve/v2` document.
pub fn to_json(cfg: &ServeBenchCfg, cells: &[ServeCell]) -> Json {
    let results: Vec<Json> = cells
        .iter()
        .map(|c| {
            obj(vec![
                ("mode", str(c.mode)),
                ("backend", str(c.backend.name())),
                ("shards", num(c.shards as f64)),
                ("max_batch", num(c.policy.max_batch as f64)),
                ("requests", num(c.requests as f64)),
                ("hits", num(c.hits as f64)),
                ("elapsed_ns", num(c.elapsed_ns.round())),
                ("throughput_rps", num(c.throughput_rps.round())),
                ("p50_ns", num(c.p50_ns as f64)),
                ("p95_ns", num(c.p95_ns as f64)),
                ("p99_ns", num(c.p99_ns as f64)),
                ("mean_ns", num(c.mean_ns.round())),
                ("batches", num(c.batches as f64)),
                ("mean_batch", num((c.mean_batch * 100.0).round() / 100.0)),
                ("full_flushes", num(c.full_flushes as f64)),
                ("caller_runs", num(c.caller_runs as f64)),
            ])
        })
        .collect();
    obj(vec![
        ("schema", str(SCHEMA)),
        (
            "machine",
            obj(vec![
                (
                    "available_parallelism",
                    num(std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1) as f64),
                ),
                ("arch", str(std::env::consts::ARCH)),
                ("os", str(std::env::consts::OS)),
            ]),
        ),
        (
            "config",
            obj(vec![
                (
                    "backends",
                    Json::Arr(cfg.backends.iter().map(|b| str(b.name())).collect()),
                ),
                (
                    "shard_counts",
                    Json::Arr(cfg.shard_counts.iter().map(|&s| num(s as f64)).collect()),
                ),
                (
                    "policies",
                    Json::Arr(
                        cfg.policies
                            .iter()
                            .map(|p| obj(vec![("max_batch", num(p.max_batch as f64))]))
                            .collect(),
                    ),
                ),
                ("modes", Json::Arr(MODES.map(str).to_vec())),
                ("store_keys", num(cfg.store_keys as f64)),
                ("clients", num(cfg.clients as f64)),
                ("requests_per_client", num(cfg.requests_per_client as f64)),
                ("open_rate_rps", num(cfg.open_rate_rps)),
                ("group", num(cfg.group as f64)),
                ("queue_cap", num(cfg.queue_cap as f64)),
            ]),
        ),
        ("results", Json::Arr(results)),
    ])
}

/// Validate a result document: schema tag, and exactly one cell with
/// positive throughput, full request coverage, coherent batch
/// counters (`full_flushes ≤ batches`, `caller_runs ≤ batches`) and
/// monotone latency quantiles for every `mode × backend × shard count
/// × policy` combination the document's own config declares. Used by
/// the CI smoke job and by the binary's self-check after a sweep.
pub fn verify(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema tag is not {SCHEMA:?}"));
    }
    let config = doc.get("config").ok_or("missing config")?;
    let backends: Vec<&str> = config
        .get("backends")
        .and_then(Json::as_arr)
        .ok_or("missing config.backends")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    for b in &backends {
        if Backend::from_name(b).is_none() {
            return Err(format!("unknown backend {b:?} in config"));
        }
    }
    let shard_counts: Vec<usize> = config
        .get("shard_counts")
        .and_then(Json::as_arr)
        .ok_or("missing config.shard_counts")?
        .iter()
        .map(|v| v.as_usize().ok_or("non-integer shard count"))
        .collect::<Result<_, _>>()?;
    let policies: Vec<usize> = config
        .get("policies")
        .and_then(Json::as_arr)
        .ok_or("missing config.policies")?
        .iter()
        .map(|p| {
            p.get("max_batch")
                .and_then(Json::as_usize)
                .ok_or("policy missing max_batch")
        })
        .collect::<Result<_, _>>()?;
    let modes: Vec<&str> = config
        .get("modes")
        .and_then(Json::as_arr)
        .ok_or("missing config.modes")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    if backends.is_empty() || shard_counts.is_empty() || policies.is_empty() || modes.is_empty() {
        return Err("empty sweep axes".into());
    }
    for required in MODES {
        if !modes.contains(&required) {
            return Err(format!("mode {required:?} missing from sweep"));
        }
    }
    let expected_requests = config
        .get("clients")
        .and_then(Json::as_usize)
        .ok_or("missing config.clients")?
        * config
            .get("requests_per_client")
            .and_then(Json::as_usize)
            .ok_or("missing config.requests_per_client")?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results")?;
    for &m in &modes {
        for &b in &backends {
            for &s in &shard_counts {
                for &batch in &policies {
                    let matching: Vec<&Json> = results
                        .iter()
                        .filter(|c| {
                            c.get("mode").and_then(Json::as_str) == Some(m)
                                && c.get("backend").and_then(Json::as_str) == Some(b)
                                && c.get("shards").and_then(Json::as_usize) == Some(s)
                                && c.get("max_batch").and_then(Json::as_usize) == Some(batch)
                        })
                        .collect();
                    let cell_name = format!("{m}/{b}/shards={s}/batch={batch}");
                    if matching.len() != 1 {
                        return Err(format!(
                            "expected exactly 1 cell for {cell_name}, found {}",
                            matching.len()
                        ));
                    }
                    let cell = matching[0];
                    let rate = cell
                        .get("throughput_rps")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    if !(rate.is_finite() && rate > 0.0) {
                        return Err(format!("non-positive throughput for {cell_name}"));
                    }
                    if cell.get("requests").and_then(Json::as_usize) != Some(expected_requests) {
                        return Err(format!(
                            "cell {cell_name} did not answer all {expected_requests} requests"
                        ));
                    }
                    let q = |key: &str| cell.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
                    let batches = q("batches");
                    for bounded in ["full_flushes", "caller_runs"] {
                        if !(0.0..=batches).contains(&q(bounded)) {
                            return Err(format!(
                                "cell {cell_name}: {bounded} ({}) outside [0, batches = {batches}]",
                                q(bounded)
                            ));
                        }
                    }
                    let (p50, p95, p99) = (q("p50_ns"), q("p95_ns"), q("p99_ns"));
                    if !(0.0 <= p50 && p50 <= p95 && p95 <= p99) {
                        return Err(format!(
                            "non-monotone latency quantiles for {cell_name}: \
                             p50={p50} p95={p95} p99={p99}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Parse and validate a result file's contents.
pub fn verify_text(text: &str) -> Result<(), String> {
    verify(&json::parse(text).map_err(|e| format!("JSON parse error: {e}"))?)
}

// ---------------------------------------------------------------------------
// Mixed read/write sweep
// ---------------------------------------------------------------------------

/// Schema tag of the mixed read/write sweep document (defined in the
/// [`crate::schema`] registry).
pub use crate::schema::SERVE_MIXED as MIXED_SCHEMA;

/// The default write fractions of the mixed sweep.
pub const WRITE_FRACTIONS: [f64; 4] = [0.0, 0.01, 0.10, 0.50];

/// Mixed-sweep configuration.
#[derive(Debug, Clone)]
pub struct MixedBenchCfg {
    /// Backends to sweep.
    pub backends: Vec<Backend>,
    /// Shard counts to sweep (powers of two).
    pub shard_counts: Vec<usize>,
    /// Fraction of operations that are writes (puts + removes).
    pub write_fractions: Vec<f64>,
    /// Key/value pairs seeded into the store (keys are `0, 2, 4, ...`).
    pub store_keys: usize,
    /// Concurrent closed-loop client threads per cell.
    pub clients: usize,
    /// Operations each client issues per cell.
    pub requests_per_client: usize,
    /// Fraction of operations that are range scans (`get_range`).
    pub range_fraction: f64,
    /// Key-space width of each range scan (`[key, key + range_span]`).
    pub range_span: u64,
    /// Run merges on the background merger thread (the default); off
    /// = foreground merges on the write path, for A/B comparison.
    pub bg_merge: bool,
    /// Write-ahead-log durability: on = every cell runs on a fresh
    /// WAL directory with group-commit fsyncs ([`FsyncMode::Group`]),
    /// merges publish snapshots, and the cell's teardown times a full
    /// crash recovery; off (the default) = the in-memory store of the
    /// original sweep.
    pub wal: bool,
    /// Observability capture (`--obs`): run every cell with the event
    /// trace rings enabled and record the per-shard per-stage latency
    /// breakdown, the end-to-end latency sum and a chrome://tracing
    /// export alongside the usual columns. Off (the default) leaves
    /// tracing disabled, which is the configuration the committed
    /// baseline's throughput numbers are measured in.
    pub obs: bool,
    /// Merge thresholds (per-shard delta entries that trigger a
    /// merge) to sweep: every cell grid point runs once per
    /// threshold. A large threshold stresses the deep-delta write
    /// path the run-stack exists for.
    pub merge_thresholds: Vec<usize>,
    /// Per-shard hot-key cache slots (0 disables).
    pub hot_cache_slots: usize,
    /// Flush policy for every cell.
    pub policy: PolicySpec,
    /// Interleave group size for dispatched batches.
    pub group: usize,
    /// Per-shard admission-queue bound.
    pub queue_cap: usize,
    /// Measurements per cell; the best-throughput run is recorded
    /// (standard best-of-N de-noising, so adjacent cells are each at
    /// their ceiling rather than at the mercy of one scheduler
    /// hiccup). Each repeat is a complete, fresh
    /// store + service run, so every recorded cell is internally
    /// coherent.
    pub repeat: usize,
}

impl MixedBenchCfg {
    /// Full sweep: a 256k-pair store, all backends, write fractions
    /// {0, 1%, 10%, 50%}, 5% range scans, background merges.
    pub fn full() -> Self {
        Self {
            backends: Backend::ALL.to_vec(),
            shard_counts: vec![2],
            write_fractions: WRITE_FRACTIONS.to_vec(),
            store_keys: 1 << 18,
            clients: 8,
            requests_per_client: 2_000,
            range_fraction: 0.05,
            range_span: 512,
            bg_merge: true,
            wal: false,
            obs: false,
            // 16k ops across 2 shards: at threshold 512, 1% writes
            // stay delta-resident, 10% merge about once per shard,
            // 50% merge repeatedly. Threshold 4096 barely merges at
            // all — the deep-delta cell whose write throughput the
            // run-stack keeps within a whisker of the shallow one.
            merge_thresholds: vec![512, 4096],
            hot_cache_slots: 64,
            policy: PolicySpec { max_batch: 64 },
            group: 6,
            queue_cap: 1024,
            repeat: 3,
        }
    }

    /// Smoke sweep for CI: tiny store, a read-only and a 10%-write
    /// cell, low merge threshold so (background) merges actually run,
    /// 10% range scans so the scan path is exercised.
    pub fn smoke() -> Self {
        Self {
            backends: Backend::ALL.to_vec(),
            shard_counts: vec![2],
            write_fractions: vec![0.0, 0.10],
            store_keys: 1 << 12,
            clients: 4,
            requests_per_client: 256,
            range_fraction: 0.10,
            range_span: 128,
            bg_merge: true,
            wal: false,
            obs: false,
            // ~10% of 1024 ops are writes across 2 shards: low enough
            // a threshold of 24 forces real merges in the smoke cell.
            merge_thresholds: vec![24],
            hot_cache_slots: 32,
            policy: PolicySpec { max_batch: 16 },
            group: 6,
            queue_cap: 256,
            repeat: 1,
        }
    }
}

/// One per-shard per-stage latency row of a cell's breakdown,
/// captured only with [`MixedBenchCfg::obs`] on. Every
/// [`Stage`] gets a row per shard, zero-count stages included, so the
/// document always names the full pipeline.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Shard the row describes.
    pub shard: usize,
    /// Stage name ([`Stage::name`], e.g. `"admission_wait"`).
    pub stage: &'static str,
    /// Spans recorded for this (shard, stage).
    pub count: u64,
    /// Total span time, nanoseconds.
    pub sum_ns: u64,
    /// Median span, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile span.
    pub p95_ns: u64,
    /// 99th percentile span.
    pub p99_ns: u64,
}

/// One measured cell of the mixed sweep.
#[derive(Debug, Clone)]
pub struct MixedCell {
    /// Store backend.
    pub backend: Backend,
    /// Shard count.
    pub shards: usize,
    /// Write fraction this cell targeted.
    pub write_fraction: f64,
    /// Merge threshold this cell ran with.
    pub merge_threshold: usize,
    /// Client operations issued (gets incl. cache hits + puts +
    /// removes + range scans).
    pub requests: u64,
    /// Reads issued.
    pub gets: u64,
    /// Upserts issued.
    pub puts: u64,
    /// Removes issued.
    pub removes: u64,
    /// Range scans issued (client calls, not per-shard entries).
    pub range_scans: u64,
    /// Reads answered by the hot-key cache without dispatch.
    pub cache_hits: u64,
    /// Dispatched read keys the plan stage decided from the delta.
    pub delta_hits: u64,
    /// Fraction of dispatched read keys that reached the engine.
    pub residual_frac: f64,
    /// Reads that found their key.
    pub hits: u64,
    /// Wall time of the whole cell, nanoseconds.
    pub elapsed_ns: f64,
    /// Operations per second.
    pub throughput_rps: f64,
    /// Latency quantiles (admission → response), nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile latency.
    pub p95_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean entries per dispatched batch.
    pub mean_batch: f64,
    /// Batches executed by a submitting thread (the rest ran on a
    /// shard's helper).
    pub caller_runs: u64,
    /// Delta-to-main merges during the cell.
    pub merges: u64,
    /// Merges performed by the background merger thread (= `merges`
    /// with `bg_merge` on, 0 with it off).
    pub bg_merges: u64,
    /// Immutable delta runs published by the write path (one per
    /// dispatched per-shard write sub-run; ≤ `puts + removes`).
    pub delta_runs: u64,
    /// Run-stack folds past `max_runs` (≤ `delta_runs`).
    pub compactions: u64,
    /// Median merge wall latency, nanoseconds (0 when no merge ran).
    pub merge_p50_ns: u64,
    /// Residual delta entries when the cell finished (post-quiesce).
    pub delta_keys: u64,
    /// WAL records appended (0 with `wal` off; one per dispatched
    /// write run under group commit).
    pub wal_records: u64,
    /// WAL fsyncs issued (≤ `wal_records` under group commit).
    pub wal_syncs: u64,
    /// Wall time of a full crash recovery from the cell's WAL
    /// directory after shutdown, nanoseconds (0 with `wal` off).
    pub recovery_ns: f64,
    /// End-to-end (admission → response) latency sum, nanoseconds —
    /// the denominator of the verifier's stage-coherence check.
    pub latency_sum_ns: u64,
    /// Per-shard per-stage breakdown (empty with `obs` off).
    pub stages: Vec<StageRow>,
    /// Events in the cell's chrome-trace export (0 with `obs` off).
    pub trace_events: u64,
    /// The cell's chrome://tracing JSON (empty with `obs` off). Kept
    /// out of the result document — the binary writes the last cell's
    /// export to `--trace-out`.
    pub trace_json: String,
}

/// Per-client deterministic op stream: `(key, roll)` where `roll` is
/// uniform in `[0, 1e6)`. The roll picks the op kind: below
/// `write_fraction * 1e6` it is a write (every 8th a remove), in the
/// next `range_fraction * 1e6` band a range scan, otherwise a get.
fn client_ops(cfg: &MixedBenchCfg, client: usize) -> Vec<(u64, u64)> {
    let keys = client_probes(cfg.store_keys, cfg.requests_per_client, client);
    let rolls = uniform_indices(
        1_000_000,
        cfg.requests_per_client,
        client as u64 + 0x5EED_0001,
    );
    keys.into_iter()
        .zip(rolls.into_iter().map(|r| r as u64))
        .collect()
}

/// Run one mixed cell: build a fresh writable store (each cell
/// mutates it), drive closed-loop clients with the cell's write and
/// range fractions, quiesce the merger, read the service's metrics.
pub fn measure_mixed_cell(
    backend: Backend,
    shards: usize,
    write_fraction: f64,
    merge_threshold: usize,
    cfg: &MixedBenchCfg,
) -> MixedCell {
    let pairs: Vec<(u64, u64)> = (0..cfg.store_keys as u64).map(|i| (i * 2, i)).collect();
    let mut store_cfg = StoreConfig::with_threshold(merge_threshold);
    if !cfg.bg_merge {
        store_cfg = store_cfg.foreground();
    }
    let wal_dir = cfg.wal.then(|| {
        std::env::temp_dir().join(format!(
            "isi-bench-wal-{}-{}-{}-{}-{}",
            std::process::id(),
            backend.name(),
            shards,
            (write_fraction * 1e6) as u64,
            merge_threshold
        ))
    });
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        store_cfg = store_cfg.durable(dir, FsyncMode::Group);
    }
    let store = ShardedStore::build_with(backend, shards, &pairs, store_cfg.clone());
    let svc = LookupService::start(
        store,
        ServeConfig {
            policy: Interleave::from_group(cfg.group),
            batch: cfg.policy.to_batch_policy(),
            queue_cap: cfg.queue_cap,
            par: ParConfig::with_threads(1),
            hot_cache_slots: cfg.hot_cache_slots,
            // Bounded rings: big enough to keep the tail of a smoke
            // cell, dropped-not-grown under the full sweep's load.
            trace_events: if cfg.obs { 4096 } else { 0 },
        },
    );
    let write_below = (write_fraction * 1e6) as u64;
    let range_below = write_below + (cfg.range_fraction * 1e6) as u64;
    let t0 = Instant::now();
    // Each client returns (gets, puts, removes, ranges, hits).
    let totals: Vec<(u64, u64, u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| {
                let svc = &svc;
                let ops = client_ops(cfg, c);
                scope.spawn(move || {
                    let (mut gets, mut puts, mut removes, mut ranges, mut hits) =
                        (0u64, 0u64, 0u64, 0u64, 0u64);
                    for (i, &(key, roll)) in ops.iter().enumerate() {
                        if roll < write_below {
                            if roll % 8 == 0 {
                                svc.remove(key);
                                removes += 1;
                            } else {
                                svc.put(key, i as u64);
                                puts += 1;
                            }
                        } else if roll < range_below {
                            svc.get_range(key, key + cfg.range_span);
                            ranges += 1;
                        } else {
                            hits += svc.get(key).is_some() as u64;
                            gets += 1;
                        }
                    }
                    (gets, puts, removes, ranges, hits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    // Settle the background merger so delta/merge columns are the
    // cell's fixpoint, not a race with the last write.
    svc.store().quiesce();
    let stats = svc.stats();
    // Capture the observability columns before the WAL teardown below
    // drops the service (and its trace rings) for the recovery timing.
    let (stages, trace_events, trace_json) = if cfg.obs {
        let rows: Vec<StageRow> = svc
            .stage_breakdown()
            .iter()
            .enumerate()
            .flat_map(|(shard, row)| {
                Stage::ALL.iter().map(move |&stage| {
                    let h = &row[stage.index()];
                    StageRow {
                        shard,
                        stage: stage.name(),
                        count: h.count(),
                        sum_ns: h.sum(),
                        p50_ns: h.p50(),
                        p95_ns: h.p95(),
                        p99_ns: h.p99(),
                    }
                })
            })
            .collect();
        let events =
            (svc.obs().trace().events().len() + svc.store().obs().trace().events().len()) as u64;
        (rows, events, svc.export_chrome_trace())
    } else {
        (Vec::new(), 0, String::new())
    };
    // With the WAL on, the cell's teardown doubles as a recovery
    // benchmark: shut the service down cleanly, time a full
    // snapshot + WAL-tail recovery from the cell's directory, and
    // check it restored every surviving key.
    let recovery_ns = if let Some(dir) = &wal_dir {
        let live = svc.store().len();
        drop(svc);
        let t = Instant::now();
        let recovered = ShardedStore::recover(backend, store_cfg)
            .expect("crash recovery from the bench WAL directory");
        let recovery_ns = t.elapsed().as_nanos() as f64;
        assert_eq!(
            recovered.len(),
            live,
            "recovery restored a different key count"
        );
        drop(recovered);
        let _ = std::fs::remove_dir_all(dir);
        recovery_ns
    } else {
        0.0
    };
    let (gets, puts, removes, range_scans, hits) = totals.into_iter().fold(
        (0u64, 0u64, 0u64, 0u64, 0u64),
        |(g, p, r, s, h), (cg, cp, cr, cs, ch)| (g + cg, p + cp, r + cr, s + cs, h + ch),
    );
    let requests = gets + puts + removes + range_scans;
    MixedCell {
        backend,
        shards,
        write_fraction,
        merge_threshold,
        requests,
        gets,
        puts,
        removes,
        range_scans,
        cache_hits: stats.cache_hits,
        delta_hits: stats.delta_hits,
        residual_frac: stats.residual_frac(),
        hits,
        elapsed_ns,
        throughput_rps: requests as f64 / (elapsed_ns * 1e-9),
        p50_ns: stats.latency.p50(),
        p95_ns: stats.latency.p95(),
        p99_ns: stats.latency.p99(),
        mean_ns: stats.latency.mean(),
        batches: stats.batches,
        mean_batch: stats.mean_batch(),
        caller_runs: stats.caller_runs,
        merges: stats.merges,
        bg_merges: stats.bg_merges,
        delta_runs: stats.delta_runs,
        compactions: stats.compactions,
        merge_p50_ns: stats.merge_latency.p50(),
        delta_keys: stats.delta_keys,
        wal_records: stats.wal_records,
        wal_syncs: stats.wal_syncs,
        recovery_ns,
        latency_sum_ns: stats.latency.sum(),
        stages,
        trace_events,
        trace_json,
    }
}

/// Run the whole mixed sweep. `progress` receives one line per
/// finished cell (pass `|_| {}` to silence).
pub fn run_mixed_sweep(
    cfg: &MixedBenchCfg,
    mut progress: impl FnMut(&MixedCell),
) -> Vec<MixedCell> {
    let mut cells = Vec::new();
    for &backend in &cfg.backends {
        for &shards in &cfg.shard_counts {
            for &wf in &cfg.write_fractions {
                for &threshold in &cfg.merge_thresholds {
                    // Best-of-N: every repeat is a complete fresh
                    // run; keep the one whose throughput hit its
                    // ceiling so adjacent cells compare settings, not
                    // scheduler luck.
                    let cell = (0..cfg.repeat.max(1))
                        .map(|_| measure_mixed_cell(backend, shards, wf, threshold, cfg))
                        .max_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps))
                        .expect("at least one repeat");
                    progress(&cell);
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// Serialize a finished mixed sweep to the `isi-serve-mixed/v8`
/// document.
pub fn to_mixed_json(cfg: &MixedBenchCfg, cells: &[MixedCell]) -> Json {
    let results: Vec<Json> = cells
        .iter()
        .map(|c| {
            let stages: Vec<Json> = c
                .stages
                .iter()
                .map(|s| {
                    obj(vec![
                        ("shard", num(s.shard as f64)),
                        ("stage", str(s.stage)),
                        ("count", num(s.count as f64)),
                        ("sum_ns", num(s.sum_ns as f64)),
                        ("p50_ns", num(s.p50_ns as f64)),
                        ("p95_ns", num(s.p95_ns as f64)),
                        ("p99_ns", num(s.p99_ns as f64)),
                    ])
                })
                .collect();
            obj(vec![
                ("backend", str(c.backend.name())),
                ("shards", num(c.shards as f64)),
                ("write_fraction", num(c.write_fraction)),
                ("merge_threshold", num(c.merge_threshold as f64)),
                ("requests", num(c.requests as f64)),
                ("gets", num(c.gets as f64)),
                ("puts", num(c.puts as f64)),
                ("removes", num(c.removes as f64)),
                ("range_scans", num(c.range_scans as f64)),
                ("cache_hits", num(c.cache_hits as f64)),
                ("delta_hits", num(c.delta_hits as f64)),
                (
                    "residual_frac",
                    num((c.residual_frac * 10_000.0).round() / 10_000.0),
                ),
                ("hits", num(c.hits as f64)),
                ("elapsed_ns", num(c.elapsed_ns.round())),
                ("throughput_rps", num(c.throughput_rps.round())),
                ("p50_ns", num(c.p50_ns as f64)),
                ("p95_ns", num(c.p95_ns as f64)),
                ("p99_ns", num(c.p99_ns as f64)),
                ("mean_ns", num(c.mean_ns.round())),
                ("batches", num(c.batches as f64)),
                ("mean_batch", num((c.mean_batch * 100.0).round() / 100.0)),
                ("caller_runs", num(c.caller_runs as f64)),
                ("merges", num(c.merges as f64)),
                ("bg_merges", num(c.bg_merges as f64)),
                ("runs", num(c.delta_runs as f64)),
                ("compactions", num(c.compactions as f64)),
                ("merge_p50_ns", num(c.merge_p50_ns as f64)),
                ("delta_keys", num(c.delta_keys as f64)),
                ("wal_records", num(c.wal_records as f64)),
                ("wal_syncs", num(c.wal_syncs as f64)),
                ("recovery_ns", num(c.recovery_ns.round())),
                ("latency_sum_ns", num(c.latency_sum_ns as f64)),
                ("trace_events", num(c.trace_events as f64)),
                ("stages", Json::Arr(stages)),
            ])
        })
        .collect();
    obj(vec![
        ("schema", str(MIXED_SCHEMA)),
        (
            "machine",
            obj(vec![
                (
                    "available_parallelism",
                    num(std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1) as f64),
                ),
                ("arch", str(std::env::consts::ARCH)),
                ("os", str(std::env::consts::OS)),
            ]),
        ),
        (
            "config",
            obj(vec![
                (
                    "backends",
                    Json::Arr(cfg.backends.iter().map(|b| str(b.name())).collect()),
                ),
                (
                    "shard_counts",
                    Json::Arr(cfg.shard_counts.iter().map(|&s| num(s as f64)).collect()),
                ),
                (
                    "write_fractions",
                    Json::Arr(cfg.write_fractions.iter().map(|&f| num(f)).collect()),
                ),
                ("store_keys", num(cfg.store_keys as f64)),
                ("clients", num(cfg.clients as f64)),
                ("requests_per_client", num(cfg.requests_per_client as f64)),
                ("range_fraction", num(cfg.range_fraction)),
                ("range_span", num(cfg.range_span as f64)),
                ("bg_merge", Json::Bool(cfg.bg_merge)),
                ("wal", Json::Bool(cfg.wal)),
                (
                    "fsync",
                    str(if cfg.wal {
                        FsyncMode::Group.name()
                    } else {
                        FsyncMode::Off.name()
                    }),
                ),
                ("obs", Json::Bool(cfg.obs)),
                (
                    "merge_thresholds",
                    Json::Arr(
                        cfg.merge_thresholds
                            .iter()
                            .map(|&t| num(t as f64))
                            .collect(),
                    ),
                ),
                ("hot_cache_slots", num(cfg.hot_cache_slots as f64)),
                (
                    "policy",
                    obj(vec![("max_batch", num(cfg.policy.max_batch as f64))]),
                ),
                ("group", num(cfg.group as f64)),
                ("queue_cap", num(cfg.queue_cap as f64)),
                ("repeat", num(cfg.repeat as f64)),
            ]),
        ),
        ("results", Json::Arr(results)),
    ])
}

/// Validate a mixed-sweep document: schema tag, exactly one cell per
/// `backend × shard count × write fraction × merge threshold` the
/// config declares, full op coverage (gets, puts, removes
/// and range scans), coherent op/merge/plan counters
/// (background-merge accounting must match the config's `bg_merge`,
/// `residual_frac` must be a fraction), coherent run-stack counters
/// (`compactions ≤ runs ≤ puts + removes` — every published run
/// carries at least one effective write, and a compaction only ever
/// follows a run push), `caller_runs ≤ batches` and monotone latency
/// quantiles.
///
/// v4 observability checks, per cell: with `config.obs` **off** the
/// stage breakdown must be empty and the trace export zero; with it
/// **on** the breakdown must name every required stage per shard
/// (`admission_wait`, `plan`, `engine`, `wal_fsync`, `merge`), stage
/// counts must reconcile with the cell's own counters (an admission
/// wait per dispatched op — a band, since a range call enqueues one
/// entry per shard it spans, fsync/append spans exactly matching the
/// WAL sync/record counts — so fsync spans are zero whenever the WAL
/// is off — and one merge span per merge), request-path stage time
/// (`admission_wait + plan + engine + writeback`) must not exceed the
/// end-to-end latency sum, and the chrome-trace export must be
/// non-empty.
pub fn verify_mixed(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(MIXED_SCHEMA) {
        return Err(format!("schema tag is not {MIXED_SCHEMA:?}"));
    }
    let config = doc.get("config").ok_or("missing config")?;
    let backends: Vec<&str> = config
        .get("backends")
        .and_then(Json::as_arr)
        .ok_or("missing config.backends")?
        .iter()
        .filter_map(Json::as_str)
        .collect();
    for b in &backends {
        if Backend::from_name(b).is_none() {
            return Err(format!("unknown backend {b:?} in config"));
        }
    }
    let shard_counts: Vec<usize> = config
        .get("shard_counts")
        .and_then(Json::as_arr)
        .ok_or("missing config.shard_counts")?
        .iter()
        .map(|v| v.as_usize().ok_or("non-integer shard count"))
        .collect::<Result<_, _>>()?;
    let fractions: Vec<f64> = config
        .get("write_fractions")
        .and_then(Json::as_arr)
        .ok_or("missing config.write_fractions")?
        .iter()
        .map(|v| v.as_f64().ok_or("non-numeric write fraction"))
        .collect::<Result<_, _>>()?;
    let thresholds: Vec<usize> = config
        .get("merge_thresholds")
        .and_then(Json::as_arr)
        .ok_or("missing config.merge_thresholds")?
        .iter()
        .map(|v| v.as_usize().ok_or("non-integer merge threshold"))
        .collect::<Result<_, _>>()?;
    let repeat = config
        .get("repeat")
        .and_then(Json::as_usize)
        .ok_or("missing config.repeat")?;
    if repeat == 0 {
        return Err("config.repeat must be positive".into());
    }
    if backends.is_empty()
        || shard_counts.is_empty()
        || fractions.is_empty()
        || thresholds.is_empty()
    {
        return Err("empty sweep axes".into());
    }
    for &f in &fractions {
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("write fraction {f} outside [0, 1]"));
        }
    }
    let expected_requests = config
        .get("clients")
        .and_then(Json::as_usize)
        .ok_or("missing config.clients")?
        * config
            .get("requests_per_client")
            .and_then(Json::as_usize)
            .ok_or("missing config.requests_per_client")?;
    let bg_merge = config
        .get("bg_merge")
        .and_then(Json::as_bool)
        .ok_or("missing config.bg_merge")?;
    let wal = config
        .get("wal")
        .and_then(Json::as_bool)
        .ok_or("missing config.wal")?;
    let fsync = config
        .get("fsync")
        .and_then(Json::as_str)
        .ok_or("missing config.fsync")?;
    if FsyncMode::from_name(fsync).is_none() {
        return Err(format!("unknown fsync mode {fsync:?} in config"));
    }
    if wal && fsync == FsyncMode::Off.name() {
        return Err("wal on but fsync mode is off".into());
    }
    if !wal && fsync != FsyncMode::Off.name() {
        return Err(format!("wal off but fsync mode is {fsync:?}"));
    }
    let range_fraction = config
        .get("range_fraction")
        .and_then(Json::as_f64)
        .ok_or("missing config.range_fraction")?;
    if !(0.0..=1.0).contains(&range_fraction) {
        return Err(format!("range fraction {range_fraction} outside [0, 1]"));
    }
    let obs = config
        .get("obs")
        .and_then(Json::as_bool)
        .ok_or("missing config.obs")?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results")?;
    for &b in &backends {
        for &s in &shard_counts {
            for &f in &fractions {
                for &t in &thresholds {
                    let matching: Vec<&Json> = results
                        .iter()
                        .filter(|c| {
                            c.get("backend").and_then(Json::as_str) == Some(b)
                                && c.get("shards").and_then(Json::as_usize) == Some(s)
                                && c.get("write_fraction")
                                    .and_then(Json::as_f64)
                                    .is_some_and(|cf| (cf - f).abs() < 1e-9)
                                && c.get("merge_threshold").and_then(Json::as_usize) == Some(t)
                        })
                        .collect();
                    let cell_name = format!("{b}/shards={s}/writes={f}/threshold={t}");
                    if matching.len() != 1 {
                        return Err(format!(
                            "expected exactly 1 cell for {cell_name}, found {}",
                            matching.len()
                        ));
                    }
                    let cell = matching[0];
                    let count = |key: &str| cell.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
                    let rate = count("throughput_rps");
                    if !(rate.is_finite() && rate > 0.0) {
                        return Err(format!("non-positive throughput for {cell_name}"));
                    }
                    let (gets, puts, removes, range_scans) = (
                        count("gets"),
                        count("puts"),
                        count("removes"),
                        count("range_scans"),
                    );
                    if count("requests") != expected_requests as f64
                        || gets + puts + removes + range_scans != expected_requests as f64
                    {
                        return Err(format!(
                            "cell {cell_name} did not answer all {expected_requests} requests"
                        ));
                    }
                    if f == 0.0
                        && (puts != 0.0
                            || removes != 0.0
                            || count("merges") != 0.0
                            || count("runs") != 0.0
                            || count("compactions") != 0.0)
                    {
                        return Err(format!(
                            "read-only cell {cell_name} recorded writes, merges or delta runs"
                        ));
                    }
                    // Run-stack coherence: every published run carries at
                    // least one effective write, and a stack compaction
                    // only ever follows a run push.
                    let (runs, compactions) = (count("runs"), count("compactions"));
                    if runs > puts + removes {
                        return Err(format!(
                            "cell {cell_name}: runs ({runs}) exceed writes ({})",
                            puts + removes
                        ));
                    }
                    if compactions > runs {
                        return Err(format!(
                            "cell {cell_name}: compactions ({compactions}) > runs ({runs})"
                        ));
                    }
                    let (batches, caller_runs) = (count("batches"), count("caller_runs"));
                    if caller_runs > batches {
                        return Err(format!(
                            "cell {cell_name}: caller_runs ({caller_runs}) > batches ({batches})"
                        ));
                    }
                    if range_fraction > 0.0 && f < 1.0 && range_scans == 0.0 {
                        return Err(format!(
                            "cell {cell_name} ran no range scans despite range_fraction > 0"
                        ));
                    }
                    if count("hits") > gets || count("cache_hits") > gets {
                        return Err(format!("cell {cell_name} hit counters exceed reads"));
                    }
                    let (merges, bg_merges) = (count("merges"), count("bg_merges"));
                    if bg_merge && bg_merges != merges {
                        return Err(format!(
                            "cell {cell_name}: background mode but bg_merges ({bg_merges}) != \
                     merges ({merges})"
                        ));
                    }
                    if !bg_merge && bg_merges != 0.0 {
                        return Err(format!(
                            "cell {cell_name}: foreground mode but bg_merges = {bg_merges}"
                        ));
                    }
                    let rf = count("residual_frac");
                    if !(0.0..=1.0).contains(&rf) {
                        return Err(format!(
                            "cell {cell_name}: residual_frac {rf} outside [0, 1]"
                        ));
                    }
                    let (wal_records, wal_syncs, recovery) = (
                        count("wal_records"),
                        count("wal_syncs"),
                        count("recovery_ns"),
                    );
                    if wal {
                        // Writes went through the log: records for every
                        // write-bearing cell, group commit never syncing
                        // more than once per record, and a timed recovery.
                        if puts + removes > 0.0 && wal_records <= 0.0 {
                            return Err(format!(
                                "cell {cell_name}: wal on with writes but no WAL records"
                            ));
                        }
                        if wal_syncs > wal_records {
                            return Err(format!(
                                "cell {cell_name}: wal_syncs ({wal_syncs}) > wal_records \
                         ({wal_records})"
                            ));
                        }
                        if !(recovery.is_finite() && recovery > 0.0) {
                            return Err(format!(
                                "cell {cell_name}: wal on but no recovery time recorded"
                            ));
                        }
                    } else if wal_records != 0.0 || wal_syncs != 0.0 || recovery != 0.0 {
                        return Err(format!(
                            "cell {cell_name}: wal off but durability counters are non-zero"
                        ));
                    }
                    let (p50, p95, p99) = (count("p50_ns"), count("p95_ns"), count("p99_ns"));
                    if !(0.0 <= p50 && p50 <= p95 && p95 <= p99) {
                        return Err(format!(
                            "non-monotone latency quantiles for {cell_name}: \
                     p50={p50} p95={p95} p99={p99}"
                        ));
                    }
                    verify_cell_stages(cell, &cell_name, obs, s)?;
                }
            }
        }
    }
    Ok(())
}

/// The v4 per-cell observability checks of [`verify_mixed`] (see its
/// doc for the full list).
fn verify_cell_stages(
    cell: &Json,
    cell_name: &str,
    obs: bool,
    shards: usize,
) -> Result<(), String> {
    let count = |key: &str| cell.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
    let stages = cell
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("cell {cell_name} missing stages"))?;
    let trace_events = count("trace_events");
    if !obs {
        if !stages.is_empty() || trace_events != 0.0 {
            return Err(format!(
                "cell {cell_name}: obs off but stage rows or trace events recorded"
            ));
        }
        return Ok(());
    }
    if trace_events <= 0.0 {
        return Err(format!(
            "cell {cell_name}: obs on but the trace export is empty"
        ));
    }
    // Fold the per-shard rows into per-stage totals, checking each row
    // on the way through.
    let mut counts = std::collections::BTreeMap::<&str, f64>::new();
    let mut sums = std::collections::BTreeMap::<&str, f64>::new();
    let mut rows_per_stage = std::collections::BTreeMap::<&str, usize>::new();
    for row in stages {
        let stage = row
            .get("stage")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("cell {cell_name}: stage row without a stage name"))?;
        let shard = row
            .get("shard")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("cell {cell_name}: stage row without a shard"))?;
        if shard >= shards {
            return Err(format!(
                "cell {cell_name}: stage row for shard {shard} of {shards}"
            ));
        }
        let field = |key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
        let (c, sum) = (field("count"), field("sum_ns"));
        if c < 0.0 || sum < 0.0 {
            return Err(format!(
                "cell {cell_name}: malformed {stage} row for shard {shard}"
            ));
        }
        let (p50, p95, p99) = (field("p50_ns"), field("p95_ns"), field("p99_ns"));
        if c > 0.0 && !(0.0 <= p50 && p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "cell {cell_name}: non-monotone {stage} quantiles for shard {shard}: \
                 p50={p50} p95={p95} p99={p99}"
            ));
        }
        *counts.entry(stage).or_insert(0.0) += c;
        *sums.entry(stage).or_insert(0.0) += sum;
        *rows_per_stage.entry(stage).or_insert(0) += 1;
    }
    for required in ["admission_wait", "plan", "engine", "wal_fsync", "merge"] {
        if rows_per_stage.get(required) != Some(&shards) {
            return Err(format!(
                "cell {cell_name}: stage {required} is not reported once per shard"
            ));
        }
    }
    let total = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    // Count reconciliation against the cell's own columns: one
    // admission wait per dispatched op (cache hits never enqueue,
    // range scans enqueue one entry per shard they touch, so the
    // client-call column bounds a band), one append/fsync span per WAL
    // record/sync — which pins fsync spans to zero whenever the WAL is
    // off — and one merge span per merge.
    let dispatched = count("requests") - count("cache_hits");
    let admission = total("admission_wait");
    let fan_out = count("range_scans") * (shards as f64 - 1.0);
    if admission < dispatched || admission > dispatched + fan_out {
        return Err(format!(
            "cell {cell_name}: {admission} admission_wait spans outside \
             [{dispatched}, {}]",
            dispatched + fan_out
        ));
    }
    for (stage, column) in [
        ("wal_append", "wal_records"),
        ("wal_fsync", "wal_syncs"),
        ("merge", "merges"),
    ] {
        if total(stage) != count(column) {
            return Err(format!(
                "cell {cell_name}: {} {stage} spans for {column} = {}",
                total(stage),
                count(column)
            ));
        }
    }
    // Request-path stage time is a decomposition of end-to-end
    // latency: the stages that run between a request's admission
    // timestamp and its response can never sum past the latency sum.
    // (Merge, WAL and backpressure spans overlap writeback or run on
    // the background merger, so they stay out of the sum.)
    let sum_of = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    let request_path =
        sum_of("admission_wait") + sum_of("plan") + sum_of("engine") + sum_of("writeback");
    let latency_sum = count("latency_sum_ns");
    if request_path > latency_sum {
        return Err(format!(
            "cell {cell_name}: request-path stage time {request_path}ns exceeds the \
             end-to-end latency sum {latency_sum}ns"
        ));
    }
    Ok(())
}

/// Parse a result file and validate it against whichever of the two
/// serve schemas its tag declares.
pub fn verify_any_text(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("JSON parse error: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => verify(&doc),
        Some(MIXED_SCHEMA) => verify_mixed(&doc),
        Some(other) => Err(format!("unknown schema tag {other:?}")),
        None => Err("missing schema tag".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ServeBenchCfg {
        ServeBenchCfg {
            backends: Backend::ALL.to_vec(),
            shard_counts: vec![1, 2],
            policies: vec![PolicySpec { max_batch: 8 }],
            store_keys: 512,
            clients: 2,
            requests_per_client: 64,
            open_rate_rps: 100_000.0,
            group: 4,
            queue_cap: 64,
        }
    }

    #[test]
    fn sweep_produces_a_cell_per_combination_and_verifies() {
        let cfg = tiny_cfg();
        let cells = run_sweep(&cfg, |_| {});
        assert_eq!(cells.len(), 3 * 2 * MODES.len());
        assert!(cells.iter().all(|c| c.requests == 128));
        let doc = to_json(&cfg, &cells);
        verify(&doc).expect("self-produced document must verify");
        verify_text(&doc.to_pretty()).expect("round-trip verify");
    }

    fn tiny_mixed_cfg() -> MixedBenchCfg {
        MixedBenchCfg {
            backends: Backend::ALL.to_vec(),
            shard_counts: vec![1, 2],
            write_fractions: vec![0.0, 0.25],
            store_keys: 512,
            clients: 2,
            requests_per_client: 64,
            range_fraction: 0.15,
            range_span: 64,
            bg_merge: true,
            wal: false,
            obs: false,
            merge_thresholds: vec![16],
            hot_cache_slots: 16,
            policy: PolicySpec { max_batch: 8 },
            group: 4,
            queue_cap: 64,
            repeat: 1,
        }
    }

    #[test]
    fn mixed_sweep_produces_a_cell_per_combination_and_verifies() {
        let cfg = tiny_mixed_cfg();
        let cells = run_mixed_sweep(&cfg, |_| {});
        assert_eq!(cells.len(), 3 * 2 * 2);
        for c in &cells {
            assert_eq!(c.requests, 128);
            assert_eq!(c.gets + c.puts + c.removes + c.range_scans, 128);
            assert!(c.range_scans > 0);
            assert_eq!(c.bg_merges, c.merges);
            assert!((0.0..=1.0).contains(&c.residual_frac));
            // Run-stack counters: a run per dispatched write sub-run,
            // compactions only ever after a push.
            assert!(c.delta_runs <= c.puts + c.removes);
            assert!(c.compactions <= c.delta_runs);
            if c.write_fraction == 0.0 {
                assert_eq!(c.puts + c.removes, 0);
                assert_eq!(c.merges, 0);
                assert_eq!(c.delta_runs, 0);
                assert_eq!(c.delta_hits, 0);
            } else {
                // A quarter of 128 ops are writes: with threshold 16
                // at least one shard must have merged.
                assert!(c.puts + c.removes > 0);
                assert!(c.delta_runs > 0);
            }
        }
        let doc = to_mixed_json(&cfg, &cells);
        verify_mixed(&doc).expect("self-produced mixed document must verify");
        verify_any_text(&doc.to_pretty()).expect("round-trip verify via schema dispatch");
    }

    #[test]
    fn mixed_sweep_sweeps_the_threshold_axis() {
        let cfg = MixedBenchCfg {
            backends: vec![Backend::Sorted],
            shard_counts: vec![1],
            write_fractions: vec![0.25],
            // A merge-heavy cell and a never-merging deep-delta cell.
            merge_thresholds: vec![8, 1 << 16],
            ..tiny_mixed_cfg()
        };
        let cells = run_mixed_sweep(&cfg, |_| {});
        assert_eq!(cells.len(), 2, "one cell per threshold");
        assert_eq!(cells[0].merge_threshold, 8);
        assert_eq!(cells[1].merge_threshold, 1 << 16);
        assert!(cells[0].merges > 0, "threshold 8 must merge");
        assert_eq!(cells[1].merges, 0, "threshold 64k must not merge");
        // The deep delta stacks runs; the bounded stack keeps folding.
        assert!(cells[1].delta_runs > 0);
        let doc = to_mixed_json(&cfg, &cells);
        verify_mixed(&doc).expect("threshold-axis document must verify");
    }

    #[test]
    fn verify_mixed_rejects_incoherent_run_stack_columns() {
        let cfg = tiny_mixed_cfg();
        let cells = run_mixed_sweep(&cfg, |_| {});
        let mut doc = to_mixed_json(&cfg, &cells);
        // Claiming more compactions than writes must fail (the cells
        // sweep 128 ops, so 10_000 exceeds any write count).
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "results" {
                    if let Json::Arr(cells) = v {
                        for cell in cells {
                            let Json::Obj(cell) = cell else { continue };
                            // Leave read-only cells alone: their own
                            // zero-run check fires with a different
                            // message.
                            if cell
                                .iter()
                                .any(|(ck, cv)| ck == "write_fraction" && cv.as_f64() == Some(0.0))
                            {
                                continue;
                            }
                            for (ck, cv) in cell.iter_mut() {
                                if ck == "compactions" {
                                    *cv = num(10_000.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = verify_mixed(&doc).expect_err("compactions beyond writes");
        assert!(err.contains("compactions"), "{err}");
    }

    #[test]
    fn mixed_sweep_with_wal_records_durability_columns() {
        let mut cfg = tiny_mixed_cfg();
        cfg.wal = true;
        cfg.obs = true;
        cfg.backends = vec![Backend::Sorted];
        cfg.shard_counts = vec![2];
        let cells = run_mixed_sweep(&cfg, |_| {});
        assert_eq!(cells.len(), 2);
        let stage_count = |c: &MixedCell, name: &str| {
            c.stages
                .iter()
                .filter(|s| s.stage == name)
                .map(|s| s.count)
                .sum::<u64>()
        };
        for c in &cells {
            // Every cell timed a recovery; only write-bearing cells
            // produced WAL records, and group commit never fsyncs
            // more than once per record.
            assert!(c.recovery_ns > 0.0);
            assert!(c.wal_syncs <= c.wal_records);
            if c.write_fraction == 0.0 {
                assert_eq!(c.wal_records, 0);
            } else {
                assert!(c.wal_records > 0);
                assert!(c.wal_syncs > 0);
            }
            // With obs on the WAL stages mirror the durability
            // counters span for span.
            assert_eq!(stage_count(c, "wal_append"), c.wal_records);
            assert_eq!(stage_count(c, "wal_fsync"), c.wal_syncs);
        }
        let doc = to_mixed_json(&cfg, &cells);
        verify_mixed(&doc).expect("wal mixed document must verify");
    }

    #[test]
    fn mixed_sweep_with_obs_captures_stage_breakdown() {
        let cfg = MixedBenchCfg {
            obs: true,
            backends: vec![Backend::Csb],
            shard_counts: vec![2],
            write_fractions: vec![0.25],
            ..tiny_mixed_cfg()
        };
        let cells = run_mixed_sweep(&cfg, |_| {});
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        // The full stage matrix, a non-empty trace and count
        // reconciliation against the cell's own columns.
        assert_eq!(c.stages.len(), 2 * Stage::COUNT);
        assert!(c.trace_events > 0);
        assert!(c.trace_json.contains("traceEvents"));
        let total = |name: &str| {
            c.stages
                .iter()
                .filter(|s| s.stage == name)
                .map(|s| s.count)
                .sum::<u64>()
        };
        // One admission span per dispatched op; range calls add one
        // entry per extra shard they span.
        assert!(total("admission_wait") >= c.requests - c.cache_hits);
        assert!(total("admission_wait") <= c.requests - c.cache_hits + c.range_scans);
        assert_eq!(total("merge"), c.merges);
        assert_eq!(total("wal_fsync"), 0, "wal off must record no fsync spans");
        let request_path: u64 = ["admission_wait", "plan", "engine", "writeback"]
            .iter()
            .map(|n| {
                c.stages
                    .iter()
                    .filter(|s| &s.stage == n)
                    .map(|s| s.sum_ns)
                    .sum::<u64>()
            })
            .sum();
        assert!(
            request_path <= c.latency_sum_ns,
            "stage time {request_path} exceeds latency sum {}",
            c.latency_sum_ns
        );
        let doc = to_mixed_json(&cfg, &cells);
        verify_mixed(&doc).expect("obs document must verify");

        // Tampering with the breakdown must fail the verifier:
        // claiming fsync spans on a wal-off cell.
        let mut tampered = doc;
        if let Json::Obj(fields) = &mut tampered {
            for (k, v) in fields.iter_mut() {
                if k != "results" {
                    continue;
                }
                let Json::Arr(cells) = v else { continue };
                let Json::Obj(cell) = &mut cells[0] else {
                    continue;
                };
                for (ck, cv) in cell.iter_mut() {
                    if ck != "stages" {
                        continue;
                    }
                    let Json::Arr(rows) = cv else { continue };
                    for row in rows {
                        let Json::Obj(row) = row else { continue };
                        if row
                            .iter()
                            .any(|(rk, rv)| rk == "stage" && rv.as_str() == Some("wal_fsync"))
                        {
                            for (rk, rv) in row.iter_mut() {
                                if rk == "count" {
                                    *rv = num(7.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = verify_mixed(&tampered).expect_err("fsync spans with wal off");
        assert!(err.contains("wal_fsync"), "{err}");
    }

    #[test]
    fn verify_mixed_rejects_stage_rows_without_obs() {
        // An obs-off document claiming trace events must fail.
        let cfg = tiny_mixed_cfg();
        let cells = run_mixed_sweep(&cfg, |_| {});
        let mut doc = to_mixed_json(&cfg, &cells);
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k != "results" {
                    continue;
                }
                let Json::Arr(cells) = v else { continue };
                let Json::Obj(cell) = &mut cells[0] else {
                    continue;
                };
                for (ck, cv) in cell.iter_mut() {
                    if ck == "trace_events" {
                        *cv = num(12.0);
                    }
                }
            }
        }
        let err = verify_mixed(&doc).expect_err("trace events with obs off");
        assert!(err.contains("obs off"), "{err}");
    }

    #[test]
    fn verify_mixed_rejects_incoherent_durability_columns() {
        let cfg = tiny_mixed_cfg();
        let cells = run_mixed_sweep(&cfg, |_| {});
        let mut doc = to_mixed_json(&cfg, &cells);
        // Claiming wal-off cells produced WAL records must fail.
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "results" {
                    if let Json::Arr(cells) = v {
                        if let Json::Obj(cell) = &mut cells[0] {
                            for (ck, cv) in cell.iter_mut() {
                                if ck == "wal_records" {
                                    *cv = num(7.0);
                                }
                            }
                        }
                    }
                }
            }
        }
        let err = verify_mixed(&doc).expect_err("non-zero wal counters with wal off");
        assert!(err.contains("durability counters"), "{err}");
    }

    #[test]
    fn mixed_sweep_foreground_toggle_verifies() {
        let cfg = MixedBenchCfg {
            bg_merge: false,
            backends: vec![Backend::Csb],
            shard_counts: vec![1],
            write_fractions: vec![0.25],
            ..tiny_mixed_cfg()
        };
        let cells = run_mixed_sweep(&cfg, |_| {});
        assert_eq!(cells.len(), 1);
        assert!(cells[0].merges > 0, "foreground merges must still run");
        assert_eq!(cells[0].bg_merges, 0);
        let doc = to_mixed_json(&cfg, &cells);
        verify_mixed(&doc).expect("foreground document must verify");
    }

    #[test]
    fn verify_any_dispatches_on_schema_tag() {
        let cfg = tiny_cfg();
        let cells = run_sweep(&cfg, |_| {});
        let doc = to_json(&cfg, &cells);
        verify_any_text(&doc.to_pretty()).expect("plain serve schema dispatch");
        assert!(verify_mixed(&doc).is_err(), "schema tags must not cross");
        assert!(verify_any_text("{\"schema\": \"bogus/v9\"}").is_err());
    }

    #[test]
    fn verify_rejects_tampered_documents() {
        let cfg = tiny_cfg();
        let cells = run_sweep(&cfg, |_| {});
        let doc = to_json(&cfg, &cells);

        // Drop one result cell.
        let mut truncated = doc.clone();
        if let Json::Obj(pairs) = &mut truncated {
            for (k, v) in pairs.iter_mut() {
                if k == "results" {
                    if let Json::Arr(items) = v {
                        items.pop();
                    }
                }
            }
        }
        assert!(verify(&truncated).is_err());

        // Wrong schema tag.
        let mut wrong = doc;
        if let Json::Obj(pairs) = &mut wrong {
            pairs[0].1 = str("other/v0");
        }
        assert!(verify(&wrong).is_err());

        // Not even JSON.
        assert!(verify_text("{nope").is_err());
    }
}
