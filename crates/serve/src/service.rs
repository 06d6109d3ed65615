//! [`LookupService`]: the request lifecycle — admission, batching,
//! execution, writes, response routing, metrics.
//!
//! The paper's interleaving only pays off when lookups arrive in
//! batches large enough to keep a miss in flight per stream; a serving
//! workload instead delivers many small concurrent requests. This
//! module closes that gap with **caller-runs admission**: each shard
//! owns a bounded FIFO queue and one **executor token**, and every
//! request is pushed on its shard's queue.
//!
//! **The token rule.** The token (`Exec`: the batch buffers) lives
//! inside the queue state; *taking it out under the queue lock is the
//! right to run the shard*. A submitting
//! thread that finds the token present takes it and executes batches
//! on its own stack — no wake-up, no sleep — until its own entry is
//! answered, then hands the token back under the lock. It never
//! starts another batch once its own entry has been answered, so a
//! client's latency is bounded by the entries ahead of its own. A
//! thread that finds the token taken leaves its entry queued and
//! blocks on its ticket: the holder picks the entry up in its next
//! batch, or hands the token back and notifies the shard's **helper**.
//!
//! **The helper** is one thread per shard that parks until "queue
//! non-empty and token present", then takes the token and drains the
//! queue until it is empty. It exists for the entries no submitting
//! thread will run: the backlog a client leaves behind when its own
//! entry is answered, the fan-out slices of `get_many`/`get_range`
//! (so shards run in parallel), and whatever is queued at `close`.
//! Under load every batch is cut from the backlog that built up while
//! the previous batch ran (up to `max_batch` entries), so the
//! interleave group fills exactly when there is concurrency to fill
//! it from. **There is no flush timer**: an idle shard runs a lone
//! request at once on the caller, and a busy shard batches by itself;
//! no setting trades latency for batch size.
//!
//! **Writes ride the same queues.** `put`/`remove` enqueue on the
//! owning shard alongside reads, and a batch executes in FIFO order:
//! consecutive reads form engine runs, and consecutive writes form
//! **write runs** applied as one [`ShardedStore::apply_write_run`]
//! call — which, on a durable store, is the **group-commit unit**: one
//! WAL record and one fsync cover the whole run before any of its
//! tickets resolve, amortizing the fsync exactly like batching
//! amortizes the interleaved engine. One client's `put` happens-before
//! its next `get` of the same key (read-your-writes per client), and
//! all mutation of a shard is serialized by its token.
//!
//! **`get_many`** pre-partitions a key slice by shard on the client
//! side and submits one admission entry per shard, so an n-key lookup
//! costs one queue round-trip per touched shard instead of n — the
//! client manufactures the batch the engine wants. The caller runs
//! the last slice itself and the helpers of the other shards run
//! theirs in parallel; before blocking on a slice's ticket the caller
//! takes over any slice whose helper has not started yet.
//!
//! **`get_range`** rides the same admission queues the same way: one
//! entry per shard, executed in FIFO position (so a client's
//! completed writes are visible to its next scan), each answering
//! with the shard's merge-joined Main/Delta slice; the client
//! reorders the per-shard runs into one sorted result.
//!
//! **Reads are planned.** Each read run is resolved against the
//! shard's delta before the engine sees it (see [`crate::plan`]):
//! delta-decided keys are answered from the sorted run and only the
//! residual probes the main index. The split shows up in
//! [`ServeStats::delta_hits`] against [`ServeStats::engine`]'s lookups.
//!
//! **Merges never run here.** A threshold-crossing write enqueues a
//! job for the store's background merger thread
//! ([`MergeMode::Background`](crate::store::MergeMode)); the runner
//! applies the write to the delta and moves on, so no request's
//! latency absorbs a rebuild.
//!
//! An optional per-shard **hot-key cache** sits in front of the
//! admission queue: a tiny direct-mapped map filled by the token
//! holder with single-`get` results and invalidated by the write path
//! before a write is acknowledged. A hit answers without admission.
//!
//! **Failure.** A runner that unwinds (a failed WAL append panics)
//! must not strand the token: a drop guard closes the shard, abandons
//! every queued ticket — their waiters panic with "shard failed"
//! instead of hanging — and wakes the helper so `close` still joins.
//!
//! Per-request latency (enqueue → response) is recorded into a
//! log-bucketed [`LatencyHist`]; [`ServeStats::caller_runs`] against
//! [`ServeStats::batches`] says who ran what.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::sched::RunStats;
use isi_core::stats::LatencyHist;
use isi_core::sync::{CondvarExt, MutexExt};
use isi_hash::table::HashKey;
use isi_obs::{chrome_trace_json, Counter, Hist, Obs, SpanTimer, Stage, TraceKind};

use crate::store::{LookupScratch, ShardedStore, WriteScratch};

/// How a shard's runner cuts batches from its admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most entries one batch takes from the queue. A runner never
    /// waits for a batch to fill: it takes what is queued, up to this.
    pub max_batch: usize,
}

impl Default for BatchPolicy {
    /// 64-entry batches.
    fn default() -> Self {
        Self { max_batch: 64 }
    }
}

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Interleave policy every read run is dispatched with.
    pub policy: Interleave,
    /// Batch size limit for each shard's admission queue.
    pub batch: BatchPolicy,
    /// Per-shard admission-queue bound; requests block when the owning
    /// shard's queue is full (backpressure).
    pub queue_cap: usize,
    /// Morsel-engine configuration for each executed batch. The
    /// default is one worker per batch (the thread that holds the
    /// shard's token); raise `threads` only when shards outnumber
    /// cores.
    pub par: ParConfig,
    /// Per-shard hot-key cache slots; 0 disables the cache. A hit
    /// answers a `get` without admission; the write path invalidates
    /// a key's slot before the write is acknowledged.
    pub hot_cache_slots: usize,
    /// Per-shard trace-ring capacity for structured events (batch
    /// flushes, merges, WAL syncs, backpressure stalls, …); 0 — the
    /// default — disables tracing entirely, leaving the emit sites as
    /// one relaxed load each. Enables both the service's and the
    /// store's rings; export the merged timeline with
    /// [`LookupService::export_chrome_trace`].
    pub trace_events: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: Interleave::default(),
            batch: BatchPolicy::default(),
            queue_cap: 1024,
            par: ParConfig::with_threads(1),
            hot_cache_slots: 0,
            trace_events: 0,
        }
    }
}

/// A one-shot response slot; the submitter blocks on `wait`, the
/// shard's runner fills it with `fulfill` — or with `abandon` when it
/// unwinds before answering.
struct Ticket<T> {
    slot: Mutex<Slot<T>>,
    ready: Condvar,
}

struct Slot<T> {
    answer: Option<Answer<T>>,
    /// The waiter sleeps on `ready`. A submitter that ran its own
    /// entry finds the answer without ever sleeping, and its runner
    /// (itself) skips the wake-up call.
    parked: bool,
}

enum Answer<T> {
    Value(T),
    /// The shard's runner unwound with this entry unanswered.
    Abandoned,
}

impl<T> Ticket<T> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(Slot {
                answer: None,
                parked: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, result: T) {
        let mut slot = self.slot.plock("ticket slot");
        slot.answer = Some(Answer::Value(result));
        if slot.parked {
            self.ready.notify_one();
        }
    }

    /// Fail the wait of an entry that will never be executed. A ticket
    /// that was already answered keeps its answer.
    fn abandon(&self) {
        // Runs from a drop guard while a runner unwinds, so it must not
        // panic; nothing panics while holding a slot, so a poisoned
        // one is still whole.
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.answer.is_none() {
            slot.answer = Some(Answer::Abandoned);
            if slot.parked {
                self.ready.notify_one();
            }
        }
    }

    fn is_answered(&self) -> bool {
        self.slot.plock("ticket slot").answer.is_some()
    }

    /// # Panics
    /// Panics with "shard failed" if the entry was abandoned.
    fn wait(&self) -> T {
        let mut slot = self.slot.plock("ticket slot");
        loop {
            match slot.answer.take() {
                Some(Answer::Value(result)) => return result,
                Some(Answer::Abandoned) => {
                    drop(slot);
                    panic!("shard failed: its runner panicked before answering this request");
                }
                None => {
                    slot.parked = true;
                    slot = self.ready.pwait(slot, "ticket slot (await result)");
                }
            }
        }
    }
}

/// The ticket type of one shard's `get_many` slice: one result per
/// submitted key, in submission order.
type ManyTicket = Arc<Ticket<Vec<Option<u64>>>>;

/// The ticket type of one shard's `get_range` slice: that shard's
/// pairs in the range, sorted by key.
type RangeTicket = Arc<Ticket<Vec<(u64, u64)>>>;

/// One queued operation.
enum Op {
    Get {
        key: u64,
        ticket: Arc<Ticket<Option<u64>>>,
    },
    Put {
        key: u64,
        val: u64,
        ticket: Arc<Ticket<Option<u64>>>,
    },
    Remove {
        key: u64,
        ticket: Arc<Ticket<Option<u64>>>,
    },
    /// One shard's slice of a client `get_many` call: all keys route
    /// to this shard; the ticket receives one result per key, in key
    /// order.
    GetMany { keys: Vec<u64>, ticket: ManyTicket },
    /// One shard's slice of a client `get_range` call: the ticket
    /// receives this shard's live pairs with `lo <= key <= hi`,
    /// sorted.
    Range {
        lo: u64,
        hi: u64,
        ticket: RangeTicket,
    },
}

impl Op {
    /// Abandon the entry's ticket (see [`Ticket::abandon`]).
    fn abandon(&self) {
        match self {
            Op::Get { ticket, .. } | Op::Put { ticket, .. } | Op::Remove { ticket, .. } => {
                ticket.abandon();
            }
            Op::GetMany { ticket, .. } => ticket.abandon(),
            Op::Range { ticket, .. } => ticket.abandon(),
        }
    }
}

/// One admission entry: the operation and its admission time.
struct Entry {
    op: Op,
    enqueued: SpanTimer,
}

/// The hot-key result cache: direct-mapped, one `(key, result)` pair
/// per slot. Only the holder of the shard's token mutates it (inserts
/// after a read run, invalidates when applying a write), so its
/// contents always reflect a prefix of the shard's serialized
/// operation order; everyone else only probes.
struct HotCache {
    slots: Vec<Option<(u64, Option<u64>)>>,
}

impl HotCache {
    fn new(slots: usize) -> Self {
        Self {
            slots: vec![None; slots],
        }
    }

    /// Slot index: hash bits 16.. keep the map independent of both
    /// shard routing (top bits) and hash-backend bucketing (bits 32..
    /// of the same hash, which matter only inside the backend).
    #[inline]
    fn idx(&self, key: u64) -> usize {
        (key.hash64() >> 16) as usize % self.slots.len()
    }

    fn probe(&self, key: u64) -> Option<Option<u64>> {
        self.slots[self.idx(key)]
            .filter(|&(k, _)| k == key)
            .map(|(_, result)| result)
    }

    fn insert(&mut self, key: u64, result: Option<u64>) {
        let i = self.idx(key);
        self.slots[i] = Some((key, result));
    }

    fn invalidate(&mut self, key: u64) {
        let i = self.idx(key);
        if self.slots[i].is_some_and(|(k, _)| k == key) {
            self.slots[i] = None;
        }
    }
}

/// Mutable queue state behind each shard's mutex.
struct QueueState {
    reqs: VecDeque<Entry>,
    open: bool,
    /// The shard's executor token. Taking it out (under this lock) is
    /// the right to run the shard; `None` while some thread does.
    exec: Option<Box<Exec>>,
}

/// One shard's admission queue and its wakeup channels.
struct ShardState {
    q: Mutex<QueueState>,
    /// The helper parks here until entries are queued while the token
    /// is present (or the queue closes).
    work: Condvar,
    /// Producers wait here for queue space (backpressure).
    space: Condvar,
    /// Interleaved-engine counters, merged once per read run. A plain
    /// struct behind a small mutex: only the token holder writes it,
    /// and [`LookupService::stats`] reads it.
    engine: Mutex<RunStats>,
    /// Registry handles for this shard's counters (see
    /// [`ShardCounters`]); lock-free, so the client cache-hit fast
    /// path never contends with an executing batch.
    m: ShardCounters,
    /// `None` when `hot_cache_slots == 0`.
    cache: Option<Mutex<HotCache>>,
}

/// One shard's handles into the service metrics registry, resolved
/// once at start so the hot path never touches the registry lock.
///
/// Registration order is load-bearing (see `isi_obs::registry`):
/// `full_flushes` and `caller_runs` are registered *before* `batches`
/// and a runner bumps `batches` first, so no snapshot can show either
/// of them above `batches`.
struct ShardCounters {
    full_flushes: Counter,
    caller_runs: Counter,
    batches: Counter,
    requests: Counter,
    gets: Counter,
    puts: Counter,
    removes: Counter,
    many_keys: Counter,
    range_scans: Counter,
    delta_hits: Counter,
    cache_hits: Counter,
    /// Per-entry latency (enqueue → response routed), nanoseconds.
    latency: Hist,
}

/// Aggregated service metrics (summed over shards, plus the store's
/// write-side counters).
///
/// **Admission entries vs client calls.** [`requests`](Self::requests)
/// counts *admission entries* — what the runners actually answer.
/// A single-key `get`/`put`/`remove` is one entry; a `get_many` or
/// `get_range` call fans out into one entry *per shard it touches*
/// (so one `get_range` on an 8-shard store adds 8 to `requests` and 8
/// to `range_scans`). Cache hits never reach a queue and are counted
/// only in [`cache_hits`](Self::cache_hits). The client-call view is
/// `gets + cache_hits` single-key reads, `many_keys` keys through
/// `get_many`, plus the write counters.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Admission entries answered (see the type docs: one per shard
    /// touched for `get_many`/`get_range`; cache hits excluded).
    pub requests: u64,
    /// Single-key reads answered via admission.
    pub gets: u64,
    /// Upserts applied.
    pub puts: u64,
    /// Removes applied.
    pub removes: u64,
    /// Keys answered through `get_many` entries.
    pub many_keys: u64,
    /// Range-scan admission entries answered (one per shard per
    /// client `get_range` call).
    pub range_scans: u64,
    /// `get`s answered by the hot-key cache, without admission.
    pub cache_hits: u64,
    /// Executed read keys decided by the delta in the plan stage —
    /// these never reached the engine.
    pub delta_hits: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches cut at `max_batch` entries (the backlog held at least
    /// that many).
    pub full_flushes: u64,
    /// Batches executed by a submitting thread; the other
    /// `batches - caller_runs` ran on a shard's helper.
    pub caller_runs: u64,
    /// Per-entry latency (enqueue → response routed), nanoseconds.
    pub latency: LatencyHist,
    /// Merged interleaved-engine counters across all batches
    /// (`engine.lookups` counts only residual keys — the batch minus
    /// `delta_hits`).
    pub engine: RunStats,
    /// Merges the store has published since build, minor (run stack
    /// into the mid tier) and major (mid tier into the main), both
    /// modes.
    pub merges: u64,
    /// Merges performed by the store's background merger thread
    /// (= `merges` in background mode, 0 in foreground mode).
    pub bg_merges: u64,
    /// Merge jobs queued or in flight at the moment `stats()` was
    /// called (a point-in-time gauge, not a counter).
    pub merge_backlog: u64,
    /// Merge wall latency (nanoseconds).
    pub merge_latency: LatencyHist,
    /// Current delta entries above the mid tiers, across all shards
    /// of the store (run lengths summed — an upper bound on the
    /// distinct keys they override).
    pub delta_keys: u64,
    /// Delta runs the store's write path published since build (one
    /// per effective shard sub-run of a write run).
    pub delta_runs: u64,
    /// Run-stack folds the write path performed past
    /// `StoreConfig::max_runs` (≤ `delta_runs`).
    pub compactions: u64,
    /// WAL records the store's write path appended (0 with durability
    /// off). Group commit packs a whole write run into one record.
    pub wal_records: u64,
    /// Write-path WAL fsyncs the store issued (0 with durability off
    /// or `FsyncMode::Off`); `wal_records / wal_syncs` ≈ the group
    /// size the fsync cost was amortized over.
    pub wal_syncs: u64,
}

impl ServeStats {
    /// Mean entries per executed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// A multi-tenant read/write point-lookup service over a
/// [`ShardedStore`].
///
/// `get`, `get_many`, `get_range`, `put` and `remove` are safe to call
/// from any number of threads; each call returns once its entry has
/// been executed — by the calling thread itself when it finds the
/// shard idle, otherwise by whichever thread holds the shard's token
/// (see the [module docs](self)). Per shard, operations apply in
/// admission order, so a client that completed a `put` observes it in
/// every later read it issues (read-your-writes per client). Dropping
/// the service drains queued entries, answers them, and joins the
/// helpers.
///
/// # Panics
/// All request methods panic if called after [`close`](Self::close);
/// callers must not race requests against `close`. If a thread
/// running a shard panics (a failed WAL append does), that shard
/// fails closed: requests queued on it panic with "shard failed" and
/// later requests to it panic as after `close`.
pub struct LookupService {
    store: Arc<ShardedStore>,
    shards: Vec<Arc<ShardState>>,
    cfg: ServeConfig,
    /// Service-side observability hub: `serve_*` metrics, per-shard
    /// stage histograms (admission wait, commit, writeback, queue
    /// backpressure) and the service trace ring. Store-side spans live
    /// on [`ShardedStore::obs`]; the export methods merge both.
    obs: Arc<Obs>,
    helpers: Vec<JoinHandle<()>>,
    /// Set by `close`; request paths that can answer without touching
    /// an admission queue (cache hits, empty `get_many`) check it so
    /// the use-after-close panic contract holds on every entry point.
    closed: std::sync::atomic::AtomicBool,
}

impl LookupService {
    /// Start one helper thread per shard of `store`. Accepts the
    /// store by value or as an `Arc`.
    ///
    /// With an `Arc`, other holders may keep calling the store's read
    /// API (epoch snapshots keep that consistent), but they must not
    /// write to it directly — the service's read-your-writes and
    /// cache-invalidation guarantees hold only for writes that go
    /// through the service.
    ///
    /// # Panics
    /// Panics if `queue_cap` or `max_batch` is 0.
    pub fn start(store: impl Into<Arc<ShardedStore>>, cfg: ServeConfig) -> Self {
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        assert!(cfg.batch.max_batch > 0, "max_batch must be positive");
        let store = store.into();
        let obs = Arc::new(Obs::new("serve", store.num_shards()));
        if cfg.trace_events > 0 {
            obs.trace().enable(cfg.trace_events);
            store.obs().trace().enable(cfg.trace_events);
        }
        let shards: Vec<Arc<ShardState>> = (0..store.num_shards())
            .map(|shard| {
                let reg = obs.registry();
                let tag = shard.to_string();
                let l = [("shard", tag.as_str())];
                let counter = |name| reg.counter(name, &l);
                Arc::new(ShardState {
                    q: Mutex::new(QueueState {
                        reqs: VecDeque::new(),
                        open: true,
                        exec: Some(Box::new(Exec::new(&cfg))),
                    }),
                    work: Condvar::new(),
                    space: Condvar::new(),
                    engine: Mutex::new(RunStats::default()),
                    m: ShardCounters {
                        // The ≤-sides before `batches`: registration
                        // order is the snapshot-coherence contract.
                        full_flushes: counter("serve_full_flushes"),
                        caller_runs: counter("serve_caller_runs"),
                        batches: counter("serve_batches"),
                        requests: counter("serve_requests"),
                        gets: counter("serve_gets"),
                        puts: counter("serve_puts"),
                        removes: counter("serve_removes"),
                        many_keys: counter("serve_many_keys"),
                        range_scans: counter("serve_range_scans"),
                        delta_hits: counter("serve_delta_hits"),
                        cache_hits: counter("serve_cache_hits"),
                        latency: reg.hist("serve_latency_ns", &l),
                    },
                    cache: (cfg.hot_cache_slots > 0)
                        .then(|| Mutex::new(HotCache::new(cfg.hot_cache_slots))),
                })
            })
            .collect();
        let helpers = shards
            .iter()
            .enumerate()
            .map(|(shard, state)| {
                let store = Arc::clone(&store);
                let state = Arc::clone(state);
                let obs = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("isi-serve-{shard}"))
                    .spawn(move || {
                        helper_loop(ShardCtx {
                            store: &store,
                            shard,
                            state: &state,
                            cfg,
                            obs: &obs,
                        });
                    })
                    .expect("spawn helper thread")
            })
            .collect();
        Self {
            store,
            shards,
            cfg,
            obs,
            helpers,
            closed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Panic if `close` already ran (requests must not outlive it).
    fn assert_open(&self) {
        assert!(
            !self.closed.load(Ordering::Relaxed),
            "request on a closed LookupService"
        );
    }

    /// The underlying store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    fn ctx(&self, shard: usize) -> ShardCtx<'_> {
        ShardCtx {
            store: &self.store,
            shard,
            state: &self.shards[shard],
            cfg: self.cfg,
            obs: &self.obs,
        }
    }

    /// Push `op` on `shard`'s admission queue, blocking while the
    /// queue holds `queue_cap` entries (backpressure). Returns with the
    /// queue lock still held: the caller either runs the shard or
    /// leaves the entry to the helper.
    ///
    /// # Panics
    /// Panics with "closed" on a closed queue — after releasing the
    /// lock, so a rejected request never poisons it for the helper,
    /// the other submitters and `close`.
    fn enqueue(&self, shard: usize, op: Op) -> MutexGuard<'_, QueueState> {
        fn reject_if_closed(q: MutexGuard<'_, QueueState>) -> MutexGuard<'_, QueueState> {
            if !q.open {
                drop(q);
                panic!("request on a closed LookupService");
            }
            q
        }
        let state = &self.shards[shard];
        let mut q = reject_if_closed(state.q.plock("admission queue"));
        if q.reqs.len() >= self.cfg.queue_cap {
            // Stalled on a full queue: the wait is a Backpressure span
            // (payload 0 = admission-queue flavor; the store's delta
            // bound emits the same kind with payload 1).
            let t = SpanTimer::start();
            loop {
                q = reject_if_closed(state.space.pwait(q, "admission queue (backpressure)"));
                if q.reqs.len() < self.cfg.queue_cap {
                    break;
                }
            }
            let dur = t.elapsed_ns();
            self.obs.record_stage(shard, Stage::Backpressure, dur);
            self.obs
                .trace()
                .emit(shard, TraceKind::Backpressure, t.start_ns(), dur, 0, 0);
        }
        q.reqs.push_back(Entry {
            op,
            enqueued: SpanTimer::start(),
        });
        q
    }

    /// Run `shard` on this thread — if its token is free — until
    /// `ticket`, not answered yet, is. `q` is the shard's queue lock.
    fn run_until_answered<T>(
        &self,
        shard: usize,
        q: MutexGuard<'_, QueueState>,
        ticket: &Ticket<T>,
    ) {
        drop(
            self.ctx(shard)
                .run(q, Runner::Caller, &|| ticket.is_answered()),
        );
    }

    /// Submit a single-shard `op` answered through `ticket`: run it
    /// here if the shard is idle, else wait for whoever runs it.
    fn submit_and_wait<T>(&self, shard: usize, op: Op, ticket: &Ticket<T>) -> T {
        let q = self.enqueue(shard, op);
        self.run_until_answered(shard, q, ticket);
        ticket.wait()
    }

    /// Submit one entry per shard of `shards` (built by `make_op`
    /// around that shard's ticket) and collect the answers in `shards`
    /// order. The last entry runs on this thread; the others are left
    /// to their shards' helpers, so the shards run in parallel.
    fn scatter<T>(
        &self,
        shards: &[usize],
        make_op: impl Fn(usize, Arc<Ticket<T>>) -> Op,
    ) -> Vec<T> {
        let tickets: Vec<Arc<Ticket<T>>> = shards.iter().map(|_| Arc::new(Ticket::new())).collect();
        for (i, (&shard, ticket)) in shards.iter().zip(&tickets).enumerate() {
            let q = self.enqueue(shard, make_op(shard, Arc::clone(ticket)));
            if i + 1 == shards.len() {
                self.run_until_answered(shard, q, ticket);
            } else if q.exec.is_some() {
                // A taken token needs no wake-up: its holder sees the
                // entry at the latest when handing the token back.
                self.shards[shard].work.notify_one();
            }
        }
        shards
            .iter()
            .zip(&tickets)
            .map(|(&shard, ticket)| {
                // Rather than sleep on a slice whose helper has not
                // taken the token yet, run it here.
                {
                    let q = self.shards[shard].q.plock("admission queue");
                    if !ticket.is_answered() {
                        self.run_until_answered(shard, q, ticket);
                    }
                }
                ticket.wait()
            })
            .collect()
    }

    /// Look up one key on the owning shard. A hot-key cache hit (if
    /// the cache is enabled) answers immediately without admission.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.assert_open();
        let shard = self.store.shard_of(key);
        let cached = self.shards[shard]
            .cache
            .as_ref()
            .and_then(|cache| cache.plock("hot-key cache").probe(key));
        if let Some(result) = cached {
            self.shards[shard].m.cache_hits.inc();
            return result;
        }
        let ticket = Arc::new(Ticket::new());
        let op = Op::Get {
            key,
            ticket: Arc::clone(&ticket),
        };
        self.submit_and_wait(shard, op, &ticket)
    }

    /// Look up many keys with one admission entry per owning shard:
    /// the slice is partitioned client-side, each shard's sub-batch is
    /// one entry, and the results come back in `keys` order. Far
    /// cheaper than n `get` calls for multi-key requests — the client
    /// pre-forms the batch the engine wants.
    pub fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.assert_open();
        let mut results = vec![None; keys.len()];
        // positions[s] = indices into `keys` owned by shard s.
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); self.store.num_shards()];
        for (i, &k) in keys.iter().enumerate() {
            positions[self.store.shard_of(k)].push(i);
        }
        let touched: Vec<usize> = (0..positions.len())
            .filter(|&s| !positions[s].is_empty())
            .collect();
        let answers = self.scatter(&touched, |shard, ticket| Op::GetMany {
            keys: positions[shard].iter().map(|&i| keys[i]).collect(),
            ticket,
        });
        for (&shard, vals) in touched.iter().zip(answers) {
            for (&i, v) in positions[shard].iter().zip(vals) {
                results[i] = v;
            }
        }
        results
    }

    /// All live pairs with `lo <= key <= hi`, sorted by key.
    ///
    /// Hash partitioning scatters a key range across every shard, so
    /// the call submits one admission entry per shard, waits for all
    /// of them, and reorders the per-shard sorted runs into one sorted
    /// result. Riding the FIFO queues means a client's completed
    /// writes are visible to its next scan; the cross-shard cut is not
    /// atomic (same contract as `get_many`). An inverted range returns
    /// an empty result without admission.
    pub fn get_range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.assert_open();
        if lo > hi {
            return Vec::new();
        }
        let all: Vec<usize> = (0..self.store.num_shards()).collect();
        let mut out: Vec<(u64, u64)> = self
            .scatter(&all, |_, ticket| Op::Range { lo, hi, ticket })
            .into_iter()
            .flatten()
            .collect();
        // Per-shard runs are sorted but interleave arbitrarily under
        // hash partitioning; one global reorder restores key order.
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Upsert `key = val` through the owning shard's queue; blocks
    /// until applied and returns the previously visible value.
    pub fn put(&self, key: u64, val: u64) -> Option<u64> {
        let ticket = Arc::new(Ticket::new());
        let op = Op::Put {
            key,
            val,
            ticket: Arc::clone(&ticket),
        };
        self.submit_and_wait(self.store.shard_of(key), op, &ticket)
    }

    /// Remove `key` through the owning shard's queue; blocks until
    /// applied and returns the value it held, if any.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let ticket = Arc::new(Ticket::new());
        let op = Op::Remove {
            key,
            ticket: Arc::clone(&ticket),
        };
        self.submit_and_wait(self.store.shard_of(key), op, &ticket)
    }

    /// Aggregated metrics over all shards (latency histograms merged),
    /// plus the store's merge/delta counters.
    ///
    /// Built from one coherent snapshot of each registry (see
    /// `isi_obs::registry`): within the returned struct,
    /// `full_flushes <= batches`, `caller_runs <= batches`,
    /// `wal_syncs <= wal_records` and `bg_merges <= merges` hold even
    /// while runners and mergers race the call.
    pub fn stats(&self) -> ServeStats {
        let snap = self.obs.snapshot();
        let store_snap = self.store.obs().snapshot();
        let mut total = ServeStats {
            requests: snap.counter_sum("serve_requests"),
            gets: snap.counter_sum("serve_gets"),
            puts: snap.counter_sum("serve_puts"),
            removes: snap.counter_sum("serve_removes"),
            many_keys: snap.counter_sum("serve_many_keys"),
            range_scans: snap.counter_sum("serve_range_scans"),
            cache_hits: snap.counter_sum("serve_cache_hits"),
            delta_hits: snap.counter_sum("serve_delta_hits"),
            batches: snap.counter_sum("serve_batches"),
            full_flushes: snap.counter_sum("serve_full_flushes"),
            caller_runs: snap.counter_sum("serve_caller_runs"),
            latency: snap.hist_merged("serve_latency_ns", |_| true),
            merges: store_snap.counter_sum("store_merges"),
            bg_merges: store_snap.counter_sum("store_bg_merges"),
            delta_runs: store_snap.counter_sum("store_delta_runs"),
            compactions: store_snap.counter_sum("store_compactions"),
            wal_records: store_snap.counter_sum("store_wal_records"),
            wal_syncs: store_snap.counter_sum("store_wal_syncs"),
            merge_backlog: self.store.merge_backlog() as u64,
            merge_latency: self.store.merge_latency(),
            delta_keys: self.store.delta_len() as u64,
            ..ServeStats::default()
        };
        for state in &self.shards {
            total
                .engine
                .merge(&state.engine.plock("shard engine stats"));
        }
        total
    }

    /// The service-side observability hub (`serve_*` metrics, the
    /// service trace ring). The store's hub is at
    /// [`ShardedStore::obs`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Every store- and service-side metric in the Prometheus text
    /// exposition format: two coherent snapshots, concatenated (metric
    /// names are disjoint by prefix, `store_*` vs `serve_*`).
    pub fn metrics_prometheus(&self) -> String {
        let mut out = self.store.obs().snapshot().to_prometheus();
        out.push_str(&self.obs.snapshot().to_prometheus());
        out
    }

    /// Every store- and service-side metric as one JSON document.
    pub fn metrics_json(&self) -> String {
        self.store
            .obs()
            .snapshot()
            .concat(&self.obs.snapshot())
            .to_json()
    }

    /// The merged store+service event timeline rendered as
    /// chrome://tracing JSON (load it at `chrome://tracing` or in
    /// Perfetto; one row per shard). Events are ordered by timestamp —
    /// the two rings share a clock but not a sequence counter. Empty
    /// when [`ServeConfig::trace_events`] is 0.
    pub fn export_chrome_trace(&self) -> String {
        let mut events = self.store.obs().trace().events();
        events.extend(self.obs.trace().events());
        events.sort_by_key(|e| e.ts_ns);
        chrome_trace_json(&events)
    }

    /// Per-shard per-stage latency breakdown, indexed by
    /// [`Stage::index`]: the union of the store's spans (plan, engine,
    /// WAL append/fsync, merge, range scan, delta backpressure) and
    /// the service's (admission wait, commit, writeback, queue
    /// backpressure).
    pub fn stage_breakdown(&self) -> Vec<[LatencyHist; Stage::COUNT]> {
        let mut rows = self.obs.stage_breakdown();
        for (row, store_row) in rows.iter_mut().zip(self.store.obs().stage_breakdown()) {
            for (hist, store_hist) in row.iter_mut().zip(store_row) {
                hist.merge(&store_hist);
            }
        }
        rows
    }

    /// Stop accepting requests, answer everything still queued
    /// (including writes, which are applied in order), and join the
    /// helpers. Idempotent; also run by `Drop`.
    pub fn close(&mut self) {
        self.closed.store(true, Ordering::Relaxed);
        for state in &self.shards {
            // A failed shard does not poison this lock: its runner
            // unwound outside it and rejected submitters panic after
            // releasing it.
            let mut q = state.q.plock("admission queue");
            q.open = false;
            state.work.notify_all();
            state.space.notify_all();
        }
        for handle in self.helpers.drain(..) {
            let joined = handle.join();
            // Re-raising a helper's panic while this thread already
            // unwinds would abort the process.
            if !std::thread::panicking() {
                joined.expect("helper thread panicked");
            }
        }
    }
}

impl Drop for LookupService {
    fn drop(&mut self) {
        self.close();
    }
}

/// A shard's executor token: the reusable batch buffers. It lives in
/// [`QueueState::exec`]; whoever takes it out owns the shard until
/// handing it back, so exactly one thread at a time executes a shard's
/// batches.
struct Exec {
    batch: Vec<Entry>,
    /// Keys of the current read run.
    run_keys: Vec<u64>,
    /// `(entry index, start offset in run_keys, key count)` per read
    /// entry of the current run.
    run_spans: Vec<(usize, usize, usize)>,
    out: Vec<Option<u64>>,
    scratch: LookupScratch,
    /// Ops of the current write run (the group-commit unit).
    write_ops: Vec<(u64, Option<u64>)>,
    /// Entry index per op of the current write run.
    write_idx: Vec<usize>,
    /// Previously visible value per op, filled by the store.
    write_prevs: Vec<Option<u64>>,
    /// Per-shard grouping scratch for the store's write path.
    write_scratch: WriteScratch,
}

impl Exec {
    fn new(cfg: &ServeConfig) -> Self {
        let n = cfg.batch.max_batch;
        Self {
            batch: Vec::with_capacity(n),
            run_keys: Vec::with_capacity(n),
            run_spans: Vec::with_capacity(n),
            out: Vec::with_capacity(n),
            scratch: LookupScratch::default(),
            write_ops: Vec::with_capacity(n),
            write_idx: Vec::with_capacity(n),
            write_prevs: Vec::with_capacity(n),
            write_scratch: WriteScratch::default(),
        }
    }
}

/// Who holds the token for a batch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Runner {
    /// A submitting thread, until its own entry is answered.
    Caller,
    /// The shard's helper thread, until the queue is empty.
    Helper,
}

/// The token while it is out of the queue state. Handing it back
/// normally empties `exec`; if it is still here on drop, the runner is
/// unwinding out of a batch and the shard fails closed: every ticket
/// of the batch and of the queue is abandoned (their waiters panic,
/// none hangs), later submits find the queue closed, and the helper is
/// woken so that it exits and `close` can join it.
struct Running<'a> {
    state: &'a ShardState,
    exec: Option<Box<Exec>>,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let Some(exec) = self.exec.take() else {
            return;
        };
        for entry in &exec.batch {
            entry.op.abandon();
        }
        // This runs during an unwind, where a second panic would abort
        // the process, and it only fails the queue closed — the right
        // end for a state some other panic left mid-protocol too. So
        // it ignores poison (the exception `isi_core::sync` names).
        let mut q = self.state.q.lock().unwrap_or_else(PoisonError::into_inner);
        q.open = false;
        for entry in q.reqs.drain(..) {
            entry.op.abandon();
        }
        // Nothing runs on a closed, empty queue; the token goes back so
        // the helper's exit condition is the ordinary one.
        q.exec = Some(exec);
        drop(q);
        self.state.work.notify_all();
        self.state.space.notify_all();
    }
}

/// Everything running one shard needs, by reference: the service hands
/// one out per call, each helper thread builds its own.
#[derive(Clone, Copy)]
struct ShardCtx<'a> {
    store: &'a ShardedStore,
    shard: usize,
    state: &'a ShardState,
    cfg: ServeConfig,
    obs: &'a Obs,
}

/// The per-shard helper thread: park until entries are queued while
/// the token is present, drain the queue, repeat; exit once the queue
/// is closed, empty and the token is back.
fn helper_loop(ctx: ShardCtx<'_>) {
    let mut q = ctx.state.q.plock("admission queue");
    loop {
        q = ctx.run(q, Runner::Helper, &|| false);
        if !q.open && q.reqs.is_empty() && q.exec.is_some() {
            return;
        }
        q = ctx.state.work.pwait(q, "admission queue (helper parked)");
    }
}

impl<'a> ShardCtx<'a> {
    /// The one way to run a shard, for clients and the helper alike.
    /// Called with the queue lock held and `done()` known to be false
    /// (a client's own entry is still queued or executing elsewhere):
    /// if entries are queued and the token is present, take the token
    /// and execute batches of up to `max_batch` entries (the lock
    /// released around each) until the queue is empty or `done()` —
    /// checked under the lock before every further batch, so a client
    /// never starts a batch once its own entry has been answered. Then
    /// hand the token back under the lock. Returns at once if the
    /// token is taken: its holder sees the caller's entry at the
    /// latest on hand-back.
    fn run(
        self,
        mut q: MutexGuard<'a, QueueState>,
        who: Runner,
        done: &dyn Fn() -> bool,
    ) -> MutexGuard<'a, QueueState> {
        if q.reqs.is_empty() {
            return q;
        }
        let Some(exec) = q.exec.take() else {
            return q;
        };
        let mut running = Running {
            state: self.state,
            exec: Some(exec),
        };
        let max_batch = self.cfg.batch.max_batch;
        loop {
            let exec = running.exec.as_mut().expect("token held until hand-back");
            let queued = q.reqs.len();
            exec.batch.extend(q.reqs.drain(..queued.min(max_batch)));
            if queued >= self.cfg.queue_cap {
                // Producers park only on a full queue, so only a batch
                // cut from a full queue can have any to wake.
                self.state.space.notify_all();
            }
            drop(q);
            execute_batch(self, exec, queued >= max_batch, who);
            // Answered entries (and their tickets) go now, not under
            // the lock and not when the next batch is cut.
            exec.batch.clear();
            q = self.state.q.plock("admission queue");
            if q.reqs.is_empty() || done() {
                break;
            }
        }
        self.hand_back(&mut q, running.exec.take(), who);
        q
    }

    /// Put the token back (queue lock held). The helper parks only
    /// with the queue empty or the token gone, so a client returning
    /// the token to a non-empty (or closing) queue must wake it; the
    /// helper itself re-checks both before it parks.
    fn hand_back(self, q: &mut QueueState, exec: Option<Box<Exec>>, who: Runner) {
        q.exec = exec;
        if who == Runner::Caller && (!q.reqs.is_empty() || !q.open) {
            self.state.work.notify_one();
        }
    }
}

/// Execute the batch drained into `bufs.batch` in admission order:
/// maximal runs of consecutive point reads are planned against the
/// delta and the residual goes through the interleaved engine as one
/// batch; writes
/// and range scans apply one at a time between runs (each write
/// invalidating its hot-cache slot *before* its ticket is fulfilled).
/// Writes only append to the delta — a threshold crossing enqueues a
/// background merge job, it never rebuilds here.
///
/// An entry's counters and latency sample land *before* its ticket is
/// fulfilled (the counters are lock-free `Release` bumps, the stats
/// snapshot reads `Acquire`), so the moment a client's wait returns,
/// [`LookupService::stats`] already includes its request. No lock is
/// held across engine runs or store writes (a write can trigger a
/// whole-shard merge rebuild), so a monitoring thread reading stats
/// never blocks behind the slow work itself.
///
/// Stage spans recorded here: `admission_wait` per entry at drain,
/// `writeback` around each write run (store call + cache
/// invalidation), `commit` around each fulfill pass. The store records
/// `plan`/`engine`/`wal_*`/`merge` inside its own calls.
fn execute_batch(ctx: ShardCtx<'_>, bufs: &mut Exec, full: bool, who: Runner) {
    let ShardCtx {
        store,
        shard,
        state,
        cfg,
        obs,
    } = ctx;
    let batch_t = SpanTimer::start();
    // Count the batch up front: no ticket from this batch can resolve
    // before the batch itself is visible in the stats. `batches` bumps
    // before the counters it bounds (the registration-order
    // counterpart lives in `ShardCounters`).
    state.m.batches.inc();
    if full {
        state.m.full_flushes.inc();
    }
    if who == Runner::Caller {
        state.m.caller_runs.inc();
    }
    // Queue residency ended when the batch span started (one clock
    // reading serves both); what follows is execution.
    for entry in &bufs.batch {
        let waited = batch_t.start_ns().saturating_sub(entry.enqueued.start_ns());
        obs.record_stage(shard, Stage::AdmissionWait, waited);
    }
    let mut i = 0;
    while i < bufs.batch.len() {
        // Collect the maximal read run starting at i.
        bufs.run_keys.clear();
        bufs.run_spans.clear();
        while i < bufs.batch.len() {
            match &bufs.batch[i].op {
                Op::Get { key, .. } => {
                    bufs.run_spans.push((i, bufs.run_keys.len(), 1));
                    bufs.run_keys.push(*key);
                }
                Op::GetMany { keys, .. } => {
                    bufs.run_spans.push((i, bufs.run_keys.len(), keys.len()));
                    bufs.run_keys.extend_from_slice(keys);
                }
                _ => break,
            }
            i += 1;
        }
        if !bufs.run_keys.is_empty() {
            bufs.out.clear();
            bufs.out.resize(bufs.run_keys.len(), None);
            let outcome = store.lookup_batch(
                shard,
                &bufs.run_keys,
                cfg.policy,
                cfg.par,
                &mut bufs.scratch,
                &mut bufs.out,
            );
            // Fill the cache before fulfilling: the token holder is the
            // only mutator of this shard, so these results are current
            // until the next write applied under the token.
            if let Some(cache) = &state.cache {
                let mut cache = cache.plock("hot-key cache");
                for &(ei, start, _) in &bufs.run_spans {
                    if let Op::Get { key, .. } = &bufs.batch[ei].op {
                        cache.insert(*key, bufs.out[start]);
                    }
                }
            }
            state
                .engine
                .plock("shard engine stats")
                .merge(&outcome.engine);
            state.m.delta_hits.add(outcome.delta_hits);
            let commit_t = SpanTimer::start();
            for &(ei, start, len) in &bufs.run_spans {
                let entry = &bufs.batch[ei];
                // Counters and the latency sample land before the
                // fulfill: a client whose wait returned is already in
                // the stats.
                state.m.requests.inc();
                state.m.latency.record(entry.enqueued.elapsed_ns());
                match &entry.op {
                    Op::Get { ticket, .. } => {
                        state.m.gets.inc();
                        ticket.fulfill(bufs.out[start]);
                    }
                    Op::GetMany { ticket, .. } => {
                        state.m.many_keys.add(len as u64);
                        ticket.fulfill(bufs.out[start..start + len].to_vec());
                    }
                    _ => unreachable!("write in read run"),
                }
            }
            obs.record_stage(shard, Stage::Commit, commit_t.elapsed_ns());
        }
        // Apply the writes and range scans that ended the run, in
        // admission order. Consecutive writes form one write run —
        // one `apply_write_run` call, which on a durable store is one
        // WAL record + one fsync (group commit) covering every op in
        // the run before any of its tickets resolve. The store call
        // (which may block briefly at the delta's hard bound), the range
        // scan and the cache invalidation run unlocked; only the
        // counter-update + fulfill pass takes the metrics lock.
        while i < bufs.batch.len() {
            match &bufs.batch[i].op {
                Op::Get { .. } | Op::GetMany { .. } => break,
                Op::Put { .. } | Op::Remove { .. } => {
                    bufs.write_ops.clear();
                    bufs.write_idx.clear();
                    while i < bufs.batch.len() {
                        match &bufs.batch[i].op {
                            Op::Put { key, val, .. } => bufs.write_ops.push((*key, Some(*val))),
                            Op::Remove { key, .. } => bufs.write_ops.push((*key, None)),
                            _ => break,
                        }
                        bufs.write_idx.push(i);
                        i += 1;
                    }
                    let wb_t = SpanTimer::start();
                    store.apply_write_run_with(
                        &bufs.write_ops,
                        &mut bufs.write_prevs,
                        &mut bufs.write_scratch,
                    );
                    // Invalidate before fulfilling: a client whose
                    // write just acked must not then read a stale
                    // cached value.
                    if let Some(cache) = &state.cache {
                        let mut cache = cache.plock("hot-key cache");
                        for &(key, _) in &bufs.write_ops {
                            cache.invalidate(key);
                        }
                        obs.trace().emit_now(
                            shard,
                            TraceKind::CacheInvalidate,
                            bufs.write_ops.len() as u64,
                            0,
                        );
                    }
                    obs.record_stage(shard, Stage::Writeback, wb_t.elapsed_ns());
                    let commit_t = SpanTimer::start();
                    for (&ei, &prev) in bufs.write_idx.iter().zip(&bufs.write_prevs) {
                        let entry = &bufs.batch[ei];
                        state.m.requests.inc();
                        state.m.latency.record(entry.enqueued.elapsed_ns());
                        match &entry.op {
                            Op::Put { ticket, .. } => {
                                state.m.puts.inc();
                                ticket.fulfill(prev);
                            }
                            Op::Remove { ticket, .. } => {
                                state.m.removes.inc();
                                ticket.fulfill(prev);
                            }
                            _ => unreachable!("read in write run"),
                        }
                    }
                    obs.record_stage(shard, Stage::Commit, commit_t.elapsed_ns());
                }
                Op::Range { lo, hi, ticket } => {
                    let pairs = store.scan_range(shard, *lo, *hi);
                    let entry = &bufs.batch[i];
                    state.m.range_scans.inc();
                    state.m.requests.inc();
                    state.m.latency.record(entry.enqueued.elapsed_ns());
                    ticket.fulfill(pairs);
                    i += 1;
                }
            }
        }
    }
    obs.trace().emit(
        shard,
        TraceKind::BatchFlush,
        batch_t.start_ns(),
        batch_t.elapsed_ns(),
        bufs.batch.len() as u64,
        u64::from(full),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Backend, StoreConfig};

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i * 2, i)).collect()
    }

    fn expect(key: u64) -> Option<u64> {
        (key.is_multiple_of(2) && key < 4000).then_some(key / 2)
    }

    #[test]
    fn single_client_hits_and_misses_all_backends() {
        for backend in Backend::ALL {
            let store = ShardedStore::build(backend, 2, &pairs(2000));
            let svc = LookupService::start(
                store,
                ServeConfig {
                    batch: BatchPolicy { max_batch: 8 },
                    ..ServeConfig::default()
                },
            );
            for key in [0u64, 2, 3, 1998, 3998, 4000, 9999] {
                assert_eq!(svc.get(key), expect(key), "{} key={key}", backend.name());
            }
            let stats = svc.stats();
            assert_eq!(stats.requests, 7);
            assert_eq!(stats.gets, 7);
            assert!(stats.batches >= 1);
            assert_eq!(stats.latency.count(), 7);
            assert!(stats.latency.p99() >= stats.latency.p50());
        }
    }

    /// Take `shard`'s token by hand: a runner that is slow for as long
    /// as the test holds the box.
    fn hold_token(svc: &LookupService, shard: usize) -> Box<Exec> {
        let mut q = svc.shards[shard].q.plock("admission queue");
        q.exec.take().expect("token present on an idle shard")
    }

    /// Hand a held token back the way a client does: the helper is
    /// notified if entries queued up meanwhile.
    fn release_token(svc: &LookupService, shard: usize, token: Box<Exec>) {
        let ctx = svc.ctx(shard);
        let mut q = ctx.state.q.plock("admission queue");
        ctx.hand_back(&mut q, Some(token), Runner::Caller);
    }

    /// Block until `shard`'s queue holds `n` entries.
    fn wait_queued(svc: &LookupService, shard: usize, n: usize) {
        while svc.shards[shard].q.plock("admission queue").reqs.len() != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn lone_request_runs_on_the_caller() {
        let store = ShardedStore::build(Backend::Csb, 1, &pairs(100));
        let svc = LookupService::start(store, ServeConfig::default());
        for _ in 0..32 {
            assert_eq!(svc.get(42), Some(21));
        }
        let stats = svc.stats();
        // Every call found the shard idle, ran its own one-entry batch
        // and handed an empty queue back: the helper never ran.
        assert_eq!(stats.batches, 32);
        assert_eq!(stats.caller_runs, 32);
        assert_eq!(stats.full_flushes, 0);
        // No timer, no thread hand-off: far below the millisecond a
        // flush deadline would cost (median, so one preemption of
        // this thread cannot fail the test).
        assert!(
            stats.latency.p50() < 250_000,
            "lone gets took {} ns at the median",
            stats.latency.p50()
        );
    }

    #[test]
    fn backlog_forms_full_batches() {
        // One slow runner (the test, holding the token) while eight
        // clients submit: their entries pile up, and the helper cuts
        // the backlog into max_batch-sized batches once it gets the
        // token.
        let store = ShardedStore::build(Backend::Hash, 1, &pairs(512));
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 4 },
                ..ServeConfig::default()
            },
        );
        let token = hold_token(&svc, 0);
        std::thread::scope(|scope| {
            for c in 0..8u64 {
                let svc = &svc;
                scope.spawn(move || assert_eq!(svc.get(c * 7), expect(c * 7)));
            }
            wait_queued(&svc, 0, 8);
            release_token(&svc, 0, token);
        });
        let stats = svc.stats();
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.full_flushes, 2);
        assert_eq!(stats.caller_runs, 0);
        assert!((stats.mean_batch() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn a_backlog_of_writes_is_one_group_commit() {
        // Four puts queue up behind a held token; the helper then cuts
        // them as one batch = one write run = the group-commit unit.
        use isi_durable::{Fs, MemFs};
        let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
        let store = ShardedStore::build_with_fs(
            Backend::Sorted,
            1,
            &[],
            StoreConfig::with_threshold(1 << 20),
            fs,
        );
        let svc = LookupService::start(store, ServeConfig::default());
        let token = hold_token(&svc, 0);
        std::thread::scope(|scope| {
            for key in 0..4u64 {
                let svc = &svc;
                scope.spawn(move || assert_eq!(svc.put(key, key), None));
            }
            wait_queued(&svc, 0, 4);
            release_token(&svc, 0, token);
        });
        let stats = svc.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.wal_records, 1, "one record per write run");
        assert_eq!(stats.wal_syncs, 1, "one fsync per write run");
    }

    #[test]
    fn a_client_stops_running_once_its_own_entry_is_answered() {
        let store = ShardedStore::build(Backend::Sorted, 1, &pairs(512));
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 1 },
                ..ServeConfig::default()
            },
        );
        // This thread's entry goes in first, two other clients' behind
        // it, all while the token is away.
        let token = hold_token(&svc, 0);
        let ticket = Arc::new(Ticket::new());
        drop(svc.enqueue(
            0,
            Op::Get {
                key: 10,
                ticket: Arc::clone(&ticket),
            },
        ));
        std::thread::scope(|scope| {
            for key in [12u64, 13] {
                let svc = &svc;
                scope.spawn(move || assert_eq!(svc.get(key), expect(key)));
            }
            wait_queued(&svc, 0, 3);
            // Now this thread finds the token present, as a submitter
            // would: with one entry per batch it must run exactly its
            // own and leave the other two to the helper.
            let mut q = svc.shards[0].q.plock("admission queue");
            q.exec = Some(token);
            svc.run_until_answered(0, q, &ticket);
            assert_eq!(ticket.wait(), Some(5));
            assert_eq!(svc.stats().caller_runs, 1);
        });
        let stats = svc.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.caller_runs, 1);
    }

    #[test]
    fn close_answers_every_queued_ticket() {
        let store = ShardedStore::build(Backend::Csb, 1, &pairs(100));
        let mut svc = LookupService::start(store, ServeConfig::default());
        // Entries queued behind a runner that hands the token back
        // without anyone having been notified yet: `close` must still
        // get them executed, writes included, in order.
        let token = hold_token(&svc, 0);
        let put = Arc::new(Ticket::new());
        drop(svc.enqueue(
            0,
            Op::Put {
                key: 10,
                val: 77,
                ticket: Arc::clone(&put),
            },
        ));
        let gets: Vec<_> = [10u64, 11, 12]
            .into_iter()
            .map(|key| {
                let ticket = Arc::new(Ticket::new());
                drop(svc.enqueue(
                    0,
                    Op::Get {
                        key,
                        ticket: Arc::clone(&ticket),
                    },
                ));
                ticket
            })
            .collect();
        svc.shards[0].q.plock("admission queue").exec = Some(token);
        svc.close();
        assert_eq!(put.wait(), Some(5));
        let got: Vec<_> = gets.iter().map(|t| t.wait()).collect();
        assert_eq!(got, vec![Some(77), None, Some(6)]);
        assert_eq!(svc.store().get(10), Some(77));
        assert_eq!(svc.stats().caller_runs, 0);
    }

    #[test]
    fn eight_clients_on_two_shards_agree_with_the_oracle() {
        // Closed-loop clients on disjoint key sets, so each one's
        // HashMap is the oracle of every answer it gets while the
        // other seven contend for the same two tokens.
        let store = ShardedStore::build_with(
            Backend::Csb,
            2,
            &pairs(2000),
            StoreConfig::with_threshold(8),
        );
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 4 },
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for c in 0..8u64 {
                let svc = &svc;
                scope.spawn(move || {
                    let mut oracle = std::collections::HashMap::new();
                    let seeded = |k: u64| expect(k);
                    for i in 0..300u64 {
                        let key = (i * 37 % 500) * 8 + c; // key % 8 == c
                        let want = oracle.get(&key).copied().unwrap_or(seeded(key));
                        match i % 5 {
                            0 | 1 => assert_eq!(svc.get(key), want),
                            2 => {
                                assert_eq!(svc.put(key, i), want);
                                oracle.insert(key, Some(i));
                            }
                            3 => {
                                assert_eq!(svc.remove(key), want);
                                oracle.insert(key, None);
                            }
                            _ => assert_eq!(svc.get_many(&[key, key + 8]).first(), Some(&want)),
                        }
                    }
                });
            }
        });
        let stats = svc.stats();
        assert!(stats.caller_runs <= stats.batches);
        assert!(stats.full_flushes <= stats.batches);
        assert_eq!(stats.puts + stats.removes, 8 * 120);
    }

    #[test]
    fn an_unwinding_runner_fails_the_shard_closed() {
        use isi_durable::{FaultFs, FaultPlan, Fs, FsyncMode};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;

        let fault = Arc::new(FaultFs::new(FaultPlan::default()));
        let fs: Arc<dyn Fs> = fault.clone();
        let store = ShardedStore::build_with_fs(
            Backend::Sorted,
            1,
            &pairs(100),
            StoreConfig {
                fsync: FsyncMode::Group,
                ..StoreConfig::with_threshold(1 << 20)
            },
            fs,
        );
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 2 },
                ..ServeConfig::default()
            },
        );
        assert_eq!(svc.put(1, 1), None); // the WAL works so far

        // Two clients queue a put each behind a held token, then the
        // disk fills up, then a third client finds the token present
        // and runs their write run: its WAL append fails and unwinds
        // on that client's thread.
        let token = hold_token(&svc, 0);
        let (tx, rx) = mpsc::channel();
        let message = |r: std::thread::Result<Option<u64>>| match r {
            Ok(v) => format!("returned {v:?}"),
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default(),
        };
        std::thread::scope(|scope| {
            for key in [3u64, 5] {
                let (svc, tx) = (&svc, tx.clone());
                scope.spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(|| svc.put(key, 9)));
                    tx.send(("queued", message(r))).expect("test is listening");
                });
            }
            wait_queued(&svc, 0, 2);
            fault.fill_disk();
            let (svc, tx) = (&svc, tx.clone());
            scope.spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let ticket = Arc::new(Ticket::new());
                    let mut q = svc.enqueue(
                        0,
                        Op::Get {
                            key: 2,
                            ticket: Arc::clone(&ticket),
                        },
                    );
                    q.exec = Some(token);
                    svc.run_until_answered(0, q, &ticket);
                    ticket.wait()
                }));
                tx.send(("runner", message(r))).expect("test is listening");
            });
            // Nobody hangs: the runner and both waiters end promptly.
            for _ in 0..3 {
                let (who, msg) = rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("a client of the failed shard hung");
                let want = if who == "runner" {
                    "WAL append failed"
                } else {
                    "shard failed"
                };
                assert!(msg.contains(want), "{who} ended with {msg:?}");
            }
        });
        // The shard stays closed — a rejected request does not poison
        // the queue for the next one, the helper or `close` — and the
        // service still shuts down.
        for _ in 0..2 {
            let later = message(catch_unwind(AssertUnwindSafe(|| svc.get(2))));
            assert!(later.contains("closed LookupService"), "{later:?}");
        }
        drop(svc);
    }

    #[test]
    fn tiny_queue_cap_applies_backpressure_without_deadlock() {
        let store = ShardedStore::build(Backend::Sorted, 2, &pairs(1000));
        let svc = LookupService::start(
            store,
            ServeConfig {
                queue_cap: 1,
                batch: BatchPolicy { max_batch: 2 },
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for c in 0..6u64 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let key = (c * 50 + i) % 2100;
                        assert_eq!(svc.get(key), expect(key));
                    }
                });
            }
        });
        assert_eq!(svc.stats().requests, 300);
    }

    #[test]
    fn drop_drains_and_joins() {
        let store = ShardedStore::build(Backend::Hash, 4, &pairs(100));
        let svc = LookupService::start(store, ServeConfig::default());
        assert_eq!(svc.get(4), Some(2));
        drop(svc); // must not hang
    }

    #[test]
    fn stats_engine_counters_flow_through() {
        let store = ShardedStore::build(Backend::Csb, 1, &pairs(5000));
        let svc = LookupService::start(
            store,
            ServeConfig {
                policy: Interleave::from_group(6),
                batch: BatchPolicy { max_batch: 16 },
                ..ServeConfig::default()
            },
        );
        for key in 0..64u64 {
            svc.get(key * 2);
        }
        let stats = svc.stats();
        assert_eq!(stats.engine.lookups, 64);
        // Interleaved tree descents switch at least once per lookup.
        assert!(stats.engine.switches >= 64);
    }

    #[test]
    fn writes_are_read_your_writes_per_client() {
        for backend in Backend::ALL {
            let store =
                ShardedStore::build_with(backend, 2, &pairs(500), StoreConfig::with_threshold(4));
            let svc = LookupService::start(
                store,
                ServeConfig {
                    batch: BatchPolicy { max_batch: 8 },
                    ..ServeConfig::default()
                },
            );
            // Overwrite, fresh insert, remove — every completed write
            // is visible to the same client's next read.
            assert_eq!(svc.put(0, 777), Some(0), "{}", backend.name());
            assert_eq!(svc.get(0), Some(777));
            assert_eq!(svc.put(1_000_001, 5), None);
            assert_eq!(svc.get(1_000_001), Some(5));
            assert_eq!(svc.remove(2), Some(1));
            assert_eq!(svc.get(2), None);
            assert_eq!(svc.remove(2), None);
            let stats = svc.stats();
            assert_eq!(stats.puts, 2);
            assert_eq!(stats.removes, 2);
            assert_eq!(stats.gets, 3);
            assert_eq!(stats.requests, 7);
            // merge_threshold 4: the three effective writes forced at
            // least one merge across the two shards... only if one
            // shard saw 4 deltas; with 3 writes no merge is
            // guaranteed, but the counters must at least be coherent.
            assert_eq!(stats.merges, svc.store().merges());
            assert!(stats.delta_keys <= 3);
        }
    }

    #[test]
    fn get_many_partitions_and_restores_order() {
        for backend in Backend::ALL {
            let store = ShardedStore::build(backend, 4, &pairs(3000));
            let svc = LookupService::start(
                store,
                ServeConfig {
                    batch: BatchPolicy { max_batch: 64 },
                    ..ServeConfig::default()
                },
            );
            let keys: Vec<u64> = (0..500u64).map(|i| i * 13 % 7000).collect();
            let got = svc.get_many(&keys);
            assert_eq!(got.len(), keys.len());
            for (&k, &r) in keys.iter().zip(&got) {
                let want = (k.is_multiple_of(2) && k < 6000).then_some(k / 2);
                assert_eq!(r, want, "{} key={k}", backend.name());
            }
            assert_eq!(svc.get_many(&[]), Vec::<Option<u64>>::new());
            let stats = svc.stats();
            assert_eq!(stats.many_keys, 500);
            // One admission entry per touched shard, not per key.
            assert!(stats.requests <= 4);
            assert_eq!(stats.engine.lookups, 500);
        }
    }

    #[test]
    fn get_many_sees_prior_writes() {
        let store = ShardedStore::build_with(
            Backend::Hash,
            2,
            &pairs(100),
            StoreConfig::with_threshold(2),
        );
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 4 },
                ..ServeConfig::default()
            },
        );
        svc.put(0, 111);
        svc.put(500_001, 222);
        svc.remove(4);
        let got = svc.get_many(&[0, 500_001, 4, 6, 9999]);
        assert_eq!(got, vec![Some(111), Some(222), None, Some(3), None]);
    }

    #[test]
    fn hot_cache_hits_skip_dispatch_and_writes_invalidate() {
        let store = ShardedStore::build(Backend::Sorted, 2, &pairs(200));
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 4 },
                hot_cache_slots: 64,
                ..ServeConfig::default()
            },
        );
        // First read misses the cache and dispatches; repeats hit.
        assert_eq!(svc.get(10), Some(5));
        for _ in 0..5 {
            assert_eq!(svc.get(10), Some(5));
        }
        let stats = svc.stats();
        assert_eq!(stats.cache_hits, 5);
        assert_eq!(stats.gets, 1);
        // A write invalidates before it is acknowledged: the next
        // read must see the new value, then repopulate the cache.
        assert_eq!(svc.put(10, 99), Some(5));
        assert_eq!(svc.get(10), Some(99));
        assert_eq!(svc.get(10), Some(99));
        let stats = svc.stats();
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.cache_hits, 6);
        // Misses are cached too.
        assert_eq!(svc.get(11), None);
        assert_eq!(svc.get(11), None);
        assert_eq!(svc.stats().cache_hits, 7);
    }

    #[test]
    fn mixed_batch_preserves_fifo_under_concurrency() {
        // Concurrent clients on disjoint keys: each client's own
        // sequence of put/get/remove must read its own writes even
        // while batches mix clients and writes force merges.
        let store = ShardedStore::build_with(Backend::Csb, 2, &[], StoreConfig::with_threshold(3));
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 8 },
                queue_cap: 16,
                ..ServeConfig::default()
            },
        );
        std::thread::scope(|scope| {
            for c in 0..4u64 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..40u64 {
                        let key = c + i * 4; // disjoint per client
                        assert_eq!(svc.put(key, i), None);
                        assert_eq!(svc.get(key), Some(i));
                        assert_eq!(svc.remove(key), Some(i));
                        assert_eq!(svc.get(key), None);
                    }
                });
            }
        });
        // Merges run behind the runners; settle before counting.
        svc.store().quiesce();
        let stats = svc.stats();
        assert_eq!(stats.requests, 4 * 40 * 4);
        assert_eq!(stats.puts, 160);
        assert_eq!(stats.removes, 160);
        assert!(stats.merges > 0);
        assert_eq!(stats.bg_merges, stats.merges);
        assert_eq!(stats.merge_backlog, 0);
        assert!(svc.store().is_empty());
    }

    #[test]
    fn get_range_rides_the_queues_and_sees_writes() {
        for backend in Backend::ALL {
            let store =
                ShardedStore::build_with(backend, 4, &pairs(500), StoreConfig::with_threshold(8));
            let svc = LookupService::start(
                store,
                ServeConfig {
                    batch: BatchPolicy { max_batch: 8 },
                    ..ServeConfig::default()
                },
            );
            // A client's completed writes are visible to its next scan.
            assert_eq!(svc.put(10, 777), Some(5));
            assert_eq!(svc.put(11, 888), None);
            assert_eq!(svc.remove(12), Some(6));
            let got = svc.get_range(8, 16);
            assert_eq!(
                got,
                vec![(8, 4), (10, 777), (11, 888), (14, 7), (16, 8)],
                "{}",
                backend.name()
            );
            // Inverted and empty ranges.
            assert_eq!(svc.get_range(16, 8), Vec::new());
            assert_eq!(svc.get_range(1_000_000, 2_000_000), Vec::new());
            let stats = svc.stats();
            // One admission entry per shard per (non-inverted) call.
            assert_eq!(stats.range_scans, 2 * 4);
            assert_eq!(stats.requests, 3 + 2 * 4);
        }
    }

    #[test]
    fn delta_decided_reads_skip_the_engine() {
        // With a cold cache and a warm delta, repeat reads of written
        // keys must be answered by the plan stage: delta_hits grows,
        // engine lookups do not.
        let store = ShardedStore::build_with(
            Backend::Sorted,
            1,
            &pairs(500),
            StoreConfig::with_threshold(1 << 20),
        );
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 4 },
                ..ServeConfig::default()
            },
        );
        for k in 0..16u64 {
            svc.put(k, 9_000 + k);
        }
        for k in 0..16u64 {
            assert_eq!(svc.get(k), Some(9_000 + k));
        }
        assert_eq!(svc.get(100), Some(50)); // untouched key: engine
        let stats = svc.stats();
        assert_eq!(stats.delta_hits, 16);
        assert_eq!(stats.engine.lookups, 1);
    }

    #[test]
    #[should_panic(expected = "closed LookupService")]
    fn cache_hit_after_close_still_panics() {
        // The hot-cache fast path must honor the use-after-close
        // contract even though it never touches an admission queue.
        let store = ShardedStore::build(Backend::Sorted, 1, &pairs(10));
        let mut svc = LookupService::start(
            store,
            ServeConfig {
                hot_cache_slots: 8,
                ..ServeConfig::default()
            },
        );
        assert_eq!(svc.get(2), Some(1));
        assert_eq!(svc.get(2), Some(1)); // cached now
        svc.close();
        let _ = svc.get(2);
    }

    #[test]
    #[should_panic(expected = "closed LookupService")]
    fn empty_get_many_after_close_panics() {
        let store = ShardedStore::build(Backend::Sorted, 1, &pairs(10));
        let mut svc = LookupService::start(store, ServeConfig::default());
        svc.close();
        let _ = svc.get_many(&[]);
    }

    #[test]
    #[should_panic(expected = "queue_cap must be positive")]
    fn rejects_zero_queue_cap() {
        let store = ShardedStore::build(Backend::Sorted, 1, &[]);
        LookupService::start(
            store,
            ServeConfig {
                queue_cap: 0,
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn stats_snapshots_stay_coherent_under_concurrent_writes() {
        // Regression for the pre-registry skew: reading wal_records
        // and wal_syncs as two independent atomic loads could observe
        // a sync without the record it covered. A monitor hammering
        // stats() against a durable write load must never see any
        // cross-counter invariant inverted, mid-flight or after.
        use isi_durable::{Fs, FsyncMode, MemFs};
        use std::sync::atomic::AtomicBool;

        let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
        let store = ShardedStore::build_with_fs(
            Backend::Sorted,
            2,
            &pairs(100),
            StoreConfig {
                fsync: FsyncMode::Group,
                ..StoreConfig::with_threshold(4)
            },
            fs,
        );
        let svc = LookupService::start(
            store,
            ServeConfig {
                batch: BatchPolicy { max_batch: 8 },
                ..ServeConfig::default()
            },
        );
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let svc = &svc;
            let done = &done;
            let monitor = scope.spawn(move || {
                let mut snaps = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let s = svc.stats();
                    assert!(
                        s.wal_syncs <= s.wal_records,
                        "skewed snapshot: {} syncs > {} records",
                        s.wal_syncs,
                        s.wal_records
                    );
                    assert!(
                        s.bg_merges <= s.merges,
                        "skewed snapshot: {} bg merges > {} merges",
                        s.bg_merges,
                        s.merges
                    );
                    assert!(
                        s.full_flushes <= s.batches && s.caller_runs <= s.batches,
                        "skewed snapshot: {} full / {} caller-run > {} batches",
                        s.full_flushes,
                        s.caller_runs,
                        s.batches
                    );
                    snaps += 1;
                }
                snaps
            });
            std::thread::scope(|writers| {
                for c in 0..3u64 {
                    writers.spawn(move || {
                        for i in 0..200u64 {
                            svc.put(c + i * 3, i);
                        }
                    });
                }
            });
            done.store(true, Ordering::Relaxed);
            assert!(monitor.join().expect("monitor thread") > 0);
        });
        svc.store().quiesce();
        let s = svc.stats();
        assert_eq!(s.puts, 600);
        assert!(s.wal_records > 0);
        assert!(s.wal_syncs > 0);
        assert!(s.wal_syncs <= s.wal_records);
    }

    #[test]
    fn stage_breakdown_and_exports_cover_the_pipeline() {
        use isi_durable::{Fs, MemFs};

        // Once with durability off, once group-committing to a MemFs:
        // the WAL span counts must follow the WAL counters both ways.
        for durable in [false, true] {
            let cfg = StoreConfig::with_threshold(4);
            let store = if durable {
                let fs: Arc<dyn Fs> = Arc::new(MemFs::new());
                ShardedStore::build_with_fs(Backend::Csb, 2, &pairs(500), cfg, fs)
            } else {
                ShardedStore::build_with(Backend::Csb, 2, &pairs(500), cfg)
            };
            let svc = LookupService::start(
                store,
                ServeConfig {
                    batch: BatchPolicy { max_batch: 8 },
                    trace_events: 256,
                    ..ServeConfig::default()
                },
            );
            for k in 0..64u64 {
                svc.put(k * 2 + 1, k);
                assert_eq!(svc.get(k * 2 + 1), Some(k));
            }
            assert!(!svc.get_range(0, 50).is_empty());
            svc.store().quiesce();

            let rows = svc.stage_breakdown();
            assert_eq!(rows.len(), 2);
            let count = |stage: Stage| {
                rows.iter()
                    .map(|row| row[stage.index()].count())
                    .sum::<u64>()
            };
            let stats = svc.stats();
            // Every admission entry got exactly one admission-wait sample.
            assert_eq!(count(Stage::AdmissionWait), stats.requests);
            assert!(count(Stage::Commit) > 0);
            assert!(count(Stage::Writeback) > 0);
            assert!(stats.merges > 0, "threshold 4 under 64 puts must merge");
            assert_eq!(count(Stage::Merge), stats.merges);
            assert_eq!(count(Stage::RangeScan), 2);
            // Reads went through the plan stage, the engine, or both.
            assert!(count(Stage::Plan) + count(Stage::Engine) > 0);
            // One append span per group-commit record and one fsync
            // span per sync; none of either without a WAL.
            assert_eq!(stats.wal_records > 0, durable);
            assert_eq!(stats.wal_syncs > 0, durable);
            assert_eq!(count(Stage::WalAppend), stats.wal_records);
            assert_eq!(count(Stage::WalFsync), stats.wal_syncs);
            // The request-path stages decompose end-to-end latency, so
            // they never sum past it. (Merge, WAL and backpressure
            // spans overlap writeback or run on the merger thread.)
            let request_path: u64 = [
                Stage::AdmissionWait,
                Stage::Plan,
                Stage::Engine,
                Stage::Writeback,
            ]
            .iter()
            .flat_map(|stage| rows.iter().map(|row| row[stage.index()].sum()))
            .sum();
            assert!(request_path > 0);
            assert!(
                request_path <= stats.latency.sum(),
                "stage time {request_path} ns > latency sum {} ns",
                stats.latency.sum()
            );

            let trace = svc.export_chrome_trace();
            assert!(trace.contains("\"traceEvents\""));
            assert!(trace.contains("batch_flush"));
            assert!(trace.contains("merge_publish"));

            let prom = svc.metrics_prometheus();
            assert!(prom.contains("serve_requests"));
            assert!(prom.contains("store_merges"));
            let json = svc.metrics_json();
            assert!(json.contains("serve_latency_ns"));
            assert!(json.contains("store_merges"));
        }
    }
}
