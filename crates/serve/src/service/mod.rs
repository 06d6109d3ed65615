//! [`LookupService`]: the request lifecycle — admission, batching,
//! execution, writes, response routing, metrics.
//!
//! The paper's interleaving only pays off when lookups arrive in
//! batches large enough to keep a miss in flight per stream; a serving
//! workload instead delivers many small concurrent requests. This
//! module closes that gap with **caller-runs admission**: each shard
//! owns a bounded FIFO queue and one **executor token**, and every
//! request is pushed on its shard's queue — all but a cache-missing
//! `get` that finds its shard idle, which runs at once (below).
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
//! entry is answered, the fan-out slices of `get_many` (so shards
//! run in parallel), and whatever is queued at `close`.
//! Under load every batch is cut from the backlog that built up while
//! the previous batch ran (up to `max_batch` entries), so the
//! interleave group fills exactly when there is concurrency to fill
//! it from. **There is no flush timer**: an idle shard runs a lone
//! request at once on the caller, and a busy shard batches by itself;
//! no setting trades latency for batch size.
//!
//! **A lone `get` needs no entry.** A `get` that misses the cache and
//! finds the queue empty with the token present takes the token in
//! that same critical section and runs its lookup on the token's
//! scratch directly: no admission entry, no ticket, no batch buffers.
//! It is exactly the batch of one the queue path would have run, and
//! counts as one: a batch, a caller run, an entry with a nil admission
//! wait. Under the queue lock again it refills the cache, counts
//! itself and hands the token back, waking the helper for anything
//! queued meanwhile. Its start starts the store's first span and the
//! reading that ends the store's last span ends its latency: two clock
//! reads (three past a delta). Writes, `get_many` and a `get` on a
//! busy shard take the queue.
//!
//! **Writes ride the same queues.** `put`/`remove` enqueue on the
//! owning shard alongside reads, and a batch executes in FIFO order:
//! consecutive reads form engine runs, and consecutive writes form
//! **write runs** applied as one
//! [`ShardedStore::apply_write_run_with`] call — which, on a durable
//! store, is the **group-commit unit**: one WAL record and one data
//! sync cover the whole run before any of its tickets resolve,
//! amortizing the sync exactly like batching amortizes the interleaved
//! engine.
//! One client's `put` happens-before its next `get` of the same key
//! (read-your-writes per client), and all mutation of a shard is
//! serialized by its token.
//!
//! **`get_many`** pre-partitions a key slice by shard on the client
//! side and submits one admission entry per shard, so an n-key lookup
//! costs one queue round-trip per touched shard instead of n — the
//! client manufactures the batch the engine wants. The caller runs
//! the last slice itself and the helpers of the other shards run
//! theirs in parallel; before blocking on a slice's ticket the caller
//! takes over any slice whose helper has not started yet.
//!
//! **Reads are planned.** Each read run is resolved against the
//! shard's delta before the engine sees it (see [`crate::plan`]):
//! delta-decided keys are answered from the sorted run and only the
//! residual probes the main index. The split shows up in
//! [`ServeStats::delta_hits`] against [`ServeStats::engine`]'s lookups.
//!
//! **Merges never run here.** A threshold-crossing write enqueues a
//! job for the store's background merger thread; the runner applies
//! the write to the delta and moves on, so no request's latency
//! absorbs a rebuild.
//!
//! A per-shard **hot-key cache** (2^16 slots in 4-way sets, 1 MiB,
//! allocated zeroed at start) lives in the queue state, so **a shard
//! has one lock**: the queue lock guards the queue, the token, the
//! cache and the shard's counters, and is never held across the engine
//! or a store write. `get` probes the cache and, on a miss, enqueues or takes the
//! idle token in one critical section; a hit skips admission. The
//! token holder fills it before answering a read run (a direct `get`:
//! before handing the token back) and invalidates a write run's keys
//! before acknowledging them. On keys without skew it drops the table
//! for a while (see `cache.rs`): there every probe would only cost a
//! cold line.
//!
//! **Failure.** A runner that unwinds (a failed WAL append panics)
//! must not strand the token: a drop guard closes the shard, abandons
//! every queued ticket — their waiters panic with "shard failed"
//! instead of hanging — and wakes the helper so `close` still joins.
//!
//! Per-request latency (enqueue → result counted, just before the
//! ticket is fulfilled) is recorded into a log-bucketed
//! [`LatencyHist`]; [`ServeStats::caller_runs`] against
//! [`ServeStats::batches`] says who ran what.
//!
//! This file is the client API, the fan-out and the direct `get`.
//! Around it: `ticket` (the response slot), `cache` (hot keys),
//! `stats` (the counters' type), `queue` (queue, token, helper: who runs a
//! shard) and `exec` (what running one batch does).

mod cache;
mod exec;
mod queue;
mod stats;
#[cfg(test)]
mod tests;
mod ticket;

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use isi_core::par::ParConfig;
use isi_core::policy::Interleave;
use isi_core::stats::LatencyHist;
use isi_core::sync::{CondvarExt, MutexExt};
use isi_obs::{chrome_trace_json, now_ns, Obs, SpanTimer, Stage, TraceKind};

use crate::store::ShardedStore;

use cache::HotCache;
use exec::close_read_run;
use queue::{helper_loop, Entry, Exec, Op, QueueState, Runner, Running, ShardCtx, ShardState};
pub use stats::ServeStats;
use ticket::Ticket;

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Interleave policy every read run is dispatched with.
    pub policy: Interleave,
    /// Most entries one batch takes from a shard's admission queue
    /// (default 64). A runner never waits for a batch to fill: it takes
    /// what is queued, up to this.
    pub max_batch: usize,
    /// Per-shard admission-queue bound; requests block when the owning
    /// shard's queue is full (backpressure).
    pub queue_cap: usize,
    /// Ignored: the thread that holds a shard's token runs the whole
    /// batch, and shards run in parallel. It stays while the benchmark
    /// names it ([`ParConfig`]).
    pub par: ParConfig,
    /// Per-shard trace-ring capacity for structured events (batch
    /// flushes, merges, WAL syncs, backpressure stalls, …); 0 — the
    /// default — disables tracing entirely, leaving the emit sites as
    /// one relaxed load each. Sets both the service's and the store's
    /// rings, so 0 also turns off a store trace an earlier service
    /// enabled; export the merged timeline with
    /// [`LookupService::export_chrome_trace`].
    pub trace_events: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            policy: Interleave::default(),
            max_batch: 64,
            queue_cap: 1024,
            par: ParConfig,
            trace_events: 0,
        }
    }
}

/// A multi-tenant read/write point-lookup service over a
/// [`ShardedStore`].
///
/// `get`, `get_many`, `put` and `remove` are safe to call
/// from any number of threads; each call returns once its entry has
/// been executed — by the calling thread itself when it finds the
/// shard idle, otherwise by whichever thread holds the shard's token. Per shard, operations apply in
/// admission order, so a client that completed a `put` observes it in
/// every later read it issues (read-your-writes per client). Dropping
/// the service drains queued entries, answers them, and joins the
/// helpers.
///
/// # Panics
/// If a thread running a shard panics (a failed WAL append does), that
/// shard fails closed: requests queued on it panic with "shard failed"
/// and later requests to it panic as on a closed service.
pub struct LookupService {
    store: Arc<ShardedStore>,
    shards: Vec<Arc<ShardState>>,
    cfg: ServeConfig,
    /// Service-side observability hub: per-shard stage histograms
    /// (admission wait, commit, writeback, queue backpressure) and the
    /// service trace ring. Store-side spans live on
    /// [`ShardedStore::obs`]; the export methods merge both.
    obs: Arc<Obs>,
    helpers: Vec<JoinHandle<()>>,
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
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        let store = store.into();
        let obs = Arc::new(Obs::new(store.num_shards()));
        obs.trace().enable(cfg.trace_events);
        store.obs().trace().enable(cfg.trace_events);
        let shards: Vec<Arc<ShardState>> = (0..store.num_shards())
            .map(|_| {
                Arc::new(ShardState {
                    q: Mutex::new(QueueState {
                        reqs: VecDeque::new(),
                        open: true,
                        exec: Some(Box::new(Exec::new(&cfg))),
                        cache: HotCache::default(),
                        stats: ServeStats::default(),
                    }),
                    work: Condvar::new(),
                    space: Condvar::new(),
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
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &ShardedStore {
        &self.store
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

    /// Lock `shard`'s admission queue.
    ///
    /// # Panics
    /// Panics with "closed" on a closed queue — after releasing the
    /// lock, so a rejected request never poisons it for the helper,
    /// the other submitters and `close`.
    fn lock_open(&self, shard: usize) -> MutexGuard<'_, QueueState> {
        reject_if_closed(self.shards[shard].q.plock("admission queue"))
    }

    /// Push `op` on `shard`'s admission queue, `q` its lock from
    /// `lock_open`, blocking while the queue holds `queue_cap` entries
    /// (backpressure; panics like `lock_open` if it closes meanwhile).
    /// Returns with the lock still held: the caller either runs the
    /// shard or leaves the entry to the helper.
    fn enqueue<'a>(
        &'a self,
        shard: usize,
        mut q: MutexGuard<'a, QueueState>,
        op: Op,
    ) -> MutexGuard<'a, QueueState> {
        let state = &self.shards[shard];
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
            let q = self.enqueue(
                shard,
                self.lock_open(shard),
                make_op(shard, Arc::clone(ticket)),
            );
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

    /// Look up one key on the owning shard. A hit in the shard's
    /// hot-key cache answers at once; a miss on an idle shard runs on
    /// this thread without an admission entry, any other miss is
    /// admitted; either is then cached.
    pub fn get(&self, key: u64) -> Option<u64> {
        let shard = self.store.shard_of(key);
        let mut q = self.lock_open(shard);
        if let Some(result) = q.cache.probe(key) {
            q.stats.cache_hits += 1;
            return result;
        }
        if q.reqs.is_empty() {
            if let Some(exec) = q.exec.take() {
                return self.get_direct(shard, q, exec, key);
            }
        }
        let ticket = Arc::new(Ticket::new());
        let op = Op::Get {
            key,
            ticket: Arc::clone(&ticket),
        };
        self.run_until_answered(shard, self.enqueue(shard, q, op), &ticket);
        ticket.wait()
    }

    /// Answer a `get` that missed the cache on an idle shard: `q` is
    /// the queue lock under which the probe found the queue empty and
    /// `exec`, the token, was taken. This is the batch of one the queue
    /// path would run — same order, same counters, same failure — minus
    /// the entry, the ticket and the batch buffers that only queued
    /// work needs.
    fn get_direct(
        &self,
        shard: usize,
        q: MutexGuard<'_, QueueState>,
        exec: Box<Exec>,
        key: u64,
    ) -> Option<u64> {
        let ctx = self.ctx(shard);
        let state = ctx.state;
        drop(q);
        let start = now_ns();
        // Held across the lookup: a panic fails the shard closed.
        let mut running = Running {
            state,
            exec: Some(exec),
        };
        let exec = running.exec.as_mut().expect("token held until hand-back");
        let mut out = [None];
        let (outcome, end) = self.store.lookup_batch_from(
            shard,
            &[key],
            self.cfg.policy,
            &mut exec.scratch,
            &mut out,
            start,
        );
        let mut q = close_read_run(state, [(key, out[0])], &outcome);
        // A batch of one, run by its caller, with one entry.
        let stats = &mut q.stats;
        stats.batches += 1;
        stats.caller_runs += 1;
        stats.requests += 1;
        stats.gets += 1;
        stats.latency.record(end.saturating_sub(start));
        ctx.hand_back(&mut q, running.exec.take(), Runner::Caller);
        drop(q);
        // Nothing queued ahead of it: its admission wait is nil.
        self.obs.record_stage(shard, Stage::AdmissionWait, 0);
        self.obs.trace().emit(
            shard,
            TraceKind::BatchFlush,
            start,
            end.saturating_sub(start),
            1,
            0,
        );
        out[0]
    }

    /// Look up many keys with one admission entry per owning shard:
    /// the slice is partitioned client-side, each shard's sub-batch is
    /// one entry, and the results come back in `keys` order. Far
    /// cheaper than n `get` calls for multi-key requests — the client
    /// pre-forms the batch the engine wants.
    pub fn get_many(&self, keys: &[u64]) -> Vec<Option<u64>> {
        if keys.is_empty() {
            // No queue to admit to, but the use-after-close panic holds.
            drop(self.lock_open(0));
        }
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

    /// Upsert `key = val` through the owning shard's queue; blocks
    /// until applied and returns the previously visible value.
    pub fn put(&self, key: u64, val: u64) -> Option<u64> {
        self.write(key, Some(val))
    }

    /// Remove `key` through the owning shard's queue; blocks until
    /// applied and returns the value it held, if any.
    pub fn remove(&self, key: u64) -> Option<u64> {
        self.write(key, None)
    }

    /// `put` (`val` is `Some`) or `remove` (`None`).
    fn write(&self, key: u64, val: Option<u64>) -> Option<u64> {
        let shard = self.store.shard_of(key);
        let ticket = Arc::new(Ticket::new());
        let op = Op::Write {
            key,
            val,
            ticket: Arc::clone(&ticket),
        };
        let q = self.enqueue(shard, self.lock_open(shard), op);
        self.run_until_answered(shard, q, &ticket);
        ticket.wait()
    }

    /// Aggregated metrics over all shards (latency histograms merged),
    /// plus the store's merge/delta counters.
    ///
    /// Each shard's service counters are copied in one critical
    /// section of its queue lock, where every path bumps them, so
    /// `full_flushes <= batches`, `caller_runs <= batches` and
    /// `gets + many_keys <= engine.lookups + delta_hits` hold by
    /// construction. The store's counts come from one published
    /// version per shard, bumped under the shard's write lock with the
    /// publish that makes them true, so `wal_syncs == wal_records` and
    /// `compactions <= delta_runs` hold too, even while runners and
    /// the merger race the call. No shard write lock is taken: a
    /// shard whose write failed still answers.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for state in &self.shards {
            total.add_shard(&state.q.plock("admission queue").stats);
        }
        self.store.add_counters_to(&mut total);
        total.merge_backlog = self.store.merge_backlog() as u64;
        total.merge_latency = self.store.merge_latency();
        total.delta_keys = self.store.delta_len() as u64;
        total
    }

    /// The service-side observability hub (per-shard stage histograms,
    /// the service trace ring). The store's hub is at
    /// [`ShardedStore::obs`].
    ///
    /// Two hubs, on purpose: a store outlives the services opened over
    /// it, and each service's `stats()` and `stage_hist(..)` must start
    /// from zero — `benchmark/src/trace.rs` runs a warm-up, a measured
    /// and a traced service over one store, and a hub as old as the
    /// store would fold the warm-up into every `service.*` row.
    /// `export_chrome_trace` and `stage_breakdown` stitch the two.
    pub fn obs(&self) -> &Obs {
        &self.obs
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
    /// WAL append/fsync, merge, delta backpressure) and
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
    pub(crate) fn close(&mut self) {
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

/// `q`, if its queue is open; else release it and panic.
fn reject_if_closed(q: MutexGuard<'_, QueueState>) -> MutexGuard<'_, QueueState> {
    if !q.open {
        drop(q);
        panic!("request on a closed LookupService");
    }
    q
}
