//! The cooperative virtual-thread runtime under the model checker.
//!
//! One *execution* of a model runs every model ("virtual") thread on a
//! real OS thread, but the [`Controller`] allows exactly **one** of
//! them to run at any moment. Every shimmed synchronization operation
//! ([`crate::sync`]) calls [`Controller::sched_point`] first, which
//! hands control to the schedule [`Chooser`]: the set of schedulable
//! threads is collected, the chooser picks one, and everyone else
//! stays parked. Because models only communicate through the shims,
//! the chooser's decision sequence fully determines the execution —
//! which is what makes exhaustive exploration and replay possible
//! (see [`crate::explore`]).
//!
//! The runtime also understands *blocking*: a shim that cannot make
//! progress (a held mutex, an empty condvar) parks its thread as
//! [`VState::Blocked`], which removes it from the schedulable set
//! until the owning resource releases it. When **no** thread is
//! schedulable but some are still alive, the execution has deadlocked
//! — the runtime records that as a failure with the schedule that
//! produced it, exactly like an assertion violation in model code.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use crate::explore::Config;

/// Schedule decision source: DFS frontier, seeded RNG, or a replayed
/// seed string. Called only at genuine decision points (2+ options).
pub(crate) trait Chooser: Send {
    /// Pick one of `options` (≥ 2) schedulable alternatives, or fail
    /// with a diagnostic (e.g. a replay seed that diverged).
    fn choose(&mut self, options: usize) -> Result<usize, String>;
}

/// Scheduling state of one virtual thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VState {
    /// Schedulable, waiting to be picked.
    Runnable,
    /// The one thread currently allowed to run.
    Running,
    /// Parked on a resource (mutex/rwlock/condvar/join); not
    /// schedulable until the resource wakes it.
    Blocked,
    /// Returned (or unwound); never schedulable again.
    Finished,
}

/// One virtual thread's runtime record.
struct VThread {
    state: VState,
    /// Threads blocked in `join` on this one.
    joiners: Vec<usize>,
}

/// A model-level synchronization resource (allocated by the shims).
pub(crate) enum Resource {
    Mutex {
        locked: bool,
        waiters: Vec<usize>,
    },
    RwLock {
        readers: usize,
        writer: bool,
        waiters: Vec<usize>,
    },
    Condvar {
        /// Waiting threads in wait order.
        waiters: Vec<usize>,
    },
}

/// Why an execution stopped early.
#[derive(Debug, Clone)]
pub(crate) struct Failure {
    pub message: String,
    /// The decision sequence up to the failure (replay seed).
    pub schedule: Vec<u8>,
}

pub(crate) struct RtState {
    threads: Vec<VThread>,
    resources: Vec<Resource>,
    /// Unfinished virtual threads.
    live: usize,
    /// Chosen index at every decision point so far (the replay seed).
    schedule: Vec<u8>,
    /// Total sched points so far (bounded by `Config::max_steps`).
    steps: usize,
    failure: Option<Failure>,
    /// Set on failure: every parked thread unwinds out of model code.
    abort: bool,
    /// OS handles of spawned virtual threads (joined by the harness).
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// Shared coordinator of one execution.
pub(crate) struct Controller {
    state: StdMutex<RtState>,
    cv: StdCondvar,
    chooser: Arc<StdMutex<dyn Chooser>>,
    cfg: Config,
}

/// Panic payload used to unwind parked model threads when an
/// execution aborts; recognized (and swallowed) by the thread
/// wrappers.
pub(crate) struct Aborted;

fn is_abort(payload: &(dyn Any + Send)) -> bool {
    payload.is::<Aborted>()
}

/// Render a panic payload as a failure message.
fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model panicked with a non-string payload".to_string()
    }
}

thread_local! {
    /// The controller + virtual-thread id of the current OS thread,
    /// set while it is executing model code.
    static CTX: RefCell<Option<(Arc<Controller>, usize)>> = const { RefCell::new(None) };
}

/// The current thread's `(controller, vthread id)`.
///
/// # Panics
/// Panics if called outside a model execution (shims only work under
/// [`crate::explore`]/[`crate::check`]).
pub(crate) fn current() -> (Arc<Controller>, usize) {
    CTX.with(|ctx| {
        ctx.borrow()
            .clone()
            .expect("isi_check shim used outside a model execution")
    })
}

fn set_ctx(ctl: &Arc<Controller>, tid: usize) {
    CTX.with(|ctx| *ctx.borrow_mut() = Some((Arc::clone(ctl), tid)));
}

fn clear_ctx() {
    CTX.with(|ctx| *ctx.borrow_mut() = None);
}

impl Controller {
    fn new(chooser: Arc<StdMutex<dyn Chooser>>, cfg: Config) -> Self {
        Self {
            state: StdMutex::new(RtState {
                threads: vec![VThread {
                    state: VState::Running,
                    joiners: Vec::new(),
                }],
                resources: Vec::new(),
                live: 1,
                schedule: Vec::new(),
                steps: 0,
                failure: None,
                abort: false,
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
            chooser,
            cfg,
        }
    }

    /// Lock the runtime state. The lock is never held while model code
    /// runs, only inside controller operations.
    fn lock(&self) -> std::sync::MutexGuard<'_, RtState> {
        // The state mutex can only be poisoned by a bug in the runtime
        // itself (model panics are caught before unwinding through
        // controller calls); recover the state to keep shutdown moving.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record a failure (first one wins) and wake every parked thread
    /// so the execution unwinds.
    fn fail_locked(&self, st: &mut RtState, message: String) {
        if st.failure.is_none() {
            st.failure = Some(Failure {
                message,
                schedule: st.schedule.clone(),
            });
        }
        st.abort = true;
        self.cv.notify_all();
    }

    pub(crate) fn record_panic(&self, payload: &(dyn Any + Send)) {
        let mut st = self.lock();
        let msg = payload_message(payload);
        self.fail_locked(&mut st, msg);
    }

    /// Pick the next thread to run from the schedulable set. No-op
    /// under abort.
    fn pick_next_locked(&self, st: &mut RtState) {
        if st.abort {
            return;
        }
        let options: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == VState::Runnable)
            .map(|(i, _)| i)
            .collect();
        if options.is_empty() {
            if st.live > 0 {
                let stuck: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.state != VState::Finished)
                    .map(|(i, t)| format!("thread {i}: {:?}", t.state))
                    .collect();
                self.fail_locked(
                    st,
                    format!("deadlock: no schedulable thread ({})", stuck.join(", ")),
                );
            }
            return;
        }
        let idx = if options.len() == 1 {
            0
        } else {
            debug_assert!(options.len() <= 36, "seed alphabet exhausted");
            let picked = self
                .chooser
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .choose(options.len());
            match picked {
                Ok(i) => {
                    st.schedule.push(i as u8);
                    i
                }
                Err(msg) => {
                    self.fail_locked(st, msg);
                    return;
                }
            }
        };
        let tid = options[idx];
        st.threads[tid].state = VState::Running;
        self.cv.notify_all();
    }

    /// Park the calling thread until it is scheduled again (or the
    /// execution aborts, in which case it unwinds).
    fn park_locked<'a>(
        &'a self,
        mut st: std::sync::MutexGuard<'a, RtState>,
        tid: usize,
    ) -> std::sync::MutexGuard<'a, RtState> {
        while st.threads[tid].state != VState::Running {
            if st.abort {
                drop(st);
                resume_unwind(Box::new(Aborted));
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st
    }

    /// The interleaving point before every shimmed operation: offer
    /// the scheduler the chance to run any other schedulable thread.
    pub(crate) fn sched_point(&self, tid: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            resume_unwind(Box::new(Aborted));
        }
        st.steps += 1;
        if st.steps > self.cfg.max_steps {
            self.fail_locked(
                &mut st,
                format!(
                    "step bound exceeded ({} sched points): livelock or unbounded model",
                    self.cfg.max_steps
                ),
            );
            drop(st);
            resume_unwind(Box::new(Aborted));
        }
        st.threads[tid].state = VState::Runnable;
        self.pick_next_locked(&mut st);
        let st = self.park_locked(st, tid);
        drop(st);
    }

    /// Allocate a model-level resource; shims store the returned id.
    pub(crate) fn alloc_resource(&self, r: Resource) -> usize {
        let mut st = self.lock();
        st.resources.push(r);
        st.resources.len() - 1
    }

    // ---- mutex ----

    /// Acquire mutex `id` for `tid`. `reacquire` skips the leading
    /// sched point (used when returning from a condvar wait, where the
    /// wakeup itself was the scheduling decision).
    pub(crate) fn mutex_lock(&self, tid: usize, id: usize, reacquire: bool) {
        if !reacquire {
            self.sched_point(tid);
        }
        let mut st = self.lock();
        loop {
            if st.abort {
                drop(st);
                resume_unwind(Box::new(Aborted));
            }
            let Resource::Mutex { locked, waiters } = &mut st.resources[id] else {
                unreachable!("resource {id} is not a mutex");
            };
            if !*locked {
                *locked = true;
                return;
            }
            waiters.push(tid);
            st.threads[tid].state = VState::Blocked;
            self.pick_next_locked(&mut st);
            st = self.park_locked(st, tid);
        }
    }

    /// Release mutex `id`; every waiter becomes schedulable and will
    /// retry (the next sched point decides who wins).
    pub(crate) fn mutex_unlock(&self, id: usize) {
        let mut st = self.lock();
        let Resource::Mutex { locked, waiters } = &mut st.resources[id] else {
            unreachable!("resource {id} is not a mutex");
        };
        *locked = false;
        let woken = std::mem::take(waiters);
        for w in woken {
            if st.threads[w].state == VState::Blocked {
                st.threads[w].state = VState::Runnable;
            }
        }
        self.cv.notify_all();
    }

    // ---- rwlock ----

    pub(crate) fn rwlock_lock(&self, tid: usize, id: usize, write: bool) {
        self.sched_point(tid);
        let mut st = self.lock();
        loop {
            if st.abort {
                drop(st);
                resume_unwind(Box::new(Aborted));
            }
            let Resource::RwLock {
                readers,
                writer,
                waiters,
            } = &mut st.resources[id]
            else {
                unreachable!("resource {id} is not a rwlock");
            };
            let free = if write {
                *readers == 0 && !*writer
            } else {
                !*writer
            };
            if free {
                if write {
                    *writer = true;
                } else {
                    *readers += 1;
                }
                return;
            }
            waiters.push(tid);
            st.threads[tid].state = VState::Blocked;
            self.pick_next_locked(&mut st);
            st = self.park_locked(st, tid);
        }
    }

    pub(crate) fn rwlock_unlock(&self, id: usize, write: bool) {
        let mut st = self.lock();
        let Resource::RwLock {
            readers,
            writer,
            waiters,
        } = &mut st.resources[id]
        else {
            unreachable!("resource {id} is not a rwlock");
        };
        if write {
            *writer = false;
        } else {
            *readers -= 1;
        }
        let woken = std::mem::take(waiters);
        for w in woken {
            if st.threads[w].state == VState::Blocked {
                st.threads[w].state = VState::Runnable;
            }
        }
        self.cv.notify_all();
    }

    // ---- condvar ----

    /// Atomically release `mutex` and park on condvar `cv`. The caller
    /// must reacquire the mutex afterwards via `mutex_lock(.., true)`.
    pub(crate) fn condvar_wait(&self, tid: usize, cv: usize, mutex: usize) {
        // The wait itself is an observable operation (release + park).
        let mut st = self.lock();
        if st.abort {
            drop(st);
            resume_unwind(Box::new(Aborted));
        }
        let Resource::Condvar { waiters } = &mut st.resources[cv] else {
            unreachable!("resource {cv} is not a condvar");
        };
        waiters.push(tid);
        st.threads[tid].state = VState::Blocked;
        // Release the mutex inline (same shape as mutex_unlock, under
        // the already-held state lock).
        {
            let Resource::Mutex { locked, waiters } = &mut st.resources[mutex] else {
                unreachable!("resource {mutex} is not a mutex");
            };
            *locked = false;
            let woken = std::mem::take(waiters);
            for w in woken {
                if st.threads[w].state == VState::Blocked {
                    st.threads[w].state = VState::Runnable;
                }
            }
        }
        self.pick_next_locked(&mut st);
        drop(self.park_locked(st, tid));
    }

    /// Wake one waiter (a scheduling decision when several wait) or
    /// all of them.
    pub(crate) fn condvar_notify(&self, tid: usize, cv: usize, all: bool) {
        self.sched_point(tid);
        let mut st = self.lock();
        if st.abort {
            drop(st);
            resume_unwind(Box::new(Aborted));
        }
        let Resource::Condvar { waiters } = &mut st.resources[cv] else {
            unreachable!("resource {cv} is not a condvar");
        };
        if waiters.is_empty() {
            return;
        }
        let woken: Vec<usize> = if all || waiters.len() == 1 {
            std::mem::take(waiters)
        } else {
            // Which waiter wakes is nondeterministic in a real
            // condvar: make it a decision point.
            let n = waiters.len();
            let picked = self
                .chooser
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .choose(n);
            match picked {
                Ok(i) => {
                    st.schedule.push(i as u8);
                    // Reborrow after the chooser call.
                    let Resource::Condvar { waiters } = &mut st.resources[cv] else {
                        unreachable!();
                    };
                    vec![waiters.remove(i)]
                }
                Err(msg) => {
                    self.fail_locked(&mut st, msg);
                    drop(st);
                    resume_unwind(Box::new(Aborted));
                }
            }
        };
        for w in woken {
            if st.threads[w].state == VState::Blocked {
                st.threads[w].state = VState::Runnable;
            }
        }
        self.cv.notify_all();
    }

    // ---- threads ----

    /// Register a new virtual thread (Runnable, not yet picked).
    fn register_thread(&self) -> usize {
        let mut st = self.lock();
        assert!(
            st.threads.len() < self.cfg.max_threads,
            "model spawned more than max_threads ({}) virtual threads",
            self.cfg.max_threads
        );
        st.threads.push(VThread {
            state: VState::Runnable,
            joiners: Vec::new(),
        });
        st.live += 1;
        st.threads.len() - 1
    }

    /// First park of a freshly spawned thread: wait to be scheduled.
    fn wait_first_schedule(&self, tid: usize) {
        let st = self.lock();
        // Entry state is Runnable; park until the scheduler picks us.
        let st = self.park_locked(st, tid);
        drop(st);
    }

    /// Mark `tid` finished and hand control onwards.
    pub(crate) fn finish_thread(&self, tid: usize) {
        let mut st = self.lock();
        st.threads[tid].state = VState::Finished;
        st.live -= 1;
        let joiners = std::mem::take(&mut st.threads[tid].joiners);
        for j in joiners {
            if st.threads[j].state == VState::Blocked {
                st.threads[j].state = VState::Runnable;
            }
        }
        self.pick_next_locked(&mut st);
        self.cv.notify_all();
    }

    /// Block until `target` finishes.
    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        self.sched_point(tid);
        let mut st = self.lock();
        loop {
            if st.abort {
                drop(st);
                resume_unwind(Box::new(Aborted));
            }
            if st.threads[target].state == VState::Finished {
                return;
            }
            st.threads[target].joiners.push(tid);
            st.threads[tid].state = VState::Blocked;
            self.pick_next_locked(&mut st);
            st = self.park_locked(st, tid);
        }
    }

    /// Spawn a virtual thread running `f` on its own OS thread.
    pub(crate) fn spawn(self: &Arc<Self>, parent: usize, f: Box<dyn FnOnce() + Send>) -> usize {
        let tid = self.register_thread();
        let ctl = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("isi-check-vt-{tid}"))
            .spawn(move || {
                set_ctx(&ctl, tid);
                ctl.wait_first_schedule(tid);
                let result = catch_unwind(AssertUnwindSafe(f));
                if let Err(payload) = result {
                    if !is_abort(payload.as_ref()) {
                        ctl.record_panic(payload.as_ref());
                    }
                }
                ctl.finish_thread(tid);
                clear_ctx();
            })
            .expect("spawn model thread");
        self.lock().os_handles.push(handle);
        // Spawning is itself a visible action: the child may run
        // before the parent's next operation.
        self.sched_point(parent);
        tid
    }
}

/// The result of running a model once under a chooser: the failure
/// (with its own replay schedule) if one occurred.
pub(crate) struct RunResult {
    pub failure: Option<Failure>,
}

/// Run `model` once to completion (all virtual threads finished or
/// the execution aborted) under `chooser`.
pub(crate) fn run_once(
    model: &(dyn Fn() + Sync),
    chooser: Arc<StdMutex<dyn Chooser>>,
    cfg: Config,
) -> RunResult {
    let ctl = Arc::new(Controller::new(chooser, cfg));
    set_ctx(&ctl, 0);
    let result = catch_unwind(AssertUnwindSafe(model));
    if let Err(payload) = result {
        if !is_abort(payload.as_ref()) {
            ctl.record_panic(payload.as_ref());
        }
    }
    ctl.finish_thread(0);
    clear_ctx();
    // Join every OS thread (threads may spawn threads, so drain in a
    // loop until the list stays empty).
    loop {
        let handles = std::mem::take(&mut ctl.lock().os_handles);
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
    let failure = ctl.lock().failure.take();
    RunResult { failure }
}
