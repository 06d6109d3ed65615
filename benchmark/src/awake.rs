//! Keep the virtual CPUs from halting while a run measures.
//!
//! Every call here ends in a sleep and a wake-up: the client waits for
//! its reply, a dispatcher waits out `max_wait`. On a virtual machine
//! an idle CPU halts into the hypervisor, and how long the next
//! wake-up takes then depends on the hypervisor's halt-polling state —
//! on this box window rates of one run moved by a quarter with it.
//! One spinning thread per CPU in the `SCHED_IDLE` class removes that:
//! it runs only when the CPU would otherwise halt and is preempted the
//! moment a thread of the program wakes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use isi_core::topo::Topology;

/// The spinners; they stop when this is dropped.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Spinners the kernel moved into `SCHED_IDLE` (0 where it would
    /// not: they have exited and the run proceeds without).
    pub spinning: usize,
}

impl KeepAwake {
    /// One spinner pinned to each of `cpus` CPUs.
    pub fn start(cpus: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicUsize::new(0));
        let idle = Arc::new(AtomicUsize::new(0));
        let topo = Topology::with_cores(cpus);
        let threads: Vec<_> = (0..cpus)
            .map(|cpu| {
                let (stop, ready, idle) = (stop.clone(), ready.clone(), idle.clone());
                std::thread::spawn(move || {
                    // Never spin in a normal class: that would take a
                    // core from the program.
                    let ok = enter_sched_idle();
                    idle.fetch_add(usize::from(ok), Ordering::SeqCst);
                    ready.fetch_add(1, Ordering::SeqCst);
                    if !ok {
                        return;
                    }
                    topo.pin_current(cpu);
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        while ready.load(Ordering::SeqCst) < cpus {
            std::thread::yield_now();
        }
        Self {
            stop,
            threads,
            spinning: idle.load(Ordering::SeqCst),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// `sched_setscheduler(0, SCHED_IDLE, &{0})` by raw syscall — pid 0
/// means the calling thread. Needs no privilege.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn enter_sched_idle() -> bool {
    const SCHED_IDLE: usize = 5;
    let param = 0i32; // struct sched_param { sched_priority }
    let ret: i64;
    // SAFETY: `syscall` with nr 144 (sched_setscheduler on x86_64
    // Linux) reads one `int` from `&param`, a live local, and writes
    // no user memory. rcx/r11 are declared clobbered (the syscall
    // instruction overwrites them); the kernel preserves every other
    // register.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 144i64 => ret,
            in("rdi") 0usize,
            in("rsi") SCHED_IDLE,
            in("rdx") &param as *const i32,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn enter_sched_idle() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_start_in_the_idle_class_or_not_at_all_and_stop_on_drop() {
        let awake = KeepAwake::start(2);
        assert!(awake.spinning <= 2);
        // Joins both threads; a spinner that ignored `stop` would hang here.
        drop(awake);
    }
}
