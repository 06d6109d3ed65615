//! Allocation discipline of the observability hot path.
//!
//! The license for threading `isi_obs` through every serve-path stage
//! is that it costs (almost) nothing when you are not looking:
//! histogram samples, stage recording, and disabled trace emission must
//! not allocate, and even *enabled* trace emission must be
//! allocation-free in steady state because rings are preallocated at
//! enable time. This test pins all of that with a counting global
//! allocator that counts per thread (`support/thread_alloc.rs`):
//! libtest's own threads allocate inside the counted window, which
//! made a process-wide count fail about one run in two.

use isi_obs::{AtomicHist, Obs, Stage, TraceKind};

#[path = "support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::count_allocs;

#[test]
fn disabled_observability_hot_path_never_allocates() {
    let obs = Obs::new(2);
    let latency = AtomicHist::new();

    let (allocs, _, _) = count_allocs(|| {
        for i in 0..10_000u64 {
            latency.record(i);
            obs.record_stage((i % 2) as usize, Stage::Engine, i);
            obs.record_stage((i % 2) as usize, Stage::WalFsync, i * 3);
            // Tracing is off: each emit must be one relaxed load.
            obs.trace().emit(0, TraceKind::BatchFlush, i, 5, 4, 1);
            obs.trace().emit_now(1, TraceKind::WalSync, 1, 0);
        }
    });
    assert_eq!(
        allocs, 0,
        "metric recording / disabled tracing allocated on the hot path"
    );
    assert!(obs.trace().events().is_empty());
    assert_eq!(latency.count(), 10_000);
}

#[test]
fn enabled_trace_emission_is_allocation_free_in_steady_state() {
    let obs = Obs::new(2);
    // Rings are preallocated here, outside the counted section.
    obs.trace().enable(64);

    let (allocs, _, _) = count_allocs(|| {
        // 10k events through 64-slot rings: fills, then wraps — both
        // paths must reuse the preallocated storage.
        for i in 0..10_000u64 {
            obs.trace()
                .emit((i % 2) as usize, TraceKind::BatchFlush, i, 3, 8, 1);
        }
    });
    assert_eq!(allocs, 0, "enabled trace emission allocated per event");
    assert_eq!(obs.trace().events().len(), 128);
    assert_eq!(obs.trace().dropped(), 10_000 - 128);
}
