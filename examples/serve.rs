//! The lookup service with observability on: serve a few requests,
//! print where their time went, and export the event timeline.
//!
//! Run with: `cargo run --release --example serve -- trace.json`
//! and load `trace.json` at `chrome://tracing` or ui.perfetto.dev.

use coro_isi::serve::{Backend, LookupService, ServeConfig, ShardedStore, Stage, StoreConfig};

fn main() {
    let trace_path = std::env::args()
        .nth(1)
        .expect("usage: serve <chrome-trace output path>");

    // 64k even keys on two CSB+-tree shards; a merge threshold of 256
    // makes the 4000 writes a shard below cross it a dozen times, so
    // merges show up in the output: minor ones (the delta folds into
    // the shard's mid tier) and, once that mid tier holds
    // √(256 · 32k) ≈ 2.9k entries, a major one (the main is rebuilt).
    let pairs: Vec<(u64, u64)> = (0..1u64 << 16).map(|i| (i * 2, i)).collect();
    let store = ShardedStore::build_with(Backend::Csb, 2, &pairs, StoreConfig::with_threshold(256));
    let svc = LookupService::start(
        store,
        ServeConfig {
            trace_events: 4096,
            ..ServeConfig::default()
        },
    );

    for i in 0..8_000u64 {
        svc.put(i * 2 + 1, i); // odd keys: all new
        assert_eq!(svc.get(i * 2 + 1), Some(i));
    }
    let keys: Vec<u64> = (0..8_192u64).map(|i| i * 7 % (1 << 17)).collect();
    let found = svc.get_many(&keys).iter().flatten().count();
    svc.store().quiesce();
    println!("get_many found {found} of {} keys", keys.len());

    println!(
        "\n{:<16}{:>6}{:>10}{:>12}{:>12}",
        "stage", "shard", "count", "p50 ns", "p99 ns"
    );
    for (shard, row) in svc.stage_breakdown().iter().enumerate() {
        for stage in Stage::ALL {
            let h = &row[stage.index()];
            if h.count() > 0 {
                println!(
                    "{:<16}{shard:>6}{:>10}{:>12}{:>12}",
                    stage.name(),
                    h.count(),
                    h.p50(),
                    h.p99()
                );
            }
        }
    }

    let store = svc.store();
    println!(
        "\nmerges {} (major {})",
        store.merges(),
        store.major_merges()
    );

    std::fs::write(&trace_path, svc.export_chrome_trace()).expect("write the chrome trace");
    println!("\nchrome trace written to {trace_path}");
}
