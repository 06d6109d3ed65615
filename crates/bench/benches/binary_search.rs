//! Criterion bench: the five binary-search implementations (Figure 3's
//! comparison at one out-of-cache size), plus the two ablations the
//! paper's Section 4 motivates:
//!
//! * `coro_unified` vs `coro_separate` — the cost of the unified
//!   `const INTERLEAVE` codepath vs a dedicated interleaved-only
//!   implementation (the paper expects zero after compile-time
//!   resolution; monomorphization delivers exactly that in Rust);
//! * `frames/slab` vs `frames/boxed` — frame recycling in the scheduler
//!   vs a heap allocation per coroutine (what a non-eliding compiler
//!   does): one scheduler, frames inline or boxed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use isi_core::mem::DirectMem;
use isi_core::sched::run_interleaved;
use isi_search::coro::bulk_rank_coro;
use isi_search::coro::bulk_rank_coro_separate;
use isi_search::coro::rank_coro;
use isi_search::seq::bulk_rank_branchfree;
use isi_search::seq::bulk_rank_branchy;
use isi_search::{bulk_rank_amac, bulk_rank_gp};
use isi_workloads as wl;

const MB: usize = 64;
const LOOKUPS: usize = 2000;

fn bench_impls(c: &mut Criterion) {
    let table = wl::int_array(wl::ints_for_mb(MB));
    let lookups = wl::uniform_lookups(table.len(), LOOKUPS);
    let mem = DirectMem::new(&table);
    let mut out = vec![0u32; lookups.len()];

    let mut g = c.benchmark_group("binary_search_64MB");
    g.throughput(Throughput::Elements(LOOKUPS as u64));
    g.sample_size(20);

    g.bench_function("std", |b| {
        b.iter(|| bulk_rank_branchy(&mem, &lookups, &mut out))
    });
    g.bench_function("baseline", |b| {
        b.iter(|| bulk_rank_branchfree(&mem, &lookups, &mut out))
    });
    g.bench_function("gp_g10", |b| {
        b.iter(|| bulk_rank_gp(&mem, &lookups, 10, &mut out))
    });
    g.bench_function("amac_g6", |b| {
        b.iter(|| bulk_rank_amac(&mem, &lookups, 6, &mut out))
    });
    g.bench_function("coro_g6", |b| {
        b.iter(|| bulk_rank_coro(mem, &lookups, 6, &mut out))
    });
    g.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let table = wl::int_array(wl::ints_for_mb(MB));
    let lookups = wl::uniform_lookups(table.len(), LOOKUPS);
    let mem = DirectMem::new(&table);
    let mut out = vec![0u32; lookups.len()];

    let mut g = c.benchmark_group("coro_ablations_64MB");
    g.throughput(Throughput::Elements(LOOKUPS as u64));
    g.sample_size(20);

    g.bench_function(BenchmarkId::new("frames", "slab"), |b| {
        b.iter(|| {
            run_interleaved(
                6,
                lookups.iter().copied(),
                |v| rank_coro::<true, u32, _>(mem, v),
                |i, r| out[i] = r,
            )
        })
    });
    g.bench_function(BenchmarkId::new("frames", "boxed"), |b| {
        b.iter(|| {
            run_interleaved(
                6,
                lookups.iter().copied(),
                |v| Box::pin(rank_coro::<true, u32, _>(mem, v)),
                |i, r| out[i] = r,
            )
        })
    });
    g.bench_function(BenchmarkId::new("codepath", "unified"), |b| {
        b.iter(|| bulk_rank_coro(mem, &lookups, 6, &mut out))
    });
    g.bench_function(BenchmarkId::new("codepath", "separate"), |b| {
        b.iter(|| bulk_rank_coro_separate(mem, &lookups, 6, &mut out))
    });
    g.finish();
}

criterion_group!(benches, bench_impls, bench_ablations);
criterion_main!(benches);
