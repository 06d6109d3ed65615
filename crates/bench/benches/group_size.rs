//! Criterion bench: the group-size sweep behind `Interleave::default()`
//! — Figure 7's sweep for the binary-search coroutine, plus a CSB+-tree
//! and a hash-probe row, each on one out-of-cache index (wall clock).
//! The default group must sit on the plateau of all three rows; the
//! README table next to the sentence that names the default is this
//! bench's output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use isi_bench::wall::GROUPS;
use isi_core::mem::DirectMem;
use isi_csb::{bulk_lookup_interleaved, bulk_lookup_seq, CsbTree, DirectTreeStore};
use isi_hash::{bulk_probe_interleaved, bulk_probe_seq, ChainedHashTable};
use isi_search::coro::bulk_rank_coro;
use isi_search::seq::bulk_rank_branchfree;
use isi_workloads as wl;

/// One `get_many` batch of the repo benchmark.
const LOOKUPS: usize = 8192;

/// One row of the sweep: `run(None)` is the row's sequential baseline,
/// `run(Some(g))` its coroutine at group `g`.
fn sweep(c: &mut Criterion, name: &str, mut run: impl FnMut(Option<usize>)) {
    let mut g = c.benchmark_group(name);
    g.throughput(Throughput::Elements(LOOKUPS as u64));
    g.sample_size(15);
    g.bench_function("baseline_ref", |b| b.iter(|| run(None)));
    for group in GROUPS {
        g.bench_function(BenchmarkId::new("coro", group), |b| {
            b.iter(|| run(Some(group)))
        });
    }
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let table = wl::int_array(wl::ints_for_mb(64));
    let lookups = wl::uniform_lookups(table.len(), LOOKUPS);
    let mem = DirectMem::new(&table);
    let mut out = vec![0u32; lookups.len()];
    sweep(c, "group_size_64MB", |group| match group {
        None => bulk_rank_branchfree(&mem, &lookups, &mut out),
        Some(g) => drop(bulk_rank_coro(mem, &lookups, g, &mut out)),
    });
}

fn bench_csb(c: &mut Criterion) {
    let n: u32 = 8 << 20;
    let pairs: Vec<(u32, u32)> = (0..n).map(|i| (i * 3, i)).collect();
    let tree = CsbTree::from_sorted(&pairs);
    let store = DirectTreeStore::new(&tree);
    let probes: Vec<u32> = wl::uniform_lookups(3 * n as usize, LOOKUPS);
    let mut out = vec![None; probes.len()];
    sweep(c, "group_size_csb_8M", |group| {
        match group {
            None => bulk_lookup_seq(store, &probes, &mut out),
            Some(g) => bulk_lookup_interleaved(store, &probes, g, &mut out),
        };
    });
}

fn bench_hash(c: &mut Criterion) {
    const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;
    let n: u64 = 8 << 20;
    let mut table = ChainedHashTable::with_capacity(n as usize);
    for i in 0..n {
        table.insert(i.wrapping_mul(SPREAD), i);
    }
    let probes: Vec<u64> = wl::uniform_lookups(2 * n as usize, LOOKUPS)
        .into_iter()
        .map(|i| u64::from(i).wrapping_mul(SPREAD))
        .collect();
    let mut out = vec![None; probes.len()];
    sweep(c, "group_size_hash_8M", |group| {
        match group {
            None => bulk_probe_seq(&table, &probes, &mut out),
            Some(g) => bulk_probe_interleaved(&table, &probes, g, &mut out),
        };
    });
}

criterion_group!(benches, bench_search, bench_csb, bench_hash);
criterion_main!(benches);
