//! A store's build allocates its mains and no staging copy.
//!
//! Building from strictly ascending pairs is two passes over the
//! caller's slice: one counts each shard's pairs, one pushes every pair
//! into its shard's main, reserved at that count. So the bytes the
//! build asks the allocator for are the mains' own, plus the store's
//! small fixed state — not a partitioned, sorted or deduplicated copy
//! of the input, and no buffer that doubles its way up. The mains'
//! bytes are measured, not assumed: each shard's pairs, split
//! beforehand, are built alone through the slice constructor with the
//! same counting allocator (per thread, shared with `isi_obs`'s tests).

use isi_serve::{Backend, ShardedStore};

#[path = "../../obs/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::count_allocs;

const PAIRS: u64 = 1 << 16;
const SHARDS: usize = 2;
const MIB: u64 = 1 << 20;

#[test]
fn an_ascending_build_allocates_its_mains_and_no_copy() {
    let pairs: Vec<(u64, u64)> = (0..PAIRS).map(|i| (i * 7 + 3, i ^ 0x5555)).collect();
    let route = ShardedStore::build(Backend::Sorted, SHARDS, &[]);
    let mut parts = vec![Vec::new(); SHARDS];
    for &(k, v) in &pairs {
        parts[route.shard_of(k)].push((k, v));
    }
    for backend in Backend::ALL {
        let (_, mains_bytes, mains) = count_allocs(|| {
            parts
                .iter()
                .map(|part| backend.build_shard(part))
                .collect::<Vec<_>>()
        });
        let (_, build_bytes, store) = count_allocs(|| ShardedStore::build(backend, SHARDS, &pairs));
        assert_eq!(store.len(), pairs.len(), "{}", backend.name());
        assert_eq!(mains.iter().map(|m| m.len()).sum::<usize>(), pairs.len());
        let bound = mains_bytes * 11 / 10 + MIB;
        eprintln!(
            "{}: build {build_bytes} B, mains {mains_bytes} B ({:.2}x)",
            backend.name(),
            build_bytes as f64 / mains_bytes as f64
        );
        assert!(
            build_bytes <= bound,
            "{}: the build asked for {build_bytes} B, its mains alone for {mains_bytes} B \
             (bound {bound} B)",
            backend.name()
        );
    }
}
