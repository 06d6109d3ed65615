//! Allocation discipline of a `get` that misses the hot-key cache.
//!
//! On an idle shard such a `get` runs its lookup on the calling thread
//! without an admission entry: no `Arc` ticket, nothing pushed on the
//! queue, the token's own lookup scratch. After warm-up it allocates
//! nothing at all. The counting allocator counts per thread, so the
//! helpers' own allocations (none are expected on idle shards) do not
//! enter the count.

use isi_serve::{Backend, LookupService, ServeConfig, ShardedStore};

#[path = "../../obs/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::count_allocs;

const PAIRS: u64 = 20_000;

/// Key `2i` holds `i`; odd keys are absent.
fn expect(key: u64) -> Option<u64> {
    (key.is_multiple_of(2) && key < 2 * PAIRS).then_some(key / 2)
}

#[test]
fn idle_shard_cache_misses_allocate_nothing() {
    let pairs: Vec<(u64, u64)> = (0..PAIRS).map(|i| (i * 2, i)).collect();
    for backend in [Backend::Sorted, Backend::Csb, Backend::Hash] {
        let store = ShardedStore::build(backend, 2, &pairs);
        let svc = LookupService::start(store, ServeConfig::default());
        // Warm-up sizes the token's lookup scratch on both shards.
        for key in 0..64u64 {
            assert_eq!(svc.get(key * 7), expect(key * 7), "{}", backend.name());
        }
        // 1 000 distinct keys, none seen before: every one misses the
        // cache; present and absent ones alike.
        let keys: Vec<u64> = (0..1_000u64).map(|i| 1_000 + i * 13).collect();
        let (allocs, _, got) = count_allocs(|| {
            let mut got = [None; 1_000];
            for (slot, &key) in got.iter_mut().zip(&keys) {
                *slot = svc.get(key);
            }
            got
        });
        for (&key, &v) in keys.iter().zip(&got) {
            assert_eq!(v, expect(key), "{} key={key}", backend.name());
        }
        let stats = svc.stats();
        assert_eq!(stats.cache_hits, 0, "{}", backend.name());
        assert_eq!(stats.gets, 1_064, "{}", backend.name());
        assert_eq!(
            allocs,
            0,
            "{}: cache-missing gets allocated",
            backend.name()
        );
    }
}
