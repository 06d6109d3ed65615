//! Property test for a store's build: whatever order its pairs come
//! in and however often a key repeats, every backend × shard count
//! builds the store that last-write-wins over the input describes.
//!
//! Strictly ascending input is built as it is; any other input is
//! copied and normalised first. Each case builds both — the input as
//! drawn, and the last-write-wins map's sorted pairs — so both paths
//! run, and checks that they build the same store: equal answers, and
//! durable images equal byte for byte (the seq-0 snapshots hold each
//! shard's pairs in order).

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use isi_durable::{Fs, MemFs};
use isi_serve::{Backend, ShardedStore, StoreConfig};

/// Keys stored are below this; probes run a little past it.
const KEYS: u64 = 300;

/// Pairs in random order over a small key range, so keys repeat.
fn shuffled_with_repeats() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0..KEYS, 0..=u64::MAX), 0..600)
}

/// Build durably onto a fresh in-memory directory; return the store
/// and every file of that directory with its bytes.
fn build(
    backend: Backend,
    shards: usize,
    pairs: &[(u64, u64)],
) -> (ShardedStore, Vec<(String, Vec<u8>)>) {
    let fs = Arc::new(MemFs::new());
    let dir: Arc<dyn Fs> = fs.clone();
    let store = ShardedStore::build_with_fs(backend, shards, pairs, StoreConfig::default(), dir);
    let image = fs
        .list()
        .expect("list")
        .into_iter()
        .map(|name| {
            let bytes = fs.read(&name).expect("read");
            (name, bytes)
        })
        .collect();
    (store, image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 32 }))]

    #[test]
    fn any_input_builds_its_last_write_wins_store(input in shuffled_with_repeats()) {
        // A BTreeMap collected in input order keeps each key's last value.
        let lww: BTreeMap<u64, u64> = input.iter().copied().collect();
        let sorted: Vec<(u64, u64)> = lww.iter().map(|(&k, &v)| (k, v)).collect();
        for backend in Backend::ALL {
            for shards in [1usize, 2, 4, 8] {
                let tag = format!("backend={} shards={shards}", backend.name());
                let (store, image) = build(backend, shards, &input);
                prop_assert_eq!(store.len(), lww.len(), "{}", tag);
                for k in 0..KEYS + 10 {
                    prop_assert_eq!(store.get(k), lww.get(&k).copied(), "{} key={}", tag, k);
                }
                let (from_sorted, sorted_image) = build(backend, shards, &sorted);
                prop_assert_eq!(from_sorted.len(), store.len(), "{}", tag);
                prop_assert_eq!(&sorted_image, &image, "{}", tag);
            }
        }
    }
}
