//! The run stack: a shard's delta overlay as immutable sorted runs
//! over an optional mid tier, and the merges of sorted runs every
//! path above it is made of.
//!
//! [`Delta`]'s fields are private to this module, so what the rest of
//! the store relies on is kept here and nowhere else: the mid tier, if
//! there is one, is the oldest run, read only behind its filter; the
//! entry count covers only the runs above it; and the write path's
//! fold leaves alone the mid tier and whatever a merge in flight has
//! pinned.

use std::sync::Arc;

use super::bloom::Bloom;

/// One immutable sorted run of per-key overrides: `Some(v)` upserts
/// the key to `v`, `None` is a tombstone. Strictly sorted by key.
pub(super) type DeltaRun = Arc<[(u64, Option<u64>)]>;

/// The override `run` holds for `key`, if any: one binary search.
fn search(run: &[(u64, Option<u64>)], key: u64) -> Option<Option<u64>> {
    run.binary_search_by_key(&key, |e| e.0)
        .ok()
        .map(|i| run[i].1)
}

/// The mid tier as a version holds it: its run and a Bloom filter
/// over the run's keys, both immutable, built together off the write
/// lock (by the merge that folds it, or by recovery) and shared by
/// every version until the next merge replaces them.
#[derive(Clone)]
pub(super) struct MidTier {
    run: DeltaRun,
    filter: Bloom,
}

impl MidTier {
    /// The tier over `run` (sorted, duplicate-free), or `None` for an
    /// empty one: a stack without a mid tier has no filter either.
    pub(super) fn new(run: Vec<(u64, Option<u64>)>) -> Option<Self> {
        if run.is_empty() {
            return None;
        }
        let filter = Bloom::build(run.len(), run.iter().map(|e| e.0));
        Some(Self {
            run: run.into(),
            filter,
        })
    }

    /// Entries in the tier.
    pub(super) fn len(&self) -> usize {
        self.run.len()
    }

    /// The tier's override for `key`: the run is searched only where
    /// the filter admits the key, which an absent key almost never is.
    #[inline]
    fn get(&self, key: u64) -> Option<Option<u64>> {
        if self.filter.may_contain(key) {
            search(&self.run, key)
        } else {
            None
        }
    }
}

/// The append-friendly overlay: an immutable **run-stack** of sorted
/// override runs, newest run last. Each dispatched write run is sorted
/// once (last-write-wins within the run, O(run log run)) and pushed as
/// one shared [`DeltaRun`]; publishing a new [`ShardVersion`] clones
/// only the small `Vec` of `Arc` handles, never the entries — prior
/// runs are shared, which is what kills the old per-write
/// clone-the-whole-delta quadratic. Reads consult runs newest-first.
///
/// Under the runs may sit the shard's **mid tier** ([`MidTier`]):
/// what the merges since the last major one have folded the stack
/// into. To a read it is the oldest run, searched only where its
/// filter admits the key; to the write side it is not part of the
/// count: [`len`](Self::len), the threshold, the hard bound,
/// `max_runs` and the write-path fold all concern the runs above it.
/// When those exceed [`StoreConfig::max_runs`] the write path folds
/// them into a single run (amortized O(threshold) total, not
/// per-write) and leaves the mid where it is: a fold that took it
/// along would copy it every few writes.
///
/// [`ShardVersion`]: super::ShardVersion
/// [`StoreConfig::max_runs`]: super::StoreConfig::max_runs
#[derive(Clone, Default)]
pub(super) struct Delta {
    /// Override runs above the mid tier, oldest first / newest last.
    runs: Vec<DeltaRun>,
    /// The mid tier under them, if the stack has one.
    mid: Option<MidTier>,
    /// Sum of the lengths of the runs above the mid tier — an upper
    /// bound on the distinct keys they override (a key rewritten in a
    /// newer run counts twice until a fold collapses it). Threshold
    /// and backpressure checks use this conservative count; folds and
    /// merges restore exactness.
    entries: usize,
}

impl Delta {
    /// The override for `key`: `Some(Some(v))` = upserted to `v`,
    /// `Some(None)` = tombstoned, `None` = no override (fall through
    /// to the main). Newest run wins; the mid tier comes last, behind
    /// its filter. Point reads, the write path's previous values and
    /// every batch plan resolve keys here.
    #[inline]
    pub(super) fn get(&self, key: u64) -> Option<Option<u64>> {
        self.runs
            .iter()
            .rev()
            .find_map(|run| search(run, key))
            .or_else(|| self.mid.as_ref()?.get(key))
    }

    /// The stack a merge publishes: `mid` as the mid tier and `above`
    /// as the one run on top of it, sorted and duplicate-free, left
    /// out when empty. The count is exact by construction, and the
    /// mid tier arrives built: this is O(1) apart from `above`.
    pub(super) fn tiers(mid: Option<MidTier>, above: Vec<(u64, Option<u64>)>) -> Self {
        Self {
            entries: above.len(),
            runs: if above.is_empty() {
                Vec::new()
            } else {
                vec![above.into()]
            },
            mid,
        }
    }

    /// Cheap copy sharing every immutable run: O(runs) `Arc` handle
    /// clones, never the entries. This is the write path's whole
    /// point — the old clone-the-entries delta copied O(delta) pairs
    /// per write run (quadratic over a write burst).
    pub(super) fn share(&self) -> Self {
        self.clone()
    }

    /// Push a freshly sorted run on top of the stack (newest).
    pub(super) fn push_run(&mut self, run: DeltaRun) {
        self.entries += run.len();
        self.runs.push(run);
    }

    /// Every run, newest first, ending with the mid tier's.
    fn newest_first(&self) -> impl Iterator<Item = &DeltaRun> {
        self.runs.iter().rev().chain(self.mid())
    }

    /// The mid tier's run, if the stack has one.
    pub(super) fn mid(&self) -> Option<&DeltaRun> {
        self.mid.as_ref().map(|mid| &mid.run)
    }

    /// Entries in the mid tier.
    pub(super) fn mid_len(&self) -> usize {
        self.mid.as_ref().map_or(0, MidTier::len)
    }

    /// How many runs sit above the mid tier: what a merge pins.
    pub(super) fn runs_above_mid(&self) -> usize {
        self.runs.len()
    }

    /// The write path's fold: once more than `max_runs` runs sit above
    /// the mid tier and the `pinned` oldest of them (those a merge in
    /// flight works on), replace them by their fold — one run, newest
    /// winning each key — and say so. The mid tier and the pinned runs
    /// stay the runs they are.
    pub(super) fn fold_past(&mut self, max_runs: usize, pinned: usize) -> bool {
        if self.runs.len() - pinned <= max_runs {
            return false;
        }
        let top = fold_runs(self.runs.split_off(pinned).iter().rev());
        if !top.is_empty() {
            self.runs.push(top.into());
        }
        self.entries = self.runs.iter().map(|r| r.len()).sum();
        true
    }

    /// Fold the whole stack, mid tier included, into one sorted,
    /// duplicate-free run, newest run winning each key.
    pub(super) fn fold(&self) -> Vec<(u64, Option<u64>)> {
        fold_runs(self.newest_first())
    }

    /// What this stack holds beyond `pinned` — the same shard's stack
    /// as a merge snapshotted it — folded into one run. Membership is
    /// by **run identity**: a run of this stack is already reflected
    /// in the merge's fold iff it is one of the runs the merge pinned
    /// (runs are immutable and shared, so `Arc` pointer equality
    /// decides). Runs pushed — or compacted into fresh runs —
    /// meanwhile survive; their overrides are the per-key newest, so
    /// re-applying any pinned-era override they carry on top of the
    /// fold is idempotent.
    pub(super) fn residual_of(&self, pinned: &Delta) -> Vec<(u64, Option<u64>)> {
        let was_pinned = |r: &DeltaRun| pinned.newest_first().any(|r0| Arc::ptr_eq(r, r0));
        fold_runs(self.newest_first().filter(|r| !was_pinned(r)))
    }

    /// Number of overrides (upserts + tombstones) above the mid tier,
    /// counted per run — an upper bound on the distinct keys they
    /// override.
    pub(super) fn len(&self) -> usize {
        self.entries
    }

    /// No override at all, in the mid tier or above it.
    pub(super) fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.mid.is_none()
    }
}

/// Fold runs, handed over newest first, into one sorted,
/// duplicate-free run, the newer run winning each key. Working from
/// the newest run down, the oldest run — the mid tier, which can be as
/// long as all the others together many times over — is walked once:
/// O(mid + above × runs).
fn fold_runs<'a>(mut newest_first: impl Iterator<Item = &'a DeltaRun>) -> Vec<(u64, Option<u64>)> {
    let mut acc: Vec<(u64, Option<u64>)> = match newest_first.next() {
        Some(run) => run.to_vec(),
        None => return Vec::new(),
    };
    for run in newest_first {
        acc = merge_overrides(&acc, run);
    }
    acc
}

/// Sort a freshly built run by key and resolve duplicates
/// last-write-wins: the stable sort keeps equal keys in input order,
/// the in-place dedup keeps the last of each group. O(run log run).
/// Override runs (`V = Option<u64>`) and a store's unsorted build
/// input (`V = u64`) both go through it.
pub(super) fn sort_lww<V: Copy>(run: &mut Vec<(u64, V)>) {
    run.sort_by_key(|e| e.0);
    let mut w = 0;
    for r in 0..run.len() {
        if r + 1 == run.len() || run[r + 1].0 != run[r].0 {
            run[w] = run[r];
            w += 1;
        }
    }
    run.truncate(w);
}

/// Merge two strictly-sorted override runs into one, the `newer` run
/// winning every shared key (tombstones are overrides too and are
/// kept). The run-stack fold applies this pairwise, oldest to newest.
fn merge_overrides(
    newer: &[(u64, Option<u64>)],
    older: &[(u64, Option<u64>)],
) -> Vec<(u64, Option<u64>)> {
    let mut out = Vec::with_capacity(newer.len() + older.len());
    let (mut i, mut j) = (0, 0);
    while i < newer.len() && j < older.len() {
        match newer[i].0.cmp(&older[j].0) {
            std::cmp::Ordering::Less => {
                out.push(newer[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(older[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(newer[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&newer[i..]);
    out.extend_from_slice(&older[j..]);
    out
}

/// Merge-join a shard's sorted main pairs with its sorted delta run:
/// delta overrides win, tombstones drop the key. Both inputs are
/// strictly sorted by key; so is the output.
pub(super) fn merge_pairs(main: &[(u64, u64)], delta: &[(u64, Option<u64>)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(main.len() + delta.len());
    let (mut i, mut j) = (0, 0);
    while i < main.len() && j < delta.len() {
        let (mk, mv) = main[i];
        let (dk, dv) = delta[j];
        if mk < dk {
            out.push((mk, mv));
            i += 1;
        } else {
            if let Some(v) = dv {
                out.push((dk, v));
            }
            j += 1;
            if mk == dk {
                i += 1;
            }
        }
    }
    out.extend_from_slice(&main[i..]);
    for &(k, v) in &delta[j..] {
        if let Some(v) = v {
            out.push((k, v));
        }
    }
    out
}

/// How many pairs [`merge_pairs`] would return, by the same walk and
/// without building them (recovery only needs the live count, and a
/// shard's pairs are tens of megabytes).
pub(super) fn merged_len(main: &[(u64, u64)], delta: &[(u64, Option<u64>)]) -> usize {
    let mut len = main.len();
    let mut i = 0;
    for &(dk, dv) in delta {
        while i < main.len() && main[i].0 < dk {
            i += 1;
        }
        let stored = i < main.len() && main[i].0 == dk;
        match (stored, dv.is_some()) {
            (false, true) => len += 1,
            (true, false) => len -= 1,
            _ => {}
        }
    }
    len
}
