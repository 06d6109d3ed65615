//! The **plan layer**: resolve an admitted read batch against the
//! shard's delta overlay *before* anything reaches the interleaved
//! engine.
//!
//! The paper's interleaving only pays when the engine is fed dense
//! batches of *memory-bound* probes. A key the delta already decides —
//! upserted or tombstoned since the last merge — would spend a full
//! engine descent just to have the overlay rewrite its result
//! afterwards. Planning splits each batch up front:
//!
//! * **decided** — keys with a delta override; answered from the
//!   (merge-bounded) run-stack, newest run first, with one binary
//!   search per run above the mid tier and one in the mid tier only
//!   where its Bloom filter admits the key (one cache line decides
//!   the rest); no engine slot spent;
//! * **residual** — keys the main index must decide; these form the
//!   dense batch the engine actually runs.
//!
//! The split is observable as `delta_hits` against `engine.lookups`
//! in the service stats: a write-heavy shard with a warm delta sends
//! measurably fewer probes to the engine.

/// One read batch, resolved against the delta: which slots the
/// overlay decided, and which keys still need the engine.
///
/// The buffers are reusable — [`resolve`](Self::resolve) clears them —
/// so a shard's executor token keeps one `BatchPlan` and plans every
/// batch allocation-free in the steady state.
#[derive(Debug, Default)]
pub struct BatchPlan {
    /// `(input index, result)` for keys the delta decided:
    /// `Some(v)` = upserted to `v`, `None` = tombstoned.
    pub decided: Vec<(u32, Option<u64>)>,
    /// Keys the main index must probe, batch-dense (parallel to
    /// [`residual_idx`](Self::residual_idx)).
    pub residual_keys: Vec<u64>,
    /// `residual_idx[j]` = input index of `residual_keys[j]`.
    pub residual_idx: Vec<u32>,
}

impl BatchPlan {
    /// Split `keys` against a delta **run-stack** (each run `(key,
    /// override)` pairs, strictly sorted by key; `None` = tombstone;
    /// runs ordered oldest → newest), reusing this plan's buffers.
    /// The newest run holding a key decides it.
    pub fn resolve<R: AsRef<[(u64, Option<u64>)]>>(&mut self, runs: &[R], keys: &[u64]) {
        self.resolve_by(keys, |k| {
            runs.iter().rev().find_map(|run| {
                let run = run.as_ref();
                run.binary_search_by_key(&k, |e| e.0).ok().map(|d| run[d].1)
            })
        });
    }

    /// Split `keys` by `over`, a key's override if the delta has one
    /// (`Some(Some(v))` upserted, `Some(None)` tombstoned): the store
    /// passes its run stack's own lookup, which consults the mid tier
    /// only where the tier's filter admits the key.
    pub(crate) fn resolve_by(&mut self, keys: &[u64], over: impl Fn(u64) -> Option<Option<u64>>) {
        self.decided.clear();
        self.residual_keys.clear();
        self.residual_idx.clear();
        for (i, &k) in keys.iter().enumerate() {
            match over(k) {
                Some(over) => self.decided.push((i as u32, over)),
                None => {
                    self.residual_idx.push(i as u32);
                    self.residual_keys.push(k);
                }
            }
        }
    }

    /// Keys the delta decided.
    pub fn delta_hits(&self) -> u64 {
        self.decided.len() as u64
    }

    /// Keys that must reach the engine.
    pub fn residual(&self) -> u64 {
        self.residual_keys.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_decided_from_residual() {
        let delta = [(2u64, Some(20u64)), (5, None), (9, Some(90))];
        let mut plan = BatchPlan::default();
        plan.resolve(&[&delta[..]], &[1, 2, 5, 7, 9, 10]);
        assert_eq!(plan.decided, vec![(1, Some(20)), (2, None), (4, Some(90))]);
        assert_eq!(plan.residual_keys, vec![1, 7, 10]);
        assert_eq!(plan.residual_idx, vec![0, 3, 5]);
        assert_eq!(plan.delta_hits(), 3);
        assert_eq!(plan.residual(), 3);

        // Buffers are reused, not appended to.
        let no_runs: [&[(u64, Option<u64>)]; 0] = [];
        plan.resolve(&no_runs, &[4, 4]);
        assert!(plan.decided.is_empty());
        assert_eq!(plan.residual_keys, vec![4, 4]);
        assert_eq!(plan.residual_idx, vec![0, 1]);
    }

    #[test]
    fn newest_run_wins_across_the_stack() {
        // Oldest run upserts 2 and 5; a newer run tombstones 2 and
        // upserts 7; the newest run resurrects 5. Resolution must take
        // each key from the newest run that holds it.
        let old = [(2u64, Some(20u64)), (5, Some(50))];
        let mid = [(2u64, None), (7, Some(70))];
        let new = [(5u64, Some(51u64))];
        let runs: [&[(u64, Option<u64>)]; 3] = [&old, &mid, &new];
        let mut plan = BatchPlan::default();
        plan.resolve(&runs, &[1, 2, 5, 7]);
        assert_eq!(plan.decided, vec![(1, None), (2, Some(51)), (3, Some(70))]);
        assert_eq!(plan.residual_keys, vec![1]);
        assert_eq!(plan.residual_idx, vec![0]);
    }
}
