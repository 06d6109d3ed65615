//! The fence of a sorted `u64` column: the first key of each 8-key
//! block (one 64-byte line of a line-aligned column), stored in
//! Eytzinger (BFS) order, and [`rank_fenced_coro`], the lookup that
//! ranks three fence levels per suspension.
//!
//! In Eytzinger order node `i`'s children are `2i` and `2i + 1`, so its
//! descendants one, two and three levels down start at `2i`, `4i` and
//! `8i`. With position 0 at a line boundary each of those groups (2, 4
//! and 8 nodes) lies on one line (Khuong & Morin, "Array Layouts for
//! Comparison-Based Searching", ACM JEA 2017). A lookup prefetches
//! those three lines, suspends once and takes three branch-free levels,
//! where [`rank_coro`](crate::coro::rank_coro) suspends at every
//! halving. The fence leaves it in one block; one more prefetch and
//! suspension fetch that block's line, and three halvings inside it
//! give the rank. Each level still reads one line, as binary search
//! does; what shrinks is the work around it: a 2^23-key column takes 8
//! suspensions where binary search takes 23.
//!
//! Blocks are index ranges, `keys[8b..8b + 8]`, so a fence depends only
//! on the column's contents. A block is one line, and the fence's
//! position 0 starts one, where the column starts on a line and the
//! fence follows it in the same allocation, as
//! [`SortedShard`](crate::SortedShard) lays them out.

use isi_core::coro::suspend;
use isi_core::mem::{DirectMem, IndexedMem};
use isi_core::sched::{run_batch, RunStats};

use crate::cost;
use crate::seq::next_low;

/// Keys a fence entry stands for: one 64-byte line of `u64`s.
pub(crate) const BLOCK: usize = 8;

/// Fence levels ranked per suspension: the descendants of a node one,
/// two and three levels down lie on three lines.
const LEVELS_PER_STEP: u32 = 3;

/// Slots of the fence of a `len`-key column: position 0 (unused) and
/// one per started block, rounded up to whole lines.
pub(crate) fn slots(len: usize) -> usize {
    (len.div_ceil(BLOCK) + 1).next_multiple_of(BLOCK)
}

/// Append the fence of `buf[col..col + len]`, which must be sorted, to
/// `buf`: [`slots`] entries, slot `k` in `1..=blocks` the first key of
/// the block the Eytzinger tree of `blocks` nodes puts there, the
/// others 0.
///
/// The tree is walked in order, so the column is read once, front to
/// back, and only the writes land out of order, in the fence's eighth
/// of the column.
pub(crate) fn push_fence(buf: &mut Vec<u64>, col: usize, len: usize) {
    let fence = buf.len();
    let blocks = len.div_ceil(BLOCK);
    buf.resize(fence + slots(len), 0);
    // The leftmost node, then each node's in-order successor: the
    // leftmost node of its right subtree, or the parent of its last
    // ancestor reached as a left child.
    let mut k = 1;
    while 2 * k <= blocks {
        k *= 2;
    }
    for block in 0..blocks {
        buf[fence + k] = buf[col + block * BLOCK];
        if 2 * k < blocks {
            k = 2 * k + 1;
            while 2 * k <= blocks {
                k *= 2;
            }
        } else {
            k >>= k.trailing_ones() + 1;
        }
    }
}

/// Position `x` of a perfect tree's in-order, less the missing slots
/// before it: a complete tree's last level holds only its first
/// `last_level` slots, which sit at the in-order's even positions.
fn unpad(x: usize, last_level: usize) -> usize {
    x - x.div_ceil(2).saturating_sub(last_level)
}

/// Rank `values[i]` in `keys` into `out[i]` through `fence`, the fence
/// [`push_fence`] built of `keys`: one scheduler run, interleaved
/// unless the group or the batch is below two (see [`run_batch`]).
pub(crate) fn rank_batch(
    fence: &[u64],
    keys: &[u64],
    values: &[u64],
    group_size: usize,
    out: &mut [u32],
) -> RunStats {
    let (fence, keys) = (DirectMem::new(fence), DirectMem::new(keys));
    run_batch(
        group_size,
        values,
        |v| rank_fenced_coro::<false, _>(fence, keys, v),
        |v| rank_fenced_coro::<true, _>(fence, keys, v),
        out,
    )
}

/// Levels of the fence of a `len`-key column: the bit length of its
/// block count (0 for an empty column).
fn depth(len: usize) -> u32 {
    usize::BITS - len.div_ceil(BLOCK).leading_zeros()
}

/// Rank `value` in `keys` through its `fence`: the largest index whose
/// key is `<= value`, clamped to 0, exactly what
/// [`rank_coro`](crate::coro::rank_coro) returns.
///
/// The descent runs all [`depth`] levels, as if the tree were perfect:
/// only last-level slots can be missing, and at a missing slot either
/// way ends on the same block (see [`descend`]). So the trip count is
/// the column's, not the probe's, and the descent ends at
/// `2^depth + c`, `c` the perfect tree's slots left of the probe. The
/// top `depth % 3` levels, on the root's line, run before the first
/// suspension, the rest three to a suspension, and one more suspension
/// fetches the key line.
pub(crate) async fn rank_fenced_coro<const INTERLEAVE: bool, M: IndexedMem<u64>>(
    fence: M,
    keys: M,
    value: u64,
) -> u32 {
    if keys.is_empty() {
        return 0;
    }
    let depth = depth(keys.len());
    let steps = depth / LEVELS_PER_STEP;
    let mut i = 1;
    for _ in 0..depth - steps * LEVELS_PER_STEP {
        i = descend(&fence, i, value);
    }
    for step in 0..steps {
        if INTERLEAVE {
            // The lines of positions 2i, 4i and 8i; the last is the
            // next step's first node, needed only if a step follows.
            fence.prefetch(2 * i);
            fence.prefetch(4 * i);
            if step + 1 < steps {
                fence.prefetch(8 * i);
            }
            suspend().await;
            fence.compute(cost::CORO_SWITCH);
        }
        // Descend on a copy, so that `i` is written back to the frame
        // once per step and not once per level.
        let mut at = i;
        for _ in 0..LEVELS_PER_STEP {
            at = descend(&fence, at, value);
        }
        i = at;
    }
    // Fence keys `<= value`, counted as the gaps left of the descent's
    // end in the perfect tree, less the missing slots among them; the
    // last of them heads the block.
    let last_level = keys.len().div_ceil(BLOCK) + 1 - (1 << (depth - 1));
    let start = unpad(i - (1 << depth), last_level).saturating_sub(1) * BLOCK;
    if INTERLEAVE {
        keys.prefetch(start);
        suspend().await;
        keys.compute(cost::CORO_SWITCH);
    }
    // Three branch-free halvings over the block's line, every probe
    // past the column's end clamped to its last key. `start` is 0 or
    // the index of a key `<= value`, so `low` is the rank.
    let last = keys.len() - 1;
    let mut low = start;
    for half in [4, 2, 1] {
        keys.compute(cost::CORO_ITER + 1);
        let probe = last.min(low + half);
        low = next_low(*keys.at(probe) <= value, probe, low);
    }
    low as u32
}

/// One fence level from position `i`: right if the node there is
/// `<= value`, else left. A position past the last node is a missing
/// last-level slot, a leaf at the perfect tree's in-order position
/// `2q`; going left or right ends on gap `2q` or `2q + 1`, which
/// [`unpad`] maps to the same block. So it may read any slot, and a
/// position past the fence reads the last.
#[inline(always)]
fn descend<M: IndexedMem<u64>>(fence: &M, i: usize, value: u64) -> usize {
    fence.compute(cost::CORO_ITER + 1);
    let node = i.min(fence.len() - 1);
    2 * i + usize::from(*fence.at(node) <= value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::rank_oracle;
    use isi_core::coro::resume;
    use std::task::Poll;

    /// Suspensions of one interleaved lookup over a `len`-key column,
    /// the same for every probe: one per three whole fence levels,
    /// plus one for the key column's line.
    fn steps(len: usize) -> u32 {
        if len == 0 {
            return 0;
        }
        depth(len) / LEVELS_PER_STEP + 1
    }

    /// In-order positions by a recursive walk of the Eytzinger tree.
    fn walk(k: usize, n: usize, out: &mut Vec<usize>) {
        if k <= n {
            walk(2 * k, n, out);
            out.push(k);
            walk(2 * k + 1, n, out);
        }
    }

    /// `keys` followed by its fence, and where the fence starts.
    fn with_fence(keys: &[u64]) -> (Vec<u64>, usize) {
        let mut buf = keys.to_vec();
        buf.resize(keys.len().next_multiple_of(BLOCK), 0);
        let at = buf.len();
        push_fence(&mut buf, 0, keys.len());
        (buf, at)
    }

    /// The sorted position of Eytzinger node `k` of a tree of `n`.
    fn inorder(k: usize, n: usize) -> usize {
        let (h, l) = (n.ilog2(), k.ilog2());
        let p = k - (1 << l);
        unpad(((2 * p + 1) << (h - l)) - 1, n + 1 - (1 << h))
    }

    #[test]
    fn unpad_inverts_the_recursive_walk() {
        for n in 1..300 {
            let mut nodes = Vec::new();
            walk(1, n, &mut nodes);
            for (sorted, &k) in nodes.iter().enumerate() {
                assert_eq!(inorder(k, n), sorted, "k={k} n={n}");
            }
        }
    }

    #[test]
    fn fence_holds_block_heads_in_eytzinger_order() {
        let keys: Vec<u64> = (0..100).map(|i| i * 5 + 1).collect();
        let (buf, at) = with_fence(&keys);
        let fence = &buf[at..];
        let blocks = keys.len().div_ceil(BLOCK);
        let mut nodes = Vec::new();
        walk(1, blocks, &mut nodes);
        let heads: Vec<u64> = nodes.into_iter().map(|k| fence[k]).collect();
        let expect: Vec<u64> = keys.iter().step_by(BLOCK).copied().collect();
        assert_eq!(heads, expect);
        assert_eq!(fence.len(), slots(keys.len()));
        assert_eq!(fence.len() % BLOCK, 0);
    }

    #[test]
    fn steps_cover_three_levels_each_plus_the_key_line() {
        assert_eq!((depth(0), steps(0)), (0, 0));
        assert_eq!((depth(1), steps(1)), (1, 1));
        assert_eq!((depth(8), steps(8)), (1, 1));
        assert_eq!((depth(9), steps(9)), (2, 1));
        assert_eq!((depth(7 * 8), steps(7 * 8)), (3, 2));
        assert_eq!((depth(1 << 12), steps(1 << 12)), (10, 4));
        // A 2^23-key shard: 2^20 blocks, 21 levels, 7 + 1 suspensions
        // where the binary search takes 23.
        assert_eq!((depth(1 << 23), steps(1 << 23)), (21, 8));
    }

    /// Every lookup suspends exactly `steps(len)` times and ranks as
    /// the oracle does, on duplicates too.
    #[test]
    fn interleaved_lookup_suspends_steps_times_and_ranks() {
        for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 200, 1000] {
            let keys: Vec<u64> = (0..len as u64).map(|i| i / 3 * 4 + 1).collect();
            let (buf, at) = with_fence(&keys);
            let (f, k) = (DirectMem::new(&buf[at..]), DirectMem::new(&keys[..]));
            for value in (0..len as u64 * 2 + 3).chain([u64::MAX]) {
                let mut lookup = std::pin::pin!(rank_fenced_coro::<true, _>(f, k, value));
                let mut suspensions = 0;
                let rank = loop {
                    match resume(lookup.as_mut()) {
                        Poll::Ready(rank) => break rank,
                        Poll::Pending => suspensions += 1,
                    }
                };
                assert_eq!(rank, rank_oracle(&keys, &value), "len={len} value={value}");
                assert_eq!(suspensions, steps(len), "len={len} value={value}");
            }
        }
    }
}
