//! Tournament (loser) tree for k-way merging.
//!
//! The classic selection structure for external merging (Knuth §5.4.1):
//! with `k` sorted input streams, each output record replays the winner's
//! leaf-to-root path, recording the loser of every match on it. Exhausted
//! streams are treated as carrying a `+∞` sentinel; ties are broken by
//! stream index, which makes the merge **stable** with respect to input
//! order and therefore deterministic.
//!
//! Five implementation choices keep the inner loop fast without changing
//! any observable behavior:
//!
//! * **Keys in the nodes.** Each internal node stores its loser's source
//!   *and* that source's cached order-preserving [`Record::sort_key`]
//!   (`u64::MAX` when the source is exhausted, 0 for records without a
//!   usable key). A replay reads only the tree array, and for a key that
//!   is a total order a match is one `u128` compare of `key << 64 | rank`
//!   (a `(key, rank)` tuple compare lowers to branches). Only key ties of a
//!   key that is not a total order (or of keyless records) fall back to
//!   the full `(record, index)` comparison against the heads. Because
//!   `u64::MAX` is also a *valid* live key, a node ranks an exhausted
//!   source after every live one (its index plus `kp`, below), which
//!   settles the sentinel collision without looking at the heads.
//! * **Fixed depth.** The leaves are padded to `kp = k.next_power_of_two()`;
//!   a padding leaf is an exhausted source for good. Every replay is then
//!   exactly `log₂ kp` levels of conditional moves with unchecked node
//!   reads — the loop exit is predictable and no match needs an "empty
//!   node" guard. The tree is built bottom-up and iteratively (fan-ins of
//!   tens of thousands of streams cannot overflow the stack).
//! * **Streaks.** A *streak* is a run of consecutive output records from
//!   one source. The *runner-up* is the best loser on the winner's
//!   leaf-to-root path, i.e. the best head of every other source. While the
//!   winner's next head still beats the runner-up, a replay would leave
//!   every node as it is, so the head is emitted with no replay: only
//!   `tree[0]` moves. The look-ahead is sorted, so the records that beat
//!   the runner-up are a prefix of it; a galloping search finds its end
//!   and the whole streak is copied out as one slice. Finding the
//!   runner-up costs a second walk of the path, which pays only when
//!   streaks are long, so [`LoserTree::next_batch`] arms streak mode from
//!   what it observed in the previous batch: when at most a quarter of that
//!   batch's records handed the win to another source (at least three
//!   quarters repeated the previous winner), the next batch runs in streak
//!   mode; otherwise it replays every record. The gate is this fixed
//!   ratio, not a setting. Duplicate-heavy and presorted inputs stream;
//!   uniform keys never pay for the runner-up. One replay routine serves
//!   [`LoserTree::next_record`] and both batch loops, and the build plays
//!   the same match step.
//! * **Per-source look-ahead.** Heads come from a small fixed buffer of
//!   decoded records per source (`LOOKAHEAD_BYTES`), refilled through
//!   [`RecordStream::next_batch`], so a block source is decoded a segment
//!   at a time instead of through one fallible call per record. A
//!   [`crate::stream::Bounded`] run caps each refill at the records left in
//!   the run, so the look-ahead never reads (or meters) past it.
//! * **Batched output.** [`RecordStream::next_batch`] on the tree is a tight
//!   winner loop that appends straight into the caller's buffer.
//!
//! [`LoserTree::comparisons`] is the classic tree's select count, which the
//! cost model prices. It is not the number of physical compares. It is
//! billed by formula: `k − 1` to build, then `⌊log₂(s + k)⌋` for each
//! record emitted from source `s` (its leaf's depth in an unpadded
//! `k`-leaf tree) — whether the record took a replay or left in a streak. The cost models charge CPU time from it (as key ops when a
//! key-based kernel drives the merge), so padding and streaks leave every
//! modelled figure unchanged.

use std::hint::select_unpredictable;

use pdm::{PdmResult, Record};

use crate::stream::RecordStream;

/// Bytes of decoded records each source keeps ahead of the merge. The
/// look-ahead costs at most this much memory per input stream.
pub(crate) const LOOKAHEAD_BYTES: usize = 4096;

/// One node: the loser of the match played there (or, at `tree[0]`, the
/// overall winner) with its head's cached key. Kept as two words, so a
/// select moves it with two conditional moves; a match compares it as one
/// `u128`, `key << 64 | rank` (see [`Node::packed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    /// The head's `sort_key()`: `u64::MAX` when the source is exhausted, 0
    /// when the record type has no usable key.
    key: u64,
    /// The source index, plus `kp` once the source is exhausted, so that on
    /// equal keys an exhausted source ranks after every live one.
    rank: usize,
}

impl Node {
    /// Loses to every node, live or exhausted: the runner-up of a tree
    /// with a single leaf.
    const INFINITY: Node = Node {
        key: u64::MAX,
        rank: usize::MAX,
    };

    /// The `(key, rank)` order as one integer: a tuple compare lowers to
    /// branches, a `u128` compare to a compare and a subtract-with-borrow.
    #[inline(always)]
    fn packed(self) -> u128 {
        (u128::from(self.key) << 64) | self.rank as u128
    }
}

/// A source's decoded look-ahead; `buf[pos]` is its head. Refilled as soon
/// as it runs dry, so `pos == buf.len()` means the source is exhausted.
#[derive(Debug)]
struct Lane<R> {
    buf: Vec<R>,
    pos: usize,
}

/// A k-way merge over sorted [`RecordStream`]s.
#[derive(Debug)]
pub struct LoserTree<R: Record, S: RecordStream<R>> {
    sources: Vec<S>,
    /// One lane per source (`k` of them; with no sources a single empty one).
    lanes: Vec<Lane<R>>,
    /// `kp` nodes: `tree[j]` for `j ≥ 1` holds the *loser* at node `j`;
    /// `tree[0]` holds the overall winner. Leaf `s` is implicit node
    /// `s + kp`.
    tree: Vec<Node>,
    k: usize,
    /// Padded leaf count, `k.next_power_of_two()`.
    kp: usize,
    /// Replay length, `log₂ kp`.
    levels: u32,
    /// Whether the next batch runs in streak mode (see the module doc).
    streaky: bool,
    comparisons: u64,
    produced: u64,
}

impl<R: Record, S: RecordStream<R>> LoserTree<R, S> {
    /// Records per look-ahead refill (and per `drain_to` batch).
    const LOOKAHEAD: usize = if R::SIZE < LOOKAHEAD_BYTES {
        LOOKAHEAD_BYTES / R::SIZE
    } else {
        1
    };

    /// Builds the tree and primes it with the first records of every source.
    ///
    /// An empty source list is allowed (the merge is immediately exhausted).
    pub fn new(sources: Vec<S>) -> PdmResult<Self> {
        let k = sources.len().max(1);
        let kp = k.next_power_of_two();
        let mut lt = LoserTree {
            sources,
            lanes: (0..k)
                .map(|_| Lane {
                    buf: Vec::new(),
                    pos: 0,
                })
                .collect(),
            tree: Vec::new(),
            k,
            kp,
            levels: kp.ilog2(),
            streaky: false,
            comparisons: k as u64 - 1,
            produced: 0,
        };
        for s in 0..lt.sources.len() {
            lt.refill(s)?;
        }
        lt.build();
        Ok(lt)
    }

    /// Refills source `s`'s drained lane from its stream; an empty refill
    /// leaves the lane exhausted for good.
    #[cold]
    fn refill(&mut self, s: usize) -> PdmResult<()> {
        let lane = &mut self.lanes[s];
        lane.buf.clear();
        lane.pos = 0;
        self.sources[s].next_batch(&mut lane.buf, Self::LOOKAHEAD)?;
        Ok(())
    }

    /// A record's cached key: its `sort_key()`, or 0 without a usable one.
    #[inline(always)]
    fn key_of(r: &R) -> u64 {
        if R::HAS_SORT_KEY {
            r.sort_key()
        } else {
            0
        }
    }

    /// The leaf node of source `s < kp`: its head's key and rank. Padding
    /// leaves (`s ≥ k`) are exhausted.
    #[inline(always)]
    fn leaf(&self, s: usize) -> Node {
        match self.lanes.get(s).and_then(|lane| lane.buf.get(lane.pos)) {
            Some(r) => Node {
                key: Self::key_of(r),
                rank: s,
            },
            None => Node {
                key: u64::MAX,
                rank: s + self.kp,
            },
        }
    }

    /// Initial tournament, bottom-up and iterative: `winners[j]` holds the
    /// winner of the subtree rooted at implicit node `j` (leaves `kp..2kp`
    /// hold the sources). Each internal node first holds its right
    /// subtree's winner and then plays the left one, keeping the loser.
    /// O(kp) matches, O(1) stack regardless of fan-in.
    fn build(&mut self) {
        let mut winners: Vec<Node> = Vec::with_capacity(2 * self.kp);
        winners.resize(self.kp, Node { key: 0, rank: 0 });
        winners.extend((0..self.kp).map(|s| self.leaf(s)));
        self.tree = vec![Node { key: 0, rank: 0 }; self.kp];
        for node in (1..self.kp).rev() {
            self.tree[node] = winners[2 * node + 1];
            winners[node] = self.play(node, winners[2 * node]);
        }
        self.tree[0] = winners[1];
    }

    /// Does node `a`'s head beat (sort before) node `b`'s head? Resolved by
    /// the packed `(key, rank)` when the keys differ. On equal keys an
    /// exhausted source (whose `u64::MAX` sentinel may equal a live key)
    /// loses to every live one, and two live heads compare as
    /// `(record, index)`. When the key is a total order, equal live keys
    /// mean equal records, so the rank alone decides and the select stays
    /// one compare.
    #[inline(always)]
    fn beats(&self, a: Node, b: Node) -> bool {
        if (R::HAS_SORT_KEY && R::KEY_IS_TOTAL) || a.key != b.key {
            a.packed() < b.packed()
        } else {
            self.tie_beats(a, b)
        }
    }

    /// The full comparison behind [`LoserTree::beats`] for equal cached keys
    /// of a key that is not a total order (or no key at all). Kept out of
    /// line so the replay loop stays branch-free.
    #[inline(never)]
    fn tie_beats(&self, a: Node, b: Node) -> bool {
        if a.rank < self.kp {
            let x = &self.lanes[a.rank];
            self.record_tie_beats(&x.buf[x.pos], a.rank, b)
        } else {
            a.rank < b.rank
        }
    }

    /// Does record `r` of live source `s` beat node `b`'s head? The same
    /// order as [`LoserTree::beats`], for a record further down `s`'s
    /// look-ahead than its head.
    #[inline(always)]
    fn record_beats(&self, r: &R, s: usize, b: Node) -> bool {
        let a = Node {
            key: Self::key_of(r),
            rank: s,
        };
        if (R::HAS_SORT_KEY && R::KEY_IS_TOTAL) || a.key != b.key {
            a.packed() < b.packed()
        } else {
            self.record_tie_beats(r, s, b)
        }
    }

    /// [`LoserTree::record_beats`] on equal cached keys: a live head
    /// compares as `(record, index)`, an exhausted one loses.
    #[inline(never)]
    fn record_tie_beats(&self, r: &R, s: usize, b: Node) -> bool {
        if b.rank < self.kp {
            let y = &self.lanes[b.rank];
            (*r, s) < (y.buf[y.pos], b.rank)
        } else {
            true
        }
    }

    /// The loser stored at internal node `node`, read without a bounds
    /// check: this is the replay's inner loop.
    #[inline(always)]
    fn stored(&self, node: usize) -> Node {
        debug_assert!((1..self.kp).contains(&node));
        // SAFETY: `tree` holds `kp` nodes, and every caller stays inside
        // `1..kp`: `build` loops over it, and the walks up from a leaf
        // `s + kp` with `s < kp` halve `node` at most `log₂ kp` times.
        unsafe { *self.tree.get_unchecked(node) }
    }

    /// One match at internal node `node`: the loser stays, the winner is
    /// returned to play on. Two conditional moves, no branch.
    #[inline(always)]
    fn play(&mut self, node: usize, cand: Node) -> Node {
        let stored = self.stored(node);
        let stored_wins = self.beats(stored, cand);
        // SAFETY: as in `stored`, `1 <= node < kp == tree.len()`.
        let slot = unsafe { self.tree.get_unchecked_mut(node) };
        *slot = select_unpredictable(stored_wins, cand, stored);
        select_unpredictable(stored_wins, stored, cand)
    }

    /// Replays source `s`'s new head up its `levels`-long path to the root.
    #[inline(always)]
    fn replay(&mut self, s: usize) {
        let mut cand = self.leaf(s);
        let mut node = s + self.kp;
        for _ in 0..self.levels {
            node /= 2;
            cand = self.play(node, cand);
        }
        self.tree[0] = cand;
    }

    /// The best loser on live source `w`'s leaf-to-root path: the best head
    /// among all other sources ([`Node::INFINITY`] when there are none).
    #[inline(always)]
    fn runner_up(&self, w: usize) -> Node {
        debug_assert!(w < self.k, "runner-up of an exhausted winner");
        let mut best = Node::INFINITY;
        let mut node = w + self.kp;
        for _ in 0..self.levels {
            node /= 2;
            let stored = self.stored(node);
            best = select_unpredictable(self.beats(stored, best), stored, best);
        }
        best
    }

    /// Advances live source `w`'s lane past `n` emitted records, refilling
    /// it when it runs dry, and bills their classic select count: the
    /// depth `⌊log₂(w + k)⌋` of `w`'s leaf in an unpadded tree, each.
    #[inline(always)]
    fn consume(&mut self, w: usize, n: usize) -> PdmResult<()> {
        let lane = &mut self.lanes[w];
        lane.pos += n;
        if lane.pos == lane.buf.len() {
            self.refill(w)?;
        }
        self.comparisons += n as u64 * u64::from((w + self.k).ilog2());
        self.produced += n as u64;
        Ok(())
    }

    /// Copies out live source `w`'s head and consumes it. The tree is left
    /// for the caller to replay.
    #[inline(always)]
    fn pop(&mut self, w: usize) -> PdmResult<R> {
        let lane = &self.lanes[w];
        let r = lane.buf[lane.pos];
        self.consume(w, 1)?;
        Ok(r)
    }

    /// How many leading records of `run`, a slice of live source `w`'s
    /// look-ahead whose first record beats `b`, beat `b`. The run is
    /// sorted, so they form a prefix; a galloping search finds its end in
    /// `O(log m)` compares for a streak of `m`.
    #[inline(always)]
    fn streak_len(&self, run: &[R], w: usize, b: Node) -> usize {
        let mut hi = 1;
        while hi < run.len() && self.record_beats(&run[hi], w, b) {
            hi *= 2;
        }
        let lo = hi / 2 + 1;
        lo + run[lo..hi.min(run.len())].partition_point(|r| self.record_beats(r, w, b))
    }

    /// The overall winner's source, or `None` once every source is
    /// exhausted.
    #[inline(always)]
    fn winner(&self) -> Option<usize> {
        let w = self.tree[0].rank;
        (w < self.kp).then_some(w)
    }

    /// Pops the smallest head record, refilling from its source.
    pub fn next_record(&mut self) -> PdmResult<Option<R>> {
        let Some(w) = self.winner() else {
            return Ok(None);
        };
        let out = self.pop(w)?;
        self.replay(w);
        Ok(Some(out))
    }

    /// Appends up to `max` records in merged order to `out`; returns how
    /// many (fewer than `max` only once the merge is exhausted). Identical
    /// output and select count to `max` [`LoserTree::next_record`] calls.
    /// The batch runs in streak mode or replays every record, as the
    /// previous batch's winner changes decided (see the module doc).
    pub fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let start = out.len();
        let changes = if self.streaky {
            self.streak_batch(out, max)?
        } else {
            self.replay_batch(out, max)?
        };
        let n = out.len() - start;
        if n > 0 {
            self.streaky = changes * 4 <= n;
        }
        Ok(n)
    }

    /// [`LoserTree::next_batch`] with a replay per record; returns how many
    /// records handed the win to another source.
    fn replay_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let start = out.len();
        let mut changes = 0;
        while out.len() - start < max {
            let Some(w) = self.winner() else {
                break;
            };
            out.push(self.pop(w)?);
            self.replay(w);
            changes += usize::from(self.tree[0].rank != w);
        }
        Ok(changes)
    }

    /// [`LoserTree::next_batch`] in streak mode: the winner's look-ahead is
    /// emitted with no replay, one slice at a time, while it beats the
    /// runner-up; the first head that does not is replayed. Returns the
    /// number of replays.
    fn streak_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let start = out.len();
        let mut changes = 0;
        while out.len() - start < max {
            let Some(w) = self.winner() else {
                break;
            };
            let runner_up = self.runner_up(w);
            loop {
                // The head is the winner, so it beats the runner-up.
                let lane = &self.lanes[w];
                let room = max - (out.len() - start);
                let rest = &lane.buf[lane.pos..];
                let run = &rest[..rest.len().min(room)];
                let m = self.streak_len(run, w, runner_up);
                out.extend_from_slice(&run[..m]);
                self.consume(w, m)?;
                let head = self.leaf(w);
                if !self.beats(head, runner_up) {
                    self.replay(w);
                    changes += 1;
                    break;
                }
                // The head beats every loser on its path: a replay would
                // change no node. An exhausted head gets here only when
                // every other source is exhausted too (the merge is over).
                self.tree[0] = head;
                if head.rank >= self.kp || out.len() - start == max {
                    break;
                }
            }
        }
        Ok(changes)
    }

    /// Drains the whole merge into `sink`, one batch of up to
    /// `LOOKAHEAD_BYTES` of records per call; returns the record count.
    pub(crate) fn drain_to(
        &mut self,
        mut sink: impl FnMut(&[R]) -> PdmResult<()>,
    ) -> PdmResult<u64> {
        let mut batch = Vec::with_capacity(Self::LOOKAHEAD);
        let mut n = 0u64;
        while self.next_batch(&mut batch, Self::LOOKAHEAD)? > 0 {
            sink(&batch)?;
            n += batch.len() as u64;
            batch.clear();
        }
        Ok(n)
    }

    /// Drains the whole merge onto the end of `out`, one batch of up to
    /// `LOOKAHEAD_BYTES` of records per call (so streak mode arms as in
    /// [`LoserTree::drain_to`]); returns the record count.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<R>) -> PdmResult<u64> {
        let start = out.len();
        while self.next_batch(out, Self::LOOKAHEAD)? > 0 {}
        Ok((out.len() - start) as u64)
    }

    /// The classic tree's select count, which the cost model prices — not
    /// the number of physical compares: `k − 1` to build plus
    /// `⌊log₂(s + k)⌋` per record emitted from source `s`.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Records produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Number of input streams.
    pub fn fan_in(&self) -> usize {
        self.sources.len()
    }
}

impl<R: Record, S: RecordStream<R>> RecordStream<R> for LoserTree<R, S> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        LoserTree::next_record(self)
    }

    fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        LoserTree::next_batch(self, out, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SliceStream;

    fn merge_all(inputs: Vec<Vec<u32>>) -> Vec<u32> {
        let sources: Vec<_> = inputs.into_iter().map(SliceStream::new).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        let mut out = Vec::new();
        while let Some(x) = lt.next_record().unwrap() {
            out.push(x);
        }
        out
    }

    #[test]
    fn merges_two_sorted_runs() {
        assert_eq!(
            merge_all(vec![vec![1, 3, 5], vec![2, 4, 6]]),
            vec![1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn merges_many_runs_with_duplicates() {
        let out = merge_all(vec![
            vec![1, 1, 8],
            vec![1, 5, 5],
            vec![0, 9],
            vec![],
            vec![5],
        ]);
        assert_eq!(out, vec![0, 1, 1, 1, 5, 5, 5, 8, 9]);
    }

    #[test]
    fn single_source_passthrough() {
        assert_eq!(merge_all(vec![vec![2, 4, 9]]), vec![2, 4, 9]);
    }

    #[test]
    fn no_sources() {
        assert_eq!(merge_all(vec![]), Vec::<u32>::new());
    }

    #[test]
    fn all_empty_sources() {
        assert_eq!(merge_all(vec![vec![], vec![], vec![]]), Vec::<u32>::new());
    }

    #[test]
    fn skewed_lengths() {
        let long: Vec<u32> = (0..1000).map(|i| i * 2).collect();
        let short = vec![1u32, 999, 1999];
        let mut expect = [long.clone(), short.clone()].concat();
        expect.sort_unstable();
        assert_eq!(merge_all(vec![long, short]), expect);
    }

    #[test]
    fn comparison_count_is_logarithmic() {
        // k=16 runs of 64 each: ~ n * log2(k) = 1024 * 4 comparisons.
        let inputs: Vec<Vec<u32>> = (0..16)
            .map(|s| (0..64).map(|i| (i * 16 + s) as u32).collect())
            .collect();
        let sources: Vec<_> = inputs.into_iter().map(SliceStream::new).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        while lt.next_record().unwrap().is_some() {}
        assert_eq!(lt.produced(), 1024);
        let per_record = lt.comparisons() as f64 / 1024.0;
        assert!(
            per_record <= 5.0,
            "expected ~log2(16)=4 comparisons per record, got {per_record}"
        );
    }

    #[test]
    fn deterministic_with_equal_keys() {
        // Two identical merges must produce identical sequences.
        let a = merge_all(vec![vec![7; 10], vec![7; 10], vec![7; 3]]);
        let b = merge_all(vec![vec![7; 10], vec![7; 10], vec![7; 3]]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 23);
    }

    #[test]
    fn non_power_of_two_fanin() {
        for k in [3usize, 5, 6, 7, 9, 11, 13] {
            let inputs: Vec<Vec<u32>> = (0..k)
                .map(|s| (0..50).map(|i| (i * k + s) as u32).collect())
                .collect();
            let merged = merge_all(inputs);
            let expect: Vec<u32> = (0..(50 * k) as u32).collect();
            assert_eq!(merged, expect, "fan-in {k}");
        }
    }

    #[test]
    fn max_key_records_not_confused_with_exhaustion() {
        // u64::MAX is a *valid* live key and collides with the exhausted
        // sentinel; the full-comparison fallback must disambiguate.
        let inputs = vec![
            vec![1u64, u64::MAX, u64::MAX],
            vec![u64::MAX],
            vec![0, 2, u64::MAX - 1],
        ];
        let sources: Vec<_> = inputs.clone().into_iter().map(SliceStream::new).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        let mut out = Vec::new();
        while let Some(x) = lt.next_record().unwrap() {
            out.push(x);
        }
        let mut expect: Vec<u64> = inputs.concat();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn last_source_runs_dry_during_a_streak() {
        // One long source outlives short ones, so the drain is in streak
        // mode when it runs dry. With the long source at index 0 its
        // exhausted head still beats the exhausted runner-up (no replay);
        // at the last index it does not (a replay ends the merge).
        for (k, live) in [(1usize, 0usize), (4, 0), (4, 3), (8, 0), (8, 7)] {
            let inputs: Vec<Vec<u32>> = (0..k)
                .map(|s| match s == live {
                    true => (10..5000).collect(),
                    false => vec![s as u32],
                })
                .collect();
            let depth = |s: usize| u64::from((s + k).ilog2());
            let selects = (k as u64 - 1)
                + inputs
                    .iter()
                    .enumerate()
                    .map(|(s, run)| run.len() as u64 * depth(s))
                    .sum::<u64>();
            let mut expect = inputs.concat();
            expect.sort_unstable();
            let sources = inputs.into_iter().map(SliceStream::new).collect();
            let mut lt = LoserTree::new(sources).unwrap();
            let mut out = Vec::new();
            loop {
                let streaky = lt.streaky;
                if lt.next_batch(&mut out, 100).unwrap() < 100 {
                    assert!(streaky, "k={k}: the last batch was not a streak");
                    break;
                }
            }
            assert_eq!(out, expect, "k={k}, live source {live}");
            assert_eq!(lt.comparisons(), selects, "k={k}, live source {live}");
            assert_eq!(lt.next_record().unwrap(), None);
            assert_eq!(lt.next_batch(&mut out, 10).unwrap(), 0);
            assert_eq!(lt.next_record().unwrap(), None);
            assert_eq!(lt.comparisons(), selects, "selects billed after the end");
            assert_eq!(lt.produced(), expect.len() as u64);
        }
    }

    #[test]
    fn huge_fanin_64ki_streams() {
        // Regression for the recursive tournament build: 64 Ki streams must
        // build and merge without blowing the stack.
        let k = 1usize << 16;
        let sources: Vec<_> = (0..k).map(|s| SliceStream::new(vec![s as u32])).collect();
        let mut lt = LoserTree::new(sources).unwrap();
        let mut prev = None;
        let mut n = 0u64;
        while let Some(x) = lt.next_record().unwrap() {
            assert!(prev <= Some(x), "out of order at record {n}");
            prev = Some(x);
            n += 1;
        }
        assert_eq!(n, k as u64);
        assert_eq!(lt.produced(), k as u64);
    }
}
