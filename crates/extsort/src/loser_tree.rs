//! Tournament (loser) tree for k-way merging.
//!
//! The classic selection structure for external merging (Knuth §5.4.1):
//! with `k` sorted input streams, producing each output record costs exactly
//! `⌈log₂ k⌉` comparisons — replay the winner's path, recording losers.
//! Exhausted streams are treated as carrying a `+∞` sentinel; ties are
//! broken by stream index, which makes the merge **stable** with respect to
//! input order and therefore deterministic.
//!
//! Four implementation choices keep the inner loop fast without changing
//! any observable behavior:
//!
//! * **Keys in the nodes.** Each internal node stores its loser's source
//!   *and* that source's cached order-preserving [`Record::sort_key`]
//!   (`u64::MAX` when the source is exhausted, 0 for records without a
//!   usable key). A replay therefore reads only the tree array and
//!   resolves most selects on one integer compare; only key ties of a key
//!   that is not a total order (or of keyless records) fall back to the
//!   full `(record, index)` comparison against the heads. Because
//!   `u64::MAX` is also a *valid* live key, a node ranks an exhausted
//!   source after every live one (its index plus `k`), which settles the
//!   sentinel collision without looking at the heads.
//! * **Per-source look-ahead.** Heads come from a small fixed buffer of
//!   decoded records per source (`LOOKAHEAD_BYTES`), refilled through
//!   [`RecordStream::next_batch`], so a block source is decoded a segment
//!   at a time instead of through one fallible call per record. A
//!   [`crate::stream::Bounded`] run caps each refill at the records left in
//!   the run, so the look-ahead never reads (or meters) past it.
//! * **Batched output.** [`RecordStream::next_batch`] on the tree is a tight
//!   winner loop that appends straight into the caller's buffer.
//! * **Branch-free replay.** The tree is built iteratively bottom-up (a
//!   `winners` scratch array, no recursion — fan-ins of tens of thousands
//!   of streams cannot overflow the stack), which fills *every* internal
//!   node, so replay needs no "empty node" guard, and each match result
//!   moves the nodes through conditional moves rather than a branch that
//!   random inputs would mispredict half the time.
//!
//! The tree counts its selects in `comparisons`: `k − 1` to build, then
//! `⌊log₂(s + k)⌋` for each record emitted from source `s` (its leaf's
//! depth). The count is identical to the classic implementation's, and the
//! cost models charge CPU time from it (as key ops when a key-based kernel
//! drives the merge).

use std::hint::select_unpredictable;

use pdm::{PdmResult, Record};

use crate::stream::RecordStream;

/// Bytes of decoded records each source keeps ahead of the merge. The
/// look-ahead costs at most this much memory per input stream.
const LOOKAHEAD_BYTES: usize = 4096;

/// One internal node: the loser of the match played there (or, at
/// `tree[0]`, the overall winner) with its head's cached key.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The head's `sort_key()`: `u64::MAX` when the source is exhausted, 0
    /// when the record type has no usable key.
    key: u64,
    /// The source index, plus `k` once the source is exhausted, so that on
    /// equal keys an exhausted source ranks after every live one.
    rank: usize,
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
    /// One lane per leaf (`k` of them; with no sources a single empty one).
    lanes: Vec<Lane<R>>,
    /// Internal nodes: `tree[j]` holds the *loser* at node `j`; `tree[0]`
    /// holds the overall winner.
    tree: Vec<Node>,
    k: usize,
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
            comparisons: 0,
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

    /// The leaf node of source `s`: its head's key and rank.
    #[inline(always)]
    fn leaf(&self, s: usize) -> Node {
        let lane = &self.lanes[s];
        match lane.buf.get(lane.pos) {
            Some(r) => Node {
                key: if R::HAS_SORT_KEY { r.sort_key() } else { 0 },
                rank: s,
            },
            None => Node {
                key: u64::MAX,
                rank: s + self.k,
            },
        }
    }

    /// Initial tournament, bottom-up and iterative: `winners[j]` holds the
    /// winner of the subtree rooted at implicit node `j` (leaves `k..2k`
    /// hold the sources); each internal node stores its loser. O(k)
    /// comparisons, O(1) stack regardless of fan-in.
    fn build(&mut self) {
        let mut winners: Vec<Node> = Vec::with_capacity(2 * self.k);
        winners.resize(self.k, Node { key: 0, rank: 0 });
        winners.extend((0..self.k).map(|s| self.leaf(s)));
        self.tree = vec![Node { key: 0, rank: 0 }; self.k];
        for node in (1..self.k).rev() {
            let left = winners[2 * node];
            let right = winners[2 * node + 1];
            self.comparisons += 1;
            let (winner, loser) = if self.beats(left, right) {
                (left, right)
            } else {
                (right, left)
            };
            self.tree[node] = loser;
            winners[node] = winner;
        }
        self.tree[0] = winners[1];
    }

    /// Does node `a`'s head beat (sort before) node `b`'s head? Resolved by
    /// the cached keys when they differ. On equal keys an exhausted source
    /// (whose `u64::MAX` sentinel may equal a live key) loses to every live
    /// one, and two live heads compare as `(record, index)`. When the key
    /// is a total order, equal live keys mean equal records, so the rank
    /// alone decides and the select stays branch-free.
    #[inline(always)]
    fn beats(&self, a: Node, b: Node) -> bool {
        if R::HAS_SORT_KEY && R::KEY_IS_TOTAL {
            (a.key, a.rank) < (b.key, b.rank)
        } else if a.key != b.key {
            a.key < b.key
        } else {
            self.tie_beats(a, b)
        }
    }

    /// The full comparison behind [`LoserTree::beats`] for equal cached keys
    /// of a key that is not a total order (or no key at all). Kept out of
    /// line so the replay loop stays branch-free.
    #[inline(never)]
    fn tie_beats(&self, a: Node, b: Node) -> bool {
        if a.rank < self.k && b.rank < self.k {
            let (x, y) = (&self.lanes[a.rank], &self.lanes[b.rank]);
            (x.buf[x.pos], a.rank) < (y.buf[y.pos], b.rank)
        } else {
            a.rank < b.rank
        }
    }

    /// Consumes the winner's head (already copied out by the caller),
    /// refills its lane when it runs dry, and replays its path to the root.
    #[inline(always)]
    fn advance(&mut self, winner: usize) -> PdmResult<()> {
        let lane = &mut self.lanes[winner];
        lane.pos += 1;
        if lane.pos == lane.buf.len() {
            self.refill(winner)?;
        }
        let mut cand = self.leaf(winner);
        let mut node = (winner + self.k) / 2;
        let mut selects = 0;
        while node >= 1 {
            // Every internal node is filled after build(): no empty-node
            // guard, and the two selects lower to conditional moves.
            let stored = self.tree[node];
            let stored_wins = self.beats(stored, cand);
            self.tree[node] = select_unpredictable(stored_wins, cand, stored);
            cand = select_unpredictable(stored_wins, stored, cand);
            selects += 1;
            node /= 2;
        }
        self.tree[0] = cand;
        self.comparisons += selects;
        self.produced += 1;
        Ok(())
    }

    /// The overall winner's source and head, or `None` once every source
    /// is exhausted.
    #[inline(always)]
    fn winner(&self) -> Option<(usize, R)> {
        let w = self.tree[0].rank;
        let lane = self.lanes.get(w)?;
        Some((w, lane.buf[lane.pos]))
    }

    /// Pops the smallest head record, refilling from its source.
    pub fn next_record(&mut self) -> PdmResult<Option<R>> {
        let Some((w, out)) = self.winner() else {
            return Ok(None);
        };
        self.advance(w)?;
        Ok(Some(out))
    }

    /// Appends up to `max` records in merged order to `out`; returns how
    /// many (fewer than `max` only once the merge is exhausted). Identical
    /// output and select count to `max` [`LoserTree::next_record`] calls.
    pub fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let start = out.len();
        while out.len() - start < max {
            let Some((w, r)) = self.winner() else {
                break;
            };
            out.push(r);
            self.advance(w)?;
        }
        Ok(out.len() - start)
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

    /// Comparisons performed so far (tournament selects; each is one cached
    /// u64 key compare plus, on ties only, one full record comparison).
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
