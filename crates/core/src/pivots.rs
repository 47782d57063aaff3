//! Pivot selection from the gathered sample.
//!
//! The designated node sorts the gathered candidates and takes `p − 1`
//! pivots at **cumulative-performance ranks**. With node `i` contributing
//! `perf[i]·Σ perf` segment-start samples (sample total `S = (Σ perf)²`),
//! every boundary quantile `g_j = cum_perf(j)/Σ perf` falls exactly on
//! every node's sample grid, so the sorted sample contains a tight cluster
//! of `p` samples (one per node) sitting at `g_j`, starting at rank
//! `cum_perf(j)·Σ perf`. The pivot is taken from the middle of that
//! cluster: rank `cum_perf(j)·Σ perf + p/2` — which in the homogeneous
//! case (`Σ perf = p`, `cum_perf(j) = j`) is the paper's classic
//! "`j·p + p/2`" position exactly.
//!
//! Every pivot the splitters broadcast is a [`Pivot`] triple: the sample
//! record's key, the rank that drew it and its index in that rank's
//! sample. The gathered sample is ordered by `(key, origin, index)`, so
//! a run of equal keys is cut *by position* (*Robust Massively Parallel
//! Sorting*, Axtmann–Sanders): [`equal_limits`] turns each pivot into a
//! per-node bound on the local index of records equal to its key, and a
//! flood of one key splits across nodes exactly where the sample says.

use std::time::Instant;

use cluster::charge::Work;
use cluster::NodeCtx;
use extsort::{sort_chunk, SortKernel};
use pdm::{record, Record};

use crate::incore::PivotStrategy;
use crate::perf::PerfVector;

/// One splitter: a sample record and its position in the gathered sample
/// order. Triples compare by `(key, origin, index)`, the order in which
/// both splitters rank the sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pivot<R> {
    /// The sample record.
    pub key: R,
    /// Rank of the node whose sample held it.
    pub origin: u32,
    /// Its index in that node's sample.
    pub index: u32,
}

/// Sample ranks of the `p − 1` regular-sampling pivots in a sorted sample
/// of `s` records: `cum_perf(j)·Σperf + p/2`, scaled into `s` when the
/// sample is smaller than the ideal `(Σperf)²` and clamped to `s − 1`.
///
/// # Panics
/// Panics if `s == 0` while `p > 1`.
pub(crate) fn pivot_ranks(s: u64, perf: &PerfVector) -> Vec<u64> {
    let p = perf.p();
    if p <= 1 {
        return Vec::new();
    }
    assert!(s > 0, "cannot pick pivots from an empty sample");
    let total = perf.total();
    let ideal = total * total;
    (1..p)
        .map(|j| {
            // Boundary cluster start + centring offset, then scale into the
            // actual sample size if it differs from the ideal.
            let ideal_rank = perf.cumulative(j) * total + p as u64 / 2;
            let rank = if s == ideal {
                ideal_rank
            } else {
                ideal_rank * s / ideal
            };
            rank.min(s - 1)
        })
        .collect()
}

/// Sample ranks of the quantile strategy's pivots (Cérin–Gaudiot, §3.2):
/// node `i` contributed `perf[i]·(p−1)` exact quantile ranks, so the
/// sample is an order-statistics estimate rather than an aligned grid; the
/// pivot for boundary fraction `g_j = cum_perf(j)/Σperf` is the standard
/// quantile estimator rank `⌈g_j·(S+1)⌉ − 1`.
///
/// # Panics
/// Panics if `s == 0` while `p > 1`.
pub(crate) fn quantile_ranks(s: u64, perf: &PerfVector) -> Vec<u64> {
    let p = perf.p();
    if p <= 1 {
        return Vec::new();
    }
    assert!(s > 0, "cannot pick pivots from an empty sample");
    let total = perf.total();
    (1..p)
        .map(|j| {
            let rank = (perf.cumulative(j) * (s + 1))
                .div_ceil(total)
                .saturating_sub(1);
            rank.min(s - 1)
        })
        .collect()
}

/// Selects `p − 1` pivots from a **sorted** sample, at ranks proportional
/// to cumulative performance: `cum_perf(j)·Σperf + p/2`.
///
/// The sample may be smaller than the ideal `(Σ perf)²` (tiny inputs);
/// ranks are scaled into the actual sample size, clamped to valid indices.
///
/// # Panics
/// Panics if the sample is unsorted (debug builds) or empty while `p > 1`.
pub fn select_pivots<R: Record>(sample_sorted: &[R], perf: &PerfVector) -> Vec<R> {
    debug_assert!(sample_sorted.is_sorted(), "pivot sample must be sorted");
    pivot_ranks(sample_sorted.len() as u64, perf)
        .into_iter()
        .map(|r| sample_sorted[r as usize])
        .collect()
}

/// Pivot selection for the **quantile** strategy: rank `⌈g_j·(S+1)⌉ − 1`
/// for boundary fraction `g_j = cum_perf(j)/Σperf`.
///
/// In the homogeneous case this lands in the middle of the `p`-sample
/// cluster sitting at quantile `j/p` — the behaviour of the original
/// algorithm. Heterogeneous vectors lose the exact alignment (that is the
/// memory-for-precision trade of the variant), but stay within the 2×
/// theorem.
pub fn select_pivots_quantile<R: Record>(sample_sorted: &[R], perf: &PerfVector) -> Vec<R> {
    debug_assert!(sample_sorted.is_sorted(), "pivot sample must be sorted");
    quantile_ranks(sample_sorted.len() as u64, perf)
        .into_iter()
        .map(|r| sample_sorted[r as usize])
        .collect()
}

/// Finds the first index `≥ from` of the partitioned slice `s` where
/// `below` turns false: an exponential probe, then a binary search over
/// the last doubling. Adds the predicate evaluations to `*cost`.
fn gallop<R>(s: &[R], from: usize, below: impl Fn(&R) -> bool, cost: &mut u64) -> usize {
    let mut bound = 1;
    while from + bound <= s.len() && {
        *cost += 1;
        below(&s[from + bound - 1])
    } {
        bound *= 2;
    }
    let lo = from + bound / 2;
    let hi = (from + bound).min(s.len());
    *cost += (hi - lo + 1).ilog2() as u64;
    lo + s[lo..hi].partition_point(below)
}

/// Turns ranks of the sorted gathered sample into [`Pivot`] triples.
/// `samples[o]` is rank `o`'s sorted sample and `sorted` their sorted
/// union; `ranks` must be nondecreasing. The record at rank `r` is the
/// `e`-th of its key's equal run, which the `(origin, index)` order lays
/// out rank by rank; one galloping search per pivot and sample, resumed
/// where the previous pivot left it, finds it. Returns the pivots and the
/// key comparisons spent.
pub(crate) fn locate_pivots<R: Record>(
    samples: &[Vec<R>],
    sorted: &[R],
    ranks: &[u64],
) -> (Vec<Pivot<R>>, u64) {
    let mut cost = 0u64;
    let mut below = vec![0usize; samples.len()];
    let pivots = ranks
        .iter()
        .map(|&r| {
            let key = sorted[r as usize];
            for (lo, s) in below.iter_mut().zip(samples) {
                *lo = gallop(s, *lo, |x| x < &key, &mut cost);
            }
            let mut e = r as usize - below.iter().sum::<usize>();
            for (o, (&lo, s)) in below.iter().zip(samples).enumerate() {
                let equal = gallop(s, lo, |x| x == &key, &mut cost) - lo;
                if e < equal {
                    return Pivot {
                        key,
                        origin: o as u32,
                        index: (lo + e) as u32,
                    };
                }
                e -= equal;
            }
            unreachable!("rank {r} lies past the gathered sample")
        })
        .collect();
    (pivots, cost)
}

/// Per-node tie-break limits: a record equal to `pivots[j].key` stays
/// left of boundary `j` iff its local index is below `limits[j]`. Ranks
/// before the pivot's origin keep every equal record left, ranks after it
/// none, and the origin keeps those up to and including the pivot's own
/// record, which sits at local index `positions[index]` (`positions` are
/// this node's sample positions). Nondecreasing `(key, origin, index)`
/// pivots give nondecreasing cuts on every node.
pub fn equal_limits<R>(rank: usize, pivots: &[Pivot<R>], positions: &[u64]) -> Vec<u64> {
    pivots
        .iter()
        .map(|pv| match rank.cmp(&(pv.origin as usize)) {
            std::cmp::Ordering::Less => u64::MAX,
            std::cmp::Ordering::Equal => positions[pv.index as usize] + 1,
            std::cmp::Ordering::Greater => 0,
        })
        .collect()
}

/// Encodes pivots as `{count: u64, keys, origins: u32s, indices: u32s}`.
pub(crate) fn encode_pivots<R: Record>(pivots: &[Pivot<R>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pivots.len() * (R::SIZE + 8));
    out.extend((pivots.len() as u64).to_le_bytes());
    let keys: Vec<R> = pivots.iter().map(|pv| pv.key).collect();
    out.extend(record::encode_all(&keys));
    out.extend(pivots.iter().flat_map(|pv| pv.origin.to_le_bytes()));
    out.extend(pivots.iter().flat_map(|pv| pv.index.to_le_bytes()));
    out
}

/// Decodes [`encode_pivots`] output.
pub(crate) fn decode_pivots<R: Record>(bytes: &[u8]) -> Vec<Pivot<R>> {
    let n = u64::from_le_bytes(bytes[..8].try_into().expect("count")) as usize;
    let keys: Vec<R> = record::decode_all(&bytes[8..8 + n * R::SIZE]);
    let u32s = |at: usize| {
        bytes[at..at + 4 * n]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
    };
    let at = 8 + n * R::SIZE;
    keys.into_iter()
        .zip(u32s(at))
        .zip(u32s(at + 4 * n))
        .map(|((key, origin), index)| Pivot { key, origin, index })
        .collect()
}

/// The paper's centralized selection: every node ships its sorted sample
/// to node 0, which sorts the `(Σperf)²` candidates, picks the pivots at
/// the strategy's ranks, locates them in the per-rank samples and
/// broadcasts the triples. Call on **every** node; returns identical
/// pivots everywhere. The root bills the sort and the locating searches
/// (key ops under a key-based kernel) as one section.
pub(crate) async fn gather_select_pivots<R: Record>(
    ctx: &mut NodeCtx,
    perf: &PerfVector,
    sample: &[R],
    strategy: PivotStrategy,
    kernel: SortKernel,
) -> Vec<Pivot<R>> {
    let gathered = ctx.gather(0, record::encode_all(sample)).await;
    let payload = match gathered {
        Some(payloads) => {
            let samples: Vec<Vec<R>> = payloads.iter().map(|b| record::decode_all(b)).collect();
            let mut all: Vec<R> = samples.concat();
            let t0 = Instant::now();
            let kw = sort_chunk(&mut all, kernel);
            let ranks = match strategy {
                PivotStrategy::RegularSampling => pivot_ranks(all.len() as u64, perf),
                PivotStrategy::Quantiles => quantile_ranks(all.len() as u64, perf),
            };
            let (pivots, searches) = locate_pivots(&samples, &all, &ranks);
            let bill = kernel.bill_selects::<R>(searches);
            ctx.charger.charge_section(
                Work {
                    comparisons: kw.comparisons + bill.comparisons,
                    key_ops: kw.key_ops + bill.key_ops,
                    moves: all.len() as u64,
                },
                t0.elapsed(),
            );
            encode_pivots(&pivots)
        }
        None => Vec::new(),
    };
    decode_pivots(&ctx.broadcast(0, payload).await)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_matches_classic_psrs() {
        // p = 4, sample size p² = 16 (values 0..16): pivots at ranks
        // 4+2, 8+2, 12+2 = values 6, 10, 14.
        let sample: Vec<u32> = (0..16).collect();
        let pivots = select_pivots(&sample, &PerfVector::homogeneous(4));
        assert_eq!(pivots, vec![6, 10, 14]);
    }

    #[test]
    fn heterogeneous_ranks_follow_cumulative_perf() {
        // perf {1,1,4,4}: Σ=10, p=4, sample size Σ²=100 (values 0..100).
        // Boundaries at ranks 1·10+2, 2·10+2, 6·10+2 = 12, 22, 62.
        let sample: Vec<u32> = (0..100).collect();
        let pivots = select_pivots(&sample, &PerfVector::paper_1144());
        assert_eq!(pivots, vec![12, 22, 62]);
    }

    #[test]
    fn pivot_count_is_p_minus_one() {
        let sample: Vec<u32> = (0..100).collect();
        for p in 1..8 {
            let pv = PerfVector::homogeneous(p);
            assert_eq!(select_pivots(&sample, &pv).len(), p.saturating_sub(1));
        }
    }

    #[test]
    fn pivots_are_nondecreasing() {
        let sample: Vec<u32> = (0..55).map(|i| i * 7 % 100).collect();
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let pivots = select_pivots(&sorted, &PerfVector::new(vec![3, 1, 2]));
        assert!(pivots.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn undersized_sample_scales_ranks() {
        // Ideal sample 100 but only 10 candidates: ranks scale by 1/10.
        let sample: Vec<u32> = (0..10).collect();
        let pivots = select_pivots(&sample, &PerfVector::paper_1144());
        assert_eq!(pivots.len(), 3);
        assert!(pivots.windows(2).all(|w| w[0] <= w[1]));
        assert!(pivots.iter().all(|&x| x < 10));
        // The last boundary (cum perf 6 of 10) stays in the upper half.
        assert!(pivots[2] >= 5);
    }

    #[test]
    fn quantile_selector_centers_clusters_homogeneous() {
        // p = 4, sample (p−1)·p = 12 values 0..12, one 4-sample cluster per
        // interior quantile (ranks 0–3, 4–7, 8–11): each boundary pivot
        // must land inside its own cluster, not the next one.
        let sample: Vec<u32> = (0..12).collect();
        let pivots = select_pivots_quantile(&sample, &PerfVector::homogeneous(4));
        assert_eq!(pivots, vec![3, 6, 9]);
        assert!(pivots[0] < 4 && (4..8).contains(&pivots[1]) && (8..12).contains(&pivots[2]));
    }

    #[test]
    fn quantile_selector_heterogeneous_fractions() {
        // perf {1,1,4,4}: sample (p−1)·Σ = 30, boundary fractions 0.1,
        // 0.2, 0.6 → ranks ~2, ~5, ~17.
        let sample: Vec<u32> = (0..30).collect();
        let pivots = select_pivots_quantile(&sample, &PerfVector::paper_1144());
        assert!(pivots.windows(2).all(|w| w[0] <= w[1]));
        assert!((1..=4).contains(&pivots[0]), "pivot0 {}", pivots[0]);
        assert!((4..=8).contains(&pivots[1]), "pivot1 {}", pivots[1]);
        assert!((16..=20).contains(&pivots[2]), "pivot2 {}", pivots[2]);
    }

    #[test]
    fn locate_orders_equal_keys_by_origin_then_index() {
        // Three ranks' sorted samples; key 5 repeats on ranks 0 and 2.
        let samples = vec![vec![1u32, 5, 5], vec![2, 7], vec![5, 9]];
        let mut all: Vec<u32> = samples.concat();
        all.sort_unstable();
        // all = [1, 2, 5, 5, 5, 7, 9]: ranks 2..5 are (5,0,1), (5,0,2), (5,2,0).
        let ranks: Vec<u64> = (0..all.len() as u64).collect();
        let (pivots, cost) = locate_pivots(&samples, &all, &ranks);
        let triples: Vec<(u32, u32, u32)> =
            pivots.iter().map(|p| (p.key, p.origin, p.index)).collect();
        assert_eq!(
            triples,
            vec![
                (1, 0, 0),
                (2, 1, 0),
                (5, 0, 1),
                (5, 0, 2),
                (5, 2, 0),
                (7, 1, 1),
                (9, 2, 1)
            ]
        );
        assert!(pivots.windows(2).all(|w| w[0] < w[1]));
        assert!(cost > 0);
    }

    #[test]
    fn equal_limits_follow_origin_and_position() {
        let pv = |origin, index| Pivot {
            key: 3u32,
            origin,
            index,
        };
        let pivots = [pv(1, 0), pv(1, 2), pv(2, 1)];
        // Rank 1 drew its sample at local positions 0, 10, 20.
        assert_eq!(
            equal_limits(1, &pivots, &[0, 10, 20]),
            vec![1, 21, u64::MAX]
        );
        assert_eq!(equal_limits(0, &pivots, &[]), vec![u64::MAX; 3]);
        assert_eq!(equal_limits(3, &pivots, &[]), vec![0; 3]);
    }

    #[test]
    fn pivot_codec_roundtrip() {
        let pivots: Vec<Pivot<u32>> = (0..5)
            .map(|i| Pivot {
                key: i * 3,
                origin: i % 2,
                index: i + 7,
            })
            .collect();
        assert_eq!(decode_pivots::<u32>(&encode_pivots(&pivots)), pivots);
    }

    #[test]
    fn single_node_needs_no_pivots() {
        let sample: Vec<u32> = vec![1, 2, 3];
        assert!(select_pivots(&sample, &PerfVector::homogeneous(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_rejected() {
        let sample: Vec<u32> = vec![];
        let _ = select_pivots(&sample, &PerfVector::homogeneous(2));
    }
}
