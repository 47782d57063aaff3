//! In-core heterogeneous PSRS (the paper's §3 foundation, HiPC 2000).
//!
//! Same four canonical phases as the external algorithm, but the node
//! blocks live in memory. Used as a fast comparison point, as the reference
//! implementation for the pivot machinery, and by the overpartitioning
//! ablation.

use std::time::Instant;

use cluster::charge::Work;
use cluster::NodeCtx;
use extsort::{sort_chunk, LoserTree, SliceStream, SortKernel};
use pdm::{record, Record};

use crate::multilevel::{two_level_exchange, SplitTiming, SplitterStrategy};
use crate::partition::{partition_comparisons, partition_ranges_tiebreak};
use crate::perf::PerfVector;
use crate::pivots::equal_limits;
use crate::sampling::{quantile_positions, regular_positions, regular_sample_count};

/// How pivot candidates are drawn from each node's sorted block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotStrategy {
    /// Classic PSRS regular sampling: `perf[i]·Σperf` segment-start samples
    /// per node (sample total `(Σperf)²`), exact grid alignment at the
    /// boundary quantiles.
    RegularSampling,
    /// The quantile variant of Cérin–Gaudiot (HiPC 2000, the paper's §3.2):
    /// each node contributes only `perf[i]·(p−1)` exact quantile ranks, so
    /// the gathered sample is `(p−1)·Σperf` — much smaller than `(Σperf)²`
    /// when `Σperf ≫ p` — "less memory consuming … with equal time
    /// performances".
    Quantiles,
}

/// What one node got out of an in-core PSRS run.
#[derive(Debug)]
pub struct InCoreOutcome<R> {
    /// This node's final, globally positioned sorted portion.
    pub sorted: Vec<R>,
    /// The pivots that were used (identical on every node).
    pub pivots: Vec<R>,
    /// Full-record comparisons this node performed (local sort + merge).
    pub comparisons: u64,
    /// Key operations this node performed (radix kernel passes and
    /// key-cached merge selects; zero on the comparison kernel).
    pub key_ops: u64,
    /// Per-stage virtual timing of the grouped splitter selection
    /// (`None` on the flat path).
    pub split: Option<SplitTiming>,
}

/// Runs in-core PSRS across the cluster; every node calls this with its
/// local block. Node `j`'s result holds the records between pivots `j−1`
/// and `j` — concatenating the results by rank yields the sorted input.
///
/// `perf` is the *declared* performance vector (data-share weights); it
/// need not match the hardware speeds in the [`cluster::ClusterSpec`] —
/// Table 3's first row deliberately mismatches them.
pub async fn psrs_incore<R: Record>(
    ctx: &mut NodeCtx,
    perf: &PerfVector,
    local: Vec<R>,
) -> InCoreOutcome<R> {
    psrs_incore_with(ctx, perf, local, PivotStrategy::RegularSampling).await
}

/// [`psrs_incore`] with an explicit pivot-candidate strategy (and the
/// default sort kernel).
pub async fn psrs_incore_with<R: Record>(
    ctx: &mut NodeCtx,
    perf: &PerfVector,
    local: Vec<R>,
    strategy: PivotStrategy,
) -> InCoreOutcome<R> {
    psrs_incore_kernel(ctx, perf, local, strategy, SortKernel::default()).await
}

/// [`psrs_incore_with`] with an explicit in-core sort kernel. The kernel
/// changes how the local sorts run and how CPU work is billed; the sorted
/// result is byte-identical either way.
pub async fn psrs_incore_kernel<R: Record>(
    ctx: &mut NodeCtx,
    perf: &PerfVector,
    local: Vec<R>,
    strategy: PivotStrategy,
    kernel: SortKernel,
) -> InCoreOutcome<R> {
    psrs_incore_split(ctx, perf, local, strategy, SplitterStrategy::Flat, kernel).await
}

/// [`psrs_incore_kernel`] with an explicit splitter strategy. With
/// [`SplitterStrategy::Grouped`] the pivot phase runs the two-level
/// √p-group selection of [`crate::multilevel`] and the redistribution
/// uses the two-level routing — no node sorts a Θ(p²) sample or receives
/// `p` simultaneous first messages. The concatenated sorted output is the
/// same multiset either way; per-node shares differ only in how duplicate
/// keys split across boundaries.
pub async fn psrs_incore_split<R: Record>(
    ctx: &mut NodeCtx,
    perf: &PerfVector,
    mut local: Vec<R>,
    strategy: PivotStrategy,
    splitter: SplitterStrategy,
    kernel: SortKernel,
) -> InCoreOutcome<R> {
    assert_eq!(perf.p(), ctx.p, "perf vector must cover every node");
    let p = ctx.p;
    let rank = ctx.rank;
    let mut comparisons = 0u64;
    let mut key_ops = 0u64;

    // Phase 1: local sort.
    let n_local = local.len() as u64;
    let t0 = Instant::now();
    let kw = sort_chunk(&mut local, kernel);
    comparisons += kw.comparisons;
    key_ops += kw.key_ops;
    ctx.charger.charge_section(
        Work {
            comparisons: kw.comparisons,
            key_ops: kw.key_ops,
            moves: n_local,
        },
        t0.elapsed(),
    );
    ctx.mark_phase("local-sort");

    // Phase 2: candidate sampling → gather → pivots → broadcast.
    let positions = match strategy {
        PivotStrategy::RegularSampling => {
            regular_positions(n_local, regular_sample_count(perf, rank))
        }
        PivotStrategy::Quantiles => {
            quantile_positions(n_local, perf.get(rank) * (p as u64 - 1).max(1))
        }
    };
    let sample: Vec<R> = positions.iter().map(|&q| local[q as usize]).collect();
    let (pivots, split) = splitter.select(ctx, perf, &sample, strategy, kernel).await;
    ctx.mark_phase("pivots");

    // Phase 3: partition the sorted block at the pivots, duplicates of a
    // pivot's key split by position.
    let equal_limit = equal_limits(rank, &pivots, &positions);
    let pivots: Vec<R> = pivots.iter().map(|pv| pv.key).collect();
    let cuts = ctx.charger.compute(
        Work::comparisons(partition_comparisons(n_local, pivots.len())),
        || partition_ranges_tiebreak(&local, &pivots, &equal_limit),
    );

    // Phase 4: redistribution — flat all-to-all, or the two-level
    // grouped routing (intra-group to relays, then inter-group).
    let outgoing: Vec<Vec<u8>> = (0..p)
        .map(|j| record::encode_all(&local[cuts[j]..cuts[j + 1]]))
        .collect();
    ctx.charger.charge_work(Work::moves(n_local));
    let incoming = if splitter.is_grouped() {
        two_level_exchange(ctx, outgoing, R::SIZE).await
    } else {
        ctx.all_to_all(outgoing).await
    };
    ctx.mark_phase("redistribute");

    // Phase 5: merge the received sorted partitions.
    let streams: Vec<SliceStream<R>> = incoming
        .iter()
        .map(|bytes| SliceStream::new(record::decode_all::<R>(bytes)))
        .collect();
    let received: u64 = incoming.iter().map(|b| (b.len() / R::SIZE) as u64).sum();
    let mut tree = LoserTree::new(streams).expect("in-memory streams cannot fail");
    let mut sorted = Vec::with_capacity(received as usize);
    tree.next_batch(&mut sorted, usize::MAX)
        .expect("in-memory streams cannot fail");
    let selects = kernel.bill_selects::<R>(tree.comparisons());
    comparisons += selects.comparisons;
    key_ops += selects.key_ops;
    ctx.charger.charge_work(Work {
        comparisons: selects.comparisons,
        key_ops: selects.key_ops,
        moves: received,
    });
    ctx.mark_phase("merge");

    InCoreOutcome {
        sorted,
        pivots,
        comparisons,
        key_ops,
        split,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{run_cluster, ClusterSpec};
    use workloads::{generate_block, Benchmark, Layout};

    /// Runs in-core PSRS over generated blocks; returns per-node sorted
    /// portions (by rank).
    fn run(
        spec: &ClusterSpec,
        perf: &PerfVector,
        bench: Benchmark,
        n: u64,
        seed: u64,
    ) -> Vec<Vec<u32>> {
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let perf = perf.clone();
        let report = run_cluster(spec, async move |ctx| {
            let local = generate_block(bench, seed, layouts[ctx.rank]);
            psrs_incore(ctx, &perf, local).await.sorted
        });
        report.nodes.into_iter().map(|n| n.value).collect()
    }

    fn assert_globally_sorted(portions: &[Vec<u32>], expect_total: u64) {
        let flat: Vec<u32> = portions.iter().flatten().copied().collect();
        assert_eq!(flat.len() as u64, expect_total);
        assert!(flat.windows(2).all(|w| w[0] <= w[1]), "global order broken");
    }

    #[test]
    fn homogeneous_sorts_uniform() {
        let spec = ClusterSpec::homogeneous(4);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(4000);
        let portions = run(&spec, &perf, Benchmark::Uniform, n, 1);
        assert_globally_sorted(&portions, n);
    }

    #[test]
    fn heterogeneous_1144_sorts_and_balances() {
        let spec = ClusterSpec::new(vec![1, 1, 4, 4]);
        let perf = PerfVector::paper_1144();
        let n = perf.padded_size(10_000);
        let portions = run(&spec, &perf, Benchmark::Uniform, n, 2);
        assert_globally_sorted(&portions, n);
        // Load balance: each node within 2× of its share.
        let sizes: Vec<u64> = portions.iter().map(|p| p.len() as u64).collect();
        let lb = crate::metrics::LoadBalance::new(sizes, &perf);
        assert!(lb.within_psrs_bound(16), "expansion {}", lb.expansion());
        assert!(lb.expansion() < 2.0, "expansion {}", lb.expansion());
    }

    #[test]
    fn all_eight_benchmarks_sort_correctly() {
        let spec = ClusterSpec::homogeneous(4);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(2000);
        for bench in Benchmark::PAPER_EIGHT {
            let portions = run(&spec, &perf, bench, n, 3);
            assert_globally_sorted(&portions, n);
        }
    }

    #[test]
    fn duplicates_stay_within_u_plus_d() {
        let spec = ClusterSpec::homogeneous(4);
        let perf = PerfVector::homogeneous(4);
        let n = perf.padded_size(4000);
        let shares = perf.shares(n);
        let whole = workloads::generate_whole(Benchmark::ZipfDuplicates, 4, &shares);
        let d = workloads::max_duplicate_count(&whole);
        let portions = run(&spec, &perf, Benchmark::ZipfDuplicates, n, 4);
        assert_globally_sorted(&portions, n);
        let sizes: Vec<u64> = portions.iter().map(|p| p.len() as u64).collect();
        let lb = crate::metrics::LoadBalance::new(sizes, &perf);
        assert!(
            lb.within_psrs_bound(d),
            "expansion {} with d={d}",
            lb.expansion()
        );
    }

    #[test]
    fn single_node_degenerates_to_local_sort() {
        let spec = ClusterSpec::homogeneous(1);
        let perf = PerfVector::homogeneous(1);
        let portions = run(&spec, &perf, Benchmark::Uniform, 1000, 5);
        assert_globally_sorted(&portions, 1000);
    }

    #[test]
    fn preserves_multiset() {
        let spec = ClusterSpec::homogeneous(3);
        let perf = PerfVector::homogeneous(3);
        let n = perf.padded_size(3000);
        let shares = perf.shares(n);
        let input = workloads::generate_whole(Benchmark::Gaussian, 6, &shares);
        let portions = run(&spec, &perf, Benchmark::Gaussian, n, 6);
        let mut flat: Vec<u32> = portions.into_iter().flatten().collect();
        let mut expect = input;
        expect.sort_unstable();
        flat.sort_unstable(); // already sorted; harmless
        assert_eq!(flat, expect);
    }

    #[test]
    fn quantile_strategy_sorts_and_balances() {
        let spec = ClusterSpec::new(vec![1, 1, 4, 4]);
        let perf = PerfVector::paper_1144();
        let n = perf.padded_size(20_000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let pv = perf.clone();
        let report = run_cluster(&spec, async move |ctx| {
            let local = generate_block(Benchmark::Uniform, 8, layouts[ctx.rank]);
            psrs_incore_with(ctx, &pv, local, PivotStrategy::Quantiles)
                .await
                .sorted
        });
        let portions: Vec<Vec<u32>> = report.nodes.into_iter().map(|n| n.value).collect();
        assert_globally_sorted(&portions, n);
        let sizes: Vec<u64> = portions.iter().map(|p| p.len() as u64).collect();
        let lb = crate::metrics::LoadBalance::new(sizes, &perf);
        // Smaller sample → looser balance than regular sampling, but the
        // 2x theorem still holds (HiPC 2000's claim).
        assert!(lb.expansion() < 2.0, "expansion {}", lb.expansion());
    }

    #[test]
    fn quantile_sample_is_smaller() {
        // The memory argument of §3.2: (p-1)·Σ vs Σ² gathered candidates.
        let perf = PerfVector::new(vec![10, 20, 30, 40]);
        let regular: u64 = (0..4)
            .map(|i| crate::sampling::regular_sample_count(&perf, i))
            .sum();
        let quantile: u64 = (0..4).map(|i| perf.get(i) * 3).sum();
        assert_eq!(regular, 100 * 100);
        assert_eq!(quantile, 3 * 100);
        assert!(quantile < regular / 30);
    }

    #[test]
    fn grouped_splitter_sorts_and_matches_flat_concatenation() {
        // 9 nodes → 3 groups of 3: the grouped selection and two-level
        // routing must still deliver a globally sorted permutation, and
        // for u32 records the concatenation equals the flat one exactly.
        let spec = ClusterSpec::homogeneous(9);
        let perf = PerfVector::homogeneous(9);
        let n = perf.padded_size(9_000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let run_split = |splitter: crate::multilevel::SplitterStrategy| {
            let pv = perf.clone();
            let layouts = layouts.clone();
            run_cluster(&spec, async move |ctx| {
                let local = generate_block(Benchmark::ZipfDuplicates, 12, layouts[ctx.rank]);
                psrs_incore_split(
                    ctx,
                    &pv,
                    local,
                    PivotStrategy::RegularSampling,
                    splitter,
                    extsort::SortKernel::default(),
                )
                .await
            })
        };
        let flat = run_split(crate::multilevel::SplitterStrategy::Flat);
        let grouped = run_split(crate::multilevel::SplitterStrategy::grouped());
        let cat = |report: &cluster::ClusterReport<InCoreOutcome<u32>>| -> Vec<u32> {
            report
                .nodes
                .iter()
                .flat_map(|nd| nd.value.sorted.iter().copied())
                .collect()
        };
        let a = cat(&flat);
        let b = cat(&grouped);
        assert_eq!(a.len() as u64, n);
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "global order broken");
        assert_eq!(a, b, "grouped concatenation must match flat");
        // Split timing present only on the grouped path.
        assert!(grouped.nodes.iter().all(|nd| nd.value.split.is_some()));
        assert!(flat.nodes.iter().all(|nd| nd.value.split.is_none()));
        // Balance still within the paper's bound.
        let sizes: Vec<u64> = grouped
            .nodes
            .iter()
            .map(|nd| nd.value.sorted.len() as u64)
            .collect();
        let lb = crate::metrics::LoadBalance::new(sizes, &perf);
        assert!(lb.expansion() < 2.0, "expansion {}", lb.expansion());
    }

    #[test]
    fn two_nodes_exchange_correctly() {
        let spec = ClusterSpec::homogeneous(2);
        let perf = PerfVector::homogeneous(2);
        // Reverse-sorted: everything must cross the pivot boundary.
        let n = perf.padded_size(500);
        let portions = run(&spec, &perf, Benchmark::ReverseSorted, n, 7);
        assert_globally_sorted(&portions, n);
    }
}
