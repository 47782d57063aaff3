//! Property tests for the PSRS building blocks: sampling grids, pivot
//! ranks, partition cuts and sublist assignment.

#![cfg(feature = "proptests")]
// Requires the `proptest` dev-dependency, not vendored offline; see README.

use proptest::collection::vec;
use proptest::prelude::*;

use cluster::{run_cluster, ClusterSpec};
use hetsort::overpartition::assign_sublists;
use hetsort::partition::{partition_file_streaming, partition_ranges};
use hetsort::pivots::select_pivots;
use hetsort::sampling::{
    quantile_positions, random_positions, regular_positions, regular_sample_count,
};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use pdm::Disk;
use workloads::{generate_to_disk, Benchmark, Layout};

fn perf_vector() -> impl Strategy<Value = PerfVector> {
    vec(1u64..6, 1..6).prop_map(PerfVector::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn regular_positions_are_valid_and_even(len in 0u64..10_000, count in 0u64..200) {
        let pos = regular_positions(len, count);
        if len == 0 || count == 0 {
            prop_assert!(pos.is_empty());
        } else {
            prop_assert_eq!(pos.len() as u64, count.min(len));
            prop_assert!(pos.iter().all(|&q| q < len));
            prop_assert!(pos.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(pos[0], 0, "segment-start placement");
            // Even spacing within rounding: gaps differ by at most 1.
            if pos.len() >= 2 {
                let gaps: Vec<u64> = pos.windows(2).map(|w| w[1] - w[0]).collect();
                let min = gaps.iter().min().unwrap();
                let max = gaps.iter().max().unwrap();
                prop_assert!(max - min <= 1, "gaps {:?}", gaps);
            }
        }
    }

    #[test]
    fn heterogeneous_sample_grid_alignment(perf in perf_vector()) {
        // The property the 2x theorem rests on: every boundary quantile
        // g_j = cum(j)/Σ lands exactly on every node's sample grid.
        let total = perf.total();
        for j in 1..perf.p() {
            for i in 0..perf.p() {
                let s_i = regular_sample_count(&perf, i);
                prop_assert_eq!((perf.cumulative(j) * s_i) % total, 0);
            }
        }
        // And the total sample size is (Σ perf)².
        let sum: u64 = (0..perf.p()).map(|i| regular_sample_count(&perf, i)).sum();
        prop_assert_eq!(sum, total * total);
    }

    #[test]
    fn pivots_are_sorted_subset(sample in vec(any::<u32>(), 1..500), perf in perf_vector()) {
        let mut sorted = sample.clone();
        sorted.sort_unstable();
        let pivots = select_pivots(&sorted, &perf);
        prop_assert_eq!(pivots.len(), perf.p() - 1);
        prop_assert!(pivots.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(pivots.iter().all(|p| sorted.contains(p)));
    }

    #[test]
    fn exact_sample_pivot_fractions(perf in perf_vector()) {
        // Feed the ideal sample 0..Σ² and check each pivot approximates its
        // cumulative-performance fraction within the p/2 centring offset.
        let total = perf.total();
        let p = perf.p() as u64;
        let sample: Vec<u32> = (0..(total * total) as u32).collect();
        let pivots = select_pivots(&sample, &perf);
        for (j, &pv) in pivots.iter().enumerate() {
            let expect = perf.cumulative(j + 1) * total;
            prop_assert!(
                (pv as u64) >= expect && (pv as u64) <= expect + p,
                "pivot {} = {} for boundary rank {}", j, pv, expect
            );
        }
    }

    #[test]
    fn partition_cuts_are_exhaustive_and_ordered(
        data in vec(any::<u32>(), 0..1000),
        pivots in vec(any::<u32>(), 0..9),
    ) {
        let mut data = data;
        data.sort_unstable();
        let mut pivots = pivots;
        pivots.sort_unstable();
        let cuts = partition_ranges(&data, &pivots);
        prop_assert_eq!(cuts.len(), pivots.len() + 2);
        prop_assert_eq!(cuts[0], 0);
        prop_assert_eq!(*cuts.last().unwrap(), data.len());
        prop_assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        // Semantics: partition j content obeys its pivot fences.
        for j in 0..pivots.len() + 1 {
            for &x in &data[cuts[j]..cuts[j + 1]] {
                if j > 0 {
                    prop_assert!(x > pivots[j - 1]);
                }
                if j < pivots.len() {
                    prop_assert!(x <= pivots[j]);
                }
            }
        }
    }

    #[test]
    fn streaming_partition_matches_ranges(
        data in vec(any::<u32>(), 0..600),
        pivots in vec(any::<u32>(), 0..6),
    ) {
        let mut data = data;
        data.sort_unstable();
        let mut pivots = pivots;
        pivots.sort_unstable();
        let disk = Disk::in_memory(32);
        disk.write_file("in", &data).unwrap();
        let sizes = partition_file_streaming(&disk, "in", "p", &pivots).unwrap();
        let cuts = partition_ranges(&data, &pivots);
        for j in 0..sizes.len() {
            prop_assert_eq!(sizes[j] as usize, cuts[j + 1] - cuts[j]);
            let content = disk.read_file::<u32>(&format!("p{j}")).unwrap();
            prop_assert_eq!(content.as_slice(), &data[cuts[j]..cuts[j + 1]]);
        }
    }

    #[test]
    fn random_positions_sorted_in_range(len in 1u64..5000, count in 0u64..100, seed in any::<u64>()) {
        let mut rng = sim::Pcg64::new(seed);
        let pos = random_positions(len, count, &mut rng);
        prop_assert_eq!(pos.len() as u64, count);
        prop_assert!(pos.iter().all(|&q| q < len));
        prop_assert!(pos.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn quantile_positions_interior_and_ordered(len in 0u64..5000, count in 0u64..50) {
        let pos = quantile_positions(len, count);
        prop_assert!(pos.iter().all(|&q| q < len.max(1)));
        prop_assert!(pos.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn assignment_is_contiguous_covering_and_fair(
        sizes in vec(0u64..1000, 1..64),
        perf in perf_vector(),
    ) {
        let owners = assign_sublists(&sizes, &perf);
        prop_assert_eq!(owners.len(), sizes.len());
        // Contiguous, starting at node 0, never skipping a node.
        prop_assert_eq!(owners[0], 0);
        prop_assert!(owners.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
        prop_assert!(owners.iter().all(|&o| o < perf.p()));
        // If there are at least p sublists, every node owns at least one.
        if sizes.len() >= perf.p() {
            let last = *owners.last().unwrap();
            prop_assert_eq!(last, perf.p() - 1, "last node starved");
        }
    }
}

proptest! {
    // Full-cluster runs are costly; a couple dozen random shapes still
    // exercises the fused exchange's chunking and terminators well beyond
    // the fixed unit tests.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fused_exchange_sorts_any_shape(
        perf in perf_vector(),
        n_per_node in 64u64..1500,
        msg_records in 1usize..96,
        bench_ix in 0usize..Benchmark::ALL.len(),
        seed in any::<u64>(),
    ) {
        // Any perf vector, message size and distribution: the fused
        // exchange must terminate (the runtime's deadlock watchdog backs
        // this) and produce the globally sorted permutation.
        let bench = Benchmark::ALL[bench_ix];
        let p = perf.p();
        let n = perf.padded_size(n_per_node * p as u64);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let spec = ClusterSpec::homogeneous(p).with_block_bytes(64);
        let cfg = ExternalPsrsConfig::new(perf.clone(), 256)
            .with_tapes(4)
            .with_msg_records(msg_records)
            .with_fused_redistribution(true);
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
            psrs_external::<u32>(ctx, &cfg).await.unwrap();
            ctx.disk.read_file::<u32>("output").unwrap()
        });
        let mut flat = Vec::new();
        for nd in &report.nodes {
            flat.extend_from_slice(&nd.value);
        }
        prop_assert_eq!(flat.len() as u64, n);
        prop_assert!(flat.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
    }
}
