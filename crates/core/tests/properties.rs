//! Properties of the PSRS building blocks (sampling grids, pivot ranks,
//! partition cuts, sublist assignment) and of the fused exchange end to end,
//! each over cases drawn from a fixed-seed [`sim::Pcg64`]: a failure
//! reproduces exactly and names its case. `partition_sweep` holds the
//! streaming partition to the in-core cuts.

use cluster::{run_cluster, ClusterSpec};
use hetsort::overpartition::assign_sublists;
use hetsort::partition::partition_ranges;
use hetsort::pivots::select_pivots;
use hetsort::sampling::{
    quantile_positions, random_positions, regular_positions, regular_sample_count,
};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use sim::rng::Rng;
use sim::Pcg64;
use workloads::{generate_to_disk, Benchmark, Layout};

const CASES: usize = 192;

/// 1–5 nodes, each of perf 1–5.
fn perf_vector(rng: &mut Pcg64) -> PerfVector {
    let p = 1 + rng.below_usize(5);
    PerfVector::new((0..p).map(|_| 1 + rng.below(5)).collect())
}

#[test]
fn regular_positions_are_valid_and_even() {
    let mut rng = Pcg64::new(0x5E61_0001);
    for case in 0..CASES {
        let (len, count) = (rng.below(10_000), rng.below(200));
        let pos = regular_positions(len, count);
        let what = format!("case {case}: len {len} count {count}: {pos:?}");
        assert_eq!(pos.len() as u64, count.min(len), "{what}");
        let placed = pos.is_empty() || (pos[0] == 0 && pos[pos.len() - 1] < len);
        assert!(placed, "{what}: segment-start placement");
        // Strictly increasing, and even within rounding: gaps differ by ≤ 1.
        let gaps: Vec<u64> = pos.windows(2).map(|w| w[1].saturating_sub(w[0])).collect();
        let (min, max) = (gaps.iter().min(), gaps.iter().max());
        let even = min.is_none_or(|&m| m > 0 && max.unwrap() - m <= 1);
        assert!(even, "{what}");
    }
}

#[test]
fn heterogeneous_sample_grid_alignment() {
    let mut rng = Pcg64::new(0x5E61_0002);
    for case in 0..CASES {
        let perf = perf_vector(&mut rng);
        // The property the 2x theorem rests on: every boundary quantile
        // g_j = cum(j)/Σ lands exactly on every node's sample grid.
        let total = perf.total();
        for j in 1..perf.p() {
            for i in 0..perf.p() {
                let s_i = regular_sample_count(&perf, i);
                let what = format!("case {case}: perf {perf}, boundary {j}, node {i}");
                assert_eq!((perf.cumulative(j) * s_i) % total, 0, "{what}");
            }
        }
        // And the total sample size is (Σ perf)².
        let sum: u64 = (0..perf.p()).map(|i| regular_sample_count(&perf, i)).sum();
        assert_eq!(sum, total * total, "case {case}: perf {perf}");
    }
}

#[test]
fn pivots_are_sorted_subset() {
    let mut rng = Pcg64::new(0x5E61_0003);
    for case in 0..CASES {
        let len = 1 + rng.below_usize(499);
        let mut sample: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        sample.sort_unstable();
        let perf = perf_vector(&mut rng);
        let pivots = select_pivots(&sample, &perf);
        let what = format!("case {case}: perf {perf} sample {sample:?}: pivots {pivots:?}");
        assert_eq!(pivots.len(), perf.p() - 1, "{what}");
        assert!(pivots.is_sorted(), "{what}");
        assert!(pivots.iter().all(|p| sample.contains(p)), "{what}");
    }
}

#[test]
fn exact_sample_pivot_fractions() {
    let mut rng = Pcg64::new(0x5E61_0004);
    for case in 0..CASES {
        // Feed the ideal sample 0..Σ² and check each pivot approximates its
        // cumulative-performance fraction within the p/2 centring offset.
        let perf = perf_vector(&mut rng);
        let total = perf.total();
        let sample: Vec<u32> = (0..(total * total) as u32).collect();
        for (j, &pv) in select_pivots(&sample, &perf).iter().enumerate() {
            let expect = perf.cumulative(j + 1) * total;
            let what = format!("case {case}: perf {perf}: pivot {j} = {pv}, rank {expect}");
            let centred = (expect..=expect + perf.p() as u64).contains(&(pv as u64));
            assert!(centred, "{what}");
        }
    }
}

#[test]
fn partition_cuts_are_exhaustive_and_ordered() {
    let mut rng = Pcg64::new(0x5E61_0005);
    for case in 0..CASES {
        let (len, fences) = (rng.below_usize(1000), rng.below_usize(9));
        let mut data: Vec<u32> = (0..len).map(|_| rng.next_u32()).collect();
        let mut pivots: Vec<u32> = (0..fences).map(|_| rng.next_u32()).collect();
        data.sort_unstable();
        pivots.sort_unstable();
        let cuts = partition_ranges(&data, &pivots);
        let what = format!("case {case}: pivots {pivots:?} over {len} records: {cuts:?}");
        assert_eq!(cuts.len(), fences + 2, "{what}");
        let exhaustive = cuts[0] == 0 && cuts[fences + 1] == len;
        assert!(exhaustive && cuts.is_sorted(), "{what}");
        // Semantics: partition j content obeys its pivot fences.
        for j in 0..=fences {
            for &x in &data[cuts[j]..cuts[j + 1]] {
                assert!(j == 0 || x > pivots[j - 1], "{what}: {x} below fence {j}");
                assert!(j == fences || x <= pivots[j], "{what}: {x} above fence {j}");
            }
        }
    }
}

#[test]
fn random_positions_sorted_in_range() {
    let mut rng = Pcg64::new(0x5E61_0006);
    for case in 0..CASES {
        let (len, count, seed) = (1 + rng.below(4999), rng.below(100), rng.next_u64());
        let pos = random_positions(len, count, &mut Pcg64::new(seed));
        let what = format!("case {case}: len {len} count {count} seed {seed}: {pos:?}");
        assert_eq!(pos.len() as u64, count, "{what}");
        assert!(pos.is_sorted() && pos.iter().all(|&q| q < len), "{what}");
    }
}

#[test]
fn quantile_positions_interior_and_ordered() {
    let mut rng = Pcg64::new(0x5E61_0007);
    for case in 0..CASES {
        let (len, count) = (rng.below(5000), rng.below(50));
        let pos = quantile_positions(len, count);
        let what = format!("case {case}: len {len} count {count}: {pos:?}");
        let interior = pos.iter().all(|&q| q < len.max(1));
        assert!(interior && pos.is_sorted(), "{what}");
    }
}

#[test]
fn assignment_is_contiguous_covering_and_fair() {
    let mut rng = Pcg64::new(0x5E61_0008);
    for case in 0..CASES {
        let len = 1 + rng.below_usize(63);
        let sizes: Vec<u64> = (0..len).map(|_| rng.below(1000)).collect();
        let perf = perf_vector(&mut rng);
        let owners = assign_sublists(&sizes, &perf);
        let what = format!("case {case}: perf {perf} sizes {sizes:?}: owners {owners:?}");
        assert_eq!(owners.len(), len, "{what}");
        // Contiguous, starting at node 0, never skipping a node.
        let steps = owners.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1);
        assert!(owners[0] == 0 && steps, "{what}");
        // The last sublist goes to the last node when there are enough of
        // them (so every node owns one), and never beyond it.
        let (last, p) = (owners[len - 1], perf.p());
        assert!(last < p && (len < p || last == p - 1), "{what}");
    }
}

#[test]
fn fused_exchange_sorts_any_shape() {
    // Any perf vector, message size and distribution: the fused exchange
    // terminates and produces the globally sorted permutation. Full-cluster
    // runs are costly, so this draws 24 shapes.
    let mut rng = Pcg64::new(0x5E61_0009);
    for case in 0..24 {
        let perf = perf_vector(&mut rng);
        let n = perf.padded_size((64 + rng.below(1436)) * perf.p() as u64);
        let msg_records = 1 + rng.below_usize(95);
        let bench = Benchmark::ALL[rng.below_usize(Benchmark::ALL.len())];
        let seed = rng.next_u64();
        let layouts = Layout::cluster(&perf.shares(n));
        let spec = ClusterSpec::homogeneous(perf.p()).with_block_bytes(64);
        let cfg = ExternalPsrsConfig::new(perf.clone(), 256)
            .with_tapes(4)
            .with_msg_records(msg_records)
            .with_fused_redistribution(true);
        let report = run_cluster(&spec, async |ctx| {
            generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
            psrs_external::<u32>(ctx, &cfg).await.unwrap();
            ctx.disk.read_file::<u32>("output").unwrap()
        });
        let out: Vec<u32> = report.nodes.into_iter().flat_map(|nd| nd.value).collect();
        let what = format!("case {case}: perf {perf} n {n} msg {msg_records} {bench:?} {seed}");
        assert_eq!(out.len() as u64, n, "{what}");
        assert!(out.is_sorted(), "{what}: output not sorted");
    }
}
