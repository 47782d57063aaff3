//! Properties of the workload generators, each over cases drawn from a
//! fixed-seed [`sim::Pcg64`]: a failure reproduces exactly and names its case.

use sim::rng::Rng;
use sim::Pcg64;
use workloads::{generate_block, generate_whole, Benchmark, Layout};

const CASES: usize = 96;

/// One to `max_nodes - 1` shares of 1 to `max_share - 1` records each.
fn shares(rng: &mut Pcg64, max_nodes: u64, max_share: u64) -> Vec<u64> {
    let p = 1 + rng.below(max_nodes - 1);
    (0..p).map(|_| 1 + rng.below(max_share - 1)).collect()
}

#[test]
fn generators_are_deterministic() {
    let mut rng = Pcg64::new(0x9E40_0001);
    for case in 0..CASES {
        let bench = Benchmark::from_id(rng.below_usize(9));
        let (seed, len) = (rng.next_u64(), rng.below(2000));
        let layout = Layout::cluster(&[len; 4])[1];
        let block = generate_block(bench, seed, layout);
        let what = format!("case {case}: {bench:?} seed {seed} len {len}");
        assert_eq!(block, generate_block(bench, seed, layout), "{what}");
    }
}

#[test]
fn generators_respect_length() {
    let mut rng = Pcg64::new(0x9E40_0002);
    for case in 0..CASES {
        let bench = Benchmark::from_id(rng.below_usize(9));
        let (seed, len) = (rng.next_u64(), rng.below(3000));
        let layout = Layout::cluster(&[len, len.max(1)])[0];
        let got = generate_block(bench, seed, layout).len() as u64;
        assert_eq!(got, len, "case {case}: {bench:?} seed {seed}");
    }
}

#[test]
fn nodes_generate_independent_blocks() {
    let mut rng = Pcg64::new(0x9E40_0003);
    for case in 0..CASES {
        // Different nodes of the same benchmark must not produce identical
        // random streams (they fork by rank).
        let (seed, layouts) = (rng.next_u64(), Layout::cluster(&[256; 4]));
        let a = generate_block(Benchmark::Uniform, seed, layouts[0]);
        let b = generate_block(Benchmark::Uniform, seed, layouts[1]);
        assert_ne!(a, b, "case {case}: seed {seed}");
    }
}

#[test]
fn sorted_benchmarks_are_globally_monotone() {
    let mut rng = Pcg64::new(0x9E40_0004);
    for case in 0..CASES {
        let (shares, seed) = (shares(&mut rng, 6, 400), rng.next_u64());
        let what = format!("case {case}: shares {shares:?} seed {seed}");
        let asc = generate_whole(Benchmark::Sorted, seed, &shares);
        let mut desc = generate_whole(Benchmark::ReverseSorted, seed, &shares);
        assert!(asc.is_sorted(), "{what}");
        // The reverse of the descending input is the ascending one.
        desc.reverse();
        assert_eq!(asc, desc, "{what}");
    }
}

#[test]
fn whole_is_concatenation_of_blocks() {
    let mut rng = Pcg64::new(0x9E40_0005);
    for case in 0..CASES {
        let bench = Benchmark::from_id(rng.below_usize(9));
        let (shares, seed) = (shares(&mut rng, 5, 300), rng.next_u64());
        let block = |layout| generate_block(bench, seed, layout);
        let layouts = Layout::cluster(&shares);
        let cat: Vec<u32> = layouts.into_iter().flat_map(block).collect();
        let what = format!("case {case}: {bench:?} shares {shares:?} seed {seed}");
        assert_eq!(generate_whole(bench, seed, &shares), cat, "{what}");
    }
}
