//! Cross-crate properties: for arbitrary inputs, perf vectors and geometry,
//! the sorters produce sorted permutations and respect the paper's
//! invariants. Each draws its cases from a fixed-seed [`sim::Pcg64`]: a
//! failure reproduces exactly and names its case.

use cluster::{run_cluster, ClusterSpec};
use extsort::{fingerprint_slice, ExtSortConfig, RunFormation};
use hetsort::{psrs_incore, PerfVector};
use pdm::Disk;
use sim::rng::Rng;
use sim::Pcg64;

const CASES: usize = 48;

/// 1–4 nodes, each of perf 1–5.
fn perf_vector(rng: &mut Pcg64) -> PerfVector {
    let p = 1 + rng.below_usize(4);
    PerfVector::new((0..p).map(|_| 1 + rng.below(5)).collect())
}

#[test]
fn polyphase_sorts_arbitrary_data() {
    let mut rng = Pcg64::new(0x9209_0001);
    for case in 0..CASES {
        let data: Vec<u32> = (0..rng.below(3000)).map(|_| rng.next_u32()).collect();
        let tapes = 3 + rng.below_usize(5);
        let mem = (16 + rng.below_usize(184)).max(tapes * 8); // 8 records per block
        let rf = [RunFormation::ChunkSort, RunFormation::ReplacementSelection][case % 2];
        let disk = Disk::in_memory(32);
        disk.write_file("in", &data).unwrap();
        let cfg = ExtSortConfig::new(mem)
            .with_tapes(tapes)
            .with_run_formation(rf);
        let report = extsort::polyphase_sort::<u32>(&disk, "in", "out", "pp", &cfg).unwrap();
        let out = disk.read_file::<u32>("out").unwrap();
        let n = data.len();
        let what = format!("case {case}: {n} records, mem {mem}, {tapes} tapes, {rf:?}");
        assert_eq!(report.records, n as u64, "{what}");
        assert!(out.is_sorted(), "{what}");
        assert_eq!(fingerprint_slice(&out), fingerprint_slice(&data), "{what}");
    }
}

#[test]
fn balanced_kway_sorts_arbitrary_data() {
    let mut rng = Pcg64::new(0x9209_0002);
    for case in 0..CASES {
        let data: Vec<u32> = (0..rng.below(2000)).map(|_| rng.next_u32()).collect();
        let tapes = 4 + rng.below_usize(4);
        let disk = Disk::in_memory(32);
        disk.write_file("in", &data).unwrap();
        let cfg = ExtSortConfig::new(64).with_tapes(tapes);
        extsort::balanced_kway_sort::<u32>(&disk, "in", "out", "kw", &cfg).unwrap();
        let out = disk.read_file::<u32>("out").unwrap();
        let what = format!("case {case}: {} records, {tapes} tapes", data.len());
        assert!(out.is_sorted(), "{what}");
        assert_eq!(fingerprint_slice(&out), fingerprint_slice(&data), "{what}");
    }
}

#[test]
fn equation2_padding_is_tight_and_valid() {
    let mut rng = Pcg64::new(0x9209_0003);
    for case in 0..CASES {
        let (perf, n) = (perf_vector(&mut rng), 1 + rng.below(999_999));
        let padded = perf.padded_size(n);
        let what = format!("case {case}: perf {perf} n {n}: padded {padded}");
        let tight = padded >= n && padded - n < perf.granule();
        assert!(tight && perf.is_valid_size(padded), "{what}");
        let shares = perf.shares(padded);
        assert_eq!(shares.iter().sum::<u64>(), padded, "{what}");
        // Shares proportional to perf exactly.
        for (i, &s) in shares.iter().enumerate() {
            assert_eq!(s * perf.total(), padded * perf.get(i), "{what}: node {i}");
        }
    }
}

#[test]
fn incore_psrs_sorts_arbitrary_multisets() {
    let mut rng = Pcg64::new(0x9209_0004);
    for case in 0..CASES {
        // Duplicate-rich data (small key space) over arbitrary perf.
        let perf = perf_vector(&mut rng);
        let n = perf.granule() * (1 + rng.below(19)) * 4;
        let (seed, key_space) = (rng.next_u64(), 1 + rng.below(999) as u32);
        let shares = perf.shares(n);
        let spec = ClusterSpec::new(perf.as_slice().to_vec()).with_seed(seed);
        let report = run_cluster(&spec, async |ctx| {
            let len = shares[ctx.rank];
            let local: Vec<u32> = (0..len).map(|_| ctx.rng.next_u32() % key_space).collect();
            let out = psrs_incore(ctx, &perf, local.clone()).await;
            (local, out.sorted)
        });
        let values = report.nodes.into_iter().map(|nd| nd.value);
        let (input, output): (Vec<Vec<u32>>, Vec<Vec<u32>>) = values.unzip();
        let (mut input, output) = (input.concat(), output.concat());
        let what = format!("case {case}: perf {perf} n {n} seed {seed} keys {key_space}");
        assert!(output.is_sorted(), "{what}");
        input.sort_unstable();
        assert_eq!(input, output, "{what}");
    }
}

#[test]
fn psrs_load_bound_holds_on_unique_keys() {
    let mut rng = Pcg64::new(0x9209_0005);
    for case in 0..CASES {
        // With (nearly) unique keys, every node ends within 2x its share
        // plus the p·stride sampling slack (the theorem's constant).
        let perf = perf_vector(&mut rng);
        let n = perf.granule() * (2 + rng.below(14)) * 8;
        let seed = rng.next_u64();
        let shares = perf.shares(n);
        let spec = ClusterSpec::new(perf.as_slice().to_vec()).with_seed(seed);
        let report = run_cluster(&spec, async |ctx| {
            let local: Vec<u32> = (0..shares[ctx.rank]).map(|_| ctx.rng.next_u32()).collect();
            psrs_incore(ctx, &perf, local).await.sorted.len() as u64
        });
        let got: Vec<u64> = report.nodes.iter().map(|nd| nd.value).collect();
        let within = (0..got.len()).all(|i| got[i] <= 2 * shares[i] + 64);
        let what = format!("case {case}: perf {perf} n {n} seed {seed}");
        assert!(within, "{what}: nodes got {got:?} of {shares:?}");
    }
}
