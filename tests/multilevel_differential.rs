//! Grouped-vs-flat splitter differential.
//!
//! The two-level √p-group splitter selection (`hetsort::multilevel`)
//! must be *observationally equivalent* to the paper's flat root-gather
//! on every workload distribution, perf vector and cluster scheduler:
//! the concatenated sorted output is byte-identical (a sorted multiset
//! is unique), every node's final share stays within the PSRS theorem's
//! `2·expected + duplicates` bound, and on the blocking staged path the
//! thread and event runtimes agree bit-for-bit on the virtual clocks.
//!
//! The balance sweep holds both splitters to the paper's bound itself:
//! S(max) ≤ 2 with no duplicate slack, from p = 4 to p = 256, on
//! duplicate floods as well as on spread keys — equal keys split by
//! position, so a flood is no excuse.
//!
//! Hand-rolled rather than `proptest`-driven because the offline
//! workspace carries no dev-dependencies (see `runtime_differential.rs`
//! for the idiom): the layout property sweep draws node counts from the
//! simulator's own [`sim::Pcg64`] under a fixed master seed, so a
//! failure reproduces exactly.

use cluster::{ClusterSpec, RuntimeKind, StorageKind};
use extsort::SortKernel;
use hetsort::incore::PivotStrategy;
use hetsort::{
    psrs_external, psrs_incore_split, ExternalPsrsConfig, GroupLayout, LoadBalance, PerfVector,
    SplitterStrategy,
};
use sim::rng::Rng;
use sim::Pcg64;
use workloads::{generate_block, generate_to_disk, max_duplicate_count, Benchmark, Layout};

/// Runs the external PSRS pipeline and returns each node's sorted output.
fn run(
    perf: &PerfVector,
    bench: Benchmark,
    n: u64,
    splitter: SplitterStrategy,
    runtime: RuntimeKind,
    fused: bool,
) -> cluster::ClusterReport<Vec<u32>> {
    let layouts = Layout::cluster(&perf.shares(n));
    let spec = ClusterSpec::new(perf.as_slice().to_vec())
        .with_storage(StorageKind::Memory)
        .with_block_bytes(1024)
        .with_seed(0xD1FF)
        .with_runtime(runtime);
    let cfg = ExternalPsrsConfig::new(perf.clone(), 1 << 12)
        .with_tapes(4)
        .with_msg_records(128)
        .with_fused_redistribution(fused)
        .with_splitter(splitter);
    let bench_seed = 0xD1FF ^ n;
    cluster::run_cluster(&spec, async move |ctx| {
        generate_to_disk(&ctx.disk, "input", bench, bench_seed, layouts[ctx.rank]).unwrap();
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        ctx.disk.read_file::<u32>("output").unwrap()
    })
}

fn concat(report: &cluster::ClusterReport<Vec<u32>>) -> Vec<u32> {
    report
        .nodes
        .iter()
        .flat_map(|nd| nd.value.iter().copied())
        .collect()
}

/// The perf vectors under test: the paper's loaded cluster (p=4, two
/// groups of two) and a 9-node mixed-speed cluster (p=9, three groups
/// of three — the first non-trivial √p grid).
fn perf_vectors() -> [PerfVector; 2] {
    [
        PerfVector::paper_1144(),
        PerfVector::new(vec![1, 2, 1, 4, 1, 2, 4, 1, 2]),
    ]
}

#[test]
fn grouped_matches_flat_on_every_distribution() {
    for perf in &perf_vectors() {
        let n = perf.padded_size(1_000 * perf.p() as u64);
        for bench in Benchmark::ALL {
            let flat = run(
                perf,
                bench,
                n,
                SplitterStrategy::Flat,
                RuntimeKind::Threads,
                false,
            );
            let grouped = run(
                perf,
                bench,
                n,
                SplitterStrategy::grouped(),
                RuntimeKind::Threads,
                false,
            );
            let f = concat(&flat);
            let g = concat(&grouped);
            assert_eq!(f.len() as u64, n, "{bench:?} p={}: lost records", perf.p());
            assert!(
                g.windows(2).all(|w| w[0] <= w[1]),
                "{bench:?} p={}: grouped output not globally sorted",
                perf.p()
            );
            // A sorted multiset is unique, so the concatenations must be
            // byte-identical even though the per-node cuts may differ.
            assert_eq!(
                f,
                g,
                "{bench:?} p={}: grouped concatenation diverged from flat",
                perf.p()
            );

            // PSRS theorem: within 2x the proportional share plus the
            // duplicate multiplicity (+ the sampling-stride slack).
            let sizes: Vec<u64> = grouped
                .nodes
                .iter()
                .map(|nd| nd.value.len() as u64)
                .collect();
            let lb = LoadBalance::new(sizes, perf);
            let dups = max_duplicate_count(&g);
            let slack = 64 * perf.p() as u64;
            assert!(
                lb.within_psrs_bound(dups + slack),
                "{bench:?} p={}: grouped sizes {:?} exceed 2x+d bound (d={dups})",
                perf.p(),
                lb.sizes
            );

            // On the all-equal distribution the position tie-break is
            // what spreads the run across nodes; grouped must never do
            // worse than flat there.
            if bench == Benchmark::Zero {
                let flat_sizes: Vec<u64> =
                    flat.nodes.iter().map(|nd| nd.value.len() as u64).collect();
                let flat_lb = LoadBalance::new(flat_sizes, perf);
                assert!(
                    lb.expansion() <= flat_lb.expansion() + 1e-9,
                    "Zero p={}: grouped expansion {} worse than flat {}",
                    perf.p(),
                    lb.expansion(),
                    flat_lb.expansion()
                );
            }
        }
    }
}

/// Runs in-core PSRS on the events runtime and returns each node's
/// final record count, checking the concatenation is the sorted input.
fn incore_sizes(
    perf: &PerfVector,
    bench: Benchmark,
    n: u64,
    splitter: SplitterStrategy,
) -> Vec<u64> {
    let layouts = Layout::cluster(&perf.shares(n));
    let spec = ClusterSpec::new(perf.as_slice().to_vec())
        .with_seed(0xBA1)
        .with_runtime(RuntimeKind::Events);
    let pv = perf.clone();
    let report = cluster::run_cluster(&spec, async move |ctx| {
        let local = generate_block(bench, 0xBA1 ^ n, layouts[ctx.rank]);
        psrs_incore_split(
            ctx,
            &pv,
            local,
            PivotStrategy::RegularSampling,
            splitter,
            SortKernel::default(),
        )
        .await
        .sorted
    });
    let out: Vec<u32> = report
        .nodes
        .iter()
        .flat_map(|nd| nd.value.iter().copied())
        .collect();
    assert_eq!(
        out.len() as u64,
        n,
        "{bench:?} p={}: lost records",
        perf.p()
    );
    assert!(
        out.is_sorted(),
        "{bench:?} p={}: output not sorted",
        perf.p()
    );
    report
        .nodes
        .iter()
        .map(|nd| nd.value.len() as u64)
        .collect()
}

#[test]
fn balance_sweep_keeps_every_node_within_twice_its_share() {
    // Perf 1,2,4 repeating; n ≥ 4·(Σperf)² so no node's regular sample is
    // clamped, and ≥ 2000 records per node so a sample stride is small
    // against a share. Widths below 64 run the external sort, wider ones
    // the in-core sort (same splitters, same partition rule).
    let benches = [
        Benchmark::Uniform,
        Benchmark::ZipfDuplicates,
        Benchmark::Zero,
        Benchmark::Sorted,
        Benchmark::Staggered,
        Benchmark::HotKey,
    ];
    for p in [4usize, 9, 16, 25, 64, 256] {
        let perf = PerfVector::new([1, 2, 4].into_iter().cycle().take(p).collect());
        let n = perf.padded_size((4 * perf.total() * perf.total()).max(2_000 * p as u64));
        for bench in benches {
            for splitter in [SplitterStrategy::Flat, SplitterStrategy::grouped()] {
                let sizes = if p >= 64 {
                    incore_sizes(&perf, bench, n, splitter)
                } else {
                    let report = run(&perf, bench, n, splitter, RuntimeKind::Events, false);
                    report
                        .nodes
                        .iter()
                        .map(|nd| nd.value.len() as u64)
                        .collect()
                };
                let s_max = LoadBalance::new(sizes, &perf).expansion();
                let what = format!("{bench:?} p={p} {splitter:?}: S(max) {s_max:.4}");
                assert!(s_max <= 2.0, "{what} breaks the 2x bound");
                // On spread keys the grouped estimate adds about
                // √(g−1)·Σperf/(√12·OVERSAMPLE) sample ranks of noise to
                // each cut, a tenth of the slowest node's Σperf ranks at
                // p = 25..64. At these sizes that reads 1.04–1.22 (flat:
                // 1.03–1.08); the p = 64 benchmark size reads 1.12–1.14.
                if bench == Benchmark::Uniform && p <= 64 {
                    let cap = if splitter.is_grouped() { 1.3 } else { 1.15 };
                    assert!(s_max <= cap, "{what} exceeds {cap} on uniform keys");
                }
            }
        }
    }
}

#[test]
fn grouped_agrees_across_runtimes() {
    // The grouped selection's subset collectives and the tie-broken
    // partitioning receive at deterministic program points, so on the
    // blocking staged path the schedulers agree on everything — output,
    // metered I/O, traffic, and the virtual clocks bit-for-bit.
    for perf in &perf_vectors() {
        let n = perf.padded_size(1_000 * perf.p() as u64);
        for bench in [Benchmark::Uniform, Benchmark::ZipfDuplicates] {
            let threads = run(
                perf,
                bench,
                n,
                SplitterStrategy::grouped(),
                RuntimeKind::Threads,
                false,
            );
            let events = run(
                perf,
                bench,
                n,
                SplitterStrategy::grouped(),
                RuntimeKind::Events,
                false,
            );
            for (rank, (a, b)) in threads.nodes.iter().zip(&events.nodes).enumerate() {
                assert_eq!(a.value, b.value, "{bench:?} node {rank}: output differs");
                assert_eq!(a.io, b.io, "{bench:?} node {rank}: IoSnapshot differs");
                assert_eq!(
                    a.sent_bytes, b.sent_bytes,
                    "{bench:?} node {rank}: traffic differs"
                );
                assert_eq!(a.finish, b.finish, "{bench:?} node {rank}: clock differs");
            }
            assert_eq!(
                threads.makespan,
                events.makespan,
                "{bench:?} p={}: makespan differs across runtimes",
                perf.p()
            );
        }
    }
}

#[test]
fn grouped_fused_exchange_stays_correct() {
    // The fused exchange composes with grouped selection: tie-broken
    // pivots drive its single scan of the sorted file, and a duplicate
    // flood (`Zero`) must still cut by position.
    for perf in &perf_vectors() {
        let n = perf.padded_size(1_000 * perf.p() as u64);
        for bench in [Benchmark::Uniform, Benchmark::Zero] {
            let flat = run(
                perf,
                bench,
                n,
                SplitterStrategy::Flat,
                RuntimeKind::Events,
                true,
            );
            let grouped = run(
                perf,
                bench,
                n,
                SplitterStrategy::grouped(),
                RuntimeKind::Events,
                true,
            );
            assert_eq!(
                concat(&flat),
                concat(&grouped),
                "{bench:?} p={}: fused grouped diverged",
                perf.p()
            );
        }
    }
}

#[test]
fn group_layout_never_exceeds_ceil_balanced_sizes() {
    // Property sweep: for every p the layout forms g = ceil(sqrt(p))
    // groups whose sizes are ceil-balanced — each group holds floor(p/g)
    // or ceil(p/g) members, contiguously, covering every rank once.
    let mut rng = Pcg64::new(0x6e0_0702);
    let check = |p: usize| {
        let layout = GroupLayout::new(p);
        let g = layout.groups();
        assert!(g * g >= p, "p={p}: g={g} too small");
        if g > 1 {
            assert!((g - 1) * (g - 1) < p, "p={p}: g={g} not minimal");
        }
        let floor = p / g;
        let ceil = p.div_ceil(g);
        let mut covered = 0usize;
        for gi in 0..g {
            let members = layout.members(gi);
            assert!(
                members.len() == floor || members.len() == ceil,
                "p={p} group {gi}: size {} outside [{floor}, {ceil}]",
                members.len()
            );
            assert_eq!(members.len(), layout.group_size(gi));
            assert_eq!(members[0], layout.leader(gi));
            for (offset, &rank) in members.iter().enumerate() {
                assert_eq!(rank, covered + offset, "p={p} group {gi}: not contiguous");
                assert_eq!(layout.group_of(rank), gi);
            }
            covered += members.len();
        }
        assert_eq!(covered, p, "p={p}: ranks not covered exactly once");
        assert_eq!(layout.max_group_size(), ceil);
    };
    for p in 1..=128 {
        check(p);
    }
    for _ in 0..500 {
        check(1 + (rng.next_u64() % 4096) as usize);
    }
}
