//! Cluster-level kernel differential tests: Algorithm 1 with the radix
//! kernel must produce byte-identical per-node outputs and identical
//! metered block-I/O to the comparison kernel, on homogeneous and on the
//! paper's `{1,1,4,4}` heterogeneous performance vector, across every
//! benchmark distribution and across pipeline worker counts. The kernel
//! may only change how fast the virtual clock runs, never what any node
//! writes or transfers. The record layout is held to the same standard:
//! records without a borrowable layout take the block layer's staging
//! copy, and must sort exactly as `u32`s do.

use cluster::{run_cluster, ClusterSpec};
use extsort::{PipelineConfig, SortKernel};
use hetsort::{psrs_external, psrs_incore_kernel, ExternalPsrsConfig, PerfVector, PivotStrategy};
use pdm::{IoSnapshot, Record};
use workloads::{generate_block, generate_to_disk, Benchmark, Layout};

/// Runs external PSRS over records of type `R` on every node and returns
/// per-node (output, io). The input is generated as `u32`s and the output
/// read back as `u32`s, so `R` must share their file encoding.
fn run_external<R: Record>(
    hardware: &[u64],
    perf: &PerfVector,
    bench: Benchmark,
    n: u64,
    kernel: SortKernel,
    workers: usize,
    seed: u64,
) -> Vec<(Vec<u32>, IoSnapshot)> {
    let spec = ClusterSpec::new(hardware.to_vec()).with_block_bytes(64);
    let shares = perf.shares(n);
    let layouts = Layout::cluster(&shares);
    let mut cfg = ExternalPsrsConfig::new(perf.clone(), 256)
        .with_tapes(4)
        .with_msg_records(64)
        .with_kernel(kernel);
    if workers > 1 {
        cfg = cfg.with_pipeline(PipelineConfig::with_workers(workers));
    }
    let report = run_cluster(&spec, async move |ctx| {
        generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
        let before = ctx.disk.stats().snapshot();
        psrs_external::<R>(ctx, &cfg).await.unwrap();
        let io = ctx.disk.stats().snapshot().delta(&before);
        (ctx.disk.read_file::<u32>("output").unwrap(), io)
    });
    report.nodes.into_iter().map(|nd| nd.value).collect()
}

#[test]
fn external_psrs_kernels_identical_all_distributions_both_perf_vectors() {
    for (hardware, perf) in [
        (vec![1u64, 1, 1, 1], PerfVector::homogeneous(4)),
        (vec![1u64, 1, 4, 4], PerfVector::paper_1144()),
    ] {
        let n = perf.padded_size(4_000);
        for bench in Benchmark::ALL {
            let cmp =
                run_external::<u32>(&hardware, &perf, bench, n, SortKernel::Comparison, 1, 21);
            let rad = run_external::<u32>(&hardware, &perf, bench, n, SortKernel::Radix, 1, 21);
            for (rank, (c, r)) in cmp.iter().zip(&rad).enumerate() {
                assert_eq!(
                    c.0, r.0,
                    "{bench}, perf {perf:?}, node {rank}: outputs differ between kernels"
                );
                assert_eq!(
                    c.1, r.1,
                    "{bench}, perf {perf:?}, node {rank}: I/O differs between kernels"
                );
            }
        }
    }
}

#[test]
fn external_psrs_radix_stable_across_worker_counts() {
    let perf = PerfVector::paper_1144();
    let n = perf.padded_size(5_000);
    for bench in [Benchmark::Uniform, Benchmark::ZipfDuplicates] {
        let base = run_external::<u32>(
            &[1, 1, 4, 4],
            &perf,
            bench,
            n,
            SortKernel::Comparison,
            1,
            22,
        );
        for workers in [1usize, 2, 4] {
            let rad = run_external::<u32>(
                &[1, 1, 4, 4],
                &perf,
                bench,
                n,
                SortKernel::Radix,
                workers,
                22,
            );
            for (rank, (c, r)) in base.iter().zip(&rad).enumerate() {
                assert_eq!(c.0, r.0, "{bench}, workers {workers}, node {rank}: outputs");
                assert_eq!(c.1, r.1, "{bench}, workers {workers}, node {rank}: I/O");
            }
        }
    }
}

/// A `u32` without a borrowable layout: `view_slice`/`view_bytes` keep
/// their `None` defaults, so every block goes through the staging copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Opaque(u32);

impl Record for Opaque {
    const SIZE: usize = 4;
    const HAS_SORT_KEY: bool = true;
    const KEY_IS_TOTAL: bool = true;

    fn sort_key(&self) -> u64 {
        u64::from(self.0)
    }

    fn write_to(&self, buf: &mut [u8]) {
        buf.copy_from_slice(&self.0.to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        Opaque(u32::from_le_bytes(buf.try_into().expect("4-byte record")))
    }
}

#[test]
fn layouts_identical_on_both_perf_vectors() {
    // On homogeneous and on the paper's {1,1,4,4} cluster, records taking
    // the staging copy must leave every node's output bytes AND its entire
    // metered I/O delta as `u32`s leave them.
    for (hardware, perf) in [
        (vec![1u64, 1, 1, 1], PerfVector::homogeneous(4)),
        (vec![1u64, 1, 4, 4], PerfVector::paper_1144()),
    ] {
        let n = perf.padded_size(4_000);
        let zipf = Benchmark::ZipfDuplicates;
        let base = run_external::<u32>(&hardware, &perf, zipf, n, SortKernel::Radix, 1, 77);
        let var = run_external::<Opaque>(&hardware, &perf, zipf, n, SortKernel::Radix, 1, 77);
        for (rank, (b, v)) in base.iter().zip(&var).enumerate() {
            assert_eq!(b.0, v.0, "perf {perf:?}, node {rank}: outputs differ");
            assert_eq!(b.1, v.1, "perf {perf:?}, node {rank}: I/O differs");
        }
    }
}

#[test]
fn incore_psrs_kernels_identical() {
    for perf in [PerfVector::homogeneous(4), PerfVector::paper_1144()] {
        let n = perf.padded_size(6_000);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let run = |kernel: SortKernel| {
            let spec = ClusterSpec::homogeneous(perf.p());
            let perf = perf.clone();
            let layouts = layouts.clone();
            let report = run_cluster(&spec, async move |ctx| {
                let local = generate_block(Benchmark::Staggered, 23, layouts[ctx.rank]);
                psrs_incore_kernel(ctx, &perf, local, PivotStrategy::RegularSampling, kernel)
                    .await
                    .sorted
            });
            report
                .nodes
                .into_iter()
                .map(|nd| nd.value)
                .collect::<Vec<_>>()
        };
        let cmp = run(SortKernel::Comparison);
        let rad = run(SortKernel::Radix);
        assert_eq!(cmp, rad, "in-core outputs differ between kernels");
        let flat: Vec<u32> = rad.iter().flatten().copied().collect();
        assert_eq!(flat.len() as u64, n);
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    }
}
