//! Cluster-level parallel-merge differential tests: Algorithm 1 with
//! range-partitioned merge workers must produce byte-identical per-node
//! outputs and identical non-seek block-I/O to the sequential merge, on
//! homogeneous and on the paper's `{1,1,4,4}` performance vector, across
//! every benchmark distribution. The worker count may only add metered
//! seeking reads (splitter probes, boundary prefills) and change how fast
//! the virtual clock runs — never what any node writes or transfers.

use cluster::{run_cluster, ClusterSpec};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use pdm::{Codec, IoSnapshot};
use workloads::{generate_to_disk, Benchmark, Layout};

/// Runs staged external PSRS on every node, returning per-node
/// (output, io-delta).
fn run_external(
    hardware: &[u64],
    perf: &PerfVector,
    bench: Benchmark,
    n: u64,
    merge_workers: usize,
    seed: u64,
) -> Vec<(Vec<u32>, IoSnapshot)> {
    let spec = ClusterSpec::new(hardware.to_vec()).with_block_bytes(64);
    let shares = perf.shares(n);
    let layouts = Layout::cluster(&shares);
    let cfg = ExternalPsrsConfig::new(perf.clone(), 256)
        .with_tapes(4)
        .with_msg_records(64)
        .with_merge_workers(merge_workers);
    let report = run_cluster(&spec, async move |ctx| {
        generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
        let before = ctx.disk.stats().snapshot();
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        let io = ctx.disk.stats().snapshot().delta(&before);
        (ctx.disk.read_file::<u32>("output").unwrap(), io)
    });
    report.nodes.into_iter().map(|nd| nd.value).collect()
}

/// The I/O net of seeking reads (probes/prefills are legitimately extra on
/// the parallel path; everything else must match exactly).
fn non_seek(io: &IoSnapshot) -> (u64, u64, u64, u64, u64) {
    (
        io.blocks_read - io.random_reads,
        io.bytes_read - io.seek_bytes,
        io.blocks_written,
        io.bytes_written,
        io.files_created,
    )
}

#[test]
fn staged_psrs_identical_all_distributions_both_perf_vectors() {
    for (hardware, perf) in [
        (vec![1u64, 1, 1, 1], PerfVector::homogeneous(4)),
        (vec![1u64, 1, 4, 4], PerfVector::paper_1144()),
    ] {
        let n = perf.padded_size(4_000);
        for bench in Benchmark::ALL {
            let base = run_external(&hardware, &perf, bench, n, 1, 41);
            for workers in [2usize, 4] {
                let par = run_external(&hardware, &perf, bench, n, workers, 41);
                for (rank, (b, p)) in base.iter().zip(&par).enumerate() {
                    assert_eq!(
                        b.0, p.0,
                        "{bench}, perf {perf:?}, workers {workers}, node {rank}: outputs differ"
                    );
                    assert_eq!(
                        non_seek(&b.1),
                        non_seek(&p.1),
                        "{bench}, perf {perf:?}, workers {workers}, node {rank}: non-seek I/O"
                    );
                }
            }
        }
    }
}

#[test]
fn codecs_identical_on_both_perf_vectors() {
    // The zero-copy codec is a node-disk knob: on homogeneous and on the
    // paper's {1,1,4,4} cluster it must leave every node's output bytes AND
    // its *entire* metered I/O delta (seeks included — the codec adds no
    // probes) as the copying reference codec leaves them.
    let run = |hardware: &[u64], perf: &PerfVector, n: u64, codec: Codec| {
        let spec = ClusterSpec::new(hardware.to_vec())
            .with_block_bytes(64)
            .with_codec(codec);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = ExternalPsrsConfig::new(perf.clone(), 256)
            .with_tapes(4)
            .with_msg_records(64)
            .with_merge_workers(2);
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(
                &ctx.disk,
                "input",
                Benchmark::ZipfDuplicates,
                77,
                layouts[ctx.rank],
            )
            .unwrap();
            let before = ctx.disk.stats().snapshot();
            psrs_external::<u32>(ctx, &cfg).await.unwrap();
            let io = ctx.disk.stats().snapshot().delta(&before);
            (ctx.disk.read_file::<u32>("output").unwrap(), io)
        });
        report
            .nodes
            .into_iter()
            .map(|nd| nd.value)
            .collect::<Vec<_>>()
    };
    for (hardware, perf) in [
        (vec![1u64, 1, 1, 1], PerfVector::homogeneous(4)),
        (vec![1u64, 1, 4, 4], PerfVector::paper_1144()),
    ] {
        let n = perf.padded_size(4_000);
        let base = run(&hardware, &perf, n, Codec::Copying);
        let var = run(&hardware, &perf, n, Codec::ZeroCopy);
        for (rank, (b, v)) in base.iter().zip(&var).enumerate() {
            assert_eq!(b.0, v.0, "perf {perf:?}, node {rank}: outputs differ");
            assert_eq!(b.1, v.1, "perf {perf:?}, node {rank}: I/O differs");
        }
    }
}

#[test]
fn merge_workers_compose_with_pipeline_and_fused_paths() {
    let perf = PerfVector::paper_1144();
    let n = perf.padded_size(5_000);
    let base = run_external(&[1, 1, 4, 4], &perf, Benchmark::Uniform, n, 1, 42);
    // Pipeline + merge workers together.
    let spec = ClusterSpec::new(vec![1u64, 1, 4, 4]).with_block_bytes(64);
    let shares = perf.shares(n);
    let layouts = Layout::cluster(&shares);
    for fused in [false, true] {
        let cfg = ExternalPsrsConfig::new(perf.clone(), 256)
            .with_tapes(4)
            .with_msg_records(64)
            .with_pipeline(extsort::PipelineConfig::with_workers(2).with_merge_workers(4))
            .with_fused_redistribution(fused);
        let layouts = layouts.clone();
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(
                &ctx.disk,
                "input",
                Benchmark::Uniform,
                42,
                layouts[ctx.rank],
            )
            .unwrap();
            psrs_external::<u32>(ctx, &cfg).await.unwrap();
            ctx.disk.read_file::<u32>("output").unwrap()
        });
        for (rank, (b, nd)) in base.iter().zip(&report.nodes).enumerate() {
            assert_eq!(b.0, nd.value, "fused {fused}, node {rank}: outputs differ");
        }
    }
}
