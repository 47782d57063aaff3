//! Streaming exchange-merge differential tests: the fused streaming path
//! must produce byte-identical per-node outputs to the staged Algorithm 1
//! reference on every benchmark distribution, both performance vectors and
//! across message sizes — while doing strictly less disk work (no
//! `xpsrs.recv*` staging files, fewer metered blocks) and respecting the
//! `p · CHUNK_CREDITS · msg_records` memory bound.

use cluster::{run_cluster, ClusterSpec};
use hetsort::{psrs_external, ExternalPsrsConfig, ExternalPsrsOutcome, PerfVector};
use pdm::IoSnapshot;
use workloads::{generate_to_disk, Benchmark, Layout};

/// Credits per (sender, receiver) pair; mirrors `CHUNK_CREDITS` in
/// `hetsort::external`, which the memory-bound assertion depends on.
const CHUNK_CREDITS: u64 = 2;

/// Runs external PSRS on every node, returning per-node
/// (output, io-delta, outcome).
fn run_external(
    hardware: &[u64],
    perf: &PerfVector,
    bench: Benchmark,
    n: u64,
    msg_records: usize,
    streaming: bool,
    seed: u64,
) -> Vec<(Vec<u32>, IoSnapshot, ExternalPsrsOutcome)> {
    let spec = ClusterSpec::new(hardware.to_vec()).with_block_bytes(64);
    let shares = perf.shares(n);
    let layouts = Layout::cluster(&shares);
    let cfg = ExternalPsrsConfig::new(perf.clone(), 256)
        .with_tapes(4)
        .with_msg_records(msg_records)
        .with_streaming_merge(streaming);
    let report = run_cluster(&spec, async move |ctx| {
        generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
        let before = ctx.disk.stats().snapshot();
        let outcome = psrs_external::<u32>(ctx, &cfg).await.unwrap();
        let io = ctx.disk.stats().snapshot().delta(&before);
        (ctx.disk.read_file::<u32>("output").unwrap(), io, outcome)
    });
    report.nodes.into_iter().map(|nd| nd.value).collect()
}

#[test]
fn streamed_identical_to_staged_all_distributions_and_message_sizes() {
    for (hardware, perf) in [
        (vec![1u64, 1, 1, 1], PerfVector::homogeneous(4)),
        (vec![1u64, 1, 4, 4], PerfVector::paper_1144()),
    ] {
        let n = perf.padded_size(3_000);
        for bench in Benchmark::ALL {
            for msg in [8usize, 64, 1024] {
                let staged = run_external(&hardware, &perf, bench, n, msg, false, 31);
                let streamed = run_external(&hardware, &perf, bench, n, msg, true, 31);
                for (rank, (s, f)) in staged.iter().zip(&streamed).enumerate() {
                    assert_eq!(
                        s.0, f.0,
                        "{bench}, perf {perf:?}, msg {msg}, node {rank}: outputs differ"
                    );
                    // The streamed path never touches disk between the sorted
                    // run file and the final output: strictly fewer metered
                    // blocks and no receive staging files.
                    let (sio, fio) = (&s.1, &f.1);
                    assert!(
                        fio.blocks_read + fio.blocks_written < sio.blocks_read + sio.blocks_written,
                        "{bench}, msg {msg}, node {rank}: streamed moved {} blocks, \
                         staged {}",
                        fio.blocks_read + fio.blocks_written,
                        sio.blocks_read + sio.blocks_written,
                    );
                    assert!(
                        fio.files_created < sio.files_created,
                        "{bench}, msg {msg}, node {rank}: streamed created {} files, \
                         staged {} (recv staging must be gone)",
                        fio.files_created,
                        sio.files_created,
                    );
                    // Memory bound from credit flow control.
                    let bound = perf.p() as u64 * CHUNK_CREDITS * msg as u64;
                    assert!(
                        f.2.peak_buffered_records <= bound,
                        "{bench}, msg {msg}, node {rank}: peak {} exceeds bound {bound}",
                        f.2.peak_buffered_records,
                    );
                    assert_eq!(s.2.peak_buffered_records, 0, "staged path buffers on disk");
                }
            }
        }
    }
}

#[test]
fn streamed_identical_to_fused_staged_variant() {
    // The half-way point — fused partition+redistribute but staged merge —
    // must also agree with the fully streamed pipeline.
    let perf = PerfVector::paper_1144();
    let n = perf.padded_size(4_000);
    let run = |streaming: bool, fused: bool| {
        let spec = ClusterSpec::new(vec![1, 1, 4, 4]).with_block_bytes(64);
        let shares = perf.shares(n);
        let layouts = Layout::cluster(&shares);
        let cfg = ExternalPsrsConfig::new(perf.clone(), 256)
            .with_tapes(4)
            .with_msg_records(64)
            .with_fused_redistribution(fused)
            .with_streaming_merge(streaming);
        let report = run_cluster(&spec, async move |ctx| {
            generate_to_disk(
                &ctx.disk,
                "input",
                Benchmark::ZipfDuplicates,
                32,
                layouts[ctx.rank],
            )
            .unwrap();
            psrs_external::<u32>(ctx, &cfg).await.unwrap();
            ctx.disk.read_file::<u32>("output").unwrap()
        });
        report
            .nodes
            .into_iter()
            .map(|nd| nd.value)
            .collect::<Vec<_>>()
    };
    let fused = run(false, true);
    let streamed = run(true, false);
    assert_eq!(fused, streamed, "fused-staged and streamed outputs differ");
    let flat: Vec<u32> = streamed.iter().flatten().copied().collect();
    assert_eq!(flat.len() as u64, n);
    assert!(flat.windows(2).all(|w| w[0] <= w[1]));
}
