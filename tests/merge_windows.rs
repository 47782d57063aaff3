//! Step 5's merge finishes wide windows with the radix kernel.
//!
//! At p = 64 each node merges 64 received files, and the merge sorts its
//! in-memory windows instead of draining a loser tree; the paper's
//! p = 4 cluster merges 4 files (and 3-way polyphase phases) on the tree
//! alone. The traced nodes count sorted windows as `merge.window.sorted`.
//! The output is checked against one global sort of the input.

use cluster::{ClusterSpec, RuntimeKind, StorageKind};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector, SplitterStrategy};
use workloads::{generate_block, generate_to_disk, Benchmark, Layout};

/// Sorts `n` uniform records on `perf` with tracing on; returns the
/// concatenated output and the sorted windows counted over all nodes.
fn sorted_windows(perf: &PerfVector, n: u64, splitter: SplitterStrategy) -> (Vec<u32>, u64) {
    let layouts = Layout::cluster(&perf.shares(n));
    let spec = ClusterSpec::new(perf.as_slice().to_vec())
        .with_storage(StorageKind::Memory)
        .with_block_bytes(1024)
        .with_seed(5)
        .with_tracing(true)
        .with_runtime(RuntimeKind::Events);
    let cfg = ExternalPsrsConfig::new(perf.clone(), 1 << 12)
        .with_tapes(4)
        .with_msg_records(128)
        .with_splitter(splitter);
    let report = cluster::run_cluster(&spec, async move |ctx| {
        generate_to_disk(&ctx.disk, "input", Benchmark::Uniform, 5, layouts[ctx.rank]).unwrap();
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        ctx.disk.read_file::<u32>("output").unwrap()
    });
    let sorted = report
        .nodes
        .iter()
        .filter_map(|nd| nd.obs.metrics.counters.get("merge.window.sorted"))
        .sum();
    let out = report
        .nodes
        .iter()
        .flat_map(|nd| nd.value.clone())
        .collect();
    (out, sorted)
}

/// The input of [`sorted_windows`], sorted in core.
fn expected(perf: &PerfVector, n: u64) -> Vec<u32> {
    let mut all: Vec<u32> = Layout::cluster(&perf.shares(n))
        .into_iter()
        .flat_map(|layout| generate_block(Benchmark::Uniform, 5, layout))
        .collect();
    all.sort_unstable();
    all
}

#[test]
fn p64_step5_sorts_its_merge_windows() {
    let perf = PerfVector::new([1, 2, 4].into_iter().cycle().take(64).collect());
    let n = perf.padded_size(200_000);
    let (out, sorted) = sorted_windows(&perf, n, SplitterStrategy::grouped());
    assert!(
        out == expected(&perf, n),
        "p = 64 output is not the sorted input"
    );
    assert!(sorted >= 64, "{sorted} windows sorted over 64 nodes");
}

#[test]
fn p4_merges_stay_on_the_tree() {
    let perf = PerfVector::paper_1144();
    let n = perf.padded_size(100_000);
    let (out, sorted) = sorted_windows(&perf, n, SplitterStrategy::Flat);
    assert!(
        out == expected(&perf, n),
        "p = 4 output is not the sorted input"
    );
    assert_eq!(sorted, 0);
}
