//! Randomized cluster-shape differential: threads vs events.
//!
//! The fixed-shape suites (`obs_differential`, the runtime unit tests)
//! prove the thread and event schedulers agree on the paper's 1-1-4-4
//! cluster. This suite hand-rolls a shape fuzzer over the knobs that
//! change the communication pattern — node count, speed vector, message
//! size, workload distribution, jitter amplitude — and asserts for every
//! drawn shape that the two runtimes are observationally identical:
//! byte-identical sorted outputs, identical per-node [`pdm::IoSnapshot`]s
//! and traffic, and bit-identical virtual clocks. Both exchanges (staged
//! and fused) receive at blocking program points, so no shape is exempt
//! from the clock comparison.
//!
//! Hand-rolled rather than `proptest`-driven because the offline
//! workspace carries no dev-dependencies: shapes are drawn from the
//! simulator's own [`sim::Pcg64`] under a fixed master seed, so a failure
//! reproduces exactly and prints the offending shape.

use cluster::{ClusterSpec, RuntimeKind, StorageKind};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use sim::rng::Rng;
use sim::Pcg64;
use workloads::{generate_to_disk, Benchmark, Layout};

/// One drawn cluster shape.
#[derive(Debug, Clone)]
struct Shape {
    perf: Vec<u64>,
    n_per_node: u64,
    msg_records: usize,
    tapes: usize,
    bench: Benchmark,
    seed: u64,
    jitter: f64,
    fused: bool,
}

fn draw(rng: &mut Pcg64) -> Shape {
    let below = |rng: &mut Pcg64, n: u64| rng.next_u64() % n;
    let p = 2 + below(rng, 4) as usize; // 2..=5 nodes
    let perf: Vec<u64> = (0..p).map(|_| 1 + below(rng, 4)).collect(); // speeds 1..=4
    Shape {
        perf,
        n_per_node: 1_000 + below(rng, 3_000),
        msg_records: (32 << below(rng, 4)) as usize, // 32, 64, 128 or 256
        tapes: 4 + below(rng, 3) as usize,
        bench: Benchmark::from_id(below(rng, Benchmark::ALL.len() as u64) as usize),
        seed: rng.next_u64(),
        jitter: below(rng, 6) as f64 / 100.0, // 0.00..=0.05
        fused: below(rng, 4) == 0,            // fused exchange 1 time in 4
    }
}

/// Runs the external PSRS pipeline for `shape` on the given scheduler;
/// returns the cluster report carrying each node's sorted output bytes.
fn run(shape: &Shape, runtime: RuntimeKind) -> cluster::ClusterReport<Vec<u32>> {
    let declared = PerfVector::new(shape.perf.clone());
    let n = declared.padded_size(shape.n_per_node * shape.perf.len() as u64);
    let layouts = Layout::cluster(&declared.shares(n));
    let spec = ClusterSpec::new(shape.perf.clone())
        .with_storage(StorageKind::Memory)
        .with_block_bytes(1024)
        .with_seed(shape.seed)
        .with_jitter(shape.jitter)
        .with_runtime(runtime);
    let cfg = ExternalPsrsConfig::new(declared, 1 << 12)
        .with_tapes(shape.tapes)
        .with_msg_records(shape.msg_records)
        .with_fused_redistribution(shape.fused);
    let bench = shape.bench;
    let seed = shape.seed;
    cluster::run_cluster(&spec, async move |ctx| {
        generate_to_disk(&ctx.disk, "input", bench, seed, layouts[ctx.rank]).unwrap();
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        ctx.disk.read_file::<u32>("output").unwrap()
    })
}

#[test]
fn random_shapes_agree_across_runtimes() {
    let mut rng = Pcg64::new(0x5ee1_0702_2002);
    for case in 0..10 {
        let shape = draw(&mut rng);
        let threads = run(&shape, RuntimeKind::Threads);
        let events = run(&shape, RuntimeKind::Events);
        assert_eq!(threads.nodes.len(), events.nodes.len());
        let mut merged: Vec<u32> = Vec::new();
        for (rank, (a, b)) in threads.nodes.iter().zip(&events.nodes).enumerate() {
            // Observable behaviour is scheduler-independent on EVERY
            // shape: sorted bytes, metered I/O, network traffic and the
            // virtual clocks, bit for bit.
            assert_eq!(
                a.value, b.value,
                "case {case} node {rank}: sorted output differs across runtimes\n{shape:?}"
            );
            assert_eq!(
                a.io, b.io,
                "case {case} node {rank}: IoSnapshot differs across runtimes\n{shape:?}"
            );
            assert_eq!(
                a.sent_bytes, b.sent_bytes,
                "case {case} node {rank}: traffic differs across runtimes\n{shape:?}"
            );
            assert_eq!(
                a.finish, b.finish,
                "case {case} node {rank}: finish time differs across runtimes\n{shape:?}"
            );
            assert_eq!(a.cpu_time, b.cpu_time, "case {case} node {rank}\n{shape:?}");
            assert_eq!(
                a.wait_time, b.wait_time,
                "case {case} node {rank}\n{shape:?}"
            );
            merged.extend_from_slice(&a.value);
        }
        assert_eq!(
            threads.makespan, events.makespan,
            "case {case}: makespan differs across runtimes\n{shape:?}"
        );
        // And the run actually sorted: concatenated node outputs are the
        // globally ordered sequence of the padded input size.
        let declared = PerfVector::new(shape.perf.clone());
        let n = declared.padded_size(shape.n_per_node * shape.perf.len() as u64);
        assert_eq!(
            merged.len() as u64,
            n,
            "case {case}: lost records\n{shape:?}"
        );
        assert!(
            merged.windows(2).all(|w| w[0] <= w[1]),
            "case {case}: output not globally sorted\n{shape:?}"
        );
    }
}
