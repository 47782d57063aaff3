//! Cluster-level invariant tests: clock causality, collective correctness
//! under randomized work patterns, and determinism of whole runs, each on
//! both runtimes.
//!
//! Cases are drawn from the simulator's own [`sim::Pcg64`] under a fixed
//! seed per property (the idiom of the root `runtime_differential` suite),
//! so a failure reproduces exactly and prints the offending case.

use cluster::charge::Work;
use cluster::{run_cluster, ClusterSpec, NetworkModel, RuntimeKind, Tag};
use sim::rng::Rng;
use sim::{Pcg64, SimDuration};

const CASES: usize = 24;

/// `spec` on each runtime.
fn on_both(spec: ClusterSpec) -> [ClusterSpec; 2] {
    [RuntimeKind::Threads, RuntimeKind::Events].map(|rt| spec.clone().with_runtime(rt))
}

#[test]
fn barrier_dominates_all_entry_clocks() {
    let mut rng = Pcg64::new(0xBA22_1E25);
    for case in 0..CASES {
        let p = 2 + rng.below_usize(4);
        let work: Vec<u64> = (0..p).map(|_| rng.below(2_000_000)).collect();
        for spec in on_both(ClusterSpec::homogeneous(p)) {
            let report = run_cluster(&spec, async |ctx| {
                ctx.charger.charge_work(Work::comparisons(work[ctx.rank]));
                let before = ctx.charger.now();
                ctx.barrier().await;
                (before, ctx.charger.now())
            });
            let max_entry = report.nodes.iter().map(|n| n.value.0).max().unwrap();
            let what = format!("case {case} {:?} work {work:?}", spec.runtime);
            for node in &report.nodes {
                assert!(
                    node.value.1 >= max_entry,
                    "{what}: left before the slowest entry"
                );
            }
        }
    }
}

/// Rank 0 sends one message per payload size to rank 1, which receives
/// them in order. FIFO per sender: the arrivals never decrease.
fn assert_fifo(sizes: &[usize], latency_us: f64, what: &str) {
    let net = NetworkModel {
        name: "prop",
        latency: SimDuration::from_micros(latency_us),
        bytes_per_sec: 1e6,
        send_overhead: SimDuration::from_micros(5.0),
        recv_overhead: SimDuration::from_micros(5.0),
    };
    for spec in on_both(ClusterSpec::homogeneous(2).with_net(net)) {
        let report = run_cluster(&spec, async |ctx| {
            let mut arrivals = Vec::new();
            for (i, &s) in sizes.iter().enumerate() {
                if ctx.rank == 0 {
                    ctx.send(1, Tag::user(i as u16), vec![0u8; s]);
                } else {
                    let msg = ctx.recv_from(0, Tag::user(i as u16)).await;
                    // The receiver clock must have reached the arrival time.
                    assert!(ctx.charger.now() >= msg.arrival);
                    arrivals.push(msg.arrival);
                }
            }
            arrivals
        });
        let got = &report.nodes[1].value;
        assert!(
            got.windows(2).all(|w| w[0] <= w[1]),
            "{what} {:?}: sizes {sizes:?} latency {latency_us} µs: arrivals {got:?}",
            spec.runtime
        );
    }
}

#[test]
fn messages_never_travel_back_in_time() {
    // The case an earlier randomized run shrank to: a large payload
    // followed by an empty one on a zero-latency link.
    assert_fifo(&[6390, 0], 0.0, "recorded case");
    let mut rng = Pcg64::new(0xF1F0_0A22);
    for case in 0..CASES {
        let sizes: Vec<usize> = (0..1 + rng.below_usize(7))
            .map(|_| rng.below_usize(10_000))
            .collect();
        let latency_us = rng.next_f64() * 1000.0;
        assert_fifo(&sizes, latency_us, &format!("case {case}"));
    }
}

#[test]
fn all_to_all_is_a_permutation_router() {
    let mut rng = Pcg64::new(0xA2A0_0001);
    for case in 0..CASES {
        let p = 2 + rng.below_usize(4);
        let seed = rng.next_u64();
        for spec in on_both(ClusterSpec::homogeneous(p).with_seed(seed)) {
            let report = run_cluster(&spec, async |ctx| {
                let outgoing: Vec<Vec<u8>> = (0..ctx.p)
                    .map(|j| format!("{}->{}", ctx.rank, j).into_bytes())
                    .collect();
                ctx.all_to_all(outgoing).await
            });
            for (j, node) in report.nodes.iter().enumerate() {
                for (i, payload) in node.value.iter().enumerate() {
                    let what = format!("case {case} {:?} p={p} seed={seed}", spec.runtime);
                    assert_eq!(payload, &format!("{i}->{j}").into_bytes(), "{what}");
                }
            }
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let mut rng = Pcg64::new(0xDE7E_2A11);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let jitter = rng.next_f64() * 0.2;
        let spec = ClusterSpec::new(vec![1, 3])
            .with_seed(seed)
            .with_jitter(jitter);
        let run = |spec: &ClusterSpec| {
            let report = run_cluster(spec, async |ctx| {
                ctx.charger.charge_work(Work::comparisons(100_000));
                ctx.barrier().await;
                ctx.charger.now()
            });
            let values: Vec<_> = report.nodes.iter().map(|n| n.value).collect();
            (report.makespan, values)
        };
        // Twice on each runtime, and the runtimes agree.
        let first = run(&spec);
        for spec in on_both(spec) {
            let what = format!("case {case} {:?} seed={seed} jitter={jitter}", spec.runtime);
            assert_eq!(first, run(&spec), "{what}");
            assert_eq!(first, run(&spec), "{what}");
        }
    }
}
