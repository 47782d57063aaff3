//! Differential test: the phase-span tracer must be a pure observer.
//!
//! Runs the full external PSRS pipeline on the paper's loaded 4-node
//! cluster twice — tracing off and tracing on — and asserts the two runs
//! are observationally identical: byte-identical sorted outputs, identical
//! per-node I/O counters, identical virtual finish times and network
//! traffic. The tracer only *reads* the virtual clock; if it ever charged
//! time or drew jitter, the clocks (and therefore the deterministic
//! per-node RNG streams) would diverge and this test would catch it.
//!
//! The same pairing covers the critical-path recorder: every exchange
//! variant (staged, fused, streamed) must keep tracing
//! invisible AND produce a blame attribution that tiles the run — blame
//! categories sum to the end-to-end virtual time within 1%, and a what-if
//! replay that zeroes no category reproduces it exactly.
//!
//! One carve-out, **thread runtime only**: the streamed exchange-merge
//! polls for arrivals, so under the thread-per-node scheduler its *virtual
//! timing* (not its data flow) is sensitive to real message timing; see
//! [`Variant::timing_exact`]. Its outputs, I/O counts and traffic are
//! still required to be bit-identical under tracing. Under the event
//! runtime the schedule is a pure function of virtual time, so even the
//! streamed variant must match bit-exactly — no tolerance — and the
//! blocking variants must agree bit-for-bit *across* the two runtimes.

use cluster::{ClusterReport, ClusterSpec, RuntimeKind, StorageKind};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use workloads::{generate_to_disk, Benchmark, Layout};

const PHASES: [&str; 5] = ["local-sort", "pivots", "partition", "redistribute", "merge"];

#[derive(Clone, Copy, Debug)]
struct Variant {
    name: &'static str,
    fused: bool,
    streaming: bool,
    /// Whether virtual timing is exactly reproducible run-to-run **under
    /// the thread runtime**. The staged and fused paths receive at
    /// deterministic program points (blocking, selective), so their clocks
    /// are bit-identical across runs on either scheduler. The streamed
    /// exchange-merge absorbs messages opportunistically (`try_recv_any`
    /// polling): its data flow and I/O counts are still deterministic, but
    /// on the thread runtime the interleaving of send charges and Lamport
    /// merges — and therefore the makespan — varies with real arrival
    /// timing, and the tracer's wall-clock overhead perturbs that race.
    /// The event runtime has no such race: scheduling is a pure function
    /// of virtual time, so every variant is timing-exact there.
    timing_exact: bool,
}

const VARIANTS: [Variant; 3] = [
    Variant {
        name: "staged",
        fused: false,
        streaming: false,
        timing_exact: true,
    },
    Variant {
        name: "fused",
        fused: true,
        streaming: false,
        timing_exact: true,
    },
    Variant {
        name: "streamed",
        fused: false,
        streaming: true,
        timing_exact: false,
    },
];

/// Tolerance on the streamed variant's makespan drift between runs under
/// the **thread runtime only**: the race only reassigns jitter draws and
/// reorders wait merges, so the drift stays within a few percent
/// (measured ~1%). The event runtime needs no tolerance anywhere.
const STREAMED_TIMING_TOL: f64 = 0.05;

/// Per-node result: the virtual clock at the end of the sort (before the
/// verification read of the output file) and the full sorted output.
type SortOutcome = (f64, Vec<u32>);

fn run(tracing: bool, v: Variant, runtime: RuntimeKind) -> ClusterReport<SortOutcome> {
    let declared = PerfVector::paper_1144();
    let hardware = vec![1u64, 1, 4, 4];
    let n = declared.padded_size(20_000);
    let shares = declared.shares(n);
    let layouts = Layout::cluster(&shares);
    let spec = ClusterSpec::new(hardware)
        .with_storage(StorageKind::Memory)
        .with_block_bytes(1024)
        .with_seed(42)
        .with_jitter(0.03) // non-zero so an extra RNG draw would be visible
        .with_tracing(tracing)
        .with_runtime(runtime);
    let cfg = ExternalPsrsConfig {
        perf: declared,
        mem_records: 1 << 12,
        tapes: 6,
        msg_records: 512,
        input: "input".into(),
        output: "output".into(),
        fused_redistribution: v.fused,
        streaming_merge: v.streaming,
        pipeline: extsort::PipelineConfig::off(),
        kernel: extsort::SortKernel::default(),
        splitter: hetsort::SplitterStrategy::Flat,
    };
    cluster::run_cluster(&spec, async move |ctx| {
        generate_to_disk(
            &ctx.disk,
            "input",
            Benchmark::Uniform,
            42,
            layouts[ctx.rank],
        )
        .unwrap();
        ctx.reset_timing().await;
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        // The sort's end-to-end virtual time, before the output read below
        // (which is test verification, not part of the algorithm's window).
        let sort_end = ctx.charger.now().as_secs();
        // Return the node's full sorted output so the byte-level
        // comparison happens outside the cluster.
        (sort_end, ctx.disk.read_file::<u32>("output").unwrap())
    })
}

/// The critical-path invariants every traced configuration must satisfy:
/// the path spans the full run, blame tiles it within 1%, and the
/// no-category what-if replay is exact.
fn assert_critpath_invariants(report: &ClusterReport<SortOutcome>, variant: &str) {
    let obs = report.cluster_obs();
    for node in &obs.nodes {
        assert!(
            !node.phase_costs.is_empty(),
            "{variant}: node {} recorded no phase costs under tracing",
            node.node
        );
    }
    let path = obs::critical_path(&obs)
        .unwrap_or_else(|| panic!("{variant}: no critical path from a traced run"));
    // End-to-end virtual time of the sort itself: the report makespan also
    // covers the harness's post-sort output read, so use the clock each
    // node snapshot right after `psrs_external` returned.
    let total = report
        .nodes
        .iter()
        .map(|n| n.value.0)
        .fold(0.0f64, f64::max);
    assert!(
        (path.makespan - total).abs() <= 0.01 * total,
        "{variant}: path makespan {:.6} vs end-to-end virtual time {total:.6}",
        path.makespan
    );
    let err = path.blame_sum_rel_err();
    assert!(
        err <= 0.01,
        "{variant}: blame must sum to the makespan within 1%, rel err {err:.3e}"
    );
    let replay = obs::estimate_without(&path, None);
    assert!(
        replay == path.makespan,
        "{variant}: no-category what-if replay must be exact: {replay} vs {}",
        path.makespan
    );
    // Segments tile [0, makespan] contiguously.
    let first = path.segments.first().unwrap();
    let last = path.segments.last().unwrap();
    assert!(first.start.abs() < 1e-9, "{variant}: path must start at 0");
    assert!(
        (last.end - path.makespan).abs() < 1e-9,
        "{variant}: path must end at the makespan"
    );
    for pair in path.segments.windows(2) {
        assert!(
            (pair[0].end - pair[1].start).abs() < 1e-9,
            "{variant}: segments must tile contiguously"
        );
    }
    let json = obs::critpath_json(&path);
    obs::validate(&json).unwrap_or_else(|e| panic!("{variant}: critpath JSON must be valid: {e}"));
}

#[test]
fn tracing_is_observationally_invisible() {
    let staged = VARIANTS[0];
    let off = run(false, staged, RuntimeKind::Threads);
    let on = run(true, staged, RuntimeKind::Threads);

    assert_eq!(off.makespan, on.makespan, "makespan changed under tracing");
    assert_eq!(off.nodes.len(), on.nodes.len());
    for (a, b) in off.nodes.iter().zip(&on.nodes) {
        assert_eq!(a.value, b.value, "sorted output differs under tracing");
        assert_eq!(a.io, b.io, "I/O counters differ under tracing");
        assert_eq!(a.finish, b.finish, "finish time differs under tracing");
        assert_eq!(a.sent_bytes, b.sent_bytes, "traffic differs under tracing");
        assert_eq!(a.cpu_time, b.cpu_time);
        assert_eq!(a.io_time, b.io_time);
        assert_eq!(a.wait_time, b.wait_time);
        assert_eq!(a.phases.len(), b.phases.len());
        for (pa, pb) in a.phases.iter().zip(&b.phases) {
            assert_eq!(pa.name, pb.name);
            assert_eq!(pa.at, pb.at, "phase stamp {} moved under tracing", pa.name);
        }
    }

    // The untraced run must carry no observability data at all — spans,
    // metrics AND the critical-path cost records.
    for node in &off.nodes {
        assert!(node.obs.spans.is_empty());
        assert!(node.obs.metrics.is_empty());
        assert!(node.obs.phase_costs.is_empty());
    }

    // The traced run must show all five Algorithm 1 phases per node, and
    // both exporters must produce valid JSON containing them.
    let obs = on.cluster_obs();
    for node in &obs.nodes {
        let names: Vec<&str> = node.phases().map(|s| s.name).collect();
        for phase in PHASES {
            assert!(
                names.contains(&phase),
                "node {}: phase span {phase:?} missing (has {names:?})",
                node.node
            );
        }
        // Phase spans carry virtual time matching the recorded marks.
        let virt_end = node.virt_end();
        assert!(virt_end > 0.0);
    }
    let trace = obs::chrome_trace(&obs);
    obs::validate(&trace).expect("chrome trace must be valid JSON");
    let metrics = obs::metrics_json(&obs);
    obs::validate(&metrics).expect("metrics must be valid JSON");
    for phase in PHASES {
        assert!(trace.contains(phase), "trace missing {phase}");
        assert!(metrics.contains(phase), "metrics missing {phase}");
    }

    assert_critpath_invariants(&on, staged.name);
}

#[test]
fn critpath_recorder_is_invisible_on_every_variant() {
    // The staged pair is exercised exhaustively above; here every exchange
    // variant gets the same off/on pairing (outputs, I/O, clocks) plus the
    // blame-tiling invariants on its traced run.
    for v in &VARIANTS[1..] {
        let off = run(false, *v, RuntimeKind::Threads);
        let on = run(true, *v, RuntimeKind::Threads);
        if v.timing_exact {
            assert_eq!(
                off.makespan, on.makespan,
                "{}: makespan changed under tracing",
                v.name
            );
        } else {
            let (a, b) = (off.makespan.as_secs(), on.makespan.as_secs());
            assert!(
                (a - b).abs() <= STREAMED_TIMING_TOL * a,
                "{}: makespan drifted beyond the race tolerance: {a:.6} vs {b:.6}",
                v.name
            );
        }
        for (a, b) in off.nodes.iter().zip(&on.nodes) {
            // Data flow is deterministic on EVERY variant: the sorted
            // bytes, the block-I/O counts and the network traffic must be
            // identical whether or not the profiler is on.
            assert_eq!(a.value.1, b.value.1, "{}: output differs", v.name);
            assert_eq!(a.io, b.io, "{}: I/O counters differ", v.name);
            assert_eq!(a.sent_bytes, b.sent_bytes, "{}: traffic differs", v.name);
            if v.timing_exact {
                assert_eq!(a.finish, b.finish, "{}: finish time differs", v.name);
            }
            assert!(a.obs.phase_costs.is_empty(), "{}: untraced costs", v.name);
        }
        assert_critpath_invariants(&on, v.name);
    }
}

#[test]
fn event_runtime_is_timing_exact_on_every_variant() {
    // Under the event scheduler there is no arrival race to tolerate:
    // every variant — including the streamed exchange-merge that needs
    // STREAMED_TIMING_TOL on the thread runtime — must be bit-exact
    // between its traced and untraced runs.
    for v in &VARIANTS {
        let off = run(false, *v, RuntimeKind::Events);
        let on = run(true, *v, RuntimeKind::Events);
        assert_eq!(
            off.makespan, on.makespan,
            "{}: makespan changed under tracing on the event runtime",
            v.name
        );
        for (a, b) in off.nodes.iter().zip(&on.nodes) {
            assert_eq!(a.value, b.value, "{}: outcome differs", v.name);
            assert_eq!(a.io, b.io, "{}: I/O counters differ", v.name);
            assert_eq!(a.finish, b.finish, "{}: finish time differs", v.name);
            assert_eq!(a.sent_bytes, b.sent_bytes, "{}: traffic differs", v.name);
            assert_eq!(a.cpu_time, b.cpu_time, "{}: cpu time differs", v.name);
            assert_eq!(a.wait_time, b.wait_time, "{}: wait time differs", v.name);
            for (pa, pb) in a.phases.iter().zip(&b.phases) {
                assert_eq!(pa.at, pb.at, "{}: phase stamp {} moved", v.name, pa.name);
            }
        }
        assert_critpath_invariants(&on, v.name);
    }
}

#[test]
fn runtimes_agree_bitwise_on_blocking_variants() {
    // The virtual-time arithmetic is transport-independent and the
    // blocking variants receive at deterministic program points, so the
    // thread and event schedulers must produce bit-identical clocks,
    // outputs and I/O on staged and fused.
    for v in VARIANTS.iter().filter(|v| v.timing_exact) {
        let threads = run(false, *v, RuntimeKind::Threads);
        let events = run(false, *v, RuntimeKind::Events);
        assert_eq!(
            threads.makespan, events.makespan,
            "{}: makespan differs across runtimes",
            v.name
        );
        for (a, b) in threads.nodes.iter().zip(&events.nodes) {
            assert_eq!(a.value, b.value, "{}: outcome differs", v.name);
            assert_eq!(a.io, b.io, "{}: I/O counters differ", v.name);
            assert_eq!(a.finish, b.finish, "{}: finish time differs", v.name);
            assert_eq!(a.sent_bytes, b.sent_bytes, "{}: traffic differs", v.name);
            assert_eq!(a.cpu_time, b.cpu_time, "{}: cpu time differs", v.name);
            assert_eq!(a.wait_time, b.wait_time, "{}: wait time differs", v.name);
        }
    }
}

#[test]
fn runtimes_agree_on_streamed_data_flow() {
    // The streamed variant's data flow (bytes sorted, blocks moved,
    // traffic) is scheduler-independent; only its thread-runtime timing
    // races. So across runtimes: byte-identical outputs and IoSnapshots,
    // makespans within the documented thread-side tolerance.
    let streamed = VARIANTS[2];
    assert!(streamed.streaming && !streamed.timing_exact);
    let threads = run(false, streamed, RuntimeKind::Threads);
    let events = run(false, streamed, RuntimeKind::Events);
    for (a, b) in threads.nodes.iter().zip(&events.nodes) {
        assert_eq!(a.value.1, b.value.1, "streamed: output differs");
        assert_eq!(a.io, b.io, "streamed: I/O counters differ");
        assert_eq!(a.sent_bytes, b.sent_bytes, "streamed: traffic differs");
    }
    let (t, e) = (threads.makespan.as_secs(), events.makespan.as_secs());
    assert!(
        (t - e).abs() <= STREAMED_TIMING_TOL * t,
        "streamed: cross-runtime makespan drift beyond tolerance: {t:.6} vs {e:.6}"
    );
}
