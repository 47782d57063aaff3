//! Wall-clock mode: measure *real* elapsed time instead of the analytic
//! cost model; each node's measured sections are stretched by its
//! slowdown, the reproducible stand-in for the paper's competitor load.
//!
//! ```sh
//! cargo run --release --example measured_wallclock
//! ```
//!
//! The virtual-time (`Modeled`) policy drives all table reproductions; this
//! example shows the alternative `Measured` policy, where each compute
//! section charges its real duration × the node's slowdown. The printed
//! ratio demonstrates that the two policies agree on *shape*: declaring the
//! true perf vector still wins on loaded hardware.

use cluster::{ClusterSpec, StorageKind, TimePolicy};
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use workloads::{generate_to_disk, Benchmark, Layout};

fn run(declared: PerfVector) -> f64 {
    let hardware = vec![1u64, 1, 4, 4];
    let n = declared.padded_size(1 << 19);
    let shares = declared.shares(n);
    let layouts = Layout::cluster(&shares);
    let spec = ClusterSpec::new(hardware)
        .with_storage(StorageKind::Memory)
        .with_time_policy(TimePolicy::Measured)
        .with_block_bytes(4096) // small blocks so the 32 Ki-record memory streams 8 tapes
        .with_seed(21);
    let cfg = ExternalPsrsConfig::new(declared, 1 << 15)
        .with_tapes(8)
        .with_msg_records(4096);
    let report = cluster::run_cluster(&spec, async move |ctx| {
        generate_to_disk(
            &ctx.disk,
            "input",
            Benchmark::Uniform,
            21,
            layouts[ctx.rank],
        )
        .unwrap();
        ctx.reset_timing().await;
        psrs_external::<u32>(ctx, &cfg).await.unwrap();
        assert!(extsort::is_sorted_file::<u32>(&ctx.disk, "output").unwrap());
    });
    // Per-phase durations come straight off the cluster report now — no
    // hand-differencing of cumulative phase stamps.
    for pb in report.phase_breakdown() {
        println!(
            "    phase {:<12} {:.4}s on the slowest node",
            pb.name,
            pb.max().as_secs()
        );
    }
    report.makespan.as_secs()
}

fn main() {
    println!("Measured (wall-clock × slowdown) time policy, loaded cluster {{1,1,4,4}}:\n");
    println!("declared {{1,1,1,1}}:");
    let t_wrong = run(PerfVector::homogeneous(4));
    println!("  => {t_wrong:.4}s of measured virtual time");
    println!("declared {{1,1,4,4}}:");
    let t_right = run(PerfVector::paper_1144());
    println!("  => {t_right:.4}s of measured virtual time");
    println!(
        "\ncalibrated vector wins by {:.2}x under the Measured policy too",
        t_wrong / t_right
    );
    assert!(
        t_right < t_wrong,
        "the paper's conclusion must hold under wall-clock measurement"
    );
}
