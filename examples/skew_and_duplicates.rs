//! Robustness tour: the external sort across all ten input distributions,
//! including the adversarial and duplicate-heavy ones.
//!
//! ```sh
//! cargo run --release --example skew_and_duplicates
//! ```
//!
//! PSRS's selling point (and the reason the paper builds on it) is that
//! regular sampling keeps the load balanced *regardless of the input
//! distribution*; this example shows the sublist expansion staying near 1
//! everywhere. Records equal to a pivot are cut by position, so even the
//! all-equal input stays within 2× its share; what remains there is the
//! `p/2` centring offset of the pivot ranks.

use hetsort::{run_trial, PerfVector, SortAlgo, TrialConfig};
use workloads::{generate_whole, max_duplicate_count, Benchmark};

fn main() {
    let perf = PerfVector::paper_1144();
    let hardware = vec![1u64, 1, 4, 4];
    let n = perf.padded_size(200_000);

    println!("external PSRS of {n} records on the {{1,1,4,4}} cluster, all workloads:\n");
    println!(
        "{:<16} {:>9} {:>8} {:>10} {:>8}",
        "benchmark", "time (s)", "S(max)", "max dup d", "d/n"
    );
    for bench in Benchmark::ALL {
        let mut cfg = TrialConfig::new(hardware.clone(), perf.clone(), n);
        cfg.bench = bench;
        cfg.mem_records = 1 << 15;
        cfg.tapes = 8;
        cfg.block_bytes = 4096;
        cfg.msg_records = 4096;
        cfg.seed = 3;
        cfg.jitter = 0.0;
        cfg.algo = SortAlgo::ExternalPsrs;
        let result = run_trial(&cfg).expect("trial");
        let input = generate_whole(bench, 3, &perf.shares(result.n));
        let d = max_duplicate_count(&input);
        println!(
            "{:<16} {:>9.3} {:>8.4} {:>10} {:>7.1}%",
            bench.to_string(),
            result.time_secs,
            result.balance.expansion(),
            d,
            100.0 * d as f64 / result.n as f64,
        );
        // The paper's §3.1 bound: 2x the share plus the duplicate count.
        assert!(
            result.balance.within_psrs_bound(d),
            "{bench}: U + d bound violated"
        );
    }
    println!("\nall ten inputs sorted correctly, all within the 2x + d bound");
}
