//! Ablation A2: load balance under duplicate keys.
//!
//! §3.1 of the paper: with `d` duplicates of one key, the PSRS upper bound
//! `U = 2·n/p` becomes `U + d` — duplicates hurt when `d` rivals the
//! per-node share, because a cut at `x <= pivot` keeps a run of equal keys
//! whole. Both splitters here cut equal keys by position instead (every
//! pivot is a `(key, origin rank, sample index)` triple; see
//! `hetsort::pivots::equal_limits`), so a run splits wherever the sample
//! says and the plain `U` holds even with `d = n`. This binary runs the
//! external sort on the duplicate-heavy inputs (zero, zipf, hot key,
//! g-group) plus uniform as a control, reporting `d`, the sublist
//! expansion and whether `U` and `U + d` held.

use hetsort::metrics::LoadBalance;
use hetsort::{run_trial, PerfVector, SortAlgo, TrialConfig};
use hetsort_bench::{default_mem, fmt_ratio, print_table, Args};
use workloads::{generate_whole, max_duplicate_count, Benchmark};

fn main() {
    let args = Args::parse();
    let n_req: u64 = if args.quick { 20_000 } else { 200_000 };
    let benches = [
        Benchmark::Uniform,
        Benchmark::GGroup,
        Benchmark::ZipfDuplicates,
        Benchmark::HotKey,
        Benchmark::Zero,
    ];

    let perf = PerfVector::homogeneous(4);
    let n = perf.padded_size(n_req);
    let mut rows = Vec::new();
    let mut all_ok = true;
    for bench in benches {
        let mut cfg = TrialConfig::new(vec![1, 1, 1, 1], perf.clone(), n);
        cfg.bench = bench;
        cfg.mem_records = default_mem(n);
        cfg.tapes = 8;
        cfg.msg_records = 4096;
        cfg.seed = args.seed;
        cfg.jitter = 0.0;
        cfg.algo = SortAlgo::ExternalPsrs;
        let result = run_trial(&cfg).expect("trial");
        let input = generate_whole(bench, args.seed, &perf.shares(result.n));
        let d = max_duplicate_count(&input);
        let lb: &LoadBalance = &result.balance;
        let within = lb.within_psrs_bound(d);
        let within_u = lb.within_psrs_bound(0);
        all_ok &= within && within_u;
        rows.push(vec![
            bench.to_string(),
            result.n.to_string(),
            d.to_string(),
            format!("{:.1}%", 100.0 * d as f64 / result.n as f64),
            lb.max_size().to_string(),
            fmt_ratio(lb.expansion()),
            if within_u { "yes".into() } else { "NO".into() },
            if within { "yes".into() } else { "NO".into() },
        ]);
    }
    print_table(
        "Ablation A2 — duplicates and the U + d bound (external PSRS, hom. 4 nodes)",
        &[
            "benchmark",
            "n",
            "d (max dup)",
            "d/n",
            "max partition",
            "S(max)",
            "within 2·share",
            "within 2·share + d",
        ],
        &rows,
    );
    println!(
        "note: the zero benchmark has d = n, so U + d is vacuous there; the cut by\n\
         position keeps even that flood within 2·share. What is left above 1 on the\n\
         floods is the p/2 centring offset of the pivot ranks, which a flood does not\n\
         absorb the way a cluster of equal-quantile samples of distinct keys does."
    );

    if args.selftest {
        assert!(all_ok, "U or U + d bound violated somewhere");
        println!("selftest ok: U and U + d held on every duplicate-heavy input");
    }
}
