//! Critical-path profiler bench: blame attribution and what-if ranking on
//! the paper's 1-1-4-4 cluster.
//!
//! Runs one traced external-PSRS trial (4 nodes, perf `{1,1,4,4}`, the
//! sequential engine), reconstructs the cross-node critical path from the
//! recorded per-phase cost vectors, and reports where every virtual second
//! went: cpu, io-read, io-write, queue-wait, net-transfer, credit-stall or
//! idle-straggler. The what-if table re-prices the path with one category
//! made free; the planner residuals join the model's predicted step-5
//! merge time against the measured span.
//!
//! The claims the selftest pins:
//!
//! * blame tiles the run: the path's blame categories sum to the sorting
//!   makespan within 1% (in practice to rounding error), and the path
//!   itself spans the full `[0, makespan]` window;
//! * a what-if replay that zeroes *no* category reproduces the makespan
//!   exactly;
//! * the planner's merge prediction lands within 50% of the measured
//!   merge span on every node (mean residual is far tighter).
//!
//! Every figure here is model output: virtual seconds priced by the
//! paper's cost model, not wall-clock measurements, and the what-if
//! column (`whatif_top_speedup`) is a first-order estimate on top of
//! that. Deterministic per seed. Emits `BENCH_critpath.json` in the
//! working directory:
//!
//! ```sh
//! cargo run --release -p hetsort-bench --bin critpath_report -- --selftest
//! ```

use hetsort::{run_trial, PerfVector, TrialConfig};
use hetsort_bench::{fmt_secs, print_table, Args};

fn main() {
    let args = Args::parse();
    // Mirrors CI's traced cluster configuration at --quick scale.
    let (n, mem, block) = if args.paper {
        (1u64 << 21, 1 << 17, 32 * 1024)
    } else if args.quick {
        (20_000, 4096, 1024)
    } else {
        (200_000, 16_384, 4096)
    };

    let mut cfg = TrialConfig::new(vec![1, 1, 4, 4], PerfVector::paper_1144(), n);
    cfg.mem_records = mem;
    cfg.tapes = 4;
    cfg.msg_records = 512;
    cfg.block_bytes = block;
    cfg.seed = args.seed;
    cfg.trace = true;
    // With verification off nothing charges after the last phase mark, so
    // the sorting makespan *is* the end-to-end virtual time and the blame
    // sum can be held to it exactly.
    cfg.verify = false;

    let result = run_trial(&cfg).expect("trial");
    let obs = result.obs.as_ref().expect("traced run records obs");
    let path = obs::critical_path(obs).expect("critical path");
    let whatif = obs::whatif_table(&path);
    let err = path.blame_sum_rel_err();

    let blame_rows: Vec<Vec<String>> = path
        .blame
        .parts()
        .iter()
        .map(|(name, secs)| {
            vec![
                name.to_string(),
                fmt_secs(*secs),
                format!("{:.1}%", 100.0 * secs / path.makespan.max(1e-30)),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Critical-path blame (n = {n}, perf 1-1-4-4, makespan {:.5}s, {} segments)",
            path.makespan,
            path.segments.len()
        ),
        &["category", "path secs", "share"],
        &blame_rows,
    );

    let whatif_rows: Vec<Vec<String>> = whatif
        .iter()
        .map(|r| {
            vec![
                r.category.to_string(),
                fmt_secs(r.path_secs),
                fmt_secs(r.estimate_secs),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    print_table(
        "What-if (category made free, first-order estimate)",
        &["category", "path secs", "est. secs", "speedup"],
        &whatif_rows,
    );

    if let Some(report) = obs::calibration_report(obs) {
        println!("{report}");
    }
    let mean_rel = obs
        .cluster
        .gauges
        .get("planner.residual.mean_rel")
        .copied()
        .unwrap_or(0.0);
    let max_rel = obs
        .cluster
        .gauges
        .get("planner.residual.max_rel")
        .copied()
        .unwrap_or(0.0);

    let top = whatif.first().expect("seven categories");
    let blame_fields: Vec<String> = path
        .blame
        .parts()
        .iter()
        .map(|(name, secs)| format!("\"{name}\": {secs:.6}"))
        .collect();
    let whatif_json: Vec<String> = whatif
        .iter()
        .map(|r| {
            format!(
                "    {{\"category\": \"{}\", \"path_secs\": {:.6}, \
                 \"estimate_secs\": {:.6}, \"speedup\": {:.4}}}",
                r.category, r.path_secs, r.estimate_secs, r.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"critpath_report\",\n  \"n\": {n},\n  \
         \"perf\": \"1-1-4-4\",\n  \
         \"makespan_secs\": {:.6},\n  \"segments\": {},\n  \
         \"blame_sum_rel_err\": {:.3e},\n  \
         \"planner_residual_mean_rel\": {mean_rel:.4},\n  \
         \"planner_residual_max_rel\": {max_rel:.4},\n  \
         \"whatif_top_category\": \"{}\",\n  \"whatif_top_speedup\": {:.4},\n  \
         \"blame\": {{{}}},\n  \"whatif\": [\n{}\n  ]\n}}\n",
        path.makespan,
        path.segments.len(),
        err,
        top.category,
        top.speedup,
        blame_fields.join(", "),
        whatif_json.join(",\n")
    );
    obs::validate(&json).expect("bench JSON is well-formed");
    std::fs::write("BENCH_critpath.json", &json).expect("write BENCH_critpath.json");
    println!(
        "wrote BENCH_critpath.json (top category {}, {:.2}x if free, \
         planner residual mean |rel| {:.1}%)",
        top.category,
        top.speedup,
        100.0 * mean_rel
    );

    if args.selftest {
        assert!(
            err <= 0.01,
            "blame must sum to the path makespan within 1%, got rel err {err:.3e}"
        );
        let gap = (path.makespan - result.time_secs).abs() / result.time_secs.max(1e-30);
        assert!(
            gap <= 0.01,
            "path makespan {:.6} must match the trial's end-to-end virtual \
             time {:.6} within 1%, got {gap:.3e}",
            path.makespan,
            result.time_secs
        );
        let replay = obs::estimate_without(&path, None);
        assert!(
            replay == path.makespan,
            "what-if with no category zeroed must reproduce the makespan \
             exactly: {replay} vs {}",
            path.makespan
        );
        let first = path.segments.first().expect("non-empty path");
        let last = path.segments.last().expect("non-empty path");
        assert!(first.start.abs() < 1e-9, "path must start at t = 0");
        assert!(
            (last.end - path.makespan).abs() < 1e-9,
            "path must end at the makespan"
        );
        for pair in path.segments.windows(2) {
            assert!(
                (pair[0].end - pair[1].start).abs() < 1e-9,
                "path segments must tile contiguously"
            );
        }
        assert!(
            max_rel > 0.0 && max_rel <= 0.5,
            "planner merge predictions must land within 50% of the measured \
             span on every node, got max |rel| {max_rel:.3}"
        );
        println!("selftest ok");
    }
}
