//! The repository benchmark: sorts one workload repeatedly for a fixed
//! time, checks every output, and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload file_sort|cluster_p4_zipf|cluster_p64_grouped
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced sorts;
//! `--trace 1` alternates untraced and traced sorts and reports the
//! per-layer ladder, the host ceilings and the tracing overhead. Inputs
//! are generated from `--seed`; files go to `.bench_data/` under the
//! current directory and are removed on exit. `NOTES.md` explains the
//! workloads and records baseline readings.

mod check;
mod cluster;
mod file_sort;
mod ladder;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use check::Tally;
use ladder::HostClock;
use obs::json::{escape, num};

/// Named measurements of one repetition or run.
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("io_bytes_per_byte", "B/B"),
    ("passed_share", "share"),
    ("model_makespan_s", "s"),
    ("sublist_expansion", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload does not
/// run reports 0 (for instance the `cluster.*` metrics on `file_sort`).
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_mb_s", "MB/s"),
    ("pdm.read_mb_s", "MB/s"),
    ("pdm.write_mb_s", "MB/s"),
    ("pdm.blocks_read", "count"),
    ("pdm.blocks_written", "count"),
    ("pdm.random_reads", "count"),
    ("extsort.run_formation_s", "s"),
    ("extsort.merge_s", "s"),
    ("extsort.merge_mb_s", "MB/s"),
    ("extsort.kernel_mrec_s", "Mrec/s"),
    ("extsort.kway_mb_s", "MB/s"),
    ("extsort.initial_runs", "count"),
    ("extsort.merge_phases", "count"),
    ("extsort.key_ops", "count"),
    ("core.local_sort_model_share", "share"),
    ("core.pivots_model_share", "share"),
    ("core.partition_model_share", "share"),
    ("core.redistribute_model_share", "share"),
    ("core.merge_model_share", "share"),
    ("core.local_sort_wall_share", "share"),
    ("core.pivots_wall_share", "share"),
    ("core.partition_wall_share", "share"),
    ("core.redistribute_wall_share", "share"),
    ("core.merge_wall_share", "share"),
    ("core.phase_sum_rel_err", "share"),
    ("cluster.sent_bytes_per_byte", "B/B"),
    ("cluster.messages", "count"),
    ("obs.blame.cpu_share", "share"),
    ("obs.blame.io_read_share", "share"),
    ("obs.blame.io_write_share", "share"),
    ("obs.blame.net_transfer_share", "share"),
    ("obs.blame.queue_wait_share", "share"),
    ("obs.blame.credit_stall_share", "share"),
    ("obs.blame.idle_straggler_share", "share"),
    ("obs.trace_overhead", "share"),
    ("host.fs_read_mb_s", "MB/s"),
    ("host.fs_write_mb_s", "MB/s"),
    ("host.memcpy_gb_s", "GB/s"),
    ("host.sort_unstable_mrec_s", "Mrec/s"),
    ("host.incore_sort_s", "s"),
    ("host.probe_s", "s"),
];

/// The workloads, by name.
const WORKLOADS: &[&str] = &["file_sort", "cluster_p4_zipf", "cluster_p64_grouped"];

/// Timed repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Input generations a run times for `setup_s` at least; it keeps
/// generating until `SETUP_SHARE` of `--seconds` has passed.
const MIN_SETUPS: usize = 5;
const SETUP_SHARE: f64 = 0.2;
/// Per-layer seconds that are parts of a repetition's wall time; they are
/// scaled to reference seconds with it.
const SCALED_LAYERS: [&str; 2] = ["extsort.run_formation_s", "extsort.merge_s"];

/// What one sort repetition produced.
pub struct Rep {
    /// Wall seconds of the sort alone (generation and checks excluded), as
    /// measured; the run scales it to reference seconds.
    pub wall_s: f64,
    /// Outcome of the output checks.
    pub check: Result<(), String>,
    /// Counts and model outputs; they must repeat exactly at a fixed seed.
    pub exact: Metrics,
    /// Per-layer figures; only traced repetitions' are kept.
    pub layers: Metrics,
}

/// One benchmark workload.
pub trait Workload {
    /// Generates the workload's input once; returns the seconds it took.
    fn setup(&mut self) -> Result<f64, String>;
    /// Sorts once, checks the output and reports what it measured.
    fn run(&mut self, traced: bool) -> Result<Rep, String>;
    /// Input bytes one sort consumes.
    fn input_bytes(&self) -> u64;
    /// Threads a sort keeps busy.
    fn threads(&self) -> usize;
    /// Times the layer microbenchmarks into `out`.
    fn ladder(&mut self, out: &mut Metrics) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("flag {flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()? as f64),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn make_workload(name: &str, dir: &Path, seed: u64) -> Box<dyn Workload> {
    match name {
        "file_sort" => Box::new(file_sort::FileSort::new(dir, seed)),
        "cluster_p4_zipf" => Box::new(cluster::ClusterSort::p4_zipf(seed)),
        "cluster_p64_grouped" => Box::new(cluster::ClusterSort::p64_grouped(seed)),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Formats a library error for the run's error strings.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `f`, turning a panic into an error so it counts as a failed
/// repetition.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Everything a run measured, before it is reduced to metrics. Times are
/// reference seconds (see [`HostClock`]) unless named `raw`.
#[derive(Default)]
struct Samples {
    tally: Tally,
    setup: Vec<f64>,
    setup_raw: Vec<f64>,
    untraced_wall: Vec<f64>,
    peak_rss: Vec<f64>,
    traced_wall: Vec<f64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    exact: Option<Metrics>,
    probes: Vec<f64>,
}

impl Samples {
    /// Folds one repetition in. A repetition whose counts or model outputs
    /// differ from the first one's counts as failed: at a fixed seed they
    /// must repeat exactly.
    fn add(&mut self, rep: Result<Rep, String>, traced: bool, timed: bool, peak_mib: f64) {
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => return self.tally.record(&Err(e)),
        };
        let drift = match &self.exact {
            Some(first) if rep.check.is_ok() && *first != rep.exact => Err(format!(
                "counts drifted at a fixed seed: {:?} vs {:?}",
                first, rep.exact
            )),
            _ => Ok(()),
        };
        let outcome = rep.check.and(drift);
        self.tally.record(&outcome);
        if outcome.is_err() {
            return;
        }
        self.exact.get_or_insert(rep.exact);
        if !timed {
            return;
        }
        if traced {
            self.traced_wall.push(rep.wall_s);
            for (k, v) in rep.layers {
                self.layers.entry(k).or_default().push(v);
            }
        } else {
            self.untraced_wall.push(rep.wall_s);
            self.peak_rss.push(peak_mib);
        }
    }

    fn timed(&self) -> usize {
        self.untraced_wall.len() + self.traced_wall.len()
    }
}

fn measure(wl: &mut dyn Workload, args: &Args) -> Result<Samples, String> {
    let mut s = Samples::default();
    // Generation runs on one thread; a sort may use more.
    let mut setup_clock = HostClock::new(1);
    let start = Instant::now();
    while s.setup.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < SETUP_SHARE * args.seconds {
        let raw = wl.setup()?;
        s.setup_raw.push(raw);
        s.setup.push(setup_clock.scale(raw));
        eprintln!(
            "perfbench: set-up {raw:.4} s, probe {:.4} s",
            setup_clock.probes.last().unwrap()
        );
    }
    let mut clock = HostClock::new(wl.threads());
    let mut rep = |s: &mut Samples, traced: bool, timed: bool| -> Result<(), String> {
        if !ladder::reset_peak_rss() && s.tally.attempted == 0 {
            eprintln!("perfbench: cannot reset VmHWM; peak RSS covers the whole run");
        }
        let mut rep = guarded(|| wl.run(traced));
        let peak = ladder::peak_rss_mib()?;
        if let Ok(r) = &mut rep {
            let raw = r.wall_s;
            r.wall_s = clock.scale(raw);
            let k = r.wall_s / raw;
            for key in SCALED_LAYERS {
                if let Some(v) = r.layers.get_mut(key) {
                    *v *= k;
                }
            }
            eprintln!(
                "perfbench: repetition {}: {raw:.4} s, {:.4} reference s, probe {:.4} s, peak RSS {peak:.1} MiB{}",
                s.tally.attempted + 1,
                r.wall_s,
                clock.probes.last().unwrap(),
                if traced { ", traced" } else { "" }
            );
        }
        s.add(rep, traced, timed, peak);
        Ok(())
    };
    // Warm-up: fills the page cache; checked, not timed.
    rep(&mut s, false, false)?;
    let start = Instant::now();
    let min_reps = MIN_REPS * (1 + args.trace as usize);
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds || s.timed() < min_reps {
        rep(&mut s, args.trace && i % 2 == 1, true)?;
        i += 1;
        // Stop a run whose every repetition fails instead of spinning.
        if s.tally.failed as usize > MIN_REPS && s.timed() == 0 {
            break;
        }
    }
    s.probes = clock.probes;
    Ok(s)
}

/// Reduces the samples to the metrics `--trace` selects.
fn metrics(wl: &mut dyn Workload, args: &Args, s: &Samples, dir: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let exact = s.exact.clone().unwrap_or_default();
    if !args.trace {
        m.insert("wall_s", median(&s.untraced_wall));
        m.insert("setup_s", median(&s.setup));
        // The leanest sort: repeated sorts in one process keep a varying
        // number of pipeline buffers resident, which a later sort's peak
        // then includes.
        m.insert(
            "peak_rss_mb",
            s.peak_rss.iter().copied().fold(f64::MAX, f64::min),
        );
        m.insert(
            "passed_share",
            (s.tally.attempted - s.tally.failed) as f64 / s.tally.attempted.max(1) as f64,
        );
        for k in ["io_bytes_per_byte", "model_makespan_s", "sublist_expansion"] {
            m.insert(k, exact.get(k).copied().unwrap_or(0.0));
        }
        return Ok(m);
    }
    for (k, v) in &exact {
        m.insert(k, *v);
    }
    for (k, v) in &s.layers {
        m.insert(k, median(v));
    }
    m.insert(
        "workloads.gen_mb_s",
        wl.input_bytes() as f64 / 1e6 / median(&s.setup_raw),
    );
    m.insert(
        "obs.trace_overhead",
        median(&s.traced_wall) / median(&s.untraced_wall) - 1.0,
    );
    m.insert("host.probe_s", median(&s.probes));
    wl.ladder(&mut m)?;
    ladder::host_ceilings(dir, args.seed, &mut m)?;
    Ok(m)
}

/// The result line: the contract's four keys, metrics with their units.
fn result_line(tally: Tally, correct: bool, table: &[(&str, &str)], m: &Metrics) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(name),
                num(v),
                escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

/// Removes the run's files however the run ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // `.bench_data` itself stays only while another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    // Files go under the current directory, one directory per run.
    let dir = PathBuf::from(".bench_data").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let _guard = DirGuard(dir.clone());

    println!("{}", ladder::host_facts_json(&dir));
    let mut wl = make_workload(&args.workload, &dir, args.seed);
    let samples = measure(wl.as_mut(), args)?;
    let m = metrics(wl.as_mut(), args, &samples, &dir)?;
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let finite = table
        .iter()
        .all(|(k, _)| m.get(k).is_some_and(|v| v.is_finite()));
    if !finite {
        eprintln!("perfbench: some metric is missing or not finite: {m:?}");
    }
    let correct = samples.tally.failed == 0 && samples.timed() > 0 && finite;
    for (k, v) in &m {
        eprintln!("perfbench: {:<32} {v}", k);
    }
    println!("{}", result_line(samples.tally, correct, table, &m));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn args_are_strict() {
        let ok: Vec<String> = [
            "--workload",
            "file_sort",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("file_sort", 7, 10.0, true)
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "file_sort",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "file_sort",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &["--workload", "file_sort", "--seed", "1", "--seconds", "1"],
            &["--workload", "file_sort", "--bogus", "1"],
        ] {
            let v: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&v).is_err(), "{bad:?}");
        }
    }

    /// A drifting count fails the repetition even though its output checked.
    #[test]
    fn drift_counts_as_failed() {
        let rep = |blocks: f64| Rep {
            wall_s: 1.0,
            check: Ok(()),
            exact: Metrics::from([("pdm.blocks_read", blocks)]),
            layers: Metrics::new(),
        };
        let mut s = Samples::default();
        s.add(Ok(rep(5.0)), false, true, 1.0);
        s.add(Ok(rep(5.0)), false, true, 1.0);
        s.add(Ok(rep(6.0)), false, true, 1.0);
        s.add(Err("node 3 failed".into()), false, true, 1.0);
        assert_eq!((s.tally.attempted, s.tally.failed), (4, 2));
        assert_eq!(s.untraced_wall.len(), 2);
    }

    fn array(v: &obs::Json) -> &[obs::Json] {
        match v {
            obs::Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    /// The metric tables and `BENCHMARK.json` name the same metrics with
    /// the same units, and the result line carries every one of them.
    #[test]
    fn tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = obs::json::parse(&text).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = array(json.get(key).unwrap());
            let names: Vec<(String, String)> = listed
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(names, want, "{key}");
        }
        let workloads = array(json.get("workloads").unwrap());
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        let line = result_line(
            Tally {
                attempted: 3,
                failed: 0,
            },
            true,
            END_TO_END,
            &Metrics::new(),
        );
        let parsed = obs::json::parse(&line).unwrap();
        let metrics = parsed.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let entry = metrics.get(name).unwrap();
            assert_eq!(entry.get("unit").and_then(|v| v.as_str()), Some(*unit));
        }
    }
}
