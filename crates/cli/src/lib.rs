//! Implementation of the `hetsort` command-line tool.
//!
//! Four subcommands, operating on *real files* in a directory (the
//! simulated-disk layer in file-backed mode) or on a simulated cluster:
//!
//! ```text
//! hetsort gen     --dir D --name input --n 1000000 [--bench uniform] [--seed 7]
//! hetsort sort    --dir D --input input --output sorted
//!                 [--mem 1048576] [--tapes 16] [--block 32768]
//!                 [--algo polyphase|balanced|distribution] [--workers W]
//!                 [--kernel radix|comparison]
//! hetsort verify  --dir D --sorted sorted [--input input]
//! hetsort cluster --n 16777216 --perf 1,1,4,4 [--hardware 1,1,4,4]
//!                 [--net fe|myrinet] [--bench uniform] [--msg 8192]
//!                 [--mem N] [--tapes 16] [--block 32768] [--seed 7]
//!                 [--workers W] [--disk scsi|nvme|free]
//!                 [--kernel radix|comparison]
//!                 [--runtime threads|events] [--splitter flat|grouped]
//!                 [--trace-out trace.json] [--metrics-out metrics.json]
//!                 [--critpath-out critpath.json] [--whatif] [--profile]
//! ```
//!
//! Each subcommand accepts only the flags listed for it above; any other
//! flag is an error naming the flag and the subcommand. A flag that takes
//! a value and is followed by another `--flag` or by nothing is an error
//! naming it. `hetsort help` prints every subcommand's flags, and
//! `hetsort <cmd> --help` (or `-h`) those of one; nothing runs.
//!
//! `--workers W` (W >= 1) enables the pipelined execution engine: W
//! in-core sort workers beside the thread that does every block read and
//! write. With W >= 2 the same W threads also merge: each k-way merge buffers a
//! window of every input in memory, splits it at exact ranks and merges
//! the slices concurrently. Output and I/O counters are identical to the
//! sequential default; only the charged time changes. At most
//! [`extsort::MAX_WORKERS`] workers are accepted. `--block` must be
//! positive on every subcommand, and so must `cluster`'s `--msg`.
//!
//! `--trace-out`, `--metrics-out` and `--profile` enable the phase-span
//! tracer for `cluster` runs: `--trace-out PATH` writes a Chrome
//! `trace_event` JSON (load it at <https://ui.perfetto.dev>, one process
//! per node on the virtual-time axis), `--metrics-out PATH` writes the
//! unified metrics registry as JSON, and `--profile` (a bare flag, no
//! value) prints a per-node phase Gantt chart plus the PSRS skew table to
//! the terminal. Tracing never touches the virtual clocks: the reported
//! times, outputs and I/O counters are identical with and without it.
//!
//! `--critpath-out PATH` and `--whatif` drive the critical-path profiler
//! over the same trace: `--critpath-out` writes the blame-attributed
//! critical path as JSON (`hetsort-critpath-v1`), and `--whatif` (bare
//! flag) prints the ranked what-if table — for each blame category, the
//! estimated makespan if that cost were eliminated.
//!
//! `--kernel` picks the in-core sort kernel: `radix` (the default fast
//! path — LSD radix run formation plus cached-key merges, billed as cheap
//! key operations) or `comparison` (the comparison-based reference the
//! paper's cost model was calibrated on). Both produce byte-identical
//! output.
//!
//! `--runtime` picks the cluster scheduler for `cluster` runs: `threads`
//! (the default — one OS thread per simulated node) or `events` (every
//! node is a task on a single-threaded discrete-event scheduler, which
//! scales to hundreds of nodes in one process). Sorted output, I/O
//! counters and virtual clocks are identical under both.
//!
//! `--splitter` picks how `cluster` runs select the p−1 splitters:
//! `flat` (the default — every node's sample is gathered and sorted at
//! rank 0, the paper's step 2) or `grouped` (two-level √p-group
//! selection: group leaders merge their members' samples and send
//! position-tagged candidates whose global ranks the root estimates, so
//! no node ever sorts a Θ(p²) sample or absorbs p simultaneous first
//! messages). Either way records equal to a pivot are cut by position,
//! and the sorted output is byte-identical.

use std::collections::HashMap;

use extsort::{fingerprint_file, is_sorted_file, ExtSortConfig, PipelineConfig, SortKernel};
use hetsort::{run_trial, PerfVector, SortAlgo, SplitterStrategy, TrialConfig};
use pdm::Disk;
use workloads::{generate_to_disk, Benchmark, Layout};

/// Parsed `--key value` options (plus the subcommand).
#[derive(Debug)]
pub struct Options {
    /// The subcommand word.
    pub command: String,
    flags: HashMap<String, String>,
}

impl Options {
    /// Parses an argument list (without the program name).
    ///
    /// A token that starts with `--` is never taken as a flag's value.
    ///
    /// # Errors
    /// Returns a message when the command is missing, a token is not a
    /// `--flag`, or a value flag is followed by another flag or by nothing
    /// (the message names that flag).
    pub fn parse(args: &[String]) -> Result<Options, String> {
        /// Flags that may appear bare (no value): `--profile` alone means
        /// `--profile true`.
        const BOOL_FLAGS: &[&str] = &["profile", "whatif"];
        let mut it = args.iter().peekable();
        let command = it
            .next()
            .ok_or_else(|| format!("missing command\n{}", usage()))?
            .clone();
        let mut flags = HashMap::new();
        if it.clone().any(|a| a == "--help" || a == "-h") {
            // Whatever else is on the line, the answer is the help text.
            flags.insert("help".to_string(), "true".to_string());
            return Ok(Options { command, flags });
        }
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            let value = match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => v.clone(),
                None if BOOL_FLAGS.contains(&key) => "true".to_string(),
                None => return Err(format!("flag --{key} needs a value")),
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Options { command, flags })
    }

    /// A required string flag.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.flags.get(key).map(String::as_str).unwrap_or(default)
    }

    /// A boolean flag: absent means `false`, bare (`--profile`) means
    /// `true`, and an explicit `true`/`false` value is honoured.
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        match self.flags.get(key).map(String::as_str) {
            None => Ok(false),
            Some("true") | Some("1") | Some("yes") => Ok(true),
            Some("false") | Some("0") | Some("no") => Ok(false),
            Some(v) => Err(format!("flag --{key} expects true/false, got {v:?}")),
        }
    }

    /// A numeric flag with a default.
    pub fn num_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key} expects an integer, got {v:?}")),
        }
    }
}

/// The usage banner.
pub fn usage() -> String {
    "usage: hetsort <gen|sort|verify|cluster> [--flag value]...\n\
     flags: `hetsort help` (every subcommand) or `hetsort <cmd> --help`"
        .to_string()
}

/// The help text: the usage banner, then the flags that `command` takes,
/// or every subcommand's when it is `None`.
pub fn help(command: Option<&str>) -> String {
    let mut out = usage();
    for (name, flags) in COMMANDS {
        if command.is_some_and(|c| c != name) {
            continue;
        }
        out.push_str(&format!("\n\nhetsort {name}:"));
        let mut line = String::new();
        for flag in flags.split(' ') {
            if line.len() + flag.len() > 66 {
                out.push_str(&format!("\n {line}"));
                line.clear();
            }
            line.push_str(&format!(" --{flag}"));
        }
        out.push_str(&format!("\n {line}"));
    }
    out
}

/// Parses a comma-separated perf vector like `1,1,4,4`.
pub fn parse_perf(s: &str) -> Result<PerfVector, String> {
    let parts: Result<Vec<u64>, _> = s.split(',').map(|x| x.trim().parse()).collect();
    match parts {
        Ok(v) if !v.is_empty() && v.iter().all(|&x| x > 0) => Ok(PerfVector::new(v)),
        _ => Err(format!("bad perf vector {s:?} (expected e.g. 1,1,4,4)")),
    }
}

/// Parses a sort kernel name (`radix` or `comparison`).
pub fn parse_kernel(s: &str) -> Result<SortKernel, String> {
    SortKernel::parse(s).ok_or_else(|| format!("unknown --kernel {s:?} (radix or comparison)"))
}

/// Parses a cluster runtime name (`threads` or `events`).
pub fn parse_runtime(s: &str) -> Result<cluster::RuntimeKind, String> {
    cluster::RuntimeKind::parse(s)
        .ok_or_else(|| format!("unknown --runtime {s:?} (threads or events)"))
}

/// Parses a splitter strategy name (`flat` or `grouped`).
pub fn parse_splitter(s: &str) -> Result<SplitterStrategy, String> {
    match s {
        "flat" => Ok(SplitterStrategy::Flat),
        "grouped" => Ok(SplitterStrategy::grouped()),
        other => Err(format!("unknown --splitter {other:?} (flat or grouped)")),
    }
}

/// Parses a disk model name (`scsi`, `nvme` or `free`).
pub fn parse_disk(s: &str) -> Result<pdm::DiskModel, String> {
    match s {
        "scsi" | "scsi_2000" => Ok(pdm::DiskModel::scsi_2000()),
        "nvme" | "nvme_modern" => Ok(pdm::DiskModel::nvme_modern()),
        "free" => Ok(pdm::DiskModel::free()),
        other => Err(format!("unknown --disk {other:?} (scsi, nvme or free)")),
    }
}

/// Parses a benchmark by name or id.
pub fn parse_bench(s: &str) -> Result<Benchmark, String> {
    if let Ok(id) = s.parse::<usize>() {
        if id < Benchmark::ALL.len() {
            return Ok(Benchmark::from_id(id));
        }
    }
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == s)
        .ok_or_else(|| {
            let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            format!("unknown benchmark {s:?}; known: {}", names.join(", "))
        })
}

/// The flags each subcommand reads, space-separated; [`run`] rejects any
/// other.
const GEN_FLAGS: &str = "dir block name n bench seed";
const SORT_FLAGS: &str = "dir block input output mem tapes algo kernel workers";
const VERIFY_FLAGS: &str = "dir block sorted input";
const CLUSTER_FLAGS: &str = "n perf hardware net bench msg mem tapes block seed workers disk \
    kernel runtime splitter algo trace-out metrics-out critpath-out whatif profile";
const COMMANDS: [(&str, &str); 4] = [
    ("gen", GEN_FLAGS),
    ("sort", SORT_FLAGS),
    ("verify", VERIFY_FLAGS),
    ("cluster", CLUSTER_FLAGS),
];

/// Runs a parsed command; returns the human-readable output.
///
/// # Errors
/// Returns a message for an unknown command, a flag the subcommand does
/// not take, a malformed flag value, or a failed run.
pub fn run(opts: &Options) -> Result<String, String> {
    type Cmd = fn(&Options) -> Result<String, String>;
    let (cmd, allowed): (Cmd, &str) = match opts.command.as_str() {
        "gen" => (cmd_gen, GEN_FLAGS),
        "sort" => (cmd_sort, SORT_FLAGS),
        "verify" => (cmd_verify, VERIFY_FLAGS),
        "cluster" => (cmd_cluster, CLUSTER_FLAGS),
        "help" | "--help" | "-h" => return Ok(help(None)),
        other => return Err(format!("unknown command {other:?}\n{}", usage())),
    };
    if opts.flags.contains_key("help") {
        return Ok(help(Some(&opts.command)));
    }
    // Report the alphabetically first unknown flag, so the message does not
    // depend on hash order.
    let unknown = opts
        .flags
        .keys()
        .filter(|k| !allowed.split(' ').any(|f| f == k.as_str()))
        .min();
    if let Some(flag) = unknown {
        return Err(format!(
            "unknown flag --{flag} for `hetsort {}` (accepted: --{})",
            opts.command,
            allowed.replace(' ', " --")
        ));
    }
    cmd(opts)
}

/// `--block`, the PDM block size in bytes (default 32 KiB; must be
/// positive).
fn block_bytes(opts: &Options) -> Result<usize, String> {
    match opts.num_or("block", 32 * 1024)? {
        0 => Err("flag --block must be a positive number of bytes".to_string()),
        b => Ok(b as usize),
    }
}

/// `--msg`, the redistribution message size in records (default 8 Ki;
/// must be positive).
fn msg_records(opts: &Options) -> Result<usize, String> {
    match opts.num_or("msg", 8192)? {
        0 => Err("flag --msg must be a positive number of records".to_string()),
        m => Ok(m as usize),
    }
}

fn open_dir(opts: &Options) -> Result<Disk, String> {
    let block = block_bytes(opts)?;
    let dir = opts.required("dir")?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    Ok(Disk::on_files(dir, block))
}

fn cmd_gen(opts: &Options) -> Result<String, String> {
    let disk = open_dir(opts)?;
    let name = opts.required("name")?;
    let n = opts.num_or("n", 1 << 20)?;
    let bench = parse_bench(opts.get_or("bench", "uniform"))?;
    let seed = opts.num_or("seed", 2002)?;
    generate_to_disk(&disk, name, bench, seed, Layout::single(n)).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {n} records of benchmark {bench} ({} MiB) to {name:?}",
        (n * 4) >> 20
    ))
}

fn cmd_sort(opts: &Options) -> Result<String, String> {
    let disk = open_dir(opts)?;
    let input = opts.required("input")?;
    let output = opts.required("output")?;
    let mem = opts.num_or("mem", 1 << 20)? as usize;
    let tapes = opts.num_or("tapes", 16)? as usize;
    let algo = opts.get_or("algo", "polyphase");
    let kernel = parse_kernel(opts.get_or("kernel", SortKernel::default().name()))?;
    let mut cfg = ExtSortConfig::new(mem)
        .with_tapes(tapes)
        .with_kernel(kernel);
    let workers = opts.num_or("workers", 0)? as usize;
    if workers > 0 {
        cfg = cfg.with_pipeline(PipelineConfig::with_workers(workers));
    }
    let start = std::time::Instant::now();
    let report = match algo {
        "polyphase" => extsort::polyphase_sort::<u32>(&disk, input, output, "cli", &cfg),
        "balanced" => extsort::balanced_kway_sort::<u32>(&disk, input, output, "cli", &cfg),
        "distribution" => extsort::distribution_sort::<u32>(&disk, input, output, "cli", &cfg),
        other => return Err(format!("unknown --algo {other:?}")),
    }
    .map_err(|e| e.to_string())?;
    Ok(format!(
        "sorted {} records with {algo} ({} kernel) in {:.2}s wall time\n\
         initial runs {}, passes {}, comparisons {}, key ops {}, block I/Os {}",
        report.records,
        kernel.name(),
        start.elapsed().as_secs_f64(),
        report.initial_runs,
        report.merge_phases,
        report.comparisons,
        report.key_ops,
        report.io.total_blocks()
    ))
}

fn cmd_verify(opts: &Options) -> Result<String, String> {
    let disk = open_dir(opts)?;
    let sorted = opts.required("sorted")?;
    if !is_sorted_file::<u32>(&disk, sorted).map_err(|e| e.to_string())? {
        return Err(format!("{sorted:?} is NOT sorted"));
    }
    let mut msg = format!("{sorted:?} is sorted");
    if let Some(input) = opts.flags.get("input") {
        let fin = fingerprint_file::<u32>(&disk, input).map_err(|e| e.to_string())?;
        let fout = fingerprint_file::<u32>(&disk, sorted).map_err(|e| e.to_string())?;
        if fin != fout {
            return Err(format!("{sorted:?} is NOT a permutation of {input:?}"));
        }
        msg.push_str(&format!(" and a permutation of {input:?}"));
    }
    Ok(msg)
}

fn cmd_cluster(opts: &Options) -> Result<String, String> {
    let declared = parse_perf(opts.get_or("perf", "1,1,1,1"))?;
    let hardware = parse_perf(opts.get_or("hardware", opts.get_or("perf", "1,1,1,1")))?;
    if hardware.p() != declared.p() {
        return Err("--perf and --hardware must have the same width".into());
    }
    let n = opts.num_or("n", 1 << 20)?;
    let mut cfg = TrialConfig::new(hardware.as_slice().to_vec(), declared, n);
    cfg.bench = parse_bench(opts.get_or("bench", "uniform"))?;
    cfg.mem_records = opts.num_or("mem", (n / 16).max(16 * 16 * 1024))? as usize;
    cfg.tapes = opts.num_or("tapes", 16)? as usize;
    cfg.msg_records = msg_records(opts)?;
    cfg.block_bytes = block_bytes(opts)?;
    cfg.seed = opts.num_or("seed", 2002)?;
    cfg.disk_model = parse_disk(opts.get_or("disk", "scsi"))?;
    let workers = opts.num_or("workers", 0)? as usize;
    if workers > 0 {
        cfg.pipeline = PipelineConfig::with_workers(workers);
    }
    cfg.kernel = parse_kernel(opts.get_or("kernel", SortKernel::default().name()))?;
    cfg.runtime = parse_runtime(opts.get_or("runtime", cluster::RuntimeKind::default().name()))?;
    cfg.splitter = parse_splitter(opts.get_or("splitter", "flat"))?;
    cfg.net = match opts.get_or("net", "fe") {
        "fe" | "fast-ethernet" => cluster::NetworkModel::fast_ethernet(),
        "myrinet" => cluster::NetworkModel::myrinet(),
        "infinite" => cluster::NetworkModel::infinite(),
        other => return Err(format!("unknown --net {other:?}")),
    };
    cfg.algo = match opts.get_or("algo", "psrs") {
        "psrs" => SortAlgo::ExternalPsrs,
        "overpartition" => SortAlgo::OverpartitionExternal,
        other => return Err(format!("unknown --algo {other:?}")),
    };
    let trace_out = opts.flags.get("trace-out").cloned();
    let metrics_out = opts.flags.get("metrics-out").cloned();
    let critpath_out = opts.flags.get("critpath-out").cloned();
    let profile = opts.flag("profile")?;
    let whatif = opts.flag("whatif")?;
    cfg.trace =
        trace_out.is_some() || metrics_out.is_some() || critpath_out.is_some() || profile || whatif;
    let result = run_trial(&cfg).map_err(|e| e.to_string())?;
    let mut out = format!(
        "sorted n = {} on {} nodes in {:.3} virtual seconds\n\
         partition sizes {:?}\n\
         sublist expansion S(max) = {:.5}\n\
         network traffic {:.1} MiB, {} block I/Os",
        result.n,
        cfg.hardware.len(),
        result.time_secs,
        result.balance.sizes,
        result.balance.expansion(),
        result.sent_bytes as f64 / (1 << 20) as f64,
        result.total_io_blocks
    );
    if let Some(obs) = &result.obs {
        if let Some(path) = &trace_out {
            std::fs::write(path, obs::chrome_trace(obs))
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            out.push_str(&format!("\nwrote chrome trace to {path:?}"));
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, obs::metrics_json(obs))
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            out.push_str(&format!("\nwrote metrics to {path:?}"));
        }
        if profile {
            out.push('\n');
            out.push_str(&obs::render_profile(obs));
        }
        if critpath_out.is_some() || whatif {
            match obs::critical_path(obs) {
                Some(path) => {
                    if let Some(p) = &critpath_out {
                        std::fs::write(p, obs::critpath_json(&path))
                            .map_err(|e| format!("cannot write {p:?}: {e}"))?;
                        out.push_str(&format!("\nwrote critical path to {p:?}"));
                    }
                    if whatif {
                        out.push('\n');
                        out.push_str(&obs::render_whatif(&path));
                    }
                }
                None => out.push_str("\nno critical path: run recorded no phase costs"),
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Options {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parse_flags() {
        let o = opts(&["sort", "--dir", "/tmp/x", "--mem", "1024"]);
        assert_eq!(o.command, "sort");
        assert_eq!(o.required("dir").unwrap(), "/tmp/x");
        assert_eq!(o.num_or("mem", 0).unwrap(), 1024);
        assert_eq!(o.num_or("tapes", 16).unwrap(), 16);
        assert_eq!(o.get_or("algo", "polyphase"), "polyphase");
    }

    #[test]
    fn parse_errors() {
        assert!(Options::parse(&[])
            .unwrap_err()
            .starts_with("missing command\nusage:"));
        assert!(Options::parse(&["sort".into(), "oops".into()]).is_err());
        assert!(Options::parse(&["sort".into(), "--mem".into()]).is_err());
        let o = opts(&["sort", "--mem", "abc"]);
        assert!(o.num_or("mem", 0).is_err());
        assert!(o.required("dir").is_err());
    }

    /// The parse error for `args`, which must name `--{flag}`.
    fn needs_value(args: &[&str], flag: &str) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let err = Options::parse(&args).unwrap_err();
        assert_eq!(err, format!("flag --{flag} needs a value"));
    }

    #[test]
    fn value_flag_followed_by_a_flag_or_nothing_is_named() {
        needs_value(&["gen", "--dir", "--name", "x", "--n", "10"], "dir");
        needs_value(&["gen", "--name", "x", "--seed"], "seed");
        needs_value(&["sort", "--mem", "--tapes", "4"], "mem");
        needs_value(&["sort", "--dir", "d", "--output"], "output");
        needs_value(&["verify", "--sorted", "--input", "x"], "sorted");
        needs_value(&["verify", "--dir", "d", "--block"], "block");
        needs_value(
            &["cluster", "--seed", "--n", "1000", "--perf", "1,1"],
            "seed",
        );
        needs_value(&["cluster", "--n", "1000", "--perf"], "perf");
        // A removed flag is named too, before the unknown-flag check runs.
        needs_value(
            &["cluster", "--streaming-merge", "--n", "1000"],
            "streaming-merge",
        );
    }

    #[test]
    fn perf_parsing() {
        assert_eq!(parse_perf("1,1,4,4").unwrap(), PerfVector::paper_1144());
        assert_eq!(parse_perf(" 2, 3 ").unwrap(), PerfVector::new(vec![2, 3]));
        assert!(parse_perf("").is_err());
        assert!(parse_perf("1,0").is_err());
        assert!(parse_perf("1,x").is_err());
    }

    #[test]
    fn bench_parsing() {
        assert_eq!(parse_bench("uniform").unwrap(), Benchmark::Uniform);
        assert_eq!(parse_bench("0").unwrap(), Benchmark::Uniform);
        assert_eq!(parse_bench("7").unwrap(), Benchmark::ReverseSorted);
        assert!(parse_bench("nope").is_err());
        assert!(parse_bench("99").is_err());
    }

    #[test]
    fn gen_sort_verify_pipeline() {
        let scratch = pdm::ScratchDir::new("cli-test").unwrap();
        let dir = scratch.path().to_str().unwrap().to_string();
        let out = run(&opts(&[
            "gen", "--dir", &dir, "--name", "input", "--n", "20000", "--seed", "5",
        ]))
        .unwrap();
        assert!(out.contains("20000 records"));
        let out = run(&opts(&[
            "sort", "--dir", &dir, "--input", "input", "--output", "sorted", "--mem", "131072",
            "--tapes", "4", "--block", "4096",
        ]))
        .unwrap();
        assert!(out.contains("sorted 20000 records"), "{out}");
        let out = run(&opts(&[
            "verify", "--dir", &dir, "--sorted", "sorted", "--input", "input", "--block", "4096",
        ]))
        .unwrap();
        assert!(out.contains("is sorted and a permutation"), "{out}");
    }

    #[test]
    fn sort_all_algorithms() {
        for algo in ["polyphase", "balanced", "distribution"] {
            let scratch = pdm::ScratchDir::new("cli-algo").unwrap();
            let dir = scratch.path().to_str().unwrap().to_string();
            run(&opts(&[
                "gen", "--dir", &dir, "--name", "in", "--n", "5000",
            ]))
            .unwrap();
            let out = run(&opts(&[
                "sort", "--dir", &dir, "--input", "in", "--output", "out", "--mem", "65536",
                "--tapes", "4", "--block", "4096", "--algo", algo,
            ]))
            .unwrap();
            assert!(out.contains("sorted 5000"), "{algo}: {out}");
            run(&opts(&[
                "verify", "--dir", &dir, "--sorted", "out", "--input", "in", "--block", "4096",
            ]))
            .unwrap();
        }
    }

    #[test]
    fn kernel_parsing() {
        assert_eq!(parse_kernel("radix").unwrap(), SortKernel::Radix);
        assert_eq!(parse_kernel("comparison").unwrap(), SortKernel::Comparison);
        assert!(parse_kernel("bogus").is_err());
    }

    #[test]
    fn sort_with_workers_verifies() {
        let scratch = pdm::ScratchDir::new("cli-workers").unwrap();
        let dir = scratch.path().to_str().unwrap().to_string();
        run(&opts(&[
            "gen", "--dir", &dir, "--name", "in", "--n", "20000", "--seed", "9",
        ]))
        .unwrap();
        let out = run(&opts(&[
            "sort",
            "--dir",
            &dir,
            "--input",
            "in",
            "--output",
            "out",
            "--mem",
            "65536",
            "--tapes",
            "4",
            "--block",
            "4096",
            "--workers",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("sorted 20000"), "{out}");
        let out = run(&opts(&[
            "verify", "--dir", &dir, "--sorted", "out", "--input", "in", "--block", "4096",
        ]))
        .unwrap();
        assert!(out.contains("permutation"), "{out}");
    }

    /// Asserts that running `args` fails with an error naming `flag` and
    /// the subcommand.
    fn rejected(args: &[&str], flag: &str) {
        let err = run(&opts(args)).unwrap_err();
        assert!(err.contains(&format!("--{flag}")), "{err}");
        assert!(err.contains(&format!("hetsort {}", args[0])), "{err}");
    }

    #[test]
    fn sort_rejects_removed_backend_flag() {
        rejected(&["sort", "--io-backend", "batched"], "io-backend");
    }

    #[test]
    fn sort_rejects_removed_codec_flag() {
        rejected(&["sort", "--codec", "copy"], "codec");
    }

    #[test]
    fn cluster_rejects_misspelled_splitter() {
        rejected(&["cluster", "--splliter", "grouped"], "splliter");
    }

    #[test]
    fn cluster_rejects_misspelled_kernel() {
        rejected(&["cluster", "--kernal", "bogus"], "kernal");
    }

    #[test]
    fn unknown_flags_rejected_before_any_work() {
        let scratch = pdm::ScratchDir::new("cli-strict").unwrap();
        let dir = scratch.path().join("never-created");
        let dir = dir.to_str().unwrap();
        // A flag valid for one subcommand is still unknown to another.
        rejected(
            &["gen", "--dir", dir, "--name", "x", "--workers", "2"],
            "workers",
        );
        rejected(
            &["verify", "--dir", dir, "--sorted", "x", "--mem", "4"],
            "mem",
        );
        assert!(!std::path::Path::new(dir).exists());
    }

    #[test]
    fn sort_kernel_flag_respected() {
        for kernel in ["radix", "comparison"] {
            let scratch = pdm::ScratchDir::new("cli-kernel").unwrap();
            let dir = scratch.path().to_str().unwrap().to_string();
            run(&opts(&[
                "gen", "--dir", &dir, "--name", "in", "--n", "5000",
            ]))
            .unwrap();
            let out = run(&opts(&[
                "sort", "--dir", &dir, "--input", "in", "--output", "out", "--mem", "65536",
                "--tapes", "4", "--block", "4096", "--kernel", kernel,
            ]))
            .unwrap();
            assert!(out.contains(&format!("({kernel} kernel)")), "{out}");
            run(&opts(&[
                "verify", "--dir", &dir, "--sorted", "out", "--input", "in", "--block", "4096",
            ]))
            .unwrap();
        }
    }

    #[test]
    fn sort_rejects_merge_workers_flag() {
        rejected(&["sort", "--merge-workers", "2"], "merge-workers");
    }

    #[test]
    fn cluster_rejects_merge_workers_flag() {
        rejected(&["cluster", "--merge-workers", "auto"], "merge-workers");
    }

    /// Asserts that `args` plus `--block 0` fails with an error naming
    /// `--block`, without creating the `--dir` it was given.
    fn zero_block_rejected(args: &[&str]) {
        let scratch = pdm::ScratchDir::new("cli-block0").unwrap();
        let dir = scratch.path().join("never-created");
        let dir = dir.to_str().unwrap();
        let mut args: Vec<&str> = args.to_vec();
        if args[0] != "cluster" {
            args.extend_from_slice(&["--dir", dir]);
        }
        args.extend_from_slice(&["--block", "0"]);
        let err = run(&opts(&args)).unwrap_err();
        assert!(err.contains("--block"), "{err}");
        assert!(!std::path::Path::new(dir).exists());
    }

    #[test]
    fn gen_rejects_zero_block() {
        zero_block_rejected(&["gen", "--name", "in", "--n", "10"]);
    }

    #[test]
    fn sort_rejects_zero_block() {
        zero_block_rejected(&["sort", "--input", "in", "--output", "out"]);
    }

    #[test]
    fn verify_rejects_zero_block() {
        zero_block_rejected(&["verify", "--sorted", "out"]);
    }

    #[test]
    fn cluster_rejects_zero_block() {
        zero_block_rejected(&["cluster", "--n", "8000", "--perf", "1,1"]);
    }

    #[test]
    fn cluster_rejects_workers_above_the_cap() {
        let workers = (extsort::MAX_WORKERS + 1).to_string();
        let err = run(&opts(&[
            "cluster",
            "--n",
            "8000",
            "--perf",
            "1,1",
            "--mem",
            "4096",
            "--tapes",
            "4",
            "--block",
            "1024",
            "--workers",
            &workers,
        ]))
        .unwrap_err();
        assert!(err.contains("pipeline workers exceed the cap"), "{err}");
    }

    #[test]
    fn sort_rejects_workers_above_the_cap_before_forming_runs() {
        let scratch = pdm::ScratchDir::new("cli-worker-cap").unwrap();
        let dir = scratch.path().to_str().unwrap().to_string();
        run(&opts(&[
            "gen", "--dir", &dir, "--name", "in", "--n", "5000",
        ]))
        .unwrap();
        let workers = (extsort::MAX_WORKERS + 1).to_string();
        let err = run(&opts(&[
            "sort",
            "--dir",
            &dir,
            "--input",
            "in",
            "--output",
            "out",
            "--mem",
            "65536",
            "--tapes",
            "4",
            "--block",
            "4096",
            "--workers",
            &workers,
        ]))
        .unwrap_err();
        assert!(err.contains("pipeline workers exceed the cap"), "{err}");
        let files: Vec<String> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files, ["in"]);
    }

    #[test]
    fn runtime_parsing() {
        assert_eq!(
            parse_runtime("threads").unwrap(),
            cluster::RuntimeKind::Threads
        );
        assert_eq!(
            parse_runtime("events").unwrap(),
            cluster::RuntimeKind::Events
        );
        assert!(parse_runtime("fibers").is_err());
    }

    #[test]
    fn cluster_runtime_flag_selects_identical_trials() {
        // The same trial under --runtime threads and --runtime events must
        // report the same virtual time, balance and traffic.
        let base = [
            "cluster",
            "--n",
            "8000",
            "--perf",
            "1,1,4,4",
            "--mem",
            "4096",
            "--tapes",
            "4",
            "--msg",
            "512",
            "--block",
            "1024",
            "--seed",
            "3",
            "--runtime",
        ];
        let mut outs = Vec::new();
        for runtime in ["threads", "events"] {
            let mut args: Vec<&str> = base.to_vec();
            args.push(runtime);
            outs.push(run(&opts(&args)).unwrap());
        }
        assert!(outs[0].contains("sublist expansion"), "{}", outs[0]);
        assert_eq!(outs[0], outs[1], "runtimes reported different trials");
        let err = run(&opts(&["cluster", "--runtime", "fibers"])).unwrap_err();
        assert!(err.contains("threads or events"), "{err}");
    }

    #[test]
    fn cluster_kernel_flag_accepted() {
        let out = run(&opts(&[
            "cluster",
            "--n",
            "8000",
            "--perf",
            "1,1",
            "--mem",
            "4096",
            "--tapes",
            "4",
            "--msg",
            "512",
            "--block",
            "1024",
            "--kernel",
            "comparison",
        ]))
        .unwrap();
        assert!(out.contains("sublist expansion"), "{out}");
    }

    #[test]
    fn cluster_rejects_streaming_merge_flag() {
        rejected(&["cluster", "--streaming-merge", "true"], "streaming-merge");
    }

    #[test]
    fn cluster_rejects_removed_calibration_flag() {
        rejected(
            &["cluster", "--calibration-report", "true"],
            "calibration-report",
        );
    }

    #[test]
    fn sort_rejects_ips4o_kernel() {
        let scratch = pdm::ScratchDir::new("cli-ips4o").unwrap();
        let dir = scratch.path().to_str().unwrap().to_string();
        run(&opts(&[
            "gen", "--dir", &dir, "--name", "in", "--n", "5000",
        ]))
        .unwrap();
        let err = run(&opts(&[
            "sort", "--dir", &dir, "--input", "in", "--output", "out", "--kernel", "ips4o",
        ]))
        .unwrap_err();
        assert!(err.contains("--kernel \"ips4o\""), "{err}");
        let files: Vec<String> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files, ["in"]);
    }

    #[test]
    fn cluster_rejects_zero_message_size() {
        let err = run(&opts(&[
            "cluster", "--n", "1000", "--perf", "1,1", "--msg", "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--msg"), "{err}");
    }

    #[test]
    fn cluster_splitter_flag_accepted() {
        let base = [
            "cluster",
            "--n",
            "20000",
            "--perf",
            "1,1,4,4,2,2,1,4,2",
            "--mem",
            "4096",
            "--tapes",
            "4",
            "--msg",
            "512",
            "--block",
            "1024",
            "--seed",
            "3",
        ];
        let mut grouped: Vec<&str> = base.to_vec();
        grouped.extend_from_slice(&["--splitter", "grouped"]);
        let out = run(&opts(&grouped)).unwrap();
        assert!(out.contains("sublist expansion"), "{out}");
        // Unknown strategy names are rejected with the flag's vocabulary.
        let mut bad: Vec<&str> = base.to_vec();
        bad.extend_from_slice(&["--splitter", "tree"]);
        let err = run(&opts(&bad)).unwrap_err();
        assert!(err.contains("--splitter"), "{err}");
        assert_eq!(parse_splitter("flat").unwrap(), SplitterStrategy::Flat);
        assert!(parse_splitter("grouped").unwrap().is_grouped());
    }

    #[test]
    fn cluster_command_runs() {
        let out = run(&opts(&[
            "cluster", "--n", "20000", "--perf", "1,1,4,4", "--mem", "4096", "--tapes", "4",
            "--msg", "512", "--block", "1024", "--seed", "3",
        ]))
        .unwrap();
        assert!(out.contains("sublist expansion"), "{out}");
    }

    #[test]
    fn bool_flag_parsing() {
        // Bare --profile, followed by another flag: value not consumed.
        let o = opts(&["cluster", "--profile", "--n", "100"]);
        assert!(o.flag("profile").unwrap());
        assert_eq!(o.num_or("n", 0).unwrap(), 100);
        // Trailing bare --profile.
        let o = opts(&["cluster", "--n", "100", "--profile"]);
        assert!(o.flag("profile").unwrap());
        // Explicit value forms.
        assert!(opts(&["cluster", "--profile", "true"])
            .flag("profile")
            .unwrap());
        assert!(!opts(&["cluster", "--profile", "false"])
            .flag("profile")
            .unwrap());
        assert!(!opts(&["cluster"]).flag("profile").unwrap());
        assert!(opts(&["cluster", "--profile", "maybe"])
            .flag("profile")
            .is_err());
    }

    #[test]
    fn cluster_trace_flags_write_outputs() {
        let scratch = pdm::ScratchDir::new("cli-trace").unwrap();
        let trace = scratch.path().join("trace.json");
        let metrics = scratch.path().join("metrics.json");
        let out = run(&opts(&[
            "cluster",
            "--n",
            "20000",
            "--perf",
            "1,1,4,4",
            "--mem",
            "4096",
            "--tapes",
            "4",
            "--msg",
            "512",
            "--block",
            "1024",
            "--seed",
            "3",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--profile",
        ]))
        .unwrap();
        assert!(out.contains("wrote chrome trace"), "{out}");
        assert!(out.contains("wrote metrics"), "{out}");
        // The Gantt + skew dashboard made it to the terminal output.
        assert!(out.contains("node0"), "{out}");
        assert!(out.contains("skew"), "{out}");
        let trace_json = std::fs::read_to_string(&trace).unwrap();
        obs::json::validate(&trace_json).unwrap();
        for phase in ["local-sort", "pivots", "partition", "redistribute", "merge"] {
            assert!(trace_json.contains(phase), "trace missing {phase}");
        }
        let metrics_json = std::fs::read_to_string(&metrics).unwrap();
        obs::json::validate(&metrics_json).unwrap();
        assert!(metrics_json.contains("hetsort-metrics-v1"));
    }

    #[test]
    fn unknown_command_reports_usage() {
        let err = run(&opts(&["frobnicate"])).unwrap_err();
        assert!(err.contains("usage:"));
    }

    #[test]
    fn verify_detects_unsorted() {
        let scratch = pdm::ScratchDir::new("cli-bad").unwrap();
        let dir = scratch.path().to_str().unwrap().to_string();
        let disk = Disk::on_files(scratch.path(), 4096);
        disk.write_file::<u32>("bad", &[3, 1, 2]).unwrap();
        let err = run(&opts(&["verify", "--dir", &dir, "--sorted", "bad"])).unwrap_err();
        assert!(err.contains("NOT sorted"));
    }
}
