//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the experiment index). They share:
//!
//! * [`Args`] — a tiny flag parser (`--quick`, `--paper`, `--seed`,
//!   `--trials`, `--selftest`);
//! * [`print_table`] — GitHub-flavoured table output;
//! * [`sequential_polyphase_trial`] — the paper's Table 2 protocol: one
//!   node, one disk, a slowdown factor, a polyphase sort, a virtual time;
//! * [`repeat`] — runs a seeded closure `trials` times and summarizes.

use std::time::Instant;

use cluster::charge::Work;
use cluster::{Charger, CpuModel, TimePolicy};
use extsort::{ExtSortConfig, SortKernel, SortReport};
use pdm::{Disk, DiskModel, ScratchDir};
use sim::{Jitter, Summary};
use workloads::{generate_to_disk, Benchmark, Layout};

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Scale down to CI-sized inputs.
    pub quick: bool,
    /// Use the paper's full input sizes (slow; release build recommended).
    pub paper: bool,
    /// Master seed.
    pub seed: u64,
    /// Trials per configuration (the paper uses 30; default is smaller).
    pub trials: usize,
    /// Assert the paper-shape claims instead of only printing.
    pub selftest: bool,
    /// Use real files instead of in-memory disks.
    pub files: bool,
    /// Restrict splitter-selection sweeps to one strategy (`flat` or
    /// `grouped`); `None` sweeps both. Only the `scale` bench reads it.
    pub splitter: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            quick: false,
            paper: false,
            seed: 2002,
            trials: 5,
            selftest: false,
            files: false,
            splitter: None,
        }
    }
}

impl Args {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    /// Panics with a usage message on unknown flags.
    pub fn parse() -> Args {
        let mut args = Args::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => args.quick = true,
                "--paper" => args.paper = true,
                "--selftest" => args.selftest = true,
                "--files" => args.files = true,
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs an integer")
                }
                "--trials" => {
                    args.trials = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--trials needs an integer")
                }
                "--splitter" => {
                    let v = it.next().expect("--splitter needs flat or grouped");
                    assert!(
                        v == "flat" || v == "grouped",
                        "unknown --splitter {v:?} (flat or grouped)"
                    );
                    args.splitter = Some(v);
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --quick | --paper | --seed N | --trials N | --selftest | \
                         --files | --splitter flat|grouped"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other:?} (try --help)"),
            }
        }
        args
    }

    /// Picks an input-size ladder: `quick` → small, default → medium,
    /// `paper` → the paper's 2²¹…2²⁵ records.
    pub fn size_ladder(&self) -> Vec<u64> {
        if self.paper {
            vec![1 << 21, 1 << 22, 1 << 23, 1 << 24, 1 << 25]
        } else if self.quick {
            vec![1 << 14, 1 << 15, 1 << 16]
        } else {
            vec![1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21]
        }
    }

    /// The Table 3 problem size for this scale.
    pub fn table3_n(&self) -> u64 {
        if self.paper {
            1 << 24
        } else if self.quick {
            1 << 16
        } else {
            1 << 20
        }
    }
}

/// Prints a GitHub-flavoured markdown table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Runs `f(seed)` for `trials` different seeds and summarizes the returned
/// observable.
pub fn repeat(trials: usize, base_seed: u64, mut f: impl FnMut(u64) -> f64) -> Summary {
    let mut s = Summary::new();
    for t in 0..trials {
        s.push(f(base_seed.wrapping_add(t as u64 * 0x9E37)));
    }
    s
}

/// The default memory budget for a given problem size: out-of-core by a
/// factor of 16 (so polyphase really merges), but never too small for a
/// 16-tape streaming merge at 32 KiB blocks.
pub fn default_mem(n: u64) -> usize {
    ((n / 16) as usize).max(16 * 16 * 1024)
}

/// One run of the paper's Table 2 protocol: a single node with the given
/// slowdown sorts `n` uniform records with polyphase merge sort; returns
/// the virtual time in seconds and the sort report.
///
/// The kernel is pinned to [`SortKernel::Comparison`]: the paper's 2002
/// Alpha calibration (`CpuModel::alpha_533`) prices a comparison sort, so
/// the Table 2/3 reproductions must not silently switch to the radix fast
/// path.
#[allow(clippy::too_many_arguments)] // a flat experiment-parameter list reads best
pub fn sequential_polyphase_trial(
    n: u64,
    mem_records: usize,
    tapes: usize,
    slowdown: f64,
    seed: u64,
    jitter_sigma: f64,
    use_files: bool,
    bench: Benchmark,
) -> (f64, SortReport) {
    let block_bytes = 32 * 1024;
    let scratch;
    let disk = if use_files {
        scratch = Some(ScratchDir::new("seqsort").expect("scratch dir"));
        Disk::on_files(scratch.as_ref().unwrap().path(), block_bytes)
    } else {
        scratch = None;
        Disk::in_memory(block_bytes)
    }
    .with_model(DiskModel::scsi_2000());
    let _keep = scratch;

    let jitter = Jitter::new(seed, (jitter_sigma * slowdown.sqrt()).min(0.9));
    let mut charger = Charger::new(
        CpuModel::alpha_533(),
        slowdown,
        jitter,
        disk.clone(),
        TimePolicy::Modeled,
    );
    generate_to_disk(&disk, "input", bench, seed, Layout::single(n)).expect("generate");
    charger.reset(); // generation is not part of the measured time

    let cfg = ExtSortConfig::new(mem_records)
        .with_tapes(tapes)
        .with_kernel(SortKernel::Comparison);
    let t0 = Instant::now();
    let report =
        extsort::polyphase_sort::<u32>(&disk, "input", "output", "seq", &cfg).expect("sort");
    charger.charge_section(
        Work {
            comparisons: report.comparisons,
            key_ops: report.key_ops,
            moves: report.records * (report.merge_phases as u64 + 1),
        },
        t0.elapsed(),
    );
    charger.sync_io();
    (charger.now().as_secs(), report)
}

/// Formats seconds like the paper's tables (5 decimal places).
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.5}")
}

/// Formats a ratio with 5 decimals (the paper's `S(max)` column).
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.5}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_ladders() {
        let d = Args::default();
        assert_eq!(d.size_ladder().len(), 5);
        let q = Args {
            quick: true,
            ..Args::default()
        };
        assert!(q.size_ladder().iter().all(|&n| n <= 1 << 16));
        let p = Args {
            paper: true,
            ..Args::default()
        };
        assert_eq!(*p.size_ladder().last().unwrap(), 1 << 25);
    }

    #[test]
    fn repeat_summarizes() {
        let s = repeat(4, 10, |seed| seed as f64);
        assert_eq!(s.count(), 4);
        assert!(s.stddev() > 0.0);
    }

    #[test]
    fn sequential_trial_runs() {
        let (t, report) =
            sequential_polyphase_trial(1 << 14, 1 << 16, 4, 1.0, 7, 0.0, false, Benchmark::Uniform);
        assert!(t > 0.0);
        assert_eq!(report.records, 1 << 14);
    }

    #[test]
    fn slowdown_scales_sequential_time() {
        let run = |slowdown| {
            sequential_polyphase_trial(
                1 << 14,
                1 << 16,
                4,
                slowdown,
                7,
                0.0,
                false,
                Benchmark::Uniform,
            )
            .0
        };
        let fast = run(1.0);
        let slow = run(4.0);
        let ratio = slow / fast;
        assert!(
            (3.9..4.1).contains(&ratio),
            "slowdown 4 should quadruple the time, got {ratio}"
        );
    }

    #[test]
    fn default_mem_is_out_of_core() {
        assert!(default_mem(1 << 24) < (1 << 24) as usize);
        assert!(default_mem(1 << 10) >= 16 * 16 * 1024);
    }
}
