//! Polyphase merge sort (Knuth §5.4.2).
//!
//! The paper's step-1 sequential sorter: with `T` tape files, polyphase
//! achieves a `(T−1)`-way merge *without* a redistribution pass, by keeping
//! the initial runs in an ideal generalized-Fibonacci distribution and
//! rotating the emptied tape into the output role after every phase.
//!
//! Phase invariant (proved by the Fibonacci recurrence): if the run counts
//! (real + dummy) form an ideal level-`n` distribution, merging
//! `min_j(runs_j)` steps empties exactly one tape and leaves a level-`n−1`
//! distribution. Level 0 is a single run — the sorted output.

use std::collections::VecDeque;

use pdm::{BlockReader, Disk, PdmResult, Record};

use crate::config::ExtSortConfig;
use crate::report::SortReport;
use crate::run_formation::{form_runs, FormedRuns};
use crate::sink;
use crate::stream::Bounded;
use crate::window;

/// Sorts `input` into a new file `output` using polyphase merge sort.
///
/// Temporary tape files are created as `"{job}.tape*"` and removed before
/// returning; `job` must be unique per concurrent sort on the same disk.
///
/// ```
/// use extsort::{polyphase_sort, ExtSortConfig};
/// use pdm::Disk;
///
/// let disk = Disk::in_memory(64); // 16 u32 records per block
/// disk.write_file::<u32>("input", &[9, 1, 8, 2, 7, 3, 6, 4, 5, 0]).unwrap();
/// // Sort with a 4-record memory budget — genuinely out-of-core.
/// let cfg = ExtSortConfig::new(64).with_tapes(4);
/// let report = polyphase_sort::<u32>(&disk, "input", "sorted", "job", &cfg).unwrap();
/// assert_eq!(report.records, 10);
/// assert_eq!(disk.read_file::<u32>("sorted").unwrap(), (0..10).collect::<Vec<_>>());
/// ```
pub fn polyphase_sort<R: Record>(
    disk: &Disk,
    input: &str,
    output: &str,
    job: &str,
    cfg: &ExtSortConfig,
) -> PdmResult<SortReport> {
    let records_per_block = disk.block_bytes() / R::SIZE;
    cfg.validate(records_per_block)?;
    sink::check_free(disk, output)?;
    let io_before = disk.stats().snapshot();

    let k = cfg.tapes - 1;
    let formed = form_runs::<R>(disk, input, job, k, cfg)?;
    let mut report = SortReport {
        records: formed.records,
        initial_runs: formed.total_runs,
        merge_phases: 0,
        comparisons: formed.comparisons,
        key_ops: formed.key_ops,
        io: Default::default(),
    };

    merge_phases::<R>(disk, formed, output, job, cfg, &mut report)?;

    report.io = disk.stats().snapshot().delta(&io_before);
    Ok(report)
}

/// One tape during the merge: a file plus its queue of run lengths.
struct Tape<R: Record> {
    name: String,
    runs: VecDeque<u64>,
    dummies: u64,
    reader: Option<BlockReader<R>>,
}

impl<R: Record> Tape<R> {
    fn total_runs(&self) -> u64 {
        self.runs.len() as u64 + self.dummies
    }
}

/// Drives the polyphase phases until a single run remains, then renames it
/// to `output` and cleans up the tapes.
fn merge_phases<R: Record>(
    disk: &Disk,
    formed: FormedRuns,
    output: &str,
    job: &str,
    cfg: &ExtSortConfig,
    report: &mut SortReport,
) -> PdmResult<()> {
    // Degenerate inputs: zero runs → empty output; the general loop handles
    // a single run via zero phases.
    if formed.total_runs == 0 {
        for t in &formed.tapes {
            disk.remove(&t.name)?;
        }
        disk.create_writer::<R>(output)?.finish()?;
        return Ok(());
    }

    let mut tapes: Vec<Tape<R>> = formed
        .tapes
        .into_iter()
        .map(|t| Tape {
            name: t.name,
            runs: t.runs,
            dummies: t.dummies,
            reader: None,
        })
        .collect();
    // The output tape starts empty.
    let mut out_idx = tapes.len();
    tapes.push(Tape {
        name: format!("{job}.tape{}", tapes.len()),
        runs: VecDeque::new(),
        dummies: 0,
        reader: None,
    });

    let mut phase_guard = 0u32;
    loop {
        let live: Vec<usize> = (0..tapes.len())
            .filter(|&i| i != out_idx && tapes[i].total_runs() > 0)
            .collect();
        let total_real: u64 = tapes.iter().map(|t| t.runs.len() as u64).sum();
        if total_real == 1 && live.len() <= 1 && tapes.iter().all(|t| t.dummies == 0) {
            break;
        }
        phase_guard += 1;
        assert!(
            phase_guard < 10_000,
            "polyphase failed to converge — distribution invariant broken"
        );
        let _span = obs::scoped("extsort.merge-pass");

        // A phase merges as many steps as the thinnest input tape has runs.
        let steps = (0..tapes.len())
            .filter(|&i| i != out_idx)
            .map(|i| tapes[i].total_runs())
            .min()
            .expect("at least one input tape");
        debug_assert!(steps > 0, "ideal distribution guarantees non-empty tapes");

        // Fresh file for this phase's output.
        disk.remove(&tapes[out_idx].name)?;
        let mut writer = disk.create_writer::<R>(&tapes[out_idx].name)?;
        let mut out_runs: VecDeque<u64> = VecDeque::new();
        let mut out_dummies = 0u64;

        for _ in 0..steps {
            // Collect this step's run view from every input tape; dummies
            // contribute nothing (consumed first, per Knuth).
            let mut contributors: Vec<(usize, u64)> = Vec::new();
            for (i, tape) in tapes.iter_mut().enumerate() {
                if i == out_idx {
                    continue;
                }
                if tape.dummies > 0 {
                    tape.dummies -= 1;
                } else if let Some(len) = tape.runs.pop_front() {
                    contributors.push((i, len));
                } else {
                    unreachable!("phase steps exceed tape runs");
                }
            }
            if contributors.is_empty() {
                // All inputs contributed dummies → the merged run is a dummy.
                out_dummies += 1;
                continue;
            }
            let merged_len: u64 = contributors.iter().map(|&(_, l)| l).sum();
            // Open readers lazily; build bounded views of one run each.
            for &(i, _) in &contributors {
                if tapes[i].reader.is_none() {
                    tapes[i].reader = Some(disk.open_reader::<R>(&tapes[i].name)?);
                }
            }
            // Take the readers out for the step's views and put them back
            // after, so each tape's cursor moves on to its next run.
            let mut taken: Vec<(usize, BlockReader<R>)> = contributors
                .iter()
                .map(|&(i, _)| (i, tapes[i].reader.take().expect("opened above")))
                .collect();
            let views: Vec<Bounded<'_, R, BlockReader<R>>> = taken
                .iter_mut()
                .zip(&contributors)
                .map(|((_, r), &(_, len))| Bounded::new(r, len))
                .collect();
            let (produced, selects) = window::merge(views, &cfg.pipeline, |b| writer.push_all(b))?;
            report.add_work(cfg.kernel.bill_selects::<R>(selects));
            debug_assert_eq!(produced, merged_len);
            for (i, r) in taken {
                tapes[i].reader = Some(r);
            }
            out_runs.push_back(merged_len);
        }

        writer.finish()?;
        tapes[out_idx].runs = out_runs;
        tapes[out_idx].dummies = out_dummies;
        tapes[out_idx].reader = None;
        report.merge_phases += 1;

        // The tape that just emptied becomes the next output.
        let emptied = (0..tapes.len())
            .find(|&i| i != out_idx && tapes[i].total_runs() == 0)
            .expect("polyphase phase must empty exactly one tape");
        // Its reader (if any) is done; drop it so the file can be reused.
        tapes[emptied].reader = None;
        out_idx = emptied;
    }

    // Exactly one tape holds exactly one run — the sorted data. Its file may
    // also contain earlier, already-consumed runs only if it never became an
    // output; but a tape holding the final run was always the last phase's
    // output (or the sole initial tape), so the file contains only the run.
    let final_idx = (0..tapes.len())
        .find(|&i| !tapes[i].runs.is_empty())
        .expect("one run must remain");
    for (i, t) in tapes.iter_mut().enumerate() {
        t.reader = None;
        if i != final_idx {
            disk.remove(&t.name)?;
        }
    }
    sink::publish(disk, &tapes[final_idx].name, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{fingerprint_file, fingerprint_slice, is_sorted_file};
    use pdm::{Disk, PdmResult, ScratchDir};
    use sim::rng::{Pcg64, Rng};

    fn random_data(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = Pcg64::new(seed);
        (0..n).map(|_| rng.next_u32()).collect()
    }

    fn check_sort(disk: &Disk, data: &[u32], cfg: &ExtSortConfig) -> SortReport {
        disk.write_file("in", data).unwrap();
        let report = polyphase_sort::<u32>(disk, "in", "out", "pp", cfg).unwrap();
        assert!(is_sorted_file::<u32>(disk, "out").unwrap());
        assert_eq!(
            fingerprint_file::<u32>(disk, "out").unwrap(),
            fingerprint_slice(data),
            "output must be a permutation of the input"
        );
        assert_eq!(report.records, data.len() as u64);
        // No temp tapes left behind.
        for t in 0..8 {
            assert!(!disk.exists(&format!("pp.tape{t}")), "leaked tape {t}");
        }
        report
    }

    #[test]
    fn sorts_random_input() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(16).with_tapes(4);
        let report = check_sort(&disk, &random_data(300, 1), &cfg);
        assert_eq!(report.initial_runs, 19); // ceil(300/16)
        assert!(report.merge_phases >= 3);
    }

    #[test]
    fn sorts_on_real_files() {
        let scratch = ScratchDir::new("polyphase-test").unwrap();
        let disk = Disk::on_files(scratch.path(), 64);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        check_sort(&disk, &random_data(2000, 2), &cfg);
    }

    #[test]
    fn empty_input() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(16).with_tapes(4);
        let report = check_sort(&disk, &[], &cfg);
        assert_eq!(report.initial_runs, 0);
        assert_eq!(report.merge_phases, 0);
    }

    #[test]
    fn single_run_input() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        // 50 records < 64 memory → one run, zero merge phases.
        let report = check_sort(&disk, &random_data(50, 3), &cfg);
        assert_eq!(report.initial_runs, 1);
        assert_eq!(report.merge_phases, 0);
    }

    #[test]
    fn already_sorted_and_reverse_inputs() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(16).with_tapes(4);
        let sorted: Vec<u32> = (0..200).collect();
        check_sort(&disk, &sorted, &cfg);
        let disk2 = Disk::in_memory(16);
        let reverse: Vec<u32> = (0..200).rev().collect();
        check_sort(&disk2, &reverse, &cfg);
    }

    #[test]
    fn all_duplicates() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(16).with_tapes(4);
        check_sort(&disk, &vec![7u32; 100], &cfg);
    }

    #[test]
    fn run_count_exactly_at_level_boundary() {
        // k=3 tapes: levels total 1, 3, 5, 9, 17… make exactly 5 runs.
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(20).with_tapes(4);
        let report = check_sort(&disk, &random_data(100, 4), &cfg);
        assert_eq!(report.initial_runs, 5);
    }

    #[test]
    fn run_count_needing_dummies() {
        // 4 runs with k=3 → level (2,2,1) = 5 needs one dummy.
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(25).with_tapes(4);
        let report = check_sort(&disk, &random_data(100, 5), &cfg);
        assert_eq!(report.initial_runs, 4);
    }

    #[test]
    fn many_tapes_fewer_phases() {
        let data = random_data(4000, 6);
        let disk_few = Disk::in_memory(16);
        let few = check_sort(&disk_few, &data, &ExtSortConfig::new(100).with_tapes(3));
        let disk_many = Disk::in_memory(16);
        let many = check_sort(&disk_many, &data, &ExtSortConfig::new(100).with_tapes(8));
        assert!(
            many.merge_phases < few.merge_phases,
            "higher fan-in must reduce phases: {} vs {}",
            many.merge_phases,
            few.merge_phases
        );
        assert!(many.io.total_blocks() < few.io.total_blocks());
    }

    #[test]
    fn replacement_selection_end_to_end() {
        use crate::config::RunFormation;
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(32)
            .with_tapes(4)
            .with_run_formation(RunFormation::ReplacementSelection);
        check_sort(&disk, &random_data(500, 7), &cfg);
    }

    #[test]
    fn pipelined_matches_sequential() {
        use crate::config::PipelineConfig;
        let data = random_data(1000, 9);
        let d1 = Disk::in_memory(16);
        let seq = check_sort(&d1, &data, &ExtSortConfig::new(64).with_tapes(4));
        let d2 = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64)
            .with_tapes(4)
            .with_pipeline(PipelineConfig::with_workers(4));
        let pipe = check_sort(&d2, &data, &cfg);
        assert_eq!(seq.io, pipe.io, "pipelining must not change metered I/O");
        assert_eq!(seq.initial_runs, pipe.initial_runs);
        assert_eq!(seq.comparisons, pipe.comparisons);
        assert_eq!(seq.key_ops, pipe.key_ops);
        assert_eq!(
            d1.read_file::<u32>("out").unwrap(),
            d2.read_file::<u32>("out").unwrap()
        );
    }

    #[test]
    fn sorting_onto_an_existing_output_fails_first_and_leaves_no_tape() {
        use crate::config::PipelineConfig;
        use crate::kway::balanced_kway_sort;
        type Sorter = fn(&Disk, &str, &str, &str, &ExtSortConfig) -> PdmResult<SortReport>;
        let sorters: [(&str, Sorter); 2] = [
            ("polyphase", polyphase_sort::<u32>),
            ("balanced", balanced_kway_sort::<u32>),
        ];
        let cfg = ExtSortConfig::new(64)
            .with_tapes(4)
            .with_pipeline(PipelineConfig::with_workers(2));
        for (name, sort) in sorters {
            let scratch = ScratchDir::new("existing-output").unwrap();
            let disk = Disk::on_files(scratch.path(), 64);
            disk.write_file("in", &random_data(3000, 14)).unwrap();
            sort(&disk, "in", "out", "pp", &cfg).unwrap();
            let sorted = disk.read_file::<u32>("out").unwrap();
            let before = disk.stats().snapshot();
            let err = sort(&disk, "in", "out", "pp", &cfg).unwrap_err();
            assert!(
                matches!(err, pdm::PdmError::AlreadyExists(ref f) if f == "out"),
                "{err}"
            );
            let io = disk.stats().snapshot().delta(&before);
            assert_eq!(io.total_blocks(), 0, "{name}: the failed sort did I/O");
            let mut files: Vec<String> = std::fs::read_dir(scratch.path())
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            files.sort();
            assert_eq!(files, ["in", "out"], "{name}");
            assert_eq!(disk.read_file::<u32>("out").unwrap(), sorted, "{name}");
        }
    }

    #[test]
    fn invalid_config_is_typed_error() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("in", &[3, 1, 2]).unwrap();
        let cfg = ExtSortConfig::new(4).with_tapes(2);
        let err = polyphase_sort::<u32>(&disk, "in", "out", "pp", &cfg).unwrap_err();
        assert!(matches!(err, pdm::PdmError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn io_scales_with_phases() {
        // Sanity: total block I/O stays within a small multiple of the
        // run-formation floor (2 reads+writes of everything per pass).
        let disk = Disk::in_memory(64); // 16 records/block
        let cfg = ExtSortConfig::new(128).with_tapes(8);
        let data = random_data(4096, 8);
        let report = check_sort(&disk, &data, &cfg);
        let floor = 2 * (4096 / 16); // read+write once
        let total = report.io.total_blocks();
        assert!(total >= floor as u64);
        assert!(
            total <= 6 * floor as u64,
            "I/O blew up: {total} blocks vs floor {floor}"
        );
    }
}
