//! Balanced k-way merge sort and single-pass multiway merge.
//!
//! [`balanced_kway_sort`] is the textbook external merge sort the paper's
//! polyphase is compared against in the ablation benches: with `T` tape
//! files split into two halves, each pass merges groups of `T/2` runs and
//! writes them to the other half, so every pass moves *all* the data.
//! Polyphase gets a `(T−1)`-way merge out of the same `T` files.
//!
//! [`merge_sorted_files_kernel`] is the single-pass multiway merge used as
//! the final step (step 5) of the paper's Algorithm 1, where each node
//! merges the `p` sorted partition files it received. Both go through one
//! merge body (`merge_segments`).

use pdm::{Disk, PdmResult, Record};

use crate::config::{ExtSortConfig, PipelineConfig};
use crate::kernel::SortKernel;
use crate::report::{MergeReport, SortReport};
use crate::run_formation::form_runs;
use crate::sink;
use crate::stream::Bounded;
use crate::window;

/// One sorted input to a merge: `len` records of `file` from record
/// `offset` on.
struct Segment {
    file: String,
    offset: u64,
    len: u64,
}

impl Segment {
    fn new(file: impl Into<String>, offset: u64, len: u64) -> Self {
        Segment {
            file: file.into(),
            offset,
            len,
        }
    }
}

/// Sorts `input` into `output` with a balanced k-way merge sort using the
/// same file budget as [`crate::polyphase::polyphase_sort`] (fan-in `T/2`).
pub fn balanced_kway_sort<R: Record>(
    disk: &Disk,
    input: &str,
    output: &str,
    job: &str,
    cfg: &ExtSortConfig,
) -> PdmResult<SortReport> {
    let records_per_block = disk.block_bytes() / R::SIZE;
    cfg.validate(records_per_block)?;
    sink::check_free(disk, output)?;
    let fan_in = (cfg.tapes / 2).max(2);
    let io_before = disk.stats().snapshot();

    // Run formation over `fan_in` staging tapes (reusing the distributor is
    // unnecessary here — balanced merge re-groups runs every pass — so we
    // simply round-robin runs onto the first tape set).
    let formed = form_runs::<R>(disk, input, job, fan_in, cfg)?;
    let mut report = SortReport {
        records: formed.records,
        initial_runs: formed.total_runs,
        merge_phases: 0,
        comparisons: formed.comparisons,
        key_ops: formed.key_ops,
        io: Default::default(),
    };

    // Flatten the formed layout into a work list of run segments.
    let mut runs: Vec<Segment> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    for tape in &formed.tapes {
        let mut off = 0u64;
        for &len in &tape.runs {
            runs.push(Segment::new(tape.name.clone(), off, len));
            off += len;
        }
        files.push(tape.name.clone());
    }

    if runs.is_empty() {
        for f in &files {
            disk.remove(f)?;
        }
        disk.create_writer::<R>(output)?.finish()?;
        report.io = disk.stats().snapshot().delta(&io_before);
        return Ok(report);
    }

    // Merge passes: groups of `fan_in` runs → new generation files.
    let mut generation = 0u32;
    while runs.len() > 1 {
        generation += 1;
        let _span = obs::scoped("extsort.merge-pass");
        let mut next_runs: Vec<Segment> = Vec::new();
        for (g, group) in runs.chunks(fan_in).enumerate() {
            let name = format!("{job}.gen{generation}.{g}");
            let merged = merge_segments::<R>(disk, group, &name, &cfg.pipeline, cfg.kernel)?;
            report.comparisons += merged.comparisons;
            report.key_ops += merged.key_ops;
            next_runs.push(Segment::new(name, 0, merged.records));
        }
        for f in &files {
            disk.remove(f)?;
        }
        files = next_runs.iter().map(|r| r.file.clone()).collect();
        runs = next_runs;
        report.merge_phases += 1;
    }

    for f in files.iter().filter(|&f| *f != runs[0].file) {
        disk.remove(f)?;
    }
    sink::publish(disk, &runs[0].file, output)?;
    report.io = disk.stats().snapshot().delta(&io_before);
    Ok(report)
}

/// Single-pass multiway merge of complete sorted files into `output`: PSRS
/// step 5, where each node merges the `p` partitions it received. `kernel`
/// only decides how the tournament selects are billed
/// ([`SortKernel::bill_selects`]); the merge itself is identical either
/// way.
pub fn merge_sorted_files_kernel<R: Record>(
    disk: &Disk,
    inputs: &[String],
    output: &str,
    pipeline: &PipelineConfig,
    kernel: SortKernel,
) -> PdmResult<MergeReport> {
    let _span = obs::scoped("extsort.kway-merge");
    let io_before = disk.stats().snapshot();
    let segments = inputs
        .iter()
        .map(|name| Ok(Segment::new(name, 0, disk.len_records::<R>(name)?)))
        .collect::<PdmResult<Vec<_>>>()?;
    let mut report = merge_segments::<R>(disk, &segments, output, pipeline, kernel)?;
    report.io = disk.stats().snapshot().delta(&io_before);
    Ok(report)
}

/// The one k-way merge body: merges `segments`, each read through a seeked
/// block reader, into a fresh file named `output` through
/// [`window::merge`]. The returned report leaves `io` to the caller.
fn merge_segments<R: Record>(
    disk: &Disk,
    segments: &[Segment],
    output: &str,
    pipeline: &PipelineConfig,
    kernel: SortKernel,
) -> PdmResult<MergeReport> {
    let mut sink = disk.create_writer::<R>(output)?;
    let mut readers = Vec::with_capacity(segments.len());
    for s in segments {
        let mut rd = disk.open_reader::<R>(&s.file)?;
        rd.seek(s.offset);
        readers.push(rd);
    }
    let views = readers
        .iter_mut()
        .zip(segments)
        .map(|(rd, s)| Bounded::new(rd, s.len))
        .collect();
    let (produced, selects) = window::merge(views, pipeline, |b| sink.push_all(b))?;
    sink.finish()?;
    let billed = kernel.bill_selects::<R>(selects);
    Ok(MergeReport {
        records: produced,
        fan_in: segments.len(),
        comparisons: billed.comparisons,
        key_ops: billed.key_ops,
        io: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{fingerprint_file, fingerprint_slice, is_sorted_file};
    use pdm::Disk;
    use sim::rng::{Pcg64, Rng};

    fn random_data(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = Pcg64::new(seed);
        (0..n).map(|_| rng.next_u32()).collect()
    }

    fn merge(disk: &Disk, inputs: &[&str], output: &str, pipeline: &PipelineConfig) -> MergeReport {
        let inputs: Vec<String> = inputs.iter().map(|s| s.to_string()).collect();
        merge_sorted_files_kernel::<u32>(disk, &inputs, output, pipeline, SortKernel::default())
            .unwrap()
    }

    fn check_balanced(disk: &Disk, data: &[u32], cfg: &ExtSortConfig) -> SortReport {
        disk.write_file("in", data).unwrap();
        let report = balanced_kway_sort::<u32>(disk, "in", "out", "kw", cfg).unwrap();
        assert!(is_sorted_file::<u32>(disk, "out").unwrap());
        assert_eq!(
            fingerprint_file::<u32>(disk, "out").unwrap(),
            fingerprint_slice(data)
        );
        report
    }

    #[test]
    fn balanced_sorts_random() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(16).with_tapes(4);
        let report = check_balanced(&disk, &random_data(500, 1), &cfg);
        assert_eq!(report.records, 500);
        assert!(report.merge_phases >= 2);
    }

    #[test]
    fn balanced_empty_and_tiny() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(16).with_tapes(4);
        check_balanced(&disk, &[], &cfg);
        let disk2 = Disk::in_memory(16);
        check_balanced(&disk2, &[42], &cfg);
    }

    #[test]
    fn balanced_single_run() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        let report = check_balanced(&disk, &random_data(30, 2), &cfg);
        assert_eq!(report.initial_runs, 1);
        assert_eq!(report.merge_phases, 0);
    }

    #[test]
    fn polyphase_beats_balanced_on_io() {
        // Same file budget: polyphase's higher fan-in should need fewer or
        // equal block transfers for a multi-pass problem.
        let data = random_data(4096, 3);
        let cfg = ExtSortConfig::new(160).with_tapes(8);
        let d1 = Disk::in_memory(64);
        let poly = {
            d1.write_file("in", &data).unwrap();
            crate::polyphase::polyphase_sort::<u32>(&d1, "in", "out", "pp", &cfg).unwrap()
        };
        assert!(is_sorted_file::<u32>(&d1, "out").unwrap());
        let d2 = Disk::in_memory(64);
        let bal = check_balanced(&d2, &data, &cfg);
        assert!(
            poly.io.total_blocks() <= bal.io.total_blocks(),
            "polyphase {} blocks vs balanced {} blocks",
            poly.io.total_blocks(),
            bal.io.total_blocks()
        );
    }

    #[test]
    fn merge_sorted_files_combines() {
        let disk = Disk::in_memory(16);
        let a: Vec<u32> = (0..50).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..50).map(|i| i * 3 + 1).collect();
        let c: Vec<u32> = (0..50).map(|i| i * 3 + 2).collect();
        disk.write_file("a", &a).unwrap();
        disk.write_file("b", &b).unwrap();
        disk.write_file("c", &c).unwrap();
        let report = merge(&disk, &["a", "b", "c"], "merged", &PipelineConfig::off());
        assert_eq!(report.records, 150);
        assert_eq!(report.fan_in, 3);
        assert_eq!(
            disk.read_file::<u32>("merged").unwrap(),
            (0..150).collect::<Vec<u32>>()
        );
        // Single pass: reads everything once, writes everything once.
        assert_eq!(report.io.bytes_read, 600);
        assert_eq!(report.io.bytes_written, 600);
    }

    #[test]
    fn wide_merge_matches_a_tree_oracle() {
        // Step 5 at p = 64, pipeline off: sorted windows must write the
        // tree's bytes and do the tree's block I/O.
        let names: Vec<String> = (0..64).map(|i| format!("in{i}")).collect();
        let setup = || {
            let disk = Disk::in_memory(4096);
            for (i, name) in names.iter().enumerate() {
                let mut run = random_data(3000 + 97 * i, 40 + i as u64);
                run.sort_unstable();
                disk.write_file(name, &run).unwrap();
            }
            let before = disk.stats().snapshot();
            (disk, before)
        };
        let (disk, before) = setup();
        let tracer = obs::Obs::enabled();
        let guard = obs::install(tracer.clone());
        let report = merge_sorted_files_kernel::<u32>(
            &disk,
            &names,
            "out",
            &PipelineConfig::off(),
            SortKernel::default(),
        )
        .unwrap();
        drop(guard);
        let io = disk.stats().snapshot().delta(&before);
        let node = tracer.finish(0, "merge".to_string());
        assert!(node.metrics.counters.get("merge.window.sorted").copied() > Some(0));

        let (oracle, before) = setup();
        let readers = names
            .iter()
            .map(|name| oracle.open_reader::<u32>(name))
            .collect::<PdmResult<Vec<_>>>()
            .unwrap();
        let mut tree = crate::LoserTree::new(readers).unwrap();
        let mut writer = oracle.create_writer::<u32>("out").unwrap();
        let produced = tree.drain_to(|b| writer.push_all(b)).unwrap();
        writer.finish().unwrap();
        let oracle_io = oracle.stats().snapshot().delta(&before);

        assert_eq!(report.records, produced);
        assert_eq!(report.key_ops, tree.comparisons());
        assert_eq!(report.io, io);
        assert_eq!(io, oracle_io);
        assert!(disk.read_file::<u32>("out").unwrap() == oracle.read_file::<u32>("out").unwrap());
    }

    #[test]
    fn sorts_handle_empty_and_tiny_inputs() {
        // 0, 1 and 5 records form at most one run; 65 records form a full
        // 64-record run and a one-record run on 16-record blocks.
        use crate::polyphase::polyphase_sort;
        type Sorter = fn(&Disk, &str, &str, &str, &ExtSortConfig) -> PdmResult<SortReport>;
        let sorters: [(&str, Sorter); 2] = [
            ("polyphase", polyphase_sort::<u32>),
            ("balanced", balanced_kway_sort::<u32>),
        ];
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        for (name, sort) in sorters {
            for n in [0usize, 1, 5, 65] {
                let data = random_data(n, 34);
                let disk = Disk::in_memory(64);
                disk.write_file("in", &data).unwrap();
                let report = sort(&disk, "in", "out", "pp", &cfg).unwrap();
                assert_eq!(report.records, n as u64, "{name}, n = {n}");
                let mut want = data.clone();
                want.sort_unstable();
                assert_eq!(
                    disk.read_file::<u32>("out").unwrap(),
                    want,
                    "{name}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn merge_handles_empty_inputs() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("a", &[1, 5]).unwrap();
        disk.write_file::<u32>("b", &[]).unwrap();
        let report = merge(&disk, &["a", "b"], "m", &PipelineConfig::off());
        assert_eq!(report.records, 2);
        assert_eq!(disk.read_file::<u32>("m").unwrap(), vec![1, 5]);
    }
}
