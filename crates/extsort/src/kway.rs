//! Balanced k-way merge sort and single-pass multiway merge.
//!
//! [`balanced_kway_sort`] is the textbook external merge sort the paper's
//! polyphase is compared against in the ablation benches: with `T` tape
//! files split into two halves, each pass merges groups of `T/2` runs and
//! writes them to the other half, so every pass moves *all* the data.
//! Polyphase gets a `(T−1)`-way merge out of the same `T` files.
//!
//! [`merge_sorted_files`] is the single-pass multiway merge used as the
//! final step (step 5) of the paper's Algorithm 1, where each node merges
//! the `p` sorted partition files it received.

use pdm::{BufferPool, Disk, PdmResult, Record};

use crate::config::{ExtSortConfig, PipelineConfig};
use crate::kernel::SortKernel;
use crate::loser_tree::LoserTree;
use crate::parallel_merge::{parallel_merge_segments, planned_workers, MergeSegment};
use crate::report::{MergeReport, SortReport};
use crate::run_formation::form_runs;
use crate::stream::Bounded;

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
    let fan_in = (cfg.tapes / 2).max(2);
    let io_before = disk.stats().snapshot();
    let pool = BufferPool::default();

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

    // Flatten the formed layout into a work list of (file, offset, len).
    let mut runs: Vec<RunRef> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    for tape in &formed.tapes {
        let mut off = 0u64;
        for &len in &tape.runs {
            runs.push(RunRef {
                file: files.len(),
                offset: off,
                len,
            });
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
        let mut next_runs: Vec<RunRef> = Vec::new();
        let mut next_files: Vec<String> = Vec::new();
        for (g, group) in runs.chunks(fan_in).enumerate() {
            let name = format!("{job}.gen{generation}.{g}");
            let merged = merge_run_group::<R>(disk, &files, group, &name, cfg, &pool)?;
            report.comparisons += merged.comparisons;
            report.key_ops += merged.key_ops;
            next_runs.push(RunRef {
                file: next_files.len(),
                offset: 0,
                len: merged.records,
            });
            next_files.push(name);
        }
        for f in &files {
            disk.remove(f)?;
        }
        files = next_files;
        runs = next_runs;
        report.merge_phases += 1;
    }

    disk.rename(&files[runs[0].file], output)?;
    for (i, f) in files.iter().enumerate() {
        if i != runs[0].file {
            disk.remove(f)?;
        }
    }
    report.io = disk.stats().snapshot().delta(&io_before);
    Ok(report)
}

#[derive(Debug, Clone, Copy)]
struct RunRef {
    file: usize,
    offset: u64,
    len: u64,
}

/// Merges one group of runs (possibly from different files/offsets) into a
/// fresh output file.
///
/// Run inputs need `seek`, so they always use (pooled) synchronous readers;
/// with the pipeline on, the output side is write-behind, overlapping the
/// merge computation with the output transfers.
fn merge_run_group<R: Record>(
    disk: &Disk,
    files: &[String],
    group: &[RunRef],
    output: &str,
    cfg: &ExtSortConfig,
    pool: &BufferPool,
) -> PdmResult<MergeReport> {
    let records: u64 = group.iter().map(|r| r.len).sum();
    let workers = planned_workers::<R>(disk, &cfg.pipeline, group.len(), records, cfg.kernel);
    if workers > 1 {
        let segments: Vec<MergeSegment> = group
            .iter()
            .map(|r| MergeSegment::new(files[r.file].clone(), r.offset, r.len))
            .collect();
        let (produced, comparisons) = if cfg.pipeline.enabled {
            let depth = cfg.pipeline.depth_for(disk.model(), workers + 1);
            let mut writer = disk.create_write_behind::<R>(output, depth, pool.clone())?;
            let out = parallel_merge_segments::<R, _>(disk, &segments, workers, pool, |batch| {
                writer.push_all(batch)
            })?;
            writer.finish()?;
            (out.records, out.comparisons)
        } else {
            let mut writer = disk.create_writer_pooled::<R>(output, Some(pool.clone()))?;
            let out = parallel_merge_segments::<R, _>(disk, &segments, workers, pool, |batch| {
                writer.push_all(batch)
            })?;
            writer.finish()?;
            (out.records, out.comparisons)
        };
        let key_based = cfg.kernel.key_based::<R>();
        return Ok(MergeReport {
            records: produced,
            fan_in: group.len(),
            comparisons: if key_based { 0 } else { comparisons },
            key_ops: if key_based { comparisons } else { 0 },
            io: Default::default(),
        });
    }
    let mut readers = Vec::with_capacity(group.len());
    for r in group {
        let mut rd = disk.open_reader_pooled::<R>(&files[r.file], Some(pool.clone()))?;
        rd.seek(r.offset);
        readers.push(rd);
    }
    let mut views = Vec::with_capacity(group.len());
    for (rd, r) in readers.iter_mut().zip(group) {
        views.push(Bounded::new(rd, r.len));
    }
    let mut tree = LoserTree::new(views)?;
    let produced = if cfg.pipeline.enabled {
        let depth = cfg.pipeline.depth_for(disk.model(), group.len() + 1);
        let mut writer = disk.create_write_behind::<R>(output, depth, pool.clone())?;
        let n = tree.drain_to(|b| writer.push_all(b))?;
        writer.finish()?;
        n
    } else {
        let mut writer = disk.create_writer_pooled::<R>(output, Some(pool.clone()))?;
        let n = tree.drain_to(|b| writer.push_all(b))?;
        writer.finish()?;
        n
    };
    let comparisons = tree.comparisons();
    let key_based = cfg.kernel.key_based::<R>();
    Ok(MergeReport {
        records: produced,
        fan_in: group.len(),
        comparisons: if key_based { 0 } else { comparisons },
        key_ops: if key_based { comparisons } else { 0 },
        io: Default::default(),
    })
}

/// Single-pass multiway merge of complete sorted files into `output`.
/// This is PSRS step 5: each node merges the `p` partitions it received.
pub fn merge_sorted_files<R: Record>(
    disk: &Disk,
    inputs: &[String],
    output: &str,
) -> PdmResult<MergeReport> {
    merge_sorted_files_with::<R>(disk, inputs, output, &PipelineConfig::off())
}

/// [`merge_sorted_files`] with explicit pipeline knobs: when enabled, every
/// input is prefetched by a background reader and the output is written
/// behind, so the p-way merge computation overlaps all its transfers.
/// Selects are priced with the default kernel; use
/// [`merge_sorted_files_kernel`] to pin it.
pub fn merge_sorted_files_with<R: Record>(
    disk: &Disk,
    inputs: &[String],
    output: &str,
    pipeline: &PipelineConfig,
) -> PdmResult<MergeReport> {
    merge_sorted_files_kernel::<R>(disk, inputs, output, pipeline, SortKernel::default())
}

/// [`merge_sorted_files_with`] with an explicit kernel choice, which only
/// affects how the tournament selects are *billed* (`key_ops` under a
/// key-based kernel, `comparisons` otherwise) — the merge itself is
/// identical either way.
pub fn merge_sorted_files_kernel<R: Record>(
    disk: &Disk,
    inputs: &[String],
    output: &str,
    pipeline: &PipelineConfig,
    kernel: SortKernel,
) -> PdmResult<MergeReport> {
    let _span = obs::scoped("extsort.kway-merge");
    let io_before = disk.stats().snapshot();
    // One pool for the whole merge: readers and the writer recycle each
    // other's block buffers instead of allocating per file (and per block).
    let pool = BufferPool::default();
    let mut total = 0u64;
    for name in inputs {
        total += disk.len_records::<R>(name)?;
    }
    let workers = planned_workers::<R>(disk, pipeline, inputs.len(), total, kernel);
    let produced;
    let comparisons;
    if workers > 1 {
        let mut segments = Vec::with_capacity(inputs.len());
        for name in inputs {
            segments.push(MergeSegment::new(
                name.clone(),
                0,
                disk.len_records::<R>(name)?,
            ));
        }
        let out = if pipeline.enabled {
            let depth = pipeline.depth_for(disk.model(), workers + 1);
            let mut writer = disk.create_write_behind::<R>(output, depth, pool.clone())?;
            let out = parallel_merge_segments::<R, _>(disk, &segments, workers, &pool, |batch| {
                writer.push_all(batch)
            })?;
            writer.finish()?;
            out
        } else {
            let mut writer = disk.create_writer_pooled::<R>(output, Some(pool.clone()))?;
            let out = parallel_merge_segments::<R, _>(disk, &segments, workers, &pool, |batch| {
                writer.push_all(batch)
            })?;
            writer.finish()?;
            out
        };
        produced = out.records;
        comparisons = out.comparisons;
    } else if pipeline.enabled {
        let depth = pipeline.depth_for(disk.model(), inputs.len() + 1);
        let mut readers = Vec::with_capacity(inputs.len());
        for name in inputs {
            readers.push(disk.open_prefetch_reader::<R>(name, depth, pool.clone())?);
        }
        let mut writer = disk.create_write_behind::<R>(output, depth, pool.clone())?;
        let mut tree = LoserTree::new(readers)?;
        produced = tree.drain_to(|b| writer.push_all(b))?;
        comparisons = tree.comparisons();
        writer.finish()?;
    } else {
        let mut readers = Vec::with_capacity(inputs.len());
        for name in inputs {
            readers.push(disk.open_reader_pooled::<R>(name, Some(pool.clone()))?);
        }
        let mut writer = disk.create_writer_pooled::<R>(output, Some(pool.clone()))?;
        let mut tree = LoserTree::new(readers)?;
        produced = tree.drain_to(|b| writer.push_all(b))?;
        comparisons = tree.comparisons();
        writer.finish()?;
    }
    let key_based = kernel.key_based::<R>();
    Ok(MergeReport {
        records: produced,
        fan_in: inputs.len(),
        comparisons: if key_based { 0 } else { comparisons },
        key_ops: if key_based { comparisons } else { 0 },
        io: disk.stats().snapshot().delta(&io_before),
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
        let report =
            merge_sorted_files::<u32>(&disk, &["a".into(), "b".into(), "c".into()], "merged")
                .unwrap();
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
    fn merge_sorted_files_parallel_matches_sequential() {
        let disk = Disk::in_memory(16);
        let a: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..500).map(|i| i * 2 + 1).collect();
        disk.write_file("a", &a).unwrap();
        disk.write_file("b", &b).unwrap();
        merge_sorted_files::<u32>(&disk, &["a".into(), "b".into()], "seq").unwrap();
        let par = PipelineConfig::off().with_merge_workers(4);
        let report =
            merge_sorted_files_with::<u32>(&disk, &["a".into(), "b".into()], "par", &par).unwrap();
        assert_eq!(report.records, 1000);
        assert_eq!(
            disk.read_file::<u32>("par").unwrap(),
            disk.read_file::<u32>("seq").unwrap()
        );
    }

    #[test]
    fn balanced_parallel_merge_matches_sequential() {
        let data = random_data(3000, 9);
        let d1 = Disk::in_memory(64);
        let cfg = ExtSortConfig::new(160).with_tapes(8);
        check_balanced(&d1, &data, &cfg);
        let d2 = Disk::in_memory(64);
        let par = cfg.clone().with_merge_workers(4);
        check_balanced(&d2, &data, &par);
        assert_eq!(
            d1.read_file::<u32>("out").unwrap(),
            d2.read_file::<u32>("out").unwrap()
        );
    }

    #[test]
    fn merge_handles_empty_inputs() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("a", &[1, 5]).unwrap();
        disk.write_file::<u32>("b", &[]).unwrap();
        let report = merge_sorted_files::<u32>(&disk, &["a".into(), "b".into()], "m").unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(disk.read_file::<u32>("m").unwrap(), vec![1, 5]);
    }
}
