//! PDM distribution sort (the paper's §2 counterpart to merge-based
//! sorting).
//!
//! "Distribution sort is a recursive algorithm in which the inputs are
//! partitioned by a set of S−1 splitters into S buckets. The individual
//! buckets are sorted recursively. […] If each level of recursion uses
//! Θ(n/D) I/Os, distribution sort performs with I/O complexity
//! O((n/D)·log_m n), which is optimal."
//!
//! This implementation uses randomized splitter selection (the paper quotes
//! Vitter on the difficulty of *deterministically* finding Θ(m) splitters
//! with balanced buckets — random oversampling is the practical answer, cf.
//! DeWitt et al.), streams each level in `Θ(n/B)` block I/Os with one
//! buffered block per bucket, and falls back to an in-core sort as soon as
//! a bucket fits in memory. Duplicate-degenerate buckets (all keys equal)
//! are detected and emitted without further recursion.

use pdm::{Disk, PdmResult, Record};
use sim::rng::{Pcg64, Rng};

use crate::config::ExtSortConfig;
use crate::kernel::sort_chunk;
use crate::report::{incore_sort_comparisons, SortReport};
use crate::verify::scan_blocks;

/// How many sample records per splitter the randomized selection draws.
const OVERSAMPLE: u64 = 8;

/// Sorts `input` into `output` with the recursive distribution sort.
///
/// `cfg.tapes` plays the role of the fan-out bound: at most `tapes − 1`
/// buckets per level (mirroring polyphase's `tapes − 1` fan-in), each
/// buffered by one block, so the memory discipline matches the merge sorts.
pub fn distribution_sort<R: Record>(
    disk: &Disk,
    input: &str,
    output: &str,
    job: &str,
    cfg: &ExtSortConfig,
) -> PdmResult<SortReport> {
    let records_per_block = disk.block_bytes() / R::SIZE;
    cfg.validate(records_per_block)?;
    let io_before = disk.stats().snapshot();
    let mut report = SortReport::default();
    let mut rng = Pcg64::with_stream(0xD157, 0x50F7);

    let mut writer = disk.create_writer::<R>(output)?;
    let n = disk.len_records::<R>(input)?;
    report.records = n;
    sort_range(
        disk,
        input.to_string(),
        job,
        0,
        cfg,
        &mut writer,
        &mut report,
        &mut rng,
    )?;
    let written = writer.finish()?;
    debug_assert_eq!(written, n, "distribution sort lost records");
    report.io = disk.stats().snapshot().delta(&io_before);
    Ok(report)
}

/// Recursively sorts the file `name` (consumed: removed when done unless it
/// is the original input at depth 0 — the caller's input is preserved)
/// appending the sorted records to `out`.
#[allow(clippy::too_many_arguments)]
fn sort_range<R: Record>(
    disk: &Disk,
    name: String,
    job: &str,
    depth: u32,
    cfg: &ExtSortConfig,
    out: &mut pdm::BlockWriter<R>,
    report: &mut SortReport,
    rng: &mut Pcg64,
) -> PdmResult<()> {
    assert!(depth < 64, "distribution sort failed to shrink buckets");
    let len = disk.len_records::<R>(&name)?;

    // Base case: one memory load — sort in-core and emit.
    if len as usize <= cfg.mem_records {
        let mut data = disk.read_file::<R>(&name)?;
        let kw = sort_chunk(&mut data, cfg.kernel);
        report.comparisons += kw.comparisons;
        report.key_ops += kw.key_ops;
        out.push_all(&data)?;
        if depth > 0 {
            disk.remove(&name)?;
        }
        report.initial_runs += 1;
        return Ok(());
    }

    // Randomized splitter selection: oversample, sort, pick evenly.
    let fan_out = cfg.tapes - 1;
    let mut reader = disk.open_reader::<R>(&name)?;
    let sample_size = (fan_out as u64 * OVERSAMPLE).min(len);
    let mut sample = Vec::with_capacity(sample_size as usize);
    for _ in 0..sample_size {
        sample.push(reader.read_at(rng.below(len))?);
    }
    drop(reader);
    sample.sort_unstable();
    report.comparisons += incore_sort_comparisons(sample.len() as u64);
    let mut splitters: Vec<R> = (1..fan_out as u64)
        .map(|q| sample[(q * sample.len() as u64 / fan_out as u64) as usize])
        .collect();
    splitters.dedup();

    // Classify; if one bucket swallowed everything (possible when the
    // sample missed the key diversity — e.g. a lone splitter equal to the
    // maximum), retry with a guaranteed-progress min-splitter, or emit
    // directly when the bucket is genuinely constant.
    let mut sizes = classify::<R>(disk, &name, &splitters, job, depth, report)?;
    if sizes.len() > 1 && sizes.contains(&len) || splitters.is_empty() {
        for b in 0..sizes.len() {
            disk.remove(&format!("{job}.d{depth}.{b}"))?;
        }
        let (min, max) = file_min_max::<R>(disk, &name)?;
        if min == max {
            // All keys equal: already sorted, copy through.
            disk.open_reader::<R>(&name)?.copy_to(out)?;
            if depth > 0 {
                disk.remove(&name)?;
            }
            return Ok(());
        }
        // Splitting at the minimum peels off its duplicates: both buckets
        // are strictly smaller than the input, so recursion terminates.
        splitters = vec![min];
        sizes = classify::<R>(disk, &name, &splitters, job, depth, report)?;
    }
    if depth > 0 {
        disk.remove(&name)?;
    }
    report.merge_phases += 1; // a distribution level, in report terms

    // Recurse in key order.
    for (b, &size) in sizes.iter().enumerate() {
        let child = format!("{job}.d{depth}.{b}");
        if size == 0 {
            disk.remove(&child)?;
            continue;
        }
        sort_range(disk, child, job, depth + 1, cfg, out, report, rng)?;
    }
    Ok(())
}

/// One streaming pass: splits `name` into `splitters.len() + 1` bucket
/// files named `"{job}.d{depth}.{b}"`; returns the bucket sizes.
fn classify<R: Record>(
    disk: &Disk,
    name: &str,
    splitters: &[R],
    job: &str,
    depth: u32,
    report: &mut SortReport,
) -> PdmResult<Vec<u64>> {
    let buckets = splitters.len() + 1;
    let mut writers = (0..buckets)
        .map(|b| disk.create_writer::<R>(&format!("{job}.d{depth}.{b}")))
        .collect::<PdmResult<Vec<_>>>()?;
    let mut sizes = vec![0u64; buckets];
    let mut reader = disk.open_reader::<R>(name)?;
    let mut n = 0u64;
    while let Some(x) = reader.next_record()? {
        let b = splitters.partition_point(|s| *s < x);
        writers[b].push(x)?;
        sizes[b] += 1;
        n += 1;
    }
    report.comparisons += n * (usize::BITS - buckets.leading_zeros()) as u64;
    for w in writers {
        w.finish()?;
    }
    Ok(sizes)
}

/// Streams a file once for its extrema (used only on degenerate buckets).
fn file_min_max<R: Record>(disk: &Disk, name: &str) -> PdmResult<(R, R)> {
    let mut reader = disk.open_reader::<R>(name)?;
    let mut extrema: Option<(R, R)> = None;
    scan_blocks(&mut reader, |view| {
        for &x in view {
            let (min, max) = extrema.get_or_insert((x, x));
            // On ties both keep the first record seen.
            *min = (*min).min(x);
            *max = x.max(*max);
        }
        true
    })?;
    Ok(extrema.expect("min_max of empty file is unreachable: len > mem >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{fingerprint_file, fingerprint_slice, is_sorted_file};
    use pdm::Disk;
    use sim::rng::{Pcg64, Rng};

    fn check(disk: &Disk, data: &[u32], cfg: &ExtSortConfig) -> SortReport {
        disk.write_file("in", data).unwrap();
        let report = distribution_sort::<u32>(disk, "in", "out", "ds", cfg).unwrap();
        assert!(is_sorted_file::<u32>(disk, "out").unwrap());
        assert_eq!(
            fingerprint_file::<u32>(disk, "out").unwrap(),
            fingerprint_slice(data)
        );
        assert_eq!(report.records, data.len() as u64);
        report
    }

    fn random_data(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = Pcg64::new(seed);
        (0..n).map(|_| rng.next_u32()).collect()
    }

    #[test]
    fn sorts_random_data() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        let report = check(&disk, &random_data(3000, 1), &cfg);
        assert!(report.merge_phases >= 2, "should need recursion levels");
    }

    #[test]
    fn sorts_in_core_when_small() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        let report = check(&disk, &random_data(50, 2), &cfg);
        assert_eq!(report.merge_phases, 0);
        assert_eq!(report.initial_runs, 1);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        check(&disk, &[], &cfg);
        let disk2 = Disk::in_memory(16);
        check(&disk2, &[7], &cfg);
    }

    #[test]
    fn all_duplicates_terminate() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        check(&disk, &vec![42u32; 2000], &cfg);
    }

    #[test]
    fn few_distinct_keys_terminate() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        let data: Vec<u32> = (0..3000).map(|i| i % 3).collect();
        check(&disk, &data, &cfg);
    }

    #[test]
    fn sorted_and_reverse_inputs() {
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        let disk = Disk::in_memory(16);
        check(&disk, &(0..2000).collect::<Vec<u32>>(), &cfg);
        let disk2 = Disk::in_memory(16);
        check(&disk2, &(0..2000).rev().collect::<Vec<u32>>(), &cfg);
    }

    #[test]
    fn io_within_constant_of_bound() {
        let disk = Disk::in_memory(64); // 16 records/block
        let cfg = ExtSortConfig::new(256).with_tapes(8);
        let data = random_data(16384, 3);
        let report = check(&disk, &data, &cfg);
        // Each level reads + writes everything once; the sampling adds a
        // few random reads. Levels ≈ log_7(16384/256) = ~2.1.
        let blocks_per_pass = 2 * (16384 / 16);
        assert!(
            report.io.total_blocks() < 5 * blocks_per_pass as u64,
            "I/O blew past the distribution bound: {} blocks",
            report.io.total_blocks()
        );
    }

    #[test]
    fn cleans_up_bucket_files() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        check(&disk, &random_data(2000, 4), &cfg);
        for d in 0..8 {
            for b in 0..4 {
                assert!(
                    !disk.exists(&format!("ds.d{d}.{b}")),
                    "leaked bucket ds.d{d}.{b}"
                );
            }
        }
    }

    #[test]
    fn input_file_preserved() {
        let disk = Disk::in_memory(16);
        let cfg = ExtSortConfig::new(64).with_tapes(4);
        let data = random_data(1000, 5);
        check(&disk, &data, &cfg);
        assert_eq!(disk.read_file::<u32>("in").unwrap(), data);
    }
}
