//! Two-phase external sort over a `D`-disk array (the PDM's Figure 1(a)).
//!
//! The `Sort(N)` bound has a `1/D` factor: with `D` independent disks and
//! striped layout, each *parallel* I/O moves `D` blocks. This module
//! realizes that on [`pdm::DiskArray`]: run formation reads the striped
//! input and writes striped runs; a single loser-tree pass merges them into
//! the striped output. Blocks alternate across the disks, so the per-disk
//! maximum (the PDM's parallel-I/O count, [`DiskArray::parallel_ios`])
//! approaches `total / D`.
//!
//! A single merge pass needs one buffered block per run per disk, so the
//! memory budget must cover `⌈N/M⌉ · D` blocks; the function asserts this
//! (multi-pass striped merging would follow the same pattern and is not
//! needed for the bound study).

use pdm::stripe::StripedReader;
use pdm::{DiskArray, PdmResult, Record};

use crate::kernel::{sort_chunk, SortKernel};
use crate::loser_tree::LoserTree;
use crate::report::SortReport;
use crate::stream::RecordStream;

impl<R: Record> RecordStream<R> for StripedReader<R> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        StripedReader::next_record(self)
    }
}

/// Sorts the striped logical file `input` into the striped logical file
/// `output` with one run-formation pass and one merge pass.
///
/// # Panics
/// Panics if the merge would need more than `mem_records` of block
/// buffers (use a larger memory budget or fewer, longer runs).
pub fn striped_two_phase_sort<R: Record>(
    arr: &DiskArray,
    input: &str,
    output: &str,
    job: &str,
    mem_records: usize,
) -> PdmResult<SortReport> {
    assert!(mem_records > 0, "memory budget must be positive");
    let io_before = arr.total_io();
    let mut report = SortReport::default();

    // Phase 1: run formation — memory loads, sorted, written striped.
    let mut reader = arr.striped_reader::<R>(input)?;
    let n = reader.len();
    report.records = n;
    let mut runs = 0usize;
    let mut chunk: Vec<R> = Vec::with_capacity(mem_records);
    loop {
        chunk.clear();
        while chunk.len() < mem_records {
            match reader.next_record()? {
                Some(x) => chunk.push(x),
                None => break,
            }
        }
        if chunk.is_empty() {
            break;
        }
        let kw = sort_chunk(&mut chunk, SortKernel::default());
        report.comparisons += kw.comparisons;
        report.key_ops += kw.key_ops;
        let mut w = arr.striped_writer::<R>(&format!("{job}.run{runs}"))?;
        w.push_all(&chunk)?;
        w.finish()?;
        runs += 1;
    }
    report.initial_runs = runs as u64;

    // Phase 2: one k-way merge pass over the striped runs.
    let records_per_block = arr.disk(0).block_bytes() / R::SIZE;
    let buffer_need = runs * arr.len() * records_per_block;
    assert!(
        runs <= 1 || buffer_need <= mem_records,
        "merge needs {buffer_need} records of block buffers but the budget is {mem_records}; \
         raise mem_records or reduce the run count"
    );
    if runs == 0 {
        arr.striped_writer::<R>(output)?.finish()?;
        report.io = arr.total_io().delta(&io_before);
        return Ok(report);
    }
    let sources = (0..runs)
        .map(|i| arr.striped_reader::<R>(&format!("{job}.run{i}")))
        .collect::<PdmResult<Vec<_>>>()?;
    let mut tree = LoserTree::new(sources)?;
    let mut out = arr.striped_writer::<R>(output)?;
    tree.drain_to(|b| out.push_all(b))?;
    if SortKernel::default().key_based::<R>() {
        report.key_ops += tree.comparisons();
    } else {
        report.comparisons += tree.comparisons();
    }
    report.merge_phases = 1;
    debug_assert_eq!(out.finish()?, n, "records lost in the striped merge");
    for i in 0..runs {
        arr.remove(&format!("{job}.run{i}"))?;
    }
    report.io = arr.total_io().delta(&io_before);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::fingerprint_slice;
    use pdm::DiskArray;
    use sim::rng::{Pcg64, Rng};

    fn write_input(arr: &DiskArray, data: &[u32]) {
        let mut w = arr.striped_writer::<u32>("input").unwrap();
        w.push_all(data).unwrap();
        w.finish().unwrap();
    }

    fn read_output(arr: &DiskArray) -> Vec<u32> {
        let mut r = arr.striped_reader::<u32>("output").unwrap();
        let mut out = Vec::new();
        while let Some(x) = r.next_record().unwrap() {
            out.push(x);
        }
        out
    }

    fn random_data(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = Pcg64::new(seed);
        (0..n).map(|_| rng.next_u32()).collect()
    }

    #[test]
    fn sorts_on_multiple_disks() {
        for d in [1usize, 2, 4] {
            let arr = DiskArray::in_memory(d, 64); // 16 records per block
            let data = random_data(4000, d as u64);
            write_input(&arr, &data);
            let report =
                striped_two_phase_sort::<u32>(&arr, "input", "output", "job", 1024).unwrap();
            assert_eq!(report.records, 4000);
            let out = read_output(&arr);
            assert!(out.windows(2).all(|w| w[0] <= w[1]), "D={d}");
            assert_eq!(fingerprint_slice(&out), fingerprint_slice(&data));
        }
    }

    #[test]
    fn parallel_ios_scale_with_d() {
        // The PDM promise: per-disk (parallel) I/O drops by ~D.
        let data = random_data(16384, 9);
        let mut per_disk = Vec::new();
        for d in [1usize, 2, 4] {
            let arr = DiskArray::in_memory(d, 64);
            write_input(&arr, &data);
            striped_two_phase_sort::<u32>(&arr, "input", "output", "job", 4096).unwrap();
            per_disk.push(arr.parallel_ios() as f64);
        }
        let r12 = per_disk[0] / per_disk[1];
        let r14 = per_disk[0] / per_disk[2];
        assert!((1.7..2.3).contains(&r12), "D=2 speedup {r12:.2}");
        assert!((3.2..4.8).contains(&r14), "D=4 speedup {r14:.2}");
    }

    #[test]
    fn empty_and_single_run_inputs() {
        let arr = DiskArray::in_memory(2, 64);
        write_input(&arr, &[]);
        let report = striped_two_phase_sort::<u32>(&arr, "input", "output", "j", 128).unwrap();
        assert_eq!(report.records, 0);
        assert!(read_output(&arr).is_empty());

        let arr2 = DiskArray::in_memory(2, 64);
        let data = random_data(100, 1);
        write_input(&arr2, &data);
        let report = striped_two_phase_sort::<u32>(&arr2, "input", "output", "j", 128).unwrap();
        assert_eq!(report.initial_runs, 1);
        let out = read_output(&arr2);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "raise mem_records")]
    fn merge_buffer_budget_enforced() {
        let arr = DiskArray::in_memory(4, 64);
        write_input(&arr, &random_data(10_000, 2));
        // 100-record memory → 100 runs → buffers cannot fit.
        let _ = striped_two_phase_sort::<u32>(&arr, "input", "output", "j", 100);
    }
}
