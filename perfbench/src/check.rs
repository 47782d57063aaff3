//! Output checks. Every repetition runs them; a failed check is counted
//! against the run instead of aborting it.

use extsort::{fingerprint_file, is_sorted_file, Fingerprint};
use pdm::{Disk, PdmResult};

/// What the checks need to know about one record file.
#[derive(Debug, Clone, Copy)]
pub struct Output {
    /// Every record was ≥ its predecessor.
    pub sorted: bool,
    /// Order-independent multiset fingerprint (includes the record count).
    pub fp: Fingerprint,
    /// First record, if any.
    pub first: Option<u32>,
    /// Last record, if any.
    pub last: Option<u32>,
}

/// Reads what the checks need from `name`, as the trial runner's verify
/// step does.
pub fn inspect(disk: &Disk, name: &str) -> PdmResult<Output> {
    let sorted = is_sorted_file::<u32>(disk, name)?;
    let fp = fingerprint_file::<u32>(disk, name)?;
    let mut rd = disk.open_reader::<u32>(name)?;
    let (first, last) = if rd.is_empty() {
        (None, None)
    } else {
        (Some(rd.read_at(0)?), Some(rd.read_at(rd.len() - 1)?))
    };
    Ok(Output {
        sorted,
        fp,
        first,
        last,
    })
}

/// A single node's output must be sorted and a permutation of its input.
pub fn check_single(out: &Output, input: &Fingerprint) -> Result<(), String> {
    if !out.sorted {
        return Err("output is not sorted".into());
    }
    if out.fp != *input {
        return Err(format!(
            "output is not a permutation of the input ({} vs {} records)",
            out.fp.count, input.count
        ));
    }
    Ok(())
}

/// A cluster's outputs must each be sorted, hold exactly `n` records
/// together, form a permutation of the input, and ascend across node
/// boundaries.
pub fn check_cluster(outs: &[Output], input: &Fingerprint, n: u64) -> Result<(), String> {
    if let Some(rank) = outs.iter().position(|s| !s.sorted) {
        return Err(format!("node {rank} output is not sorted"));
    }
    let union = outs
        .iter()
        .fold(Fingerprint::default(), |acc, s| acc.combine(&s.fp));
    if union.count != n {
        return Err(format!(
            "outputs hold {} records, expected {n}",
            union.count
        ));
    }
    if union != *input {
        return Err("outputs are not a permutation of the input".into());
    }
    let mut prev: Option<(usize, u32)> = None;
    for (rank, s) in outs.iter().enumerate() {
        if let (Some((prev_rank, last)), Some(first)) = (prev, s.first) {
            if last > first {
                return Err(format!(
                    "boundary violation between node {prev_rank} and node {rank}: {last} > {first}"
                ));
            }
        }
        if let Some(last) = s.last {
            prev = Some((rank, last));
        }
    }
    Ok(())
}

/// Attempted and failed repetitions of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Repetitions run (each checked).
    pub attempted: u64,
    /// Repetitions that errored, failed a check or drifted.
    pub failed: u64,
}

impl Tally {
    /// Counts one repetition, reporting a failure on stderr.
    pub fn record(&mut self, outcome: &Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: repetition {} failed: {e}", self.attempted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extsort::fingerprint_slice;

    fn written(disk: &Disk, name: &str, data: &[u32]) -> Output {
        if disk.exists(name) {
            disk.remove(name).unwrap();
        }
        disk.write_file::<u32>(name, data).unwrap();
        inspect(disk, name).unwrap()
    }

    #[test]
    fn inspect_reads_order_fingerprint_and_ends() {
        let disk = Disk::in_memory(256);
        let data: Vec<u32> = (0..100_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let s = written(&disk, "x", &data);
        assert!(!s.sorted);
        assert_eq!(s.fp, fingerprint_slice(&data));
        assert_eq!(
            (s.first, s.last),
            (data.first().copied(), data.last().copied())
        );
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert!(written(&disk, "x", &sorted).sorted);
        let empty = written(&disk, "e", &[]);
        assert!(empty.sorted && empty.first.is_none() && empty.fp.count == 0);
    }

    #[test]
    fn corrupted_single_outputs_count_as_failed() {
        let disk = Disk::in_memory(256);
        let input: Vec<u32> = (0..50_000u32).map(|i| i.wrapping_mul(40_503)).collect();
        let fp = fingerprint_slice(&input);
        let mut good = input.clone();
        good.sort_unstable();
        let mut tally = Tally::default();
        tally.record(&check_single(&written(&disk, "out", &good), &fp));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        // Two records swapped: same multiset, wrong order.
        let mut swapped = good.clone();
        swapped.swap(10, 20_000);
        tally.record(&check_single(&written(&disk, "out", &swapped), &fp));
        // One record replaced by its neighbour: still sorted, wrong multiset.
        let mut replaced = good.clone();
        replaced[30_000] = replaced[29_999];
        tally.record(&check_single(&written(&disk, "out", &replaced), &fp));
        // One record lost.
        tally.record(&check_single(&written(&disk, "out", &good[1..]), &fp));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn cluster_checks_catch_boundaries_and_counts() {
        let disk = Disk::in_memory(256);
        let mut all: Vec<u32> = (0..40_000u32).map(|i| i.wrapping_mul(97_531)).collect();
        let fp = fingerprint_slice(&all);
        all.sort_unstable();
        let parts: Vec<&[u32]> = all.chunks(10_000).collect();
        let outputs = |order: &[usize]| -> Vec<Output> {
            order
                .iter()
                .enumerate()
                .map(|(rank, &i)| written(&disk, &format!("n{rank}"), parts[i]))
                .collect()
        };
        assert!(check_cluster(&outputs(&[0, 1, 2, 3]), &fp, 40_000).is_ok());
        let swapped = check_cluster(&outputs(&[0, 2, 1, 3]), &fp, 40_000).unwrap_err();
        assert!(swapped.contains("boundary"), "{swapped}");
        let miscounted = check_cluster(&outputs(&[0, 1, 2, 3]), &fp, 40_001).unwrap_err();
        assert!(miscounted.contains("expected 40001"), "{miscounted}");
    }
}
