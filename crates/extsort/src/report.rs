//! Work reports returned by the sorters.
//!
//! The sorters do not know about clocks; they return *what happened* —
//! records moved, runs formed, passes made, comparisons performed, blocks
//! transferred — and the cluster layer converts that into virtual time with
//! its cost model. This is also what lets the harness compare measured I/O
//! counts against the PDM `Sort(N)` bound.

use pdm::IoSnapshot;

use crate::kernel::KernelWork;

/// What a full external sort did.
#[derive(Debug, Clone, Default)]
pub struct SortReport {
    /// Records sorted.
    pub records: u64,
    /// Initial sorted runs produced by run formation.
    pub initial_runs: u64,
    /// Merge phases performed after run formation (polyphase phases or
    /// balanced-merge passes).
    pub merge_phases: u32,
    /// Comparisons performed (exact for merges, `n·⌈log₂ n⌉` estimate for
    /// the in-core chunk sorts). With the radix kernel this counts only the
    /// full-record comparisons that remain (equal-key cleanup, small-chunk
    /// insertion sorts).
    pub comparisons: u64,
    /// Key operations performed by the radix kernel (one per record per
    /// radix pass) and by key-cached tournament selects. Zero on the
    /// comparison kernel.
    pub key_ops: u64,
    /// Block-I/O delta attributable to this sort.
    pub io: IoSnapshot,
}

/// What a single multiway merge pass did.
#[derive(Debug, Clone, Default)]
pub struct MergeReport {
    /// Records merged to the output.
    pub records: u64,
    /// Number of input files.
    pub fan_in: usize,
    /// Comparisons performed (exact). Tournament selects resolved through
    /// cached keys are counted here on the comparison kernel, and in
    /// `key_ops` on the radix kernel.
    pub comparisons: u64,
    /// Key-cached tournament selects (radix kernel only; zero otherwise).
    pub key_ops: u64,
    /// Block-I/O delta attributable to this merge.
    pub io: IoSnapshot,
}

impl SortReport {
    /// Merges another report into this one (e.g. run formation + merging).
    pub fn absorb(&mut self, other: &SortReport) {
        self.records = self.records.max(other.records);
        self.initial_runs += other.initial_runs;
        self.merge_phases += other.merge_phases;
        self.comparisons += other.comparisons;
        self.key_ops += other.key_ops;
        self.io = self.io.plus(&other.io);
    }

    /// Adds in-core work (a chunk sort, or merge selects billed by
    /// [`crate::SortKernel::bill_selects`]) to the counters.
    pub(crate) fn add_work(&mut self, work: KernelWork) {
        self.comparisons += work.comparisons;
        self.key_ops += work.key_ops;
    }
}

/// Comparison-count estimate for an in-core sort of `n` records:
/// `n · ⌈log₂ n⌉` (the classical bound; `sort_unstable` tracks it closely).
pub fn incore_sort_comparisons(n: u64) -> u64 {
    if n < 2 {
        return 0;
    }
    n * (64 - (n - 1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incore_estimate() {
        assert_eq!(incore_sort_comparisons(0), 0);
        assert_eq!(incore_sort_comparisons(1), 0);
        assert_eq!(incore_sort_comparisons(2), 2); // log2(2) = 1
        assert_eq!(incore_sort_comparisons(1024), 1024 * 10);
        assert_eq!(incore_sort_comparisons(1025), 1025 * 11);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = SortReport {
            records: 100,
            initial_runs: 4,
            merge_phases: 1,
            comparisons: 500,
            key_ops: 40,
            io: IoSnapshot {
                blocks_read: 10,
                ..Default::default()
            },
        };
        let b = SortReport {
            records: 100,
            initial_runs: 0,
            merge_phases: 2,
            comparisons: 700,
            key_ops: 60,
            io: IoSnapshot {
                blocks_read: 5,
                blocks_written: 3,
                ..Default::default()
            },
        };
        a.absorb(&b);
        assert_eq!(a.records, 100);
        assert_eq!(a.initial_runs, 4);
        assert_eq!(a.merge_phases, 3);
        assert_eq!(a.comparisons, 1200);
        assert_eq!(a.key_ops, 100);
        assert_eq!(a.io.blocks_read, 15);
        assert_eq!(a.io.blocks_written, 3);
    }
}
