//! External-sort configuration.

use pdm::{PdmError, PdmResult};

use crate::kernel::SortKernel;

/// How initial sorted runs are formed from the unsorted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunFormation {
    /// Read one memory load (`M` records), sort it in-core, write it out.
    /// Produces `⌈N/M⌉` runs of length `M`.
    ChunkSort,
    /// Replacement selection with a heap of `M` records. Produces runs of
    /// expected length `2M` on random input (fewer, longer runs → fewer
    /// merge passes), and a *single* run on already-sorted input.
    ReplacementSelection,
}

/// Pipelined-execution knobs: whether the cost model overlaps I/O with
/// computation, and how wide the in-core sort pool is.
///
/// The pipelined path is *observationally identical* to the sequential one —
/// byte-identical outputs and identical metered block-I/O — so the
/// sequential path (`PipelineConfig::off()`, the default) remains the
/// reference oracle the differential tests compare against. Every block
/// transfer runs on the calling thread either way; only the sort workers
/// and the merge-window helpers are extra threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Overlap block I/O with computation in the cost model, and sort run
    /// formation's chunks on `workers` threads. A sort or merge run with it
    /// on is charged `max(cpu, io)` instead of `cpu + io`; the transfers
    /// themselves still run on the calling thread.
    pub enabled: bool,
    /// Worker threads for in-core chunk sorting during run formation, and
    /// for merging: with two or more, every k-way merge of records whose
    /// key is a total order splits its in-memory windows across this many
    /// threads (`crate::window`). Ignored when `enabled` is false; clamped
    /// to ≥ 1, and [`ExtSortConfig::validate`] rejects more than
    /// [`MAX_WORKERS`]. With one worker or the pipeline off, such a merge
    /// of 8 or more inputs still runs in windows, on the calling thread; at
    /// that fan-in every window is sorted by the radix kernel unless it is
    /// streaky, so only merges of fewer inputs drain one loser tree.
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::off()
    }
}

impl PipelineConfig {
    /// Strictly sequential execution — the reference oracle.
    pub fn off() -> Self {
        PipelineConfig {
            enabled: false,
            workers: 1,
        }
    }

    /// Pipelined execution with `workers` sort threads.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig {
            enabled: true,
            workers: workers.max(1),
        }
    }

    /// Effective sort-worker count (≥ 1).
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }
}

/// The most pipeline workers a sort accepts. Run formation starts one
/// thread per worker, so a larger count is refused before any tape or
/// thread exists.
pub const MAX_WORKERS: usize = 256;

/// Parameters for the sequential external sorts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtSortConfig {
    /// Internal memory budget `M`, in records. Run formation sorts chunks of
    /// this size; merging keeps one block per tape plus one output block.
    /// With pipelining enabled, run formation holds at most
    /// `2 × workers + 1` chunks of this size at once: being read, queued,
    /// being sorted, or sorted and waiting in the reorder buffer behind an
    /// earlier chunk that is still being sorted.
    pub mem_records: usize,
    /// Total number of tape files available to polyphase merge sort (the
    /// paper's "2m files for a (2m−1)-way merge"; Table 3 uses 15
    /// intermediate files + the output). Minimum 3.
    pub tapes: usize,
    /// Initial run formation strategy.
    pub run_formation: RunFormation,
    /// In-core sorting kernel (radix fast path by default; the comparison
    /// kernel is the byte-identical reference oracle).
    pub kernel: SortKernel,
    /// Pipelined-execution knobs (off by default: sequential oracle).
    pub pipeline: PipelineConfig,
}

impl ExtSortConfig {
    /// A reasonable default: the paper's 16-file setup (15 intermediate
    /// files, as in Table 3) with chunk-sort run formation, sequential.
    pub fn new(mem_records: usize) -> Self {
        ExtSortConfig {
            mem_records,
            tapes: 16,
            run_formation: RunFormation::ChunkSort,
            kernel: SortKernel::default(),
            pipeline: PipelineConfig::off(),
        }
    }

    /// Sets the tape count (builder style).
    #[must_use]
    pub fn with_tapes(mut self, tapes: usize) -> Self {
        self.tapes = tapes;
        self
    }

    /// Sets the run-formation strategy (builder style).
    #[must_use]
    pub fn with_run_formation(mut self, rf: RunFormation) -> Self {
        self.run_formation = rf;
        self
    }

    /// Sets the in-core sorting kernel (builder style).
    #[must_use]
    pub fn with_kernel(mut self, kernel: SortKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the pipeline knobs (builder style).
    #[must_use]
    pub fn with_pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Validates against a block size (records per block): memory must hold
    /// one block per tape so the merge can stream, and the pipeline may ask
    /// for at most [`MAX_WORKERS`] workers.
    ///
    /// Fails with [`PdmError::InvalidConfig`] if the configuration cannot
    /// support a streaming merge.
    pub fn validate(&self, records_per_block: usize) -> PdmResult<()> {
        if records_per_block == 0 {
            return Err(PdmError::InvalidConfig(
                "block size smaller than record size".to_string(),
            ));
        }
        if self.mem_records == 0 {
            return Err(PdmError::InvalidConfig(
                "memory budget must be positive".to_string(),
            ));
        }
        if self.tapes < 3 {
            return Err(PdmError::InvalidConfig(format!(
                "polyphase needs at least 3 tapes, got {}",
                self.tapes
            )));
        }
        if self.pipeline.workers > MAX_WORKERS {
            return Err(PdmError::InvalidConfig(format!(
                "{} pipeline workers exceed the cap of {MAX_WORKERS}",
                self.pipeline.workers
            )));
        }
        if self.mem_records < self.tapes * records_per_block {
            return Err(PdmError::InvalidConfig(format!(
                "memory budget {} records cannot buffer one {}-record block per tape ({} tapes)",
                self.mem_records, records_per_block, self.tapes
            )));
        }
        Ok(())
    }

    /// Merge order (fan-in): tapes − 1.
    pub fn merge_order(&self) -> usize {
        self.tapes - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = ExtSortConfig::new(1 << 20);
        assert_eq!(c.tapes, 16);
        assert_eq!(c.merge_order(), 15);
        assert_eq!(c.run_formation, RunFormation::ChunkSort);
        assert_eq!(
            c.kernel,
            SortKernel::Radix,
            "radix is the default fast path"
        );
        assert!(!c.pipeline.enabled, "sequential oracle by default");
    }

    #[test]
    fn builders() {
        let c = ExtSortConfig::new(4096)
            .with_tapes(4)
            .with_run_formation(RunFormation::ReplacementSelection)
            .with_kernel(SortKernel::Comparison)
            .with_pipeline(PipelineConfig::with_workers(4));
        assert_eq!(c.tapes, 4);
        assert_eq!(c.run_formation, RunFormation::ReplacementSelection);
        assert_eq!(c.kernel, SortKernel::Comparison);
        assert!(c.pipeline.enabled);
        assert_eq!(c.pipeline.effective_workers(), 4);
    }

    #[test]
    fn pipeline_clamps_degenerate_knobs() {
        let p = PipelineConfig::with_workers(0);
        assert_eq!(p.effective_workers(), 1);
    }

    #[test]
    fn validate_accepts_streaming_config() {
        ExtSortConfig::new(64).with_tapes(4).validate(16).unwrap();
    }

    #[test]
    fn too_few_tapes() {
        let err = ExtSortConfig::new(1024)
            .with_tapes(2)
            .validate(8)
            .unwrap_err();
        assert!(err.to_string().contains("at least 3 tapes"), "{err}");
    }

    #[test]
    fn memory_too_small_for_tapes() {
        let err = ExtSortConfig::new(32)
            .with_tapes(16)
            .validate(8)
            .unwrap_err();
        assert!(err.to_string().contains("cannot buffer"), "{err}");
    }

    #[test]
    fn worker_count_above_the_cap_rejected() {
        let cfg = |w| ExtSortConfig::new(64).with_pipeline(PipelineConfig::with_workers(w));
        cfg(MAX_WORKERS).validate(4).unwrap();
        let err = cfg(MAX_WORKERS + 1).validate(4).unwrap_err();
        assert!(matches!(err, PdmError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("257 pipeline workers"), "{err}");
    }

    #[test]
    fn zero_block_rejected() {
        let err = ExtSortConfig::new(32).validate(0).unwrap_err();
        assert!(matches!(err, PdmError::InvalidConfig(_)));
    }
}
