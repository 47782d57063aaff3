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

/// Pipelined-execution knobs: whether the sorters overlap I/O with
/// computation, and how wide the in-core sort pool is.
///
/// The pipelined path is *observationally identical* to the sequential one —
/// byte-identical outputs and identical metered block-I/O — so the
/// sequential path (`PipelineConfig::off()`, the default) remains the
/// reference oracle the differential tests compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Overlap block I/O with computation (prefetching readers, write-behind
    /// writers, parallel chunk sorting).
    pub enabled: bool,
    /// Worker threads for in-core chunk sorting during run formation, and
    /// for merging: with two or more, every k-way merge of records whose
    /// key is a total order splits its in-memory windows across this many
    /// threads (`crate::window`). Ignored when `enabled` is false; clamped
    /// to ≥ 1. With one worker or the pipeline off, such a merge of 8 or
    /// more inputs still runs in windows, on the calling thread; at that
    /// fan-in every window is sorted by the radix kernel unless it is
    /// streaky, so only merges of fewer inputs drain one loser tree.
    pub workers: usize,
    /// Blocks each pipelined reader/writer keeps in flight (queue depth).
    /// Clamped to ≥ 1; the default is double buffering.
    pub prefetch_blocks: usize,
    /// Worker threads for range-partitioned parallel merging. `1` (the
    /// default) keeps every merge on the sequential loser tree; larger
    /// values split each merge into disjoint key ranges. Works with or
    /// without `enabled` (it parallelizes CPU, not I/O). Clamped to ≥ 1.
    pub merge_workers: usize,
    /// Whether `merge_workers` was set explicitly (an order) rather than as
    /// an advisory default. The merge planner honours explicit requests
    /// unconditionally; advisory ones are a ceiling — the planner prices
    /// every candidate with the device's contention model and picks the
    /// cheapest (possibly the sequential merge).
    pub merge_workers_explicit: bool,
    /// Device-adaptive mode: secondary knobs the user did not pin (prefetch
    /// depth, for now) are derived from the disk model instead of their
    /// defaults. Set via [`PipelineConfig::adaptive`].
    pub adaptive: bool,
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
            prefetch_blocks: pdm::DEFAULT_PIPELINE_DEPTH,
            merge_workers: 1,
            merge_workers_explicit: false,
            adaptive: false,
        }
    }

    /// Pipelined execution with `workers` sort threads and double-buffered
    /// I/O queues.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig {
            enabled: true,
            workers: workers.max(1),
            prefetch_blocks: pdm::DEFAULT_PIPELINE_DEPTH,
            merge_workers: 1,
            merge_workers_explicit: false,
            adaptive: false,
        }
    }

    /// Fully device-adaptive execution: `workers` sort threads, merge
    /// workers advisory up to the cap (the planner prices candidates per
    /// device and may fall back to sequential), prefetch depth derived from
    /// the device's queue depth. Every knob remains overridable with the
    /// explicit builders.
    pub fn adaptive(workers: usize) -> Self {
        let mut p = PipelineConfig::with_workers(workers)
            .with_advisory_merge_workers(crate::parallel_merge::MAX_MERGE_WORKERS);
        p.adaptive = true;
        p
    }

    /// Effective I/O queue depth for a device shared by `streams` request
    /// streams: the explicit knob, unless this config is adaptive — then
    /// the device model decides ([`crate::planner::planned_depth`]).
    pub fn depth_for(&self, model: &pdm::DiskModel, streams: usize) -> usize {
        if self.adaptive {
            crate::planner::planned_depth(model, streams)
        } else {
            self.depth()
        }
    }

    /// Whether a merge section run by `merge_workers` workers is charged
    /// `max(cpu, io)` instead of `cpu + io`: the pipeline overlaps the
    /// transfers with the merge, and parallel workers overlap tree selects
    /// with the calling thread's I/O.
    pub fn overlapped(&self, merge_workers: usize) -> bool {
        self.enabled || merge_workers > 1
    }

    /// Sets the I/O queue depth (builder style; clamped to ≥ 1).
    #[must_use]
    pub fn with_prefetch_blocks(mut self, depth: usize) -> Self {
        self.prefetch_blocks = depth.max(1);
        self
    }

    /// Sets the parallel-merge worker count explicitly (builder style;
    /// clamped to ≥ 1). The planner honours the count even where its device
    /// model predicts a loss.
    #[must_use]
    pub fn with_merge_workers(mut self, workers: usize) -> Self {
        self.merge_workers = workers.max(1);
        self.merge_workers_explicit = true;
        self
    }

    /// Sets the parallel-merge worker count as an *advisory* target
    /// (builder style; clamped to ≥ 1): the planner may fall back to the
    /// sequential merge when the device model says splitter probes would
    /// cost more than the parallelism saves.
    #[must_use]
    pub fn with_advisory_merge_workers(mut self, workers: usize) -> Self {
        self.merge_workers = workers.max(1);
        self.merge_workers_explicit = false;
        self
    }

    /// Effective sort-worker count (≥ 1).
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Effective merge-worker count (≥ 1).
    pub fn effective_merge_workers(&self) -> usize {
        self.merge_workers.max(1)
    }

    /// Effective I/O queue depth (≥ 1).
    pub fn depth(&self) -> usize {
        self.prefetch_blocks.max(1)
    }
}

/// Parameters for the sequential external sorts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtSortConfig {
    /// Internal memory budget `M`, in records. Run formation sorts chunks of
    /// this size; merging keeps one block per tape plus one output block.
    /// With pipelining enabled, run formation holds up to
    /// `workers + prefetch_blocks + 1` chunks of this size in flight.
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

    /// Sets the parallel-merge worker count (builder style, forwarded to the
    /// pipeline knobs; clamped to ≥ 1).
    #[must_use]
    pub fn with_merge_workers(mut self, workers: usize) -> Self {
        self.pipeline = self.pipeline.with_merge_workers(workers);
        self
    }

    /// Validates against a block size (records per block): memory must hold
    /// one block per tape so the merge can stream.
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
    fn merge_worker_builders() {
        let c = ExtSortConfig::new(4096).with_merge_workers(4);
        assert!(!c.pipeline.enabled, "merge workers do not imply pipelining");
        assert_eq!(c.pipeline.effective_merge_workers(), 4);
        let p = PipelineConfig::with_workers(2).with_merge_workers(2);
        assert_eq!(p.effective_merge_workers(), 2);
        assert_eq!(
            PipelineConfig::off().effective_merge_workers(),
            1,
            "sequential merge by default"
        );
    }

    #[test]
    fn adaptive_config_derives_knobs_from_the_device() {
        let p = PipelineConfig::adaptive(4);
        assert!(p.enabled && p.adaptive);
        assert!(!p.merge_workers_explicit, "adaptive is advisory");
        assert_eq!(
            p.effective_merge_workers(),
            crate::parallel_merge::MAX_MERGE_WORKERS
        );
        assert_eq!(p.depth_for(&pdm::DiskModel::scsi_2000(), 1), 2);
        assert_eq!(p.depth_for(&pdm::DiskModel::nvme_modern(), 1), 8);
        // Non-adaptive configs keep their explicit knob regardless of device.
        let fixed = PipelineConfig::with_workers(2).with_prefetch_blocks(3);
        assert_eq!(fixed.depth_for(&pdm::DiskModel::nvme_modern(), 1), 3);
        // An explicit worker order still wins over the adaptive ceiling.
        let pinned = PipelineConfig::adaptive(4).with_merge_workers(2);
        assert!(pinned.merge_workers_explicit);
        assert_eq!(pinned.effective_merge_workers(), 2);
    }

    #[test]
    fn pipeline_clamps_degenerate_knobs() {
        let p = PipelineConfig::with_workers(0)
            .with_prefetch_blocks(0)
            .with_merge_workers(0);
        assert_eq!(p.effective_workers(), 1);
        assert_eq!(p.depth(), 1);
        assert_eq!(p.effective_merge_workers(), 1);
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
    fn zero_block_rejected() {
        let err = ExtSortConfig::new(32).validate(0).unwrap_err();
        assert!(matches!(err, PdmError::InvalidConfig(_)));
    }
}
