//! The output side of every merge.
//!
//! Each merge call site (the polyphase phases, the balanced k-way passes,
//! PSRS step 5 and the streamed exchange-merge) writes through a
//! [`MergeSink`], so "synchronous or write-behind" is decided once, here,
//! from the [`PipelineConfig`]. Both writers flush at the same block
//! boundaries and meter identical I/O; the synchronous one stays the
//! differential oracle.

use pdm::{BlockWriter, BufferPool, Disk, PdmResult, Record, WriteBehindWriter};

use crate::config::PipelineConfig;

/// A merge's output file: a pooled [`BlockWriter`], or a
/// [`WriteBehindWriter`] when the pipeline is on.
pub struct MergeSink<R: Record>(Writer<R>);

enum Writer<R: Record> {
    Sync(BlockWriter<R>),
    Behind(WriteBehindWriter<R>),
}

impl<R: Record> MergeSink<R> {
    /// Creates `name` on `disk`. With the pipeline on, the writer queues
    /// [`PipelineConfig::depth_for`] blocks for a device shared by
    /// `streams` request streams (the merge's readers plus this writer).
    pub fn create(
        disk: &Disk,
        name: &str,
        pipeline: &PipelineConfig,
        streams: usize,
        pool: &BufferPool,
    ) -> PdmResult<Self> {
        Ok(MergeSink(if pipeline.enabled {
            let depth = pipeline.depth_for(disk.model(), streams);
            Writer::Behind(disk.create_write_behind::<R>(name, depth, pool.clone())?)
        } else {
            Writer::Sync(disk.create_writer_pooled::<R>(name, Some(pool.clone()))?)
        }))
    }

    /// Appends one record.
    pub fn push(&mut self, r: R) -> PdmResult<()> {
        match &mut self.0 {
            Writer::Sync(w) => w.push(r),
            Writer::Behind(w) => w.push(r),
        }
    }

    /// Appends every record in the slice.
    pub fn push_all(&mut self, rs: &[R]) -> PdmResult<()> {
        match &mut self.0 {
            Writer::Sync(w) => w.push_all(rs),
            Writer::Behind(w) => w.push_all(rs),
        }
    }

    /// Flushes the tail and returns the records written.
    pub fn finish(self) -> PdmResult<u64> {
        match self.0 {
            Writer::Sync(w) => w.finish(),
            Writer::Behind(w) => w.finish(),
        }
    }
}
