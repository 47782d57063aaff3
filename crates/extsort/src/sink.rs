//! The output side of every merge.
//!
//! Each merge call site (the polyphase phases, the balanced k-way passes
//! and PSRS step 5) writes through a [`MergeSink`], so "synchronous or
//! write-behind" is decided once, here, from the [`PipelineConfig`]. Both
//! writers flush at the same block boundaries and meter identical I/O; the
//! synchronous one stays the differential oracle.

use pdm::{BlockWriter, BufferPool, Disk, PdmError, PdmResult, Record, WriteBehindWriter};

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
    /// [`PipelineConfig::depth`] blocks.
    pub fn create(
        disk: &Disk,
        name: &str,
        pipeline: &PipelineConfig,
        pool: &BufferPool,
    ) -> PdmResult<Self> {
        Ok(MergeSink(if pipeline.enabled {
            let depth = pipeline.depth();
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

/// Fails with [`PdmError::AlreadyExists`] when `output` is taken. The
/// sorters check before they form runs, so a sort onto an existing file
/// fails at once instead of after all its work.
pub(crate) fn check_free(disk: &Disk, output: &str) -> PdmResult<()> {
    if disk.exists(output) {
        return Err(PdmError::AlreadyExists(output.to_string()));
    }
    Ok(())
}

/// Renames a sort's finished tape to `output`. If that fails (the name was
/// taken meanwhile), the tape is removed, so the failed sort leaves no file
/// behind.
pub(crate) fn publish(disk: &Disk, tape: &str, output: &str) -> PdmResult<()> {
    disk.rename(tape, output).or_else(|e| {
        disk.remove(tape)?;
        Err(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_publish_removes_the_tape() {
        let disk = Disk::in_memory(64);
        disk.write_file::<u32>("tape", &[1, 2]).unwrap();
        disk.write_file::<u32>("out", &[7]).unwrap();
        let err = publish(&disk, "tape", "out").unwrap_err();
        assert!(matches!(err, PdmError::AlreadyExists(_)), "{err}");
        assert!(!disk.exists("tape"));
        assert_eq!(disk.read_file::<u32>("out").unwrap(), vec![7]);
        publish(&disk, "out", "done").unwrap();
        assert_eq!(disk.read_file::<u32>("done").unwrap(), vec![7]);
    }
}
