//! Disk arrays with striped access (the `D > 1` half of the PDM).
//!
//! The PDM's optimal sorts access the `D` disks *independently* during reads
//! but write in a *striped* manner. [`DiskArray`] provides exactly that: a
//! striped writer lays logical block `i` on disk `i mod D`, and the striped
//! reader fetches blocks back in logical order (each fetch touching one
//! disk, so `D` consecutive fetches can proceed in parallel on real
//! hardware — the array reports the *parallel I/O* count as the per-disk
//! maximum, which is what the `Sort(N)` bound counts).

use crate::disk::Disk;
use crate::error::PdmResult;
use crate::file::{BlockReader, BlockWriter};
use crate::record::Record;
use crate::stats::IoSnapshot;

/// An array of `D` independent disks with identical geometry.
#[derive(Debug, Clone)]
pub struct DiskArray {
    disks: Vec<Disk>,
}

impl DiskArray {
    /// Builds an array from per-disk handles.
    ///
    /// # Panics
    /// Panics if `disks` is empty or block sizes differ.
    pub fn new(disks: Vec<Disk>) -> Self {
        assert!(!disks.is_empty(), "disk array needs at least one disk");
        let b = disks[0].block_bytes();
        assert!(
            disks.iter().all(|d| d.block_bytes() == b),
            "all disks in an array must share one block size"
        );
        DiskArray { disks }
    }

    /// Creates an array of `d` in-memory disks.
    pub fn in_memory(d: usize, block_bytes: usize) -> Self {
        Self::new(
            (0..d)
                .map(|i| Disk::in_memory(block_bytes).with_label(format!("disk{i}")))
                .collect(),
        )
    }

    /// Number of disks `D`.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// True if the array has no disks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Access to an individual disk.
    pub fn disk(&self, i: usize) -> &Disk {
        &self.disks[i]
    }

    /// Sum of all per-disk counters.
    pub fn total_io(&self) -> IoSnapshot {
        self.disks
            .iter()
            .map(|d| d.stats().snapshot())
            .fold(IoSnapshot::default(), |acc, s| acc.plus(&s))
    }

    /// The PDM parallel-I/O count: the busiest disk's block transfers.
    /// With perfect striping this is `total / D`.
    pub fn parallel_ios(&self) -> u64 {
        self.disks
            .iter()
            .map(|d| d.stats().snapshot().total_blocks())
            .max()
            .unwrap_or(0)
    }

    /// Starts a striped write of a logical file: block `i` of the stream
    /// goes to disk `i mod D` under the name `"{base}.d{j}"`.
    pub fn striped_writer<R: Record>(&self, base: &str) -> PdmResult<StripedWriter<R>> {
        let rpb = crate::file::records_per_block::<R>(&self.disks[0])?;
        let writers = self
            .disks
            .iter()
            .enumerate()
            .map(|(j, d)| d.create_writer::<R>(&format!("{base}.d{j}")))
            .collect::<PdmResult<Vec<_>>>()?;
        Ok(StripedWriter {
            writers,
            records_per_block: rpb,
            in_block: 0,
            current: 0,
            total: 0,
        })
    }

    /// Opens a striped logical file for reading in logical order.
    pub fn striped_reader<R: Record>(&self, base: &str) -> PdmResult<StripedReader<R>> {
        let rpb = crate::file::records_per_block::<R>(&self.disks[0])?;
        let readers = self
            .disks
            .iter()
            .enumerate()
            .map(|(j, d)| d.open_reader::<R>(&format!("{base}.d{j}")))
            .collect::<PdmResult<Vec<_>>>()?;
        let total = readers.iter().map(|r| r.len()).sum();
        Ok(StripedReader {
            readers,
            records_per_block: rpb,
            in_block: 0,
            current: 0,
            remaining: total,
            total,
        })
    }

    /// Removes the stripe files of a logical file (idempotent).
    pub fn remove(&self, base: &str) -> PdmResult<()> {
        for (j, d) in self.disks.iter().enumerate() {
            d.remove(&format!("{base}.d{j}"))?;
        }
        Ok(())
    }
}

/// Writes a logical record stream striped block-by-block across the array.
#[derive(Debug)]
pub struct StripedWriter<R: Record> {
    writers: Vec<BlockWriter<R>>,
    records_per_block: usize,
    in_block: usize,
    current: usize,
    total: u64,
}

impl<R: Record> StripedWriter<R> {
    /// Appends one record to the logical stream.
    pub fn push(&mut self, r: R) -> PdmResult<()> {
        self.writers[self.current].push(r)?;
        self.total += 1;
        self.advance(1);
        Ok(())
    }

    /// Appends a slice, one stripe-block segment at a time through
    /// [`BlockWriter::push_all`]; flush boundaries are those of a
    /// [`StripedWriter::push`] loop.
    pub fn push_all(&mut self, rs: &[R]) -> PdmResult<()> {
        let mut rest = rs;
        while !rest.is_empty() {
            let take = rest.len().min(self.records_per_block - self.in_block);
            self.writers[self.current].push_all(&rest[..take])?;
            self.total += take as u64;
            self.advance(take);
            rest = &rest[take..];
        }
        Ok(())
    }

    fn advance(&mut self, n: usize) {
        self.in_block += n;
        if self.in_block == self.records_per_block {
            self.in_block = 0;
            self.current = (self.current + 1) % self.writers.len();
        }
    }

    /// Closes all stripes; returns the logical record count.
    pub fn finish(self) -> PdmResult<u64> {
        for w in self.writers {
            w.finish()?;
        }
        Ok(self.total)
    }
}

/// Reads a striped logical file back in logical record order.
#[derive(Debug)]
pub struct StripedReader<R: Record> {
    readers: Vec<BlockReader<R>>,
    records_per_block: usize,
    in_block: usize,
    current: usize,
    remaining: u64,
    total: u64,
}

impl<R: Record> StripedReader<R> {
    /// Total logical records.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when the logical file is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Next record in logical order.
    pub fn next_record(&mut self) -> PdmResult<Option<R>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let r = self.readers[self.current].next_record()?;
        debug_assert!(r.is_some(), "stripe shorter than logical length");
        self.remaining -= 1;
        self.advance(1);
        Ok(r)
    }

    /// Streams up to `max` records into `out` in logical order, one
    /// stripe-block segment at a time through [`BlockReader::read_into`].
    /// Metering is identical to a [`StripedReader::next_record`] loop.
    /// Returns the record count appended.
    pub fn read_into(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let mut got = 0usize;
        while got < max && self.remaining > 0 {
            let room = (max - got).min(self.records_per_block - self.in_block);
            let take = self.remaining.min(room as u64) as usize;
            let n = self.readers[self.current].read_into(out, take)?;
            debug_assert_eq!(n, take, "stripe shorter than logical length");
            self.remaining -= n as u64;
            self.advance(n);
            got += n;
            if n < take {
                break;
            }
        }
        Ok(got)
    }

    fn advance(&mut self, n: usize) {
        self.in_block += n;
        if self.in_block == self.records_per_block {
            self.in_block = 0;
            self.current = (self.current + 1) % self.readers.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_roundtrip_preserves_order() {
        let arr = DiskArray::in_memory(3, 16); // 4 u32 per block
        let data: Vec<u32> = (0..100).collect();
        let mut w = arr.striped_writer::<u32>("f").unwrap();
        w.push_all(&data).unwrap();
        assert_eq!(w.finish().unwrap(), 100);
        let mut r = arr.striped_reader::<u32>("f").unwrap();
        assert_eq!(r.len(), 100);
        let mut out = Vec::new();
        while let Some(x) = r.next_record().unwrap() {
            out.push(x);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn bulk_calls_meter_like_record_loops() {
        let data: Vec<u32> = (0..103).collect();
        let run = |bulk: bool| {
            let arr = DiskArray::in_memory(3, 16); // 4 u32 per block
            let mut w = arr.striped_writer::<u32>("f").unwrap();
            // Odd segment sizes straddle the stripe-block boundaries.
            for seg in data.chunks(7) {
                if bulk {
                    w.push_all(seg).unwrap();
                } else {
                    seg.iter().for_each(|&x| w.push(x).unwrap());
                }
            }
            w.finish().unwrap();
            let written = arr.total_io();
            let mut r = arr.striped_reader::<u32>("f").unwrap();
            let mut out = Vec::new();
            if bulk {
                while r.read_into(&mut out, 5).unwrap() > 0 {}
            } else {
                while let Some(x) = r.next_record().unwrap() {
                    out.push(x);
                }
            }
            (out, written, arr.total_io(), arr.parallel_ios())
        };
        let bulk = run(true);
        assert_eq!(bulk.0, data);
        assert_eq!(bulk, run(false));
    }

    #[test]
    fn blocks_distributed_round_robin() {
        let arr = DiskArray::in_memory(2, 16);
        let data: Vec<u32> = (0..16).collect(); // 4 blocks → 2 per disk
        let mut w = arr.striped_writer::<u32>("g").unwrap();
        w.push_all(&data).unwrap();
        w.finish().unwrap();
        assert_eq!(arr.disk(0).stats().snapshot().blocks_written, 2);
        assert_eq!(arr.disk(1).stats().snapshot().blocks_written, 2);
    }

    #[test]
    fn parallel_ios_is_per_disk_max() {
        let arr = DiskArray::in_memory(2, 16);
        let data: Vec<u32> = (0..20).collect(); // 5 blocks → 3 + 2
        let mut w = arr.striped_writer::<u32>("h").unwrap();
        w.push_all(&data).unwrap();
        w.finish().unwrap();
        assert_eq!(arr.parallel_ios(), 3);
        assert_eq!(arr.total_io().blocks_written, 5);
    }

    #[test]
    fn empty_logical_file() {
        let arr = DiskArray::in_memory(2, 16);
        let w = arr.striped_writer::<u32>("e").unwrap();
        assert_eq!(w.finish().unwrap(), 0);
        let mut r = arr.striped_reader::<u32>("e").unwrap();
        assert!(r.is_empty());
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn remove_stripes() {
        let arr = DiskArray::in_memory(2, 16);
        let mut w = arr.striped_writer::<u32>("rm").unwrap();
        w.push(1).unwrap();
        w.finish().unwrap();
        assert!(arr.disk(0).exists("rm.d0"));
        arr.remove("rm").unwrap();
        assert!(!arr.disk(0).exists("rm.d0"));
        assert!(!arr.disk(1).exists("rm.d1"));
    }

    #[test]
    fn tiny_blocks_yield_typed_error() {
        let arr = DiskArray::in_memory(2, 2); // a u32 does not fit in a block
        assert!(matches!(
            arr.striped_writer::<u32>("t"),
            Err(crate::error::PdmError::InvalidConfig(_))
        ));
        assert!(matches!(
            arr.striped_reader::<u32>("t"),
            Err(crate::error::PdmError::InvalidConfig(_))
        ));
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn empty_array_rejected() {
        let _ = DiskArray::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "share one block size")]
    fn mismatched_blocks_rejected() {
        let _ = DiskArray::new(vec![Disk::in_memory(16), Disk::in_memory(32)]);
    }
}
