//! Typed, block-buffered file access.
//!
//! [`BlockWriter`] and [`BlockReader`] move records through a one-block
//! buffer: every buffer fill/flush is exactly one metered block I/O, so the
//! counters in [`crate::stats::IoStats`] reproduce the PDM cost measure. The
//! reader also supports metered *random* access ([`BlockReader::read_at`]),
//! which is what the pivot-sampling step of the paper's algorithm uses.
//!
//! # One codec
//!
//! For POD records whose in-memory layout equals the file encoding
//! (little-endian integers, [`crate::record::KeyPayload`]), blocks are
//! consumed and produced **in place**: reads decode through a borrowed
//! `&[R]` view of the I/O buffer ([`BlockReader::next_block_view`]), and
//! whole-block writes append straight from the caller's record slice. A
//! record type without such a layout ([`Record::view_slice`] and
//! [`Record::view_bytes`] return `None`) goes through a per-block staging
//! copy instead. Both touch identical byte ranges, flush at identical block
//! boundaries and meter identical [`crate::stats::IoStats`]; the layout
//! differential suites hold them to that.

use crate::disk::{Disk, RawFile};
use crate::error::{PdmError, PdmResult};
use crate::record::Record;

/// Appends records to a disk file, one block at a time.
#[derive(Debug)]
pub struct BlockWriter<R: Record> {
    raw: RawFile,
    disk: Disk,
    name: String,
    buf: Vec<u8>,
    records_per_block: usize,
    written: u64,
    finished: bool,
    _marker: std::marker::PhantomData<R>,
}

/// Streams records from a disk file, one block at a time, with random access.
#[derive(Debug)]
pub struct BlockReader<R: Record> {
    raw: RawFile,
    disk: Disk,
    name: String,
    len: u64,
    pos: u64,
    /// Currently buffered block: record index range [buf_start, buf_end).
    buf: Vec<u8>,
    buf_start: u64,
    buf_end: u64,
    records_per_block: usize,
    _marker: std::marker::PhantomData<R>,
}

/// Records per PDM block for record type `R` on this disk.
///
/// Fails with [`PdmError::InvalidConfig`] if a block cannot hold even one
/// record — no block-granular I/O plan is possible then.
pub(crate) fn records_per_block<R: Record>(disk: &Disk) -> PdmResult<usize> {
    let rpb = disk.block_bytes() / R::SIZE;
    if rpb == 0 {
        return Err(PdmError::InvalidConfig(format!(
            "block size {} smaller than record size {}",
            disk.block_bytes(),
            R::SIZE
        )));
    }
    Ok(rpb)
}

impl Disk {
    /// Creates a file and returns a typed block writer for it.
    pub fn create_writer<R: Record>(&self, name: &str) -> PdmResult<BlockWriter<R>> {
        let records_per_block = records_per_block::<R>(self)?;
        let raw = self.create_raw(name)?;
        Ok(BlockWriter {
            raw,
            disk: self.clone(),
            name: name.to_string(),
            buf: Vec::with_capacity(self.block_bytes()),
            records_per_block,
            written: 0,
            finished: false,
            _marker: std::marker::PhantomData,
        })
    }

    /// Opens a file and returns a typed block reader positioned at record 0.
    ///
    /// Fails with [`PdmError::Corrupt`] if the byte length is not a whole
    /// number of records.
    pub fn open_reader<R: Record>(&self, name: &str) -> PdmResult<BlockReader<R>> {
        let records_per_block = records_per_block::<R>(self)?;
        let (raw, bytes) = self.open_raw(name)?;
        if bytes % R::SIZE as u64 != 0 {
            return Err(PdmError::Corrupt {
                name: name.to_string(),
                bytes,
                record_size: R::SIZE,
            });
        }
        Ok(BlockReader {
            raw,
            disk: self.clone(),
            name: name.to_string(),
            len: bytes / R::SIZE as u64,
            pos: 0,
            buf: Vec::new(),
            buf_start: 0,
            buf_end: 0,
            records_per_block,
            _marker: std::marker::PhantomData,
        })
    }

    /// Number of records in a file (type-directed).
    pub fn len_records<R: Record>(&self, name: &str) -> PdmResult<u64> {
        let bytes = self.len_bytes(name)?;
        if bytes % R::SIZE as u64 != 0 {
            return Err(PdmError::Corrupt {
                name: name.to_string(),
                bytes,
                record_size: R::SIZE,
            });
        }
        Ok(bytes / R::SIZE as u64)
    }

    /// Convenience: writes an entire slice as a new file.
    pub fn write_file<R: Record>(&self, name: &str, records: &[R]) -> PdmResult<()> {
        let mut w = self.create_writer::<R>(name)?;
        w.push_all(records)?;
        w.finish()?;
        Ok(())
    }

    /// Convenience: reads an entire file into memory (metered, bulk-decoded).
    pub fn read_file<R: Record>(&self, name: &str) -> PdmResult<Vec<R>> {
        let mut r = self.open_reader::<R>(name)?;
        let n = r.len() as usize;
        let mut out = Vec::with_capacity(n);
        r.read_into(&mut out, n)?;
        Ok(out)
    }
}

impl<R: Record> BlockWriter<R> {
    /// Appends one record.
    pub fn push(&mut self, r: R) -> PdmResult<()> {
        debug_assert!(!self.finished, "push after finish");
        let old = self.buf.len();
        self.buf.resize(old + R::SIZE, 0);
        r.write_to(&mut self.buf[old..]);
        self.written += 1;
        if self.buf.len() >= self.records_per_block * R::SIZE {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Appends every record in the slice, bulk-encoding one block segment
    /// at a time ([`Record::write_slice_to`]) instead of `rs.len()` virtual
    /// calls. Flush boundaries — and therefore metering — are identical to
    /// a [`BlockWriter::push`] loop.
    ///
    /// Whole blocks that start at a block boundary skip the staging buffer
    /// when the record layout allows it: the block is appended straight
    /// from the caller's slice through its borrowed byte view
    /// ([`Record::view_bytes`]) — same bytes, same flush boundaries, same
    /// metering, one memcpy less.
    pub fn push_all(&mut self, rs: &[R]) -> PdmResult<()> {
        debug_assert!(!self.finished, "push after finish");
        let cap = self.records_per_block * R::SIZE;
        let rpb = self.records_per_block;
        let mut rest = rs;
        while !rest.is_empty() {
            if self.buf.is_empty() && rest.len() >= rpb {
                if let Some(bytes) = R::view_bytes(&rest[..rpb]) {
                    self.raw.append(bytes)?;
                    self.disk.stats().on_write(bytes.len() as u64);
                    self.written += rpb as u64;
                    rest = &rest[rpb..];
                    continue;
                }
            }
            let room = (cap - self.buf.len()) / R::SIZE;
            let take = rest.len().min(room);
            let old = self.buf.len();
            self.buf.resize(old + take * R::SIZE, 0);
            R::write_slice_to(&rest[..take], &mut self.buf[old..]);
            self.written += take as u64;
            rest = &rest[take..];
            if self.buf.len() >= cap {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// Records pushed so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes the partial last block and closes the file; returns the total
    /// record count. Must be called — dropping an unfinished writer loses
    /// the buffered tail (mirrors real buffered I/O) and debug-asserts.
    pub fn finish(mut self) -> PdmResult<u64> {
        if !self.buf.is_empty() {
            self.flush_block()?;
        }
        self.raw.sync()?;
        self.finished = true;
        Ok(self.written)
    }

    /// File name this writer targets.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn flush_block(&mut self) -> PdmResult<()> {
        self.raw.append(&self.buf)?;
        self.disk.stats().on_write(self.buf.len() as u64);
        self.buf.clear();
        Ok(())
    }
}

impl<R: Record> Drop for BlockWriter<R> {
    fn drop(&mut self) {
        // Dropping mid-stream during error unwinding is legitimate (the
        // file is garbage anyway); dropping with buffered records on the
        // happy path is a forgotten finish() — catch it in debug builds.
        debug_assert!(
            self.finished || self.buf.is_empty() || std::thread::panicking(),
            "BlockWriter for {:?} dropped with {} unflushed bytes — call finish()",
            self.name,
            self.buf.len()
        );
    }
}

impl<R: Record> BlockReader<R> {
    /// Total number of records in the file.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current streaming position (record index).
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Records left to stream.
    pub fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// File name this reader reads.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records per block of this file: the `max` with which
    /// [`BlockReader::read_into`] pulls one whole block at a time.
    pub fn records_per_block(&self) -> usize {
        self.records_per_block
    }

    /// Streams the rest of the file into `out` one block at a time
    /// ([`BlockReader::read_into`] then [`BlockWriter::push_all`]). Reads,
    /// writes and flush boundaries are those of a `next_record` + `push`
    /// loop. Returns the records copied.
    pub fn copy_to(&mut self, out: &mut BlockWriter<R>) -> PdmResult<u64> {
        let mut block = Vec::with_capacity(self.records_per_block);
        let mut copied = 0u64;
        loop {
            block.clear();
            if self.read_into(&mut block, self.records_per_block)? == 0 {
                return Ok(copied);
            }
            out.push_all(&block)?;
            copied += block.len() as u64;
        }
    }

    /// Returns the next record, or `None` at end of file. Buffer refills are
    /// metered as sequential block reads.
    pub fn next_record(&mut self) -> PdmResult<Option<R>> {
        if self.pos >= self.len {
            return Ok(None);
        }
        if self.pos < self.buf_start || self.pos >= self.buf_end {
            self.fill_block(self.pos, false)?;
        }
        let off = ((self.pos - self.buf_start) as usize) * R::SIZE;
        let rec = self.decode_at(off)?;
        self.pos += 1;
        Ok(Some(rec))
    }

    /// Streams up to `max` records into `out`, bulk-decoding whole buffered
    /// block segments ([`Record::read_slice_from`]) instead of one virtual
    /// call per record. Metering is identical to a
    /// [`BlockReader::next_record`] loop. Returns the record count appended.
    pub fn read_into(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let mut got = 0usize;
        while got < max && self.pos < self.len {
            if self.pos < self.buf_start || self.pos >= self.buf_end {
                self.fill_block(self.pos, false)?;
            }
            let take = ((self.buf_end - self.pos) as usize).min(max - got);
            let off = ((self.pos - self.buf_start) as usize) * R::SIZE;
            let slice = self
                .buf
                .get(off..off + take * R::SIZE)
                .ok_or_else(|| self.short_buffer())?;
            R::read_slice_from(slice, out);
            self.pos += take as u64;
            got += take;
        }
        Ok(got)
    }

    /// Decodes the record at byte offset `off` of the buffered block,
    /// surfacing a short buffer (truncated tail) as a typed error instead
    /// of an index/`read_from` panic. Where the record layout allows it,
    /// the record is copied out of a borrowed `&[R]` view of the buffer
    /// (no decode).
    fn decode_at(&self, off: usize) -> PdmResult<R> {
        if let Some(rec) = R::view_slice(&self.buf).and_then(|v| v.get(off / R::SIZE)) {
            return Ok(*rec);
        }
        self.buf
            .get(off..off + R::SIZE)
            .and_then(R::try_read_from)
            .ok_or_else(|| self.short_buffer())
    }

    /// Borrows the unconsumed remainder of the current block as a record
    /// slice, refilling (metered, sequential) first when the block is
    /// exhausted — the zero-copy scan path. `Ok(None)` means end of file.
    /// An **empty** view means the buffer cannot be viewed in place (no
    /// POD layout, or misaligned); stream that block through
    /// [`BlockReader::next_record`] instead. Use [`BlockReader::consume`]
    /// to advance past records taken from the view; the borrow ends there,
    /// so the view never outlives its block.
    pub fn next_block_view(&mut self) -> PdmResult<Option<&[R]>> {
        if self.pos >= self.len {
            return Ok(None);
        }
        if self.pos < self.buf_start || self.pos >= self.buf_end {
            self.fill_block(self.pos, false)?;
        }
        let off = ((self.pos - self.buf_start) as usize) * R::SIZE;
        match R::view_slice(&self.buf[off..]) {
            Some(view) => Ok(Some(view)),
            None => Ok(Some(&[])),
        }
    }

    /// Advances the streaming cursor past `n` records previously obtained
    /// from [`BlockReader::next_block_view`].
    pub fn consume(&mut self, n: usize) {
        debug_assert!(self.pos + n as u64 <= self.buf_end);
        self.pos += n as u64;
    }

    fn short_buffer(&self) -> PdmError {
        PdmError::Corrupt {
            name: self.name.clone(),
            bytes: self.buf_start * R::SIZE as u64 + self.buf.len() as u64,
            record_size: R::SIZE,
        }
    }

    /// Repositions the streaming cursor (no I/O until the next read).
    ///
    /// # Panics
    /// Panics if `idx > len` (positioning exactly at EOF is allowed).
    pub fn seek(&mut self, idx: u64) {
        assert!(idx <= self.len, "seek {idx} past end {}", self.len);
        self.pos = idx;
    }

    /// Random access to the record at `idx`. Metered as a *random* block
    /// read unless `idx` falls inside the currently buffered block.
    pub fn read_at(&mut self, idx: u64) -> PdmResult<R> {
        if idx >= self.len {
            return Err(PdmError::OutOfRange {
                name: self.name.clone(),
                index: idx,
                len: self.len,
            });
        }
        if idx < self.buf_start || idx >= self.buf_end {
            self.fill_block(idx, true)?;
        }
        let off = ((idx - self.buf_start) as usize) * R::SIZE;
        self.decode_at(off)
    }

    /// Loads the block containing record `idx` into the buffer.
    fn fill_block(&mut self, idx: u64, random: bool) -> PdmResult<()> {
        let rpb = self.records_per_block as u64;
        let block_no = idx / rpb;
        let start = block_no * rpb;
        let end = (start + rpb).min(self.len);
        let byte_off = start * R::SIZE as u64;
        let want = ((end - start) as usize) * R::SIZE;
        self.buf.resize(want, 0);
        let got = self.raw.read_at(byte_off, &mut self.buf)?;
        // Meter whatever actually transferred *before* bailing on a short
        // read: the seek and the partial transfer happened either way, and
        // callers audit `random_reads` even on the error path.
        if random {
            self.disk.stats().on_random_read(got as u64);
        } else {
            self.disk.stats().on_read(got as u64);
        }
        if got != want {
            // The file shrank under us (torn write / concurrent truncate).
            return Err(PdmError::Corrupt {
                name: self.name.clone(),
                bytes: byte_off + got as u64,
                record_size: R::SIZE,
            });
        }
        self.buf_start = start;
        self.buf_end = end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use crate::record::KeyPayload;
    use crate::stats::IoSnapshot;
    use crate::tempdir::ScratchDir;

    /// A `u32` without a borrowable layout: `view_slice`/`view_bytes`
    /// return `None`, so every block goes through the staging copy.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Opaque(u32);

    impl Record for Opaque {
        const SIZE: usize = 4;

        fn write_to(&self, buf: &mut [u8]) {
            buf.copy_from_slice(&self.0.to_le_bytes());
        }

        fn read_from(buf: &[u8]) -> Self {
            Opaque(u32::from_le_bytes(buf.try_into().unwrap()))
        }
    }

    fn disks() -> Vec<(Disk, Option<ScratchDir>)> {
        let scratch = ScratchDir::new("pdm-file-test").unwrap();
        let fd = Disk::on_files(scratch.path(), 16); // 4 u32 records per block
        vec![(Disk::in_memory(16), None), (fd, Some(scratch))]
    }

    #[test]
    fn write_then_stream_roundtrip() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..23).map(|i| i * 3).collect();
            disk.write_file("f", &data).unwrap();
            assert_eq!(disk.len_records::<u32>("f").unwrap(), 23);
            assert_eq!(disk.read_file::<u32>("f").unwrap(), data);
        }
    }

    #[test]
    fn empty_file() {
        for (disk, _g) in disks() {
            disk.write_file::<u32>("e", &[]).unwrap();
            let mut r = disk.open_reader::<u32>("e").unwrap();
            assert!(r.is_empty());
            assert_eq!(r.next_record().unwrap(), None);
        }
    }

    #[test]
    fn io_is_metered_in_blocks() {
        let disk = Disk::in_memory(16); // 4 u32 per block
        let data: Vec<u32> = (0..10).collect(); // 2 full + 1 partial block
        disk.write_file("m", &data).unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.blocks_written, 3);
        assert_eq!(snap.bytes_written, 40);
        disk.read_file::<u32>("m").unwrap();
        let snap = disk.stats().snapshot();
        assert_eq!(snap.blocks_read, 3);
        assert_eq!(snap.bytes_read, 40);
    }

    #[test]
    fn read_at_random_access() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..100).map(|i| i * 7).collect();
            disk.write_file("r", &data).unwrap();
            let mut r = disk.open_reader::<u32>("r").unwrap();
            assert_eq!(r.read_at(0).unwrap(), 0);
            assert_eq!(r.read_at(99).unwrap(), 99 * 7);
            assert_eq!(r.read_at(50).unwrap(), 350);
            assert!(matches!(r.read_at(100), Err(PdmError::OutOfRange { .. })));
        }
    }

    #[test]
    fn read_at_within_buffered_block_is_free() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..8).collect();
        disk.write_file("c", &data).unwrap();
        let mut r = disk.open_reader::<u32>("c").unwrap();
        r.read_at(0).unwrap();
        let before = disk.stats().snapshot();
        r.read_at(1).unwrap();
        r.read_at(3).unwrap();
        assert_eq!(disk.stats().snapshot().random_reads, before.random_reads);
        r.read_at(4).unwrap(); // next block: one more random read
        assert_eq!(
            disk.stats().snapshot().random_reads,
            before.random_reads + 1
        );
    }

    #[test]
    fn seek_then_stream() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..50).collect();
            disk.write_file("s", &data).unwrap();
            let mut r = disk.open_reader::<u32>("s").unwrap();
            r.seek(45);
            let mut tail = Vec::new();
            while let Some(x) = r.next_record().unwrap() {
                tail.push(x);
            }
            assert_eq!(tail, vec![45, 46, 47, 48, 49]);
            r.seek(50); // exactly EOF is allowed
            assert_eq!(r.next_record().unwrap(), None);
        }
    }

    #[test]
    fn corrupt_length_detected_on_open() {
        for (disk, _g) in disks() {
            disk.write_file::<u32>("x", &[1, 2, 3]).unwrap();
            disk.truncate("x", 10).unwrap(); // 10 bytes: not a multiple of 4
            assert!(matches!(
                disk.open_reader::<u32>("x"),
                Err(PdmError::Corrupt { .. })
            ));
            assert!(matches!(
                disk.len_records::<u32>("x"),
                Err(PdmError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn truncation_under_reader_detected() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..16).collect();
            disk.write_file("t", &data).unwrap();
            let mut r = disk.open_reader::<u32>("t").unwrap();
            assert_eq!(r.next_record().unwrap(), Some(0));
            disk.truncate("t", 16).unwrap(); // drop the tail blocks
            r.seek(8);
            assert!(matches!(r.next_record(), Err(PdmError::Corrupt { .. })));
        }
    }

    #[test]
    fn short_read_is_metered_before_erroring() {
        // Regression: a read that surfaces `Corrupt` still did a seek and a
        // (partial) transfer — the counters must reflect it.
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..16).collect();
            disk.write_file("sr", &data).unwrap();
            let mut r = disk.open_reader::<u32>("sr").unwrap();
            // Leave 1 of block 1's 4 records: read_at(4) gets 4 of 16 bytes.
            disk.truncate("sr", 20).unwrap();
            let before = disk.stats().snapshot();
            assert!(matches!(r.read_at(4), Err(PdmError::Corrupt { .. })));
            let after = disk.stats().snapshot();
            assert_eq!(
                after.random_reads,
                before.random_reads + 1,
                "random read must count even on the Corrupt path"
            );
            assert_eq!(after.blocks_read, before.blocks_read + 1);
            assert_eq!(after.bytes_read, before.bytes_read + 4);
            assert_eq!(
                after.seek_bytes,
                before.seek_bytes + 4,
                "partial transfer must show up in seek_bytes too"
            );

            // Same on the streaming (sequential) path.
            let before = after;
            r.seek(4);
            assert!(matches!(r.next_record(), Err(PdmError::Corrupt { .. })));
            let after = disk.stats().snapshot();
            assert_eq!(after.blocks_read, before.blocks_read + 1);
            assert_eq!(after.random_reads, before.random_reads);
            assert_eq!(after.bytes_read, before.bytes_read + 4);
        }
    }

    #[test]
    fn probe_read_of_eof_partial_block_meters_actual_bytes() {
        // A splitter probe landing in the legitimate partial block at EOF
        // meters the bytes that actually transferred — same rule the short
        // read above documents for streams — and books them as seek bytes.
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..10).collect(); // last block holds 2 records
            disk.write_file("pp", &data).unwrap();
            let mut r = disk.open_reader::<u32>("pp").unwrap();
            let before = disk.stats().snapshot();
            assert_eq!(r.read_at(9).unwrap(), 9);
            let after = disk.stats().snapshot();
            assert_eq!(after.random_reads, before.random_reads + 1);
            assert_eq!(after.bytes_read, before.bytes_read + 8);
            assert_eq!(after.seek_bytes, before.seek_bytes + 8);
            // A sequential refill elsewhere leaves seek_bytes alone.
            r.seek(0);
            assert_eq!(r.next_record().unwrap(), Some(0));
            assert_eq!(disk.stats().snapshot().seek_bytes, after.seek_bytes);
        }
    }

    #[test]
    fn read_into_bulk_matches_streaming() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..23).map(|i| i * 3).collect();
            disk.write_file("b", &data).unwrap();
            let before = disk.stats().snapshot();
            let mut r = disk.open_reader::<u32>("b").unwrap();
            let mut out = Vec::new();
            // Odd chunk sizes cross block boundaries mid-chunk.
            assert_eq!(r.read_into(&mut out, 5).unwrap(), 5);
            assert_eq!(r.read_into(&mut out, 7).unwrap(), 7);
            assert_eq!(r.read_into(&mut out, 100).unwrap(), 11);
            assert_eq!(r.read_into(&mut out, 100).unwrap(), 0);
            assert_eq!(out, data);
            let delta = disk.stats().snapshot().delta(&before);
            assert_eq!(delta.blocks_read, 6, "one metered read per block");
        }
    }

    /// Copies "src" (written as `u32`s) to `out` as records of type `R`,
    /// starting mid-block on both sides, in bulk or record by record;
    /// returns the metered I/O.
    fn copy_as<R: Record>(disk: &Disk, out: &str, bulk: bool, first: R) -> IoSnapshot {
        let before = disk.stats().snapshot();
        let mut r = disk.open_reader::<R>("src").unwrap();
        let mut w = disk.create_writer::<R>(out).unwrap();
        w.push(first).unwrap();
        r.seek(2);
        if bulk {
            assert_eq!(r.copy_to(&mut w).unwrap(), 21);
        } else {
            while let Some(x) = r.next_record().unwrap() {
                w.push(x).unwrap();
            }
        }
        w.finish().unwrap();
        disk.stats().snapshot().delta(&before)
    }

    #[test]
    fn copy_to_meters_like_a_record_loop() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..23).map(|i| i * 3).collect();
            disk.write_file("src", &data).unwrap();
            let io = copy_as(&disk, "bulk", true, 7u32);
            assert_eq!(io, copy_as(&disk, "loop", false, 7u32));
            assert_eq!(io, copy_as(&disk, "opaque", true, Opaque(7)));
            let expect: Vec<u32> = std::iter::once(7).chain(data[2..].to_vec()).collect();
            for out in ["bulk", "loop", "opaque"] {
                assert_eq!(disk.read_file::<u32>(out).unwrap(), expect, "{out}");
            }
        }
    }

    #[test]
    fn short_buffer_is_typed_error_not_panic() {
        // A file whose byte length is a whole number of records but whose
        // tail block is torn mid-record: the decode must surface
        // `PdmError::Corrupt`, never an index or `read_from` panic.
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..8).collect();
            disk.write_file("torn", &data).unwrap();
            let mut r = disk.open_reader::<u32>("torn").unwrap();
            assert_eq!(r.next_record().unwrap(), Some(0));
            disk.truncate("torn", 18).unwrap(); // mid-record within block 2
            r.seek(4);
            assert!(matches!(r.next_record(), Err(PdmError::Corrupt { .. })));
            let mut out = Vec::new();
            r.seek(4);
            assert!(matches!(
                r.read_into(&mut out, 4),
                Err(PdmError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn keypayload_files() {
        for (disk, _g) in disks() {
            let data: Vec<KeyPayload> = (0..9)
                .map(|i| KeyPayload::new(i as u64, i as u64 * 10))
                .collect();
            disk.write_file("kp", &data).unwrap();
            assert_eq!(disk.read_file::<KeyPayload>("kp").unwrap(), data);
        }
    }

    #[test]
    fn writer_counts_records() {
        let disk = Disk::in_memory(64);
        let mut w = disk.create_writer::<u32>("w").unwrap();
        w.push(1).unwrap();
        w.push_all(&[2, 3, 4]).unwrap();
        assert_eq!(w.written(), 4);
        assert_eq!(w.finish().unwrap(), 4);
    }

    #[test]
    fn tiny_blocks_rejected() {
        let disk = Disk::in_memory(8);
        match disk.create_writer::<KeyPayload>("oops") {
            Err(PdmError::InvalidConfig(msg)) => {
                assert!(msg.contains("smaller than record size"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        match disk.open_reader::<KeyPayload>("oops") {
            Err(PdmError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // The failed create must not leave a half-made writer behind: the
        // config is checked before the file is created.
        assert!(!disk.exists("oops"));
    }

    #[test]
    fn layouts_are_observationally_identical() {
        // Same values, same operations, one disk per record layout:
        // identical bytes on disk, identical IoStats, identical records.
        let data: Vec<u32> = (0..103u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let opaque: Vec<Opaque> = data.iter().map(|&x| Opaque(x)).collect();
        let pod = Disk::in_memory(16);
        let staged = Disk::in_memory(16);
        pod.write_file("u", &data).unwrap();
        staged.write_file("u", &opaque).unwrap();
        assert_eq!(pod.read_file::<u32>("u").unwrap(), data);
        assert_eq!(staged.read_file::<Opaque>("u").unwrap(), opaque);
        let mut r = pod.open_reader::<u32>("u").unwrap();
        let mut s = staged.open_reader::<Opaque>("u").unwrap();
        assert_eq!(Opaque(r.read_at(97).unwrap()), s.read_at(97).unwrap());
        r.seek(50);
        s.seek(50);
        assert_eq!(
            r.next_record().unwrap().map(Opaque),
            s.next_record().unwrap()
        );
        // A block view of a record without a POD layout is empty.
        assert!(s.next_block_view().unwrap().unwrap().is_empty());
        assert_eq!(pod.stats().snapshot(), staged.stats().snapshot());
        assert_eq!(
            pod.read_file::<u32>("u").unwrap(),
            staged.read_file::<u32>("u").unwrap()
        );
    }

    #[test]
    fn direct_writes_meter_like_staged() {
        // A bulk push_all of POD records appends full blocks without
        // staging; the flush boundaries and counters must not move.
        let data: Vec<u32> = (0..23).collect();
        let pod = Disk::in_memory(16);
        let staged = Disk::in_memory(16);
        let mut w = pod.create_writer::<u32>("d").unwrap();
        w.push(100).unwrap(); // unaligned start: staging must engage
        w.push_all(&data).unwrap();
        w.finish().unwrap();
        let mut w = staged.create_writer::<Opaque>("d").unwrap();
        w.push(Opaque(100)).unwrap();
        w.push_all(&data.iter().map(|&x| Opaque(x)).collect::<Vec<_>>())
            .unwrap();
        w.finish().unwrap();
        assert_eq!(pod.stats().snapshot(), staged.stats().snapshot());
        assert_eq!(
            pod.read_file::<u32>("d").unwrap(),
            staged.read_file::<u32>("d").unwrap()
        );
    }

    #[test]
    fn block_view_scan_matches_streaming() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..103).map(|i| i * 3).collect();
            disk.write_file("view", &data).unwrap();
            let before = disk.stats().snapshot();
            let mut r = disk.open_reader::<u32>("view").unwrap();
            let mut out = Vec::new();
            while let Some(view) = r.next_block_view().unwrap() {
                let n = view.len();
                if n == 0 {
                    out.push(r.next_record().unwrap().unwrap());
                    continue;
                }
                out.extend_from_slice(view);
                r.consume(n);
            }
            assert_eq!(out, data);
            let delta = disk.stats().snapshot().delta(&before);
            assert_eq!(delta.blocks_read, 26, "one metered read per block");
            assert_eq!(delta.random_reads, 0);
        }
    }

    #[test]
    fn block_view_after_seek_starts_mid_block() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..12).collect();
        disk.write_file("mid", &data).unwrap();
        let mut r = disk.open_reader::<u32>("mid").unwrap();
        r.seek(6); // mid-block: view exposes only the remainder
        let view: Vec<u32> = r.next_block_view().unwrap().unwrap().to_vec();
        if !view.is_empty() {
            assert_eq!(view, &[6, 7]);
            r.consume(view.len());
            let next = r.next_block_view().unwrap().unwrap();
            assert_eq!(next, &[8, 9, 10, 11]);
        }
    }

    #[test]
    fn blocks_straddling_memory_chunks_round_trip() {
        // 3,000-byte blocks do not divide the memory backend's chunk size,
        // so blocks straddle chunk boundaries. Both backends must read the
        // same records back and meter the same I/O.
        use crate::disk::MEM_CHUNK;
        let n = 3 * MEM_CHUNK / 4 + 123; // u32 records: past three chunks
        let data: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let scratch = ScratchDir::new("pdm-file-chunks").unwrap();
        let mem = Disk::in_memory(3000);
        let files = Disk::on_files(scratch.path(), 3000);
        for disk in [&mem, &files] {
            let mut w = disk.create_writer::<u32>("big").unwrap();
            w.push(data[0]).unwrap(); // unaligned: every block is staged
            w.push_all(&data[1..]).unwrap();
            w.finish().unwrap();
            disk.write_file("aligned", &data).unwrap();
            assert_eq!(disk.read_file::<u32>("big").unwrap(), data);
            assert_eq!(disk.read_file::<u32>("aligned").unwrap(), data);
            let mut r = disk.open_reader::<u32>("big").unwrap();
            // The records on either side of every chunk boundary: one
            // random block read each time, gathered from two chunks.
            for k in 1..=3 {
                let idx = k * MEM_CHUNK / 4;
                for i in [idx - 1, idx] {
                    assert_eq!(r.read_at(i as u64).unwrap(), data[i]);
                }
            }
        }
        let blocks = n.div_ceil(750) as u64;
        let snap = mem.stats().snapshot();
        assert_eq!(snap.blocks_written, 2 * blocks);
        assert_eq!(snap.bytes_written, 8 * n as u64);
        assert_eq!(snap.blocks_read - snap.random_reads, 2 * blocks);
        assert_eq!(snap.random_reads, 3);
        assert_eq!(snap, files.stats().snapshot());
    }
}
