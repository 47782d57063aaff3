//! Pipelined block I/O: prefetching readers and write-behind writers.
//!
//! The PDM assumes disks transfer blocks *in parallel* with computation. The
//! plain [`crate::file`] layer is strictly synchronous — every block fill or
//! flush stalls the caller for the device time. This module moves the device
//! work off the caller's thread: each open stream gets one background worker
//! that issues its requests in order through a bounded queue of `depth`
//! blocks. Depth buffers blocks; it never overlaps two transfers of the same
//! stream.
//!
//! * [`PrefetchReader`] reads blocks ahead of the consumer (up to `depth`
//!   blocks), so decode/merge work overlaps the next block's transfer.
//! * [`WriteBehindWriter`] hands full blocks to its worker, so record
//!   formatting overlaps the previous block's transfer.
//!
//! Both are **observationally identical** to their synchronous counterparts:
//! they touch exactly the same byte ranges, flush at the same block
//! boundaries, and meter the same [`crate::stats::IoStats`] counters — only
//! wall-clock overlap changes. The differential tests in
//! `extsort` hold them to that contract.
//!
//! Block buffers circulate through a [`BufferPool`]: the worker takes a
//! buffer, fills it, hands ownership to the other side, and the other side
//! returns it to the pool, so steady-state pipelining does not allocate.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

use crate::disk::{Disk, RawFile};
use crate::error::{PdmError, PdmResult};
use crate::file::{records_per_block, Codec};
use crate::pool::BufferPool;
use crate::record::Record;
use crate::stats::IoStats;

/// Default queue depth for pipelined I/O: double buffering (one block in
/// flight while one is being consumed/produced).
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;

/// Streams records from a disk file while a background worker reads ahead.
///
/// Sequential-only: there is no `seek`/`read_at` (the prefetcher commits to
/// the block order at open). Use [`crate::file::BlockReader`] for random
/// access.
#[derive(Debug)]
pub struct PrefetchReader<R: Record> {
    name: String,
    len: u64,
    pos: u64,
    /// The block currently being consumed.
    buf: Vec<u8>,
    /// Next record offset within `buf`, in bytes.
    buf_off: usize,
    rx: Option<Receiver<PdmResult<Vec<u8>>>>,
    worker: Option<JoinHandle<()>>,
    pool: BufferPool,
    codec: Codec,
    /// Marks this prefetcher as an open request stream for queue diagnostics.
    _stream: crate::stats::StreamGuard,
    _marker: std::marker::PhantomData<R>,
}

impl Disk {
    /// Opens a file for pipelined sequential reading: the worker reads up to
    /// `depth` blocks ahead (`depth` is clamped to ≥ 1).
    ///
    /// Metering is identical to [`Disk::open_reader`] streaming the whole
    /// file: one sequential block read per block.
    pub fn open_prefetch_reader<R: Record>(
        &self,
        name: &str,
        depth: usize,
        pool: BufferPool,
    ) -> PdmResult<PrefetchReader<R>> {
        let rpb = records_per_block::<R>(self)?;
        let (raw, bytes) = self.open_raw(name)?;
        check_whole_records::<R>(name, bytes)?;
        let (tx, rx) = sync_channel(depth.max(1));
        let worker = std::thread::Builder::new()
            .name(format!("prefetch:{name}"))
            .spawn({
                let stats = self.stats().clone();
                let pool = pool.clone();
                let name = name.to_string();
                move || prefetch_worker::<R>(raw, bytes, rpb, stats, pool, name, tx)
            })
            .expect("spawn prefetch worker");
        Ok(PrefetchReader {
            name: name.to_string(),
            len: bytes / R::SIZE as u64,
            pos: 0,
            buf: Vec::new(),
            buf_off: 0,
            rx: Some(rx),
            worker: Some(worker),
            pool,
            codec: self.codec(),
            _stream: self.stats().stream_opened(),
            _marker: std::marker::PhantomData,
        })
    }
}

fn check_whole_records<R: Record>(name: &str, bytes: u64) -> PdmResult<()> {
    if !bytes.is_multiple_of(R::SIZE as u64) {
        return Err(PdmError::Corrupt {
            name: name.to_string(),
            bytes,
            record_size: R::SIZE,
        });
    }
    Ok(())
}

/// Serial background read loop: fetch each block in file order, meter it
/// exactly like [`crate::file::BlockReader::next_record`] would, ship it
/// downstream.
fn prefetch_worker<R: Record>(
    raw: RawFile,
    bytes: u64,
    rpb: usize,
    stats: IoStats,
    pool: BufferPool,
    name: String,
    tx: SyncSender<PdmResult<Vec<u8>>>,
) {
    let block_bytes = (rpb * R::SIZE) as u64;
    let mut off = 0u64;
    while off < bytes {
        let want = ((bytes - off).min(block_bytes)) as usize;
        let mut buf = pool.take(want);
        buf.resize(want, 0);
        let result = match raw.read_at(off, &mut buf) {
            Ok(got) if got == want => {
                stats.on_read(want as u64);
                Ok(buf)
            }
            Ok(got) => Err(PdmError::Corrupt {
                name: name.clone(),
                bytes: off + got as u64,
                record_size: R::SIZE,
            }),
            Err(e) => Err(e),
        };
        let failed = result.is_err();
        if tx.send(result).is_err() || failed {
            // Consumer dropped early (or the file is corrupt): stop reading.
            return;
        }
        off += want as u64;
    }
}

impl<R: Record> PrefetchReader<R> {
    /// Total number of records in the file.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records left to stream.
    pub fn remaining(&self) -> u64 {
        self.len - self.pos
    }

    /// File name this reader reads.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn refill(&mut self) -> PdmResult<()> {
        let rx = self.rx.as_ref().expect("prefetch channel closed early");
        let block = rx.recv().expect("prefetch worker died without a verdict")?;
        self.pool.put(std::mem::replace(&mut self.buf, block));
        self.buf_off = 0;
        Ok(())
    }

    /// Returns the next record, or `None` at end of file. Blocks only when
    /// the consumer outruns the prefetcher.
    pub fn next_record(&mut self) -> PdmResult<Option<R>> {
        if self.pos >= self.len {
            return Ok(None);
        }
        if self.buf_off >= self.buf.len() {
            self.refill()?;
        }
        if self.codec == Codec::ZeroCopy {
            // Zero-copy fast path: consume the block in place through a
            // borrowed `&[R]` view (no per-record decode).
            if let Some(view) = R::view_slice(&self.buf) {
                let rec = view[self.buf_off / R::SIZE];
                self.buf_off += R::SIZE;
                self.pos += 1;
                return Ok(Some(rec));
            }
        }
        let rec = self
            .buf
            .get(self.buf_off..self.buf_off + R::SIZE)
            .and_then(R::try_read_from)
            .ok_or_else(|| PdmError::Corrupt {
                name: self.name.clone(),
                bytes: self.buf.len() as u64,
                record_size: R::SIZE,
            })?;
        self.buf_off += R::SIZE;
        self.pos += 1;
        Ok(Some(rec))
    }

    /// Borrows the unconsumed remainder of the current block as a record
    /// slice, refilling first when the block is exhausted — the zero-copy
    /// scan path. `Ok(None)` means end of file; an **empty** view means the
    /// buffer cannot be viewed in place (no POD layout, or misaligned), so
    /// stream that block via [`PrefetchReader::next_record`] instead. Use
    /// [`PrefetchReader::consume`] to advance past records taken from the
    /// view.
    pub fn next_block_view(&mut self) -> PdmResult<Option<&[R]>> {
        if self.pos >= self.len {
            return Ok(None);
        }
        if self.buf_off >= self.buf.len() {
            self.refill()?;
        }
        match R::view_slice(&self.buf[self.buf_off..]) {
            Some(view) => Ok(Some(view)),
            None => Ok(Some(&[])),
        }
    }

    /// Advances past `n` records previously obtained from
    /// [`PrefetchReader::next_block_view`].
    pub fn consume(&mut self, n: usize) {
        debug_assert!(self.buf_off + n * R::SIZE <= self.buf.len());
        self.buf_off += n * R::SIZE;
        self.pos += n as u64;
    }

    /// Streams up to `max` records into `out`, bulk-decoding whole prefetched
    /// blocks ([`Record::read_slice_from`]) instead of one virtual call per
    /// record. Returns the record count appended.
    pub fn read_into(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let mut got = 0usize;
        while got < max && self.pos < self.len {
            if self.buf_off >= self.buf.len() {
                self.refill()?;
            }
            let avail = (self.buf.len() - self.buf_off) / R::SIZE;
            let take = avail.min(max - got);
            let end = self.buf_off + take * R::SIZE;
            R::read_slice_from(&self.buf[self.buf_off..end], out);
            self.buf_off = end;
            self.pos += take as u64;
            got += take;
        }
        Ok(got)
    }
}

impl<R: Record> Drop for PrefetchReader<R> {
    fn drop(&mut self) {
        // Closing the receiver makes the worker's next send fail, which
        // stops it; then reap the thread so no I/O outlives the handle.
        drop(self.rx.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

/// Appends records to a disk file while a background worker performs the
/// block writes.
#[derive(Debug)]
pub struct WriteBehindWriter<R: Record> {
    name: String,
    buf: Vec<u8>,
    block_bytes: usize,
    tx: Option<SyncSender<Vec<u8>>>,
    worker: Option<JoinHandle<PdmResult<()>>>,
    pool: BufferPool,
    written: u64,
    finished: bool,
    /// Marks this writer as an open request stream for queue diagnostics.
    _stream: crate::stats::StreamGuard,
    _marker: std::marker::PhantomData<R>,
}

impl Disk {
    /// Creates a file for pipelined appending: full blocks queue for the
    /// worker, up to `depth` at a time (clamped to ≥ 1).
    ///
    /// Metering and flush boundaries are identical to
    /// [`Disk::create_writer`]: one block write per full block plus one for
    /// a partial tail at [`WriteBehindWriter::finish`].
    pub fn create_write_behind<R: Record>(
        &self,
        name: &str,
        depth: usize,
        pool: BufferPool,
    ) -> PdmResult<WriteBehindWriter<R>> {
        let rpb = records_per_block::<R>(self)?;
        let raw = self.create_raw(name)?;
        let (tx, rx) = sync_channel::<Vec<u8>>(depth.max(1));
        let worker = std::thread::Builder::new()
            .name(format!("writebehind:{name}"))
            .spawn({
                let stats = self.stats().clone();
                let pool = pool.clone();
                move || -> PdmResult<()> {
                    while let Ok(buf) = rx.recv() {
                        raw.append(&buf)?;
                        stats.on_write(buf.len() as u64);
                        pool.put(buf);
                    }
                    raw.sync()?;
                    Ok(())
                }
            })
            .expect("spawn write-behind worker");
        Ok(WriteBehindWriter {
            name: name.to_string(),
            buf: pool.take(self.block_bytes()),
            block_bytes: rpb * R::SIZE,
            tx: Some(tx),
            worker: Some(worker),
            pool,
            written: 0,
            finished: false,
            _stream: self.stats().stream_opened(),
            _marker: std::marker::PhantomData,
        })
    }
}

impl<R: Record> WriteBehindWriter<R> {
    /// Appends one record. Blocks only when the producer outruns the
    /// worker by more than the queue depth.
    pub fn push(&mut self, r: R) -> PdmResult<()> {
        debug_assert!(!self.finished, "push after finish");
        let old = self.buf.len();
        self.buf.resize(old + R::SIZE, 0);
        r.write_to(&mut self.buf[old..]);
        self.written += 1;
        if self.buf.len() >= self.block_bytes {
            let full = std::mem::replace(&mut self.buf, self.pool.take(self.block_bytes));
            self.ship(full)?;
        }
        Ok(())
    }

    /// Appends every record in the slice, bulk-encoding one block segment
    /// at a time ([`Record::write_slice_to`]). Flush boundaries — and
    /// therefore metering — are identical to a [`WriteBehindWriter::push`]
    /// loop.
    pub fn push_all(&mut self, rs: &[R]) -> PdmResult<()> {
        debug_assert!(!self.finished, "push after finish");
        let mut rest = rs;
        while !rest.is_empty() {
            let room = (self.block_bytes - self.buf.len()) / R::SIZE;
            let take = rest.len().min(room);
            let old = self.buf.len();
            self.buf.resize(old + take * R::SIZE, 0);
            R::write_slice_to(&rest[..take], &mut self.buf[old..]);
            self.written += take as u64;
            rest = &rest[take..];
            if self.buf.len() >= self.block_bytes {
                let full = std::mem::replace(&mut self.buf, self.pool.take(self.block_bytes));
                self.ship(full)?;
            }
        }
        Ok(())
    }

    /// Records pushed so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// File name this writer targets.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Flushes the partial last block, waits for the worker to drain and
    /// sync, and returns the total record count. Must be called — dropping
    /// an unfinished writer loses the buffered tail (mirrors real buffered
    /// I/O) and debug-asserts.
    pub fn finish(mut self) -> PdmResult<u64> {
        if !self.buf.is_empty() {
            let tail = std::mem::take(&mut self.buf);
            self.ship(tail)?;
        }
        self.finished = true;
        drop(self.tx.take()); // close the queue: the worker drains and syncs
        match self.worker.take().expect("finish called twice").join() {
            Ok(result) => result.map(|()| self.written),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    /// Sends one block to the worker, surfacing any write error.
    fn ship(&mut self, block: Vec<u8>) -> PdmResult<()> {
        let sender = self.tx.as_ref().expect("ship after finish");
        if sender.send(block).is_err() {
            // The worker exited early — only because an append failed.
            drop(self.tx.take());
            let err = match self.worker.take().expect("worker already reaped").join() {
                Ok(Ok(())) => unreachable!("worker closed its queue while alive"),
                Ok(Err(e)) => e,
                Err(panic) => std::panic::resume_unwind(panic),
            };
            self.finished = true; // nothing more can be written
            return Err(err);
        }
        Ok(())
    }
}

impl<R: Record> Drop for WriteBehindWriter<R> {
    fn drop(&mut self) {
        debug_assert!(
            self.finished || (self.written == 0 && self.buf.is_empty()) || std::thread::panicking(),
            "WriteBehindWriter for {:?} dropped with unflushed records — call finish()",
            self.name
        );
        drop(self.tx.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        self.pool.put(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::ScratchDir;

    /// An in-memory disk and a file-backed one.
    fn disks() -> Vec<(Disk, Option<ScratchDir>)> {
        let scratch = ScratchDir::new("pdm-pipeline-test").unwrap();
        let fd = Disk::on_files(scratch.path(), 16);
        vec![(Disk::in_memory(16), None), (fd, Some(scratch))]
    }

    #[test]
    fn prefetch_reads_whole_file_in_order() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..103).map(|i| i * 3).collect();
            disk.write_file("f", &data).unwrap();
            let mut r = disk
                .open_prefetch_reader::<u32>("f", 2, BufferPool::default())
                .unwrap();
            assert_eq!(r.len(), 103);
            let mut out = Vec::new();
            while let Some(x) = r.next_record().unwrap() {
                out.push(x);
            }
            assert_eq!(out, data);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn prefetch_meters_like_sequential_reader() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..10).collect(); // 2 full + 1 partial block
        disk.write_file("m", &data).unwrap();
        let before = disk.stats().snapshot();
        let mut r = disk
            .open_prefetch_reader::<u32>("m", 2, BufferPool::default())
            .unwrap();
        while r.next_record().unwrap().is_some() {}
        drop(r);
        let delta = disk.stats().snapshot().delta(&before);
        assert_eq!(delta.blocks_read, 3);
        assert_eq!(delta.bytes_read, 40);
        assert_eq!(delta.random_reads, 0);
    }

    #[test]
    fn prefetch_read_into_bulk_matches_streaming() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..103).map(|i| i * 3).collect();
            disk.write_file("bulk", &data).unwrap();
            let before = disk.stats().snapshot();
            let mut r = disk
                .open_prefetch_reader::<u32>("bulk", 2, BufferPool::default())
                .unwrap();
            let mut out = Vec::new();
            assert_eq!(r.read_into(&mut out, 6).unwrap(), 6);
            assert_eq!(r.read_into(&mut out, 1000).unwrap(), 97);
            assert_eq!(r.read_into(&mut out, 1).unwrap(), 0);
            assert_eq!(out, data);
            drop(r);
            let delta = disk.stats().snapshot().delta(&before);
            assert_eq!(delta.blocks_read, 26, "one metered read per block");
        }
    }

    #[test]
    fn prefetch_block_views_scan_whole_file() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..103).map(|i| i * 7).collect();
            disk.write_file("v", &data).unwrap();
            let mut r = disk
                .open_prefetch_reader::<u32>("v", 3, BufferPool::default())
                .unwrap();
            let mut out = Vec::new();
            while let Some(view) = r.next_block_view().unwrap() {
                let n = view.len();
                if n == 0 {
                    // In-place view unavailable: per-record fallback.
                    out.push(r.next_record().unwrap().unwrap());
                    continue;
                }
                out.extend_from_slice(view);
                r.consume(n);
            }
            assert_eq!(out, data);
        }
    }

    #[test]
    fn prefetch_empty_file() {
        for (disk, _g) in disks() {
            disk.write_file::<u32>("e", &[]).unwrap();
            let mut r = disk
                .open_prefetch_reader::<u32>("e", 2, BufferPool::default())
                .unwrap();
            assert!(r.is_empty());
            assert_eq!(r.next_record().unwrap(), None);
        }
    }

    #[test]
    fn prefetch_dropped_early_stops_cleanly() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..1000).collect();
            disk.write_file("big", &data).unwrap();
            let mut r = disk
                .open_prefetch_reader::<u32>("big", 2, BufferPool::default())
                .unwrap();
            assert_eq!(r.next_record().unwrap(), Some(0));
            // Dropping with hundreds of blocks unread must not hang or leak.
        }
    }

    #[test]
    fn prefetch_detects_corrupt_length() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("x", &[1, 2, 3]).unwrap();
        disk.truncate("x", 10).unwrap();
        assert!(matches!(
            disk.open_prefetch_reader::<u32>("x", 2, BufferPool::default()),
            Err(PdmError::Corrupt { .. })
        ));
    }

    #[test]
    fn prefetch_detects_truncation_mid_stream() {
        let disk = Disk::in_memory(16);
        let data: Vec<u32> = (0..64).collect();
        disk.write_file("t", &data).unwrap();
        let mut r = disk
            .open_prefetch_reader::<u32>("t", 1, BufferPool::default())
            .unwrap();
        // With depth 1 the worker can be at most 2 blocks (8 records)
        // ahead before the first consume, so truncating to 8 records now
        // guarantees it hits the missing tail once the consumer drains
        // the queue.
        disk.truncate("t", 32).unwrap();
        let mut res = Ok(None);
        for _ in 0..=64 {
            res = r.next_record();
            if res.is_err() {
                break;
            }
        }
        assert!(matches!(res, Err(PdmError::Corrupt { .. })));
    }

    #[test]
    fn write_behind_roundtrip_and_metering() {
        for (disk, _g) in disks() {
            let data: Vec<u32> = (0..103).collect(); // 25 full blocks + tail
            let before = disk.stats().snapshot();
            let mut w = disk
                .create_write_behind::<u32>("w", 2, BufferPool::default())
                .unwrap();
            w.push_all(&data).unwrap();
            assert_eq!(w.written(), 103);
            assert_eq!(w.finish().unwrap(), 103);
            let delta = disk.stats().snapshot().delta(&before);
            assert_eq!(delta.blocks_written, 26);
            assert_eq!(delta.bytes_written, 103 * 4);
            assert_eq!(delta.files_created, 1);
            assert_eq!(disk.read_file::<u32>("w").unwrap(), data);
        }

        // A deep queue over many blocks of a real file, with an odd tail.
        let scratch = ScratchDir::new("pdm-pipeline-deep").unwrap();
        let disk = Disk::on_files(scratch.path(), 64);
        let data: Vec<u64> = (0..4099u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let pool = BufferPool::default();
        let mut w = disk
            .create_write_behind::<u64>("deep", 8, pool.clone())
            .unwrap();
        w.push_all(&data).unwrap();
        assert_eq!(w.finish().unwrap(), 4099);
        let mut r = disk.open_prefetch_reader::<u64>("deep", 8, pool).unwrap();
        let mut out = Vec::new();
        r.read_into(&mut out, usize::MAX).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn write_behind_empty_file() {
        for (disk, _g) in disks() {
            let w = disk
                .create_write_behind::<u32>("e", 2, BufferPool::default())
                .unwrap();
            assert_eq!(w.finish().unwrap(), 0);
            assert_eq!(disk.len_records::<u32>("e").unwrap(), 0);
        }
    }

    #[test]
    fn write_behind_duplicate_create_fails() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("dup", &[1]).unwrap();
        assert!(matches!(
            disk.create_write_behind::<u32>("dup", 2, BufferPool::default()),
            Err(PdmError::AlreadyExists(_))
        ));
    }

    #[test]
    fn pipelined_pair_matches_sequential_io_counts() {
        let pool = BufferPool::default();
        let seq = Disk::in_memory(16);
        let pipe = Disk::in_memory(16);
        let data: Vec<u32> = (0..537u32).map(|i| i.wrapping_mul(2654435761)).collect();

        seq.write_file("a", &data).unwrap();
        let mut sr = seq.open_reader::<u32>("a").unwrap();
        let mut sw = seq.create_writer::<u32>("b").unwrap();
        while let Some(x) = sr.next_record().unwrap() {
            sw.push(x).unwrap();
        }
        sw.finish().unwrap();

        pipe.write_file("a", &data).unwrap();
        let mut pr = pipe
            .open_prefetch_reader::<u32>("a", 3, pool.clone())
            .unwrap();
        let mut pw = pipe.create_write_behind::<u32>("b", 3, pool).unwrap();
        while let Some(x) = pr.next_record().unwrap() {
            pw.push(x).unwrap();
        }
        pw.finish().unwrap();

        assert_eq!(seq.stats().snapshot(), pipe.stats().snapshot());
        assert_eq!(
            seq.read_file::<u32>("b").unwrap(),
            pipe.read_file::<u32>("b").unwrap()
        );
    }

    #[test]
    fn tiny_blocks_rejected_before_any_io() {
        let disk = Disk::in_memory(2);
        assert!(matches!(
            disk.open_prefetch_reader::<u32>("f", 2, BufferPool::default()),
            Err(PdmError::InvalidConfig(_))
        ));
        assert!(matches!(
            disk.create_write_behind::<u32>("f", 2, BufferPool::default()),
            Err(PdmError::InvalidConfig(_))
        ));
    }
}
