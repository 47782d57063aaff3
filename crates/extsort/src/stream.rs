//! Fallible record streams.
//!
//! The merge machinery is generic over where records come from: a block
//! file, an in-memory slice (tests), or a *bounded view* of the next `L`
//! records of a tape (polyphase reads one run at a time from each tape).

use pdm::{BlockReader, PdmResult, PrefetchReader, Record};

/// A fallible source of records, like `Iterator` but with I/O errors.
pub trait RecordStream<R: Record> {
    /// Returns the next record, or `None` when exhausted.
    fn next_record(&mut self) -> PdmResult<Option<R>>;

    /// Appends up to `max` records to `out` and returns how many it
    /// appended; fewer than `max` (0 included) only at the end of the
    /// stream. The records are exactly those `max` [`next_record`] calls
    /// would return, and the default is that loop; block sources override
    /// it to decode whole buffered segments at once.
    ///
    /// [`next_record`]: RecordStream::next_record
    fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let mut got = 0;
        while got < max {
            match self.next_record()? {
                Some(r) => out.push(r),
                None => break,
            }
            got += 1;
        }
        Ok(got)
    }
}

impl<R: Record> RecordStream<R> for BlockReader<R> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        BlockReader::next_record(self)
    }

    fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        self.read_into(out, max)
    }
}

impl<R: Record> RecordStream<R> for PrefetchReader<R> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        PrefetchReader::next_record(self)
    }

    fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        self.read_into(out, max)
    }
}

/// An in-memory stream over a vector of records (mainly for tests and for
/// merging in-core chunks).
#[derive(Debug)]
pub struct SliceStream<R> {
    data: Vec<R>,
    pos: usize,
}

impl<R: Record> SliceStream<R> {
    /// Wraps a vector as a stream.
    pub fn new(data: Vec<R>) -> Self {
        SliceStream { data, pos: 0 }
    }
}

impl<R: Record> RecordStream<R> for SliceStream<R> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        if self.pos < self.data.len() {
            let r = self.data[self.pos];
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }

    fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let take = max.min(self.data.len() - self.pos);
        out.extend_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

/// A stream that yields at most `limit` records from an underlying stream —
/// a *view of one run* on a tape whose cursor then stays positioned at the
/// start of the next run.
#[derive(Debug)]
pub struct Bounded<'a, R: Record, S: RecordStream<R>> {
    inner: &'a mut S,
    left: u64,
    _marker: std::marker::PhantomData<R>,
}

impl<'a, R: Record, S: RecordStream<R>> Bounded<'a, R, S> {
    /// Takes the next `limit` records of `inner` as a sub-stream.
    pub fn new(inner: &'a mut S, limit: u64) -> Self {
        Bounded {
            inner,
            left: limit,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<R: Record, S: RecordStream<R>> RecordStream<R> for Bounded<'_, R, S> {
    fn next_record(&mut self) -> PdmResult<Option<R>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let r = self.inner.next_record()?;
        debug_assert!(r.is_some(), "bounded stream ran past underlying end");
        Ok(r)
    }

    /// Caps the request at the records left in the run, so a batched
    /// reader never decodes (or meters) a block past the run boundary
    /// that a per-record drain would not have read.
    fn next_batch(&mut self, out: &mut Vec<R>, max: usize) -> PdmResult<usize> {
        let take = usize::try_from(self.left).map_or(max, |left| left.min(max));
        let got = self.inner.next_batch(out, take)?;
        debug_assert_eq!(got, take, "bounded stream ran past underlying end");
        self.left -= got as u64;
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm::{Disk, ScratchDir};

    fn drain<R: Record>(s: &mut impl RecordStream<R>) -> Vec<R> {
        let mut out = Vec::new();
        while let Some(x) = s.next_record().unwrap() {
            out.push(x);
        }
        out
    }

    #[test]
    fn slice_stream_yields_all() {
        let mut s = SliceStream::new(vec![3u32, 1, 4, 1, 5]);
        assert_eq!(drain(&mut s), vec![3, 1, 4, 1, 5]);
        assert_eq!(s.next_record().unwrap(), None); // stays exhausted
    }

    #[test]
    fn block_reader_is_a_stream() {
        let disk = Disk::in_memory(16);
        disk.write_file::<u32>("f", &[9, 8, 7]).unwrap();
        let mut r = disk.open_reader::<u32>("f").unwrap();
        assert_eq!(drain(&mut r), vec![9, 8, 7]);
    }

    #[test]
    fn bounded_takes_prefix_and_leaves_cursor() {
        let mut s = SliceStream::new((0u32..10).collect());
        {
            let mut b = Bounded::new(&mut s, 4);
            assert_eq!(drain(&mut b), vec![0, 1, 2, 3]);
            assert_eq!(b.next_record().unwrap(), None);
        }
        // The underlying stream continues where the bound left off.
        assert_eq!(drain(&mut s), vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn bounded_zero_is_empty() {
        let mut s = SliceStream::new(vec![1u32]);
        let mut b = Bounded::new(&mut s, 0);
        assert_eq!(b.next_record().unwrap(), None);
    }

    #[test]
    fn batched_bounded_drain_meters_like_per_record() {
        // 16 u32 per block. The drain starts mid-block (a metered random
        // read, as a resumed merge segment does); its runs end mid-block,
        // on a block edge and past several blocks.
        let scratch = ScratchDir::new("stream-lookahead").unwrap();
        let start = 3u64;
        let runs = [5u64, 8, 16, 37, 1, 30, 20];
        let total = start + runs.iter().sum::<u64>();
        let data: Vec<u32> = (0..total as u32).collect();
        for disk in [Disk::in_memory(64), Disk::on_files(scratch.path(), 64)] {
            disk.write_file("tape", &data).unwrap();
            // Per-run (blocks_read, random_reads, seek_bytes) after each
            // run, draining record by record or in batches of up to `batch`
            // (`usize::MAX`: one request larger than any run).
            let meter = |batch: Option<usize>| {
                let before = disk.stats().snapshot();
                let mut rd = disk.open_reader::<u32>("tape").unwrap();
                rd.seek(start);
                rd.read_at(start).unwrap();
                let mut at = start;
                let mut meters = Vec::new();
                for &len in &runs {
                    let mut got = Vec::new();
                    let mut view = Bounded::new(&mut rd, len);
                    match batch {
                        Some(max) => while view.next_batch(&mut got, max).unwrap() > 0 {},
                        None => got = drain(&mut view),
                    }
                    assert_eq!(got, &data[at as usize..(at + len) as usize]);
                    at += len;
                    assert_eq!(rd.pos(), at, "cursor must stop at the run boundary");
                    let io = disk.stats().snapshot().delta(&before);
                    meters.push((io.blocks_read, io.random_reads, io.seek_bytes));
                }
                meters
            };
            let per_record = meter(None);
            assert_eq!(meter(Some(7)), per_record);
            assert_eq!(meter(Some(usize::MAX)), per_record);
            assert_eq!(per_record.last().unwrap().1, 1, "the one random read");
        }
    }
}
