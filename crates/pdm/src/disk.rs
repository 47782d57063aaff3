//! A simulated disk drive: a namespace of block files.
//!
//! A [`Disk`] owns a set of named files, a block size, shared I/O counters
//! and a service-time model. Two storage backends are provided:
//!
//! * **Files** — each named file is a real file in a scratch directory; the
//!   external sorts really hit the filesystem (the default for experiments).
//! * **Memory** — each named file lives in memory; identical semantics and
//!   identical I/O *accounting*, but fast enough for property tests that
//!   run thousands of sorts, and what simulated cluster nodes use by
//!   default.
//!
//! A memory file is a list of chunks of at most 256 KiB (`MEM_CHUNK`),
//! every one full but the last. A chunk grows by doubling up to that
//! bound, and an append to a full chunk starts a new one, so growing a
//! file never copies more than one chunk and leaves less than one chunk
//! of slack. A single growing buffer per file would reallocate the whole
//! file on every doubling and fault in fresh pages each time: a 27 MB
//! tape would copy about as many bytes again as it holds and waste up to
//! half its capacity. Chunks are plain `Vec`s handed back to the
//! allocator when a file goes, so memory follows the live bytes.
//!
//! Typed, block-buffered access is layered on top in [`crate::file`].

use std::collections::HashMap;
use std::fs;
#[cfg(not(unix))]
use std::io::Read;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::error::{PdmError, PdmResult};
use crate::model::DiskModel;
use crate::stats::IoStats;

/// Which storage backend a [`Disk`] uses.
#[derive(Debug, Clone)]
pub enum Backend {
    /// In-memory byte buffers (fast, for tests).
    Memory,
    /// Real files under the given directory (real I/O, for experiments).
    Files(PathBuf),
}

/// A simulated disk: cheaply cloneable handle to a file namespace plus
/// shared I/O counters.
///
/// ```
/// use pdm::Disk;
///
/// let disk = Disk::in_memory(16); // 4 u32 records per block
/// disk.write_file::<u32>("data", &[10, 20, 30, 40, 50]).unwrap();
/// assert_eq!(disk.len_records::<u32>("data").unwrap(), 5);
/// // Every transfer is metered in PDM blocks: 5 records = 2 blocks.
/// assert_eq!(disk.stats().snapshot().blocks_written, 2);
/// let mut reader = disk.open_reader::<u32>("data").unwrap();
/// assert_eq!(reader.read_at(3).unwrap(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct Disk {
    inner: Arc<DiskInner>,
}

#[derive(Debug)]
struct DiskInner {
    backend: BackendImpl,
    block_bytes: usize,
    stats: IoStats,
    model: DiskModel,
    label: String,
}

#[derive(Debug)]
enum BackendImpl {
    Memory(Mutex<HashMap<String, Arc<Mutex<MemFile>>>>),
    Files { dir: PathBuf },
}

/// The largest chunk of a memory file, in bytes.
pub(crate) const MEM_CHUNK: usize = 256 * 1024;

/// A memory-disk file: chunks of at most [`MEM_CHUNK`] bytes, every one
/// full but the last, holding `len` bytes in all.
#[derive(Debug, Default)]
pub(crate) struct MemFile {
    chunks: Vec<Vec<u8>>,
    len: usize,
}

impl MemFile {
    fn append(&mut self, mut buf: &[u8]) {
        while !buf.is_empty() {
            if self.len.is_multiple_of(MEM_CHUNK) {
                self.chunks.push(Vec::new());
            }
            let chunk = self.chunks.last_mut().expect("a chunk with room");
            let n = buf.len().min(MEM_CHUNK - chunk.len());
            let need = chunk.len() + n;
            if need > chunk.capacity() {
                // Double, as `Vec` would, but never past the bound.
                let cap = need.max(2 * chunk.capacity()).min(MEM_CHUNK);
                chunk.reserve_exact(cap - chunk.len());
            }
            chunk.extend_from_slice(&buf[..n]);
            self.len += n;
            buf = &buf[n..];
        }
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.len.saturating_sub(offset));
        let mut done = 0;
        while done < n {
            let at = offset + done;
            let chunk = &self.chunks[at / MEM_CHUNK][at % MEM_CHUNK..];
            let take = chunk.len().min(n - done);
            buf[done..done + take].copy_from_slice(&chunk[..take]);
            done += take;
        }
        n
    }

    /// Shortens the file to `len` bytes; a file no longer is left as it is.
    fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.chunks.truncate(len.div_ceil(MEM_CHUNK));
        if !len.is_multiple_of(MEM_CHUNK) {
            let last = self.chunks.last_mut().expect("a partial chunk");
            last.truncate(len % MEM_CHUNK);
        }
        self.len = len;
    }
}

/// An open file on a disk (byte-granular; used by the typed block layer).
/// Each handle has one owner, a block reader or writer. A memory handle
/// keeps its file alive, so a reader open on a removed file still reads
/// it, as after a Unix unlink.
#[derive(Debug)]
pub(crate) enum RawFile {
    Mem(Arc<Mutex<MemFile>>),
    File(fs::File),
}

impl Disk {
    /// Creates an in-memory disk with the given block size in bytes.
    pub fn in_memory(block_bytes: usize) -> Self {
        Self::new(Backend::Memory, block_bytes)
    }

    /// Creates a file-backed disk storing its files under `dir` (which must
    /// exist — typically a [`crate::tempdir::ScratchDir`]).
    pub fn on_files(dir: impl Into<PathBuf>, block_bytes: usize) -> Self {
        Self::new(Backend::Files(dir.into()), block_bytes)
    }

    /// Creates a disk with an explicit backend.
    ///
    /// # Panics
    /// Panics if `block_bytes == 0`.
    pub fn new(backend: Backend, block_bytes: usize) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        let backend = match backend {
            Backend::Memory => BackendImpl::Memory(Mutex::new(HashMap::new())),
            Backend::Files(dir) => BackendImpl::Files { dir },
        };
        Disk {
            inner: Arc::new(DiskInner {
                backend,
                block_bytes,
                stats: IoStats::new(),
                model: DiskModel::scsi_2000(),
                label: "disk".to_string(),
            }),
        }
    }

    /// Reclaims (or clones) the inner state for the `with_*` builders; must
    /// run before the disk is shared or the namespace handle is cloned.
    fn unshare(self) -> DiskInner {
        Arc::try_unwrap(self.inner).unwrap_or_else(|arc| DiskInner {
            backend: match &arc.backend {
                BackendImpl::Memory(m) => {
                    BackendImpl::Memory(Mutex::new(m.lock().unwrap().clone()))
                }
                BackendImpl::Files { dir } => BackendImpl::Files { dir: dir.clone() },
            },
            block_bytes: arc.block_bytes,
            stats: arc.stats.clone(),
            model: arc.model.clone(),
            label: arc.label.clone(),
        })
    }

    /// Returns a copy of this disk handle with a different service model.
    /// Must be called before the disk is shared (it clones the namespace
    /// handle but resets nothing else).
    pub fn with_model(self, model: DiskModel) -> Self {
        let inner = self.unshare();
        Disk {
            inner: Arc::new(DiskInner { model, ..inner }),
        }
    }

    /// Returns a copy of this disk handle with a display label.
    pub fn with_label(self, label: impl Into<String>) -> Self {
        let label = label.into();
        let inner = self.unshare();
        Disk {
            inner: Arc::new(DiskInner { label, ..inner }),
        }
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.inner.block_bytes
    }

    /// Shared I/O counters.
    pub fn stats(&self) -> &IoStats {
        &self.inner.stats
    }

    /// The disk's service-time model.
    pub fn model(&self) -> &DiskModel {
        &self.inner.model
    }

    /// Display label.
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// Creates a new file, failing if it already exists.
    pub(crate) fn create_raw(&self, name: &str) -> PdmResult<RawFile> {
        self.inner.stats.on_create();
        match &self.inner.backend {
            BackendImpl::Memory(map) => {
                let mut map = map.lock().unwrap();
                if map.contains_key(name) {
                    return Err(PdmError::AlreadyExists(name.to_string()));
                }
                let buf = Arc::new(Mutex::new(MemFile::default()));
                map.insert(name.to_string(), buf.clone());
                Ok(RawFile::Mem(buf))
            }
            BackendImpl::Files { dir } => {
                let path = dir.join(name);
                if path.exists() {
                    return Err(PdmError::AlreadyExists(name.to_string()));
                }
                if let Some(parent) = path.parent() {
                    fs::create_dir_all(parent)?;
                }
                let f = fs::File::create(&path)?;
                Ok(RawFile::File(f))
            }
        }
    }

    /// Opens an existing file for reading; returns the handle and byte size.
    pub(crate) fn open_raw(&self, name: &str) -> PdmResult<(RawFile, u64)> {
        match &self.inner.backend {
            BackendImpl::Memory(map) => {
                let map = map.lock().unwrap();
                let buf = map
                    .get(name)
                    .ok_or_else(|| PdmError::NotFound(name.to_string()))?
                    .clone();
                let len = buf.lock().unwrap().len as u64;
                Ok((RawFile::Mem(buf), len))
            }
            BackendImpl::Files { dir } => {
                let path = dir.join(name);
                let f = fs::File::open(&path).map_err(|_| PdmError::NotFound(name.to_string()))?;
                let len = f.metadata()?.len();
                Ok((RawFile::File(f), len))
            }
        }
    }

    /// Deletes a file (idempotent: missing files are ignored).
    pub fn remove(&self, name: &str) -> PdmResult<()> {
        match &self.inner.backend {
            BackendImpl::Memory(map) => {
                map.lock().unwrap().remove(name);
                Ok(())
            }
            BackendImpl::Files { dir } => match fs::remove_file(dir.join(name)) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(e.into()),
            },
        }
    }

    /// Whether a file exists.
    pub fn exists(&self, name: &str) -> bool {
        match &self.inner.backend {
            BackendImpl::Memory(map) => map.lock().unwrap().contains_key(name),
            BackendImpl::Files { dir } => dir.join(name).exists(),
        }
    }

    /// Byte length of a file.
    pub fn len_bytes(&self, name: &str) -> PdmResult<u64> {
        match &self.inner.backend {
            BackendImpl::Memory(map) => map
                .lock()
                .unwrap()
                .get(name)
                .map(|b| b.lock().unwrap().len as u64)
                .ok_or_else(|| PdmError::NotFound(name.to_string())),
            BackendImpl::Files { dir } => {
                let meta = fs::metadata(dir.join(name))
                    .map_err(|_| PdmError::NotFound(name.to_string()))?;
                Ok(meta.len())
            }
        }
    }

    /// Renames a file (no data movement, so no I/O is metered — matches a
    /// directory operation on a real filesystem).
    pub fn rename(&self, old: &str, new: &str) -> PdmResult<()> {
        match &self.inner.backend {
            BackendImpl::Memory(map) => {
                let mut map = map.lock().unwrap();
                if map.contains_key(new) {
                    return Err(PdmError::AlreadyExists(new.to_string()));
                }
                let buf = map
                    .remove(old)
                    .ok_or_else(|| PdmError::NotFound(old.to_string()))?;
                map.insert(new.to_string(), buf);
                Ok(())
            }
            BackendImpl::Files { dir } => {
                let to = dir.join(new);
                if to.exists() {
                    return Err(PdmError::AlreadyExists(new.to_string()));
                }
                let from = dir.join(old);
                if !from.exists() {
                    return Err(PdmError::NotFound(old.to_string()));
                }
                fs::rename(from, to)?;
                Ok(())
            }
        }
    }

    /// Shortens a file to `bytes` — used by tests to inject torn-write
    /// corruption that readers must detect. A file no longer than `bytes`
    /// is left as it is on both backends.
    pub fn truncate(&self, name: &str, bytes: u64) -> PdmResult<()> {
        match &self.inner.backend {
            BackendImpl::Memory(map) => {
                let map = map.lock().unwrap();
                let buf = map
                    .get(name)
                    .ok_or_else(|| PdmError::NotFound(name.to_string()))?;
                buf.lock().unwrap().truncate(bytes as usize);
                Ok(())
            }
            BackendImpl::Files { dir } => {
                let f = fs::OpenOptions::new()
                    .write(true)
                    .open(dir.join(name))
                    .map_err(|_| PdmError::NotFound(name.to_string()))?;
                if bytes < f.metadata()?.len() {
                    f.set_len(bytes)?;
                }
                Ok(())
            }
        }
    }
}

impl RawFile {
    /// Appends bytes at the end of the file.
    pub(crate) fn append(&self, buf: &[u8]) -> PdmResult<()> {
        match self {
            RawFile::Mem(m) => {
                m.lock().unwrap().append(buf);
                Ok(())
            }
            RawFile::File(f) => {
                let mut h = f;
                h.seek(SeekFrom::End(0))?;
                h.write_all(buf)?;
                Ok(())
            }
        }
    }

    /// Reads up to `buf.len()` bytes starting at `offset`; returns the count
    /// actually read (short only at end of file). On unix this is a `pread`,
    /// which leaves the file's seek position alone.
    pub(crate) fn read_at(&self, offset: u64, buf: &mut [u8]) -> PdmResult<usize> {
        match self {
            RawFile::Mem(m) => Ok(m.lock().unwrap().read_at(offset as usize, buf)),
            #[cfg(unix)]
            RawFile::File(f) => {
                use std::os::unix::fs::FileExt;
                let mut read = 0;
                while read < buf.len() {
                    match f.read_at(&mut buf[read..], offset + read as u64) {
                        Ok(0) => break,
                        Ok(n) => read += n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
                Ok(read)
            }
            #[cfg(not(unix))]
            RawFile::File(f) => {
                let mut h = f;
                h.seek(SeekFrom::Start(offset))?;
                let mut read = 0;
                while read < buf.len() {
                    match h.read(&mut buf[read..]) {
                        Ok(0) => break,
                        Ok(n) => read += n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e.into()),
                    }
                }
                Ok(read)
            }
        }
    }

    /// Makes nothing durable. A `std::fs::File` is unbuffered, so its
    /// `Write::flush` does nothing and appended bytes already sit in the
    /// page cache; no fsync is issued (durable outputs are ROADMAP item 6).
    /// A no-op for the memory backend.
    pub(crate) fn sync(&self) -> PdmResult<()> {
        match self {
            RawFile::Mem(_) => Ok(()),
            RawFile::File(f) => {
                let mut h = f;
                h.flush()?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::ScratchDir;
    use sim::rng::{Pcg64, Rng};

    fn both_backends() -> Vec<(Disk, Option<ScratchDir>)> {
        let scratch = ScratchDir::new("pdm-disk-test").unwrap();
        let file_disk = Disk::on_files(scratch.path(), 64);
        vec![(Disk::in_memory(64), None), (file_disk, Some(scratch))]
    }

    #[test]
    fn create_write_read_roundtrip() {
        for (disk, _guard) in both_backends() {
            let f = disk.create_raw("a").unwrap();
            f.append(b"hello ").unwrap();
            f.append(b"world").unwrap();
            f.sync().unwrap();
            let (r, len) = disk.open_raw("a").unwrap();
            assert_eq!(len, 11);
            let mut buf = vec![0u8; 11];
            assert_eq!(r.read_at(0, &mut buf).unwrap(), 11);
            assert_eq!(&buf, b"hello world");
        }
    }

    #[test]
    fn read_at_offset_and_past_end() {
        for (disk, _guard) in both_backends() {
            let f = disk.create_raw("b").unwrap();
            f.append(b"0123456789").unwrap();
            let (r, _) = disk.open_raw("b").unwrap();
            let mut buf = [0u8; 4];
            assert_eq!(r.read_at(6, &mut buf).unwrap(), 4);
            assert_eq!(&buf, b"6789");
            assert_eq!(r.read_at(8, &mut buf).unwrap(), 2);
            assert_eq!(r.read_at(100, &mut buf).unwrap(), 0);
        }
    }

    #[test]
    fn create_duplicate_fails() {
        for (disk, _guard) in both_backends() {
            disk.create_raw("dup").unwrap();
            assert!(matches!(
                disk.create_raw("dup"),
                Err(PdmError::AlreadyExists(_))
            ));
        }
    }

    #[test]
    fn open_missing_fails() {
        for (disk, _guard) in both_backends() {
            assert!(matches!(disk.open_raw("nope"), Err(PdmError::NotFound(_))));
        }
    }

    #[test]
    fn remove_is_idempotent() {
        for (disk, _guard) in both_backends() {
            disk.create_raw("gone").unwrap();
            assert!(disk.exists("gone"));
            disk.remove("gone").unwrap();
            assert!(!disk.exists("gone"));
            disk.remove("gone").unwrap(); // second remove is fine
        }
    }

    #[test]
    fn rename_moves_content() {
        for (disk, _guard) in both_backends() {
            let f = disk.create_raw("old").unwrap();
            f.append(b"abc").unwrap();
            f.sync().unwrap();
            disk.rename("old", "new").unwrap();
            assert!(!disk.exists("old"));
            assert_eq!(disk.len_bytes("new").unwrap(), 3);
            // Renaming onto an existing name or from a missing one fails.
            disk.create_raw("blocker").unwrap();
            assert!(matches!(
                disk.rename("new", "blocker"),
                Err(PdmError::AlreadyExists(_))
            ));
            assert!(matches!(
                disk.rename("ghost", "x"),
                Err(PdmError::NotFound(_))
            ));
        }
    }

    #[test]
    fn len_and_truncate() {
        for (disk, _guard) in both_backends() {
            let f = disk.create_raw("t").unwrap();
            f.append(&[0u8; 100]).unwrap();
            f.sync().unwrap();
            assert_eq!(disk.len_bytes("t").unwrap(), 100);
            disk.truncate("t", 37).unwrap();
            assert_eq!(disk.len_bytes("t").unwrap(), 37);
        }
    }

    #[test]
    fn files_created_counter() {
        let disk = Disk::in_memory(64);
        disk.create_raw("x").unwrap();
        disk.create_raw("y").unwrap();
        assert_eq!(disk.stats().snapshot().files_created, 2);
    }

    #[test]
    fn with_model_and_label() {
        let disk = Disk::in_memory(64)
            .with_model(DiskModel::free())
            .with_label("node3");
        assert_eq!(disk.model().name, "free (zero-cost)");
        assert_eq!(disk.label(), "node3");
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        let _ = Disk::in_memory(0);
    }

    /// The whole file, read back in one `read_at`.
    fn contents(disk: &Disk, name: &str) -> Vec<u8> {
        let (r, len) = disk.open_raw(name).unwrap();
        let mut buf = vec![0u8; len as usize];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), buf.len());
        buf
    }

    /// Asserts the chunk layout of a memory file: no chunk's capacity
    /// exceeds `MEM_CHUNK`, every chunk but the last is full, the last is
    /// not empty, and the chunks hold `len` bytes in all.
    fn assert_chunked(disk: &Disk, name: &str) {
        let BackendImpl::Memory(map) = &disk.inner.backend else {
            panic!("not a memory disk");
        };
        let file = map.lock().unwrap()[name].clone();
        let file = file.lock().unwrap();
        assert!(file.chunks.iter().all(|c| c.capacity() <= MEM_CHUNK));
        if let Some((last, full)) = file.chunks.split_last() {
            assert!(full.iter().all(|c| c.len() == MEM_CHUNK));
            assert!(!last.is_empty());
        }
        assert_eq!(file.chunks.iter().map(Vec::len).sum::<usize>(), file.len);
    }

    fn random_bytes(rng: &mut Pcg64, n: usize) -> Vec<u8> {
        (0..n).map(|_| rng.next_u32() as u8).collect()
    }

    /// A length or offset near a chunk boundary, or anywhere below three
    /// chunks.
    fn edgy(rng: &mut Pcg64) -> usize {
        match rng.below(3) {
            0 => [0, 1, MEM_CHUNK - 1, MEM_CHUNK, MEM_CHUNK + 1][rng.below_usize(5)],
            1 => (rng.below_usize(3) + 1) * MEM_CHUNK + rng.below_usize(9) - 4,
            _ => rng.below_usize(3 * MEM_CHUNK + 1),
        }
    }

    #[test]
    fn memory_files_match_real_files() {
        let scratch = ScratchDir::new("pdm-chunk-diff").unwrap();
        let disks = [Disk::in_memory(64), Disk::on_files(scratch.path(), 64)];
        let names = ["a", "b", "c"];
        // One append handle per live file and disk; a rename moves it.
        let mut writers: [HashMap<&str, RawFile>; 2] = Default::default();
        let mut rng = Pcg64::new(11);
        for _ in 0..300 {
            let name = names[rng.below_usize(names.len())];
            match rng.below(6) {
                0 | 1 => {
                    let n = edgy(&mut rng);
                    let bytes = random_bytes(&mut rng, n);
                    for (disk, w) in disks.iter().zip(&mut writers) {
                        if !w.contains_key(name) {
                            w.insert(name, disk.create_raw(name).unwrap());
                        }
                        w[name].append(&bytes).unwrap();
                    }
                }
                2 => {
                    if !disks[0].exists(name) {
                        continue;
                    }
                    let len = disks[0].len_bytes(name).unwrap() as usize;
                    let offset = match rng.below(2) {
                        0 => edgy(&mut rng),
                        _ => rng.below_usize(len + 2),
                    };
                    let want = edgy(&mut rng);
                    let reads: Vec<(usize, Vec<u8>)> = disks
                        .iter()
                        .map(|disk| {
                            let (r, _) = disk.open_raw(name).unwrap();
                            let mut buf = vec![0u8; want];
                            let n = r.read_at(offset as u64, &mut buf).unwrap();
                            buf.truncate(n);
                            (n, buf)
                        })
                        .collect();
                    assert_eq!(reads[0].0, want.min(len.saturating_sub(offset)));
                    assert!(reads[0] == reads[1], "read_at({offset}, {want}) of {len}");
                }
                3 => {
                    if !disks[0].exists(name) {
                        continue;
                    }
                    let len = disks[0].len_bytes(name).unwrap() as usize;
                    let to = match rng.below(4) {
                        0 => rng.below_usize(len + 1),
                        1 => len / MEM_CHUNK * MEM_CHUNK,
                        2 => 0,
                        _ => len + rng.below_usize(MEM_CHUNK) + 1,
                    };
                    for disk in &disks {
                        disk.truncate(name, to as u64).unwrap();
                    }
                }
                4 => {
                    let to = names[rng.below_usize(names.len())];
                    let results: Vec<_> = disks.iter().map(|d| d.rename(name, to)).collect();
                    match (&results[0], &results[1]) {
                        (Ok(()), Ok(())) => {
                            for w in &mut writers {
                                let h = w.remove(name).unwrap();
                                w.insert(to, h);
                            }
                        }
                        (Err(PdmError::AlreadyExists(_)), Err(PdmError::AlreadyExists(_)))
                        | (Err(PdmError::NotFound(_)), Err(PdmError::NotFound(_))) => {}
                        other => panic!("rename {name} -> {to}: {other:?}"),
                    }
                }
                _ => {
                    for (disk, w) in disks.iter().zip(&mut writers) {
                        disk.remove(name).unwrap();
                        w.remove(name);
                    }
                }
            }
            for name in names {
                assert_eq!(disks[0].exists(name), disks[1].exists(name), "{name}");
                if disks[0].exists(name) {
                    assert_eq!(
                        disks[0].len_bytes(name).unwrap(),
                        disks[1].len_bytes(name).unwrap()
                    );
                    assert_chunked(&disks[0], name);
                    assert!(contents(&disks[0], name) == contents(&disks[1], name));
                }
            }
        }
    }

    #[test]
    fn chunks_stay_bounded_and_only_the_last_is_partial() {
        let disk = Disk::in_memory(64);
        let f = disk.create_raw("c").unwrap();
        let mut rng = Pcg64::new(7);
        let mut want = Vec::new();
        // Appends of one 3,000-byte block (which does not divide the chunk
        // size) and odd sizes, up to past three chunks.
        while want.len() < 3 * MEM_CHUNK + MEM_CHUNK / 2 {
            let n = if rng.below(4) == 0 {
                rng.below_usize(9000)
            } else {
                3000
            };
            let bytes = random_bytes(&mut rng, n);
            f.append(&bytes).unwrap();
            want.extend_from_slice(&bytes);
            assert_chunked(&disk, "c");
        }
        assert_eq!(contents(&disk, "c"), want);
        disk.truncate("c", 2 * MEM_CHUNK as u64).unwrap();
        assert_chunked(&disk, "c");
        f.append(b"x").unwrap();
        assert_chunked(&disk, "c");
        want.truncate(2 * MEM_CHUNK);
        want.push(b'x');
        assert_eq!(contents(&disk, "c"), want);
    }

    #[test]
    fn removed_memory_file_still_reads_in_full() {
        let disk = Disk::in_memory(64);
        let bytes = random_bytes(&mut Pcg64::new(3), 2 * MEM_CHUNK + 99);
        disk.create_raw("gone").unwrap().append(&bytes).unwrap();
        let (r, len) = disk.open_raw("gone").unwrap();
        disk.remove("gone").unwrap();
        assert!(!disk.exists("gone"));
        let mut buf = vec![0u8; len as usize];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), bytes.len());
        assert_eq!(buf, bytes);
    }
}
