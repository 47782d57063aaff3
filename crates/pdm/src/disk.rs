//! A simulated disk drive: a namespace of block files.
//!
//! A [`Disk`] owns a set of named files, a block size, shared I/O counters
//! and a service-time model. Two storage backends are provided:
//!
//! * **Files** — each named file is a real file in a scratch directory; the
//!   external sorts really hit the filesystem (the default for experiments).
//! * **Memory** — each named file is an in-memory byte buffer; identical
//!   semantics and identical I/O *accounting*, but fast enough for property
//!   tests that run thousands of sorts.
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
use crate::file::Codec;
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
    codec: Codec,
}

#[derive(Debug)]
enum BackendImpl {
    Memory(Mutex<HashMap<String, Arc<Mutex<Vec<u8>>>>>),
    Files { dir: PathBuf },
}

/// An open file on a disk (byte-granular; used by the typed block layer).
/// Each handle has one owner: a block reader or writer, or the pipeline
/// worker it was moved into.
#[derive(Debug)]
pub(crate) enum RawFile {
    Mem(Arc<Mutex<Vec<u8>>>),
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
                codec: Codec::default(),
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
            codec: arc.codec,
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

    /// Returns a copy of this disk handle with the given block codec. All
    /// typed readers/writers opened afterwards use it.
    pub fn with_codec(self, codec: Codec) -> Self {
        let inner = self.unshare();
        Disk {
            inner: Arc::new(DiskInner { codec, ..inner }),
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

    /// The block codec used by typed readers/writers on this disk.
    pub fn codec(&self) -> Codec {
        self.inner.codec
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
                let buf = Arc::new(Mutex::new(Vec::new()));
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
                let len = buf.lock().unwrap().len() as u64;
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
                .map(|b| b.lock().unwrap().len() as u64)
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

    /// Truncates a file to `bytes` — used by tests to inject torn-write
    /// corruption that readers must detect.
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
                f.set_len(bytes)?;
                Ok(())
            }
        }
    }
}

impl RawFile {
    /// Appends bytes at the end of the file.
    pub(crate) fn append(&self, buf: &[u8]) -> PdmResult<()> {
        match self {
            RawFile::Mem(v) => {
                v.lock().unwrap().extend_from_slice(buf);
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
            RawFile::Mem(v) => {
                let v = v.lock().unwrap();
                let off = offset as usize;
                if off >= v.len() {
                    return Ok(0);
                }
                let n = buf.len().min(v.len() - off);
                buf[..n].copy_from_slice(&v[off..off + n]);
                Ok(n)
            }
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

    /// Flushes OS buffers (no-op for the memory backend).
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
}
