//! Shared I/O accounting.
//!
//! The PDM measures algorithms by block transfers, so every read or write of
//! a block through this crate bumps a counter here. The cost models convert
//! counter *deltas* into virtual time at phase boundaries, and the
//! `fig_pdm_bound` harness compares totals against the theoretical
//! `Sort(N)` bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe I/O counters for one disk (cheaply cloneable handle).
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    random_reads: AtomicU64,
    seek_bytes: AtomicU64,
    files_created: AtomicU64,
}

/// A point-in-time copy of the counters; subtraction gives per-phase deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Block-granular reads.
    pub blocks_read: u64,
    /// Block-granular writes.
    pub blocks_written: u64,
    /// Bytes actually transferred by reads.
    pub bytes_read: u64,
    /// Bytes actually transferred by writes.
    pub bytes_written: u64,
    /// Reads that required a seek (random access, e.g. pivot sampling or
    /// splitter probes).
    pub random_reads: u64,
    /// Bytes transferred by those seeking reads (already included in
    /// `bytes_read`; broken out so probe I/O is separately auditable).
    pub seek_bytes: u64,
    /// Files created on the disk.
    pub files_created: u64,
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a block read of `bytes` payload bytes.
    pub fn on_read(&self, bytes: u64) {
        self.inner.blocks_read.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a block write of `bytes` payload bytes.
    pub fn on_write(&self, bytes: u64) {
        self.inner.blocks_written.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a random (seeking) block read of `bytes` payload bytes.
    pub fn on_random_read(&self, bytes: u64) {
        self.inner.random_reads.fetch_add(1, Ordering::Relaxed);
        self.inner.seek_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.on_read(bytes);
    }

    /// Records a file creation.
    pub fn on_create(&self) {
        self.inner.files_created.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            blocks_read: self.inner.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.inner.blocks_written.load(Ordering::Relaxed),
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.inner.bytes_written.load(Ordering::Relaxed),
            random_reads: self.inner.random_reads.load(Ordering::Relaxed),
            seek_bytes: self.inner.seek_bytes.load(Ordering::Relaxed),
            files_created: self.inner.files_created.load(Ordering::Relaxed),
        }
    }
}

impl IoSnapshot {
    /// Total block transfers (the PDM cost measure).
    pub fn total_blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }

    /// Total payload bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Component-wise difference `self - earlier` (saturating).
    #[must_use]
    pub fn delta(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            blocks_read: self.blocks_read.saturating_sub(earlier.blocks_read),
            blocks_written: self.blocks_written.saturating_sub(earlier.blocks_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            random_reads: self.random_reads.saturating_sub(earlier.random_reads),
            seek_bytes: self.seek_bytes.saturating_sub(earlier.seek_bytes),
            files_created: self.files_created.saturating_sub(earlier.files_created),
        }
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            blocks_read: self.blocks_read + other.blocks_read,
            blocks_written: self.blocks_written + other.blocks_written,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            random_reads: self.random_reads + other.random_reads,
            seek_bytes: self.seek_bytes + other.seek_bytes,
            files_created: self.files_created + other.files_created,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.on_read(100);
        s.on_read(100);
        s.on_write(50);
        s.on_random_read(25);
        s.on_create();
        let snap = s.snapshot();
        assert_eq!(snap.blocks_read, 3); // random read counts as a read too
        assert_eq!(snap.blocks_written, 1);
        assert_eq!(snap.bytes_read, 225);
        assert_eq!(snap.bytes_written, 50);
        assert_eq!(snap.random_reads, 1);
        assert_eq!(snap.seek_bytes, 25);
        assert_eq!(snap.files_created, 1);
        assert_eq!(snap.total_blocks(), 4);
        assert_eq!(snap.total_bytes(), 275);
    }

    #[test]
    fn clones_share_counters() {
        let a = IoStats::new();
        let b = a.clone();
        a.on_write(10);
        b.on_write(10);
        assert_eq!(a.snapshot().blocks_written, 2);
    }

    #[test]
    fn delta_and_plus() {
        let s = IoStats::new();
        s.on_read(8);
        let before = s.snapshot();
        s.on_read(8);
        s.on_write(8);
        let after = s.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.blocks_read, 1);
        assert_eq!(d.blocks_written, 1);
        let sum = d.plus(&d);
        assert_eq!(sum.blocks_read, 2);
    }

    #[test]
    fn delta_saturates() {
        let a = IoSnapshot {
            blocks_read: 1,
            ..Default::default()
        };
        let b = IoSnapshot {
            blocks_read: 5,
            ..Default::default()
        };
        assert_eq!(a.delta(&b).blocks_read, 0);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.on_read(1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().blocks_read, 4000);
    }
}
