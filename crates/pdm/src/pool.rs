//! A shared pool of block-sized byte buffers.
//!
//! The merge loops of the external sorters open and close many block readers
//! and writers per phase; without recycling, every one of them allocates (and
//! later frees) a block-sized `Vec`. A [`BufferPool`] is a cheaply cloneable
//! handle to a free list: readers/writers take a buffer on open and return it
//! on drop, so steady-state merging performs no block-buffer allocations at
//! all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A thread-safe free list of byte buffers. Clones share the same pool.
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    max_idle: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new(Self::DEFAULT_MAX_IDLE)
    }
}

impl BufferPool {
    /// Default cap on idle buffers kept for reuse; enough for a high-order
    /// merge (one reader per input plus the writer) without hoarding memory.
    pub const DEFAULT_MAX_IDLE: usize = 64;

    /// Creates a pool that keeps at most `max_idle` buffers on its free list
    /// (returns beyond the cap are simply freed).
    pub fn new(max_idle: usize) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                max_idle,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Takes a cleared buffer with at least `capacity` bytes of capacity,
    /// reusing a pooled one when available.
    pub fn take(&self, capacity: usize) -> Vec<u8> {
        let reused = self.inner.free.lock().unwrap().pop();
        match reused {
            Some(mut buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                if buf.capacity() < capacity {
                    buf.reserve(capacity); // len is 0: guarantees `capacity`
                }
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Returns a buffer to the pool (dropped if the free list is full or the
    /// buffer never grew a real allocation).
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.inner.free.lock().unwrap();
        if free.len() < self.inner.max_idle {
            free.push(buf);
        }
    }

    /// Buffers currently idle on the free list.
    pub fn idle(&self) -> usize {
        self.inner.free.lock().unwrap().len()
    }

    /// `take` calls served from the free list.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// `take` calls that had to allocate.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_buffers() {
        let pool = BufferPool::new(8);
        let mut a = pool.take(64);
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.take(16);
        assert!(b.is_empty(), "pooled buffers come back cleared");
        assert!(b.capacity() >= cap.min(16));
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn grows_small_buffers_on_take() {
        let pool = BufferPool::new(8);
        pool.put(vec![0u8; 4]);
        let b = pool.take(1024);
        assert!(b.capacity() >= 1024);
    }

    #[test]
    fn respects_max_idle() {
        let pool = BufferPool::new(2);
        for _ in 0..5 {
            pool.put(vec![0u8; 8]);
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn zero_capacity_buffers_not_pooled() {
        let pool = BufferPool::new(8);
        pool.put(Vec::new());
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn clones_share_the_free_list() {
        let pool = BufferPool::new(8);
        let clone = pool.clone();
        pool.put(vec![0u8; 8]);
        assert_eq!(clone.idle(), 1);
        let _ = clone.take(8);
        assert_eq!(pool.idle(), 0);
    }
}
