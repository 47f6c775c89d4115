//! Shape-keyed buffer pool for [`Matrix`] backing stores.
//!
//! Training replays the same computation graph every step, so the set of
//! buffer sizes is fixed after the first pass. [`MatrixPool`] recycles the
//! `Vec<f64>` backing stores between passes: once warm, acquiring a matrix
//! is a bucket pop instead of a heap allocation. Buffers are keyed by
//! element count (not shape), so a released `2 × 3` store can back a later
//! `3 × 2` or `6 × 1` matrix.
//!
//! The pool never touches buffer contents on release, and
//! [`MatrixPool::acquire`] returns *unspecified* contents — callers must
//! fully overwrite the buffer (the `*_into` kernels on [`Matrix`] do) or
//! use [`MatrixPool::acquire_zeroed`]. This keeps the bit-identical-reuse
//! contract trivial: every value written through a pooled buffer is exactly
//! the value the allocating path would have produced.

use crate::Matrix;
use std::collections::HashMap;
use std::fmt;

/// Cumulative acquire/release statistics of a [`MatrixPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquires served from a recycled buffer.
    pub hits: u64,
    /// Acquires that fell back to a fresh heap allocation.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub released: u64,
    /// Bytes of the fresh allocations made on misses. The pool hands no
    /// buffer back to the allocator (until [`MatrixPool::clear`]), so this
    /// is the high-water footprint of everything acquired through it.
    pub allocated_bytes: u64,
}

impl PoolStats {
    /// Fraction of acquires served without allocating (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A free-list of matrix backing stores, bucketed by element count.
///
/// # Examples
///
/// ```
/// use st_tensor::{Matrix, MatrixPool};
///
/// let mut pool = MatrixPool::new();
/// pool.release(Matrix::zeros(2, 3));
/// let m = pool.acquire_zeroed(3, 2); // reuses the 6-element store
/// assert_eq!(m.shape(), (3, 2));
/// assert_eq!(pool.stats().hits, 1);
/// ```
#[derive(Default)]
pub struct MatrixPool {
    free: HashMap<usize, Vec<Vec<f64>>>,
    stats: PoolStats,
}

impl MatrixPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A `rows × cols` matrix with **unspecified contents**: a recycled
    /// buffer when one of the right size is free, a fresh allocation
    /// otherwise. The caller must overwrite every element before reading.
    pub fn acquire(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        match self.free.get_mut(&len).and_then(Vec::pop) {
            Some(buf) => {
                self.stats.hits += 1;
                Matrix::from_vec(rows, cols, buf)
            }
            // An empty matrix needs no store: nothing is allocated.
            None if len == 0 => {
                self.stats.hits += 1;
                Matrix::zeros(rows, cols)
            }
            None => {
                self.stats.misses += 1;
                self.stats.allocated_bytes += (len * std::mem::size_of::<f64>()) as u64;
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Like [`MatrixPool::acquire`] but zero-filled.
    pub fn acquire_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.acquire(rows, cols);
        m.fill(0.0);
        m
    }

    /// Returns a matrix's backing store to the pool for reuse. An empty
    /// matrix owns no store and is dropped instead: bucketing its `Vec`
    /// header would grow the free list by one entry per release, none of
    /// which an acquire ever needs.
    pub fn release(&mut self, m: Matrix) {
        if m.is_empty() {
            return;
        }
        self.stats.released += 1;
        self.free.entry(m.len()).or_default().push(m.into_vec());
    }

    /// Cumulative hit/miss/release counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of free buffers currently held.
    pub fn free_buffers(&self) -> usize {
        self.free.values().map(Vec::len).sum()
    }

    /// Bytes held by the free buffers (element counts × 8, ignoring any
    /// over-allocated `Vec` capacity). This is what the serve `/metrics`
    /// pool gauge reports.
    pub fn free_bytes(&self) -> usize {
        self.free
            .iter()
            .map(|(len, bufs)| len * bufs.len() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Drops every free buffer (counters are kept).
    pub fn clear(&mut self) {
        self.free.clear();
    }
}

impl fmt::Debug for MatrixPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatrixPool")
            .field("free_buffers", &self.free_buffers())
            .field("size_classes", &self.free.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut pool = MatrixPool::new();
        let a = pool.acquire(2, 2);
        assert_eq!(pool.stats().misses, 1);
        pool.release(a);
        let b = pool.acquire(2, 2);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                released: 1,
                allocated_bytes: 4 * 8,
            }
        );
        assert_eq!(b.shape(), (2, 2));
    }

    #[test]
    fn buckets_by_element_count_not_shape() {
        let mut pool = MatrixPool::new();
        pool.release(Matrix::zeros(2, 6));
        let m = pool.acquire(4, 3);
        assert_eq!(m.shape(), (4, 3));
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn acquire_zeroed_wipes_recycled_contents() {
        let mut pool = MatrixPool::new();
        pool.release(Matrix::filled(2, 2, 7.0));
        let m = pool.acquire_zeroed(2, 2);
        assert_eq!(m, Matrix::zeros(2, 2));
    }

    #[test]
    fn hit_rate_and_clear() {
        let mut pool = MatrixPool::new();
        assert_eq!(pool.stats().hit_rate(), 0.0);
        let miss = pool.acquire(1, 1);
        pool.release(miss);
        let _ = pool.acquire(1, 1);
        assert_eq!(pool.stats().hit_rate(), 0.5);
        pool.release(Matrix::zeros(3, 3));
        assert_eq!(pool.free_buffers(), 1);
        assert_eq!(pool.free_bytes(), 9 * 8);
        pool.clear();
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(pool.free_bytes(), 0);
    }

    #[test]
    fn empty_matrices_are_never_bucketed() {
        let mut pool = MatrixPool::new();
        pool.release(Matrix::zeros(0, 0));
        pool.release(Matrix::zeros(0, 3));
        assert_eq!(pool.free_buffers(), 0);
        assert_eq!(pool.stats().released, 0);
        let m = pool.acquire(5, 0);
        assert_eq!(m.shape(), (5, 0));
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().allocated_bytes, 0);
    }

    #[test]
    fn allocated_bytes_count_misses_only() {
        let mut pool = MatrixPool::new();
        let a = pool.acquire(2, 3);
        let b = pool.acquire(4, 1);
        assert_eq!(pool.stats().allocated_bytes, (6 + 4) * 8);
        pool.release(a);
        pool.release(b);
        let _ = pool.acquire(3, 2);
        let _ = pool.acquire_zeroed(1, 4);
        assert_eq!(pool.stats().allocated_bytes, (6 + 4) * 8);
    }
}
