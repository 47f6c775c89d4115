//! Heap-allocation counting for benchmarks and the training observer.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every allocation
//! (and its byte size) into process-global atomics. Install it with
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: st_obs::alloc::CountingAlloc = st_obs::alloc::CountingAlloc;
//! ```
//!
//! **in a binary or test crate only** — installing it from a library would
//! silently impose the wrapper on every binary in the workspace. The
//! counters are process-wide, so measurements are only meaningful when a
//! single thread of interest allocates (the training kernels below
//! `st_par::parallel_threshold` run serially, which is what the allocation
//! benchmarks rely on) or when the whole process is the unit of account.
//! Code that merely *reads* the counters (e.g. the trainer's per-epoch
//! allocation report) sees zeros when no binary installed the allocator.
//!
//! Counting uses relaxed atomics: the counters impose no ordering and cost
//! two `fetch_add`s on one cache line per allocation, so the wrapper does
//! not perturb what it measures beyond the noise floor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The two process-wide counters, alone on one cache line.
///
/// Every allocation on every thread writes both. As two loose statics they
/// could straddle a line boundary or share a line with unrelated data,
/// depending on how the linker laid out the binary, and threads allocating
/// at once then traded extra lines on every allocation: one such layout
/// cost `stbench`'s `serve-city` ~30% of its throughput on a 2-vCPU host.
#[repr(align(64))]
struct Counters {
    /// Number of heap allocations since process start.
    allocations: AtomicU64,
    /// Bytes requested by those allocations.
    bytes: AtomicU64,
}

static COUNTERS: Counters = Counters {
    allocations: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

impl Counters {
    fn count(&self, bytes: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// A [`System`]-backed allocator that counts allocations and bytes.
///
/// Reallocations count as one allocation of the new size (they may move and
/// copy, which is the cost the benchmarks care about); frees are not
/// tracked — the benchmarks measure allocator traffic, not live bytes.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Allocations made by the whole process so far.
    pub fn allocations() -> u64 {
        COUNTERS.allocations.load(Ordering::Relaxed)
    }

    /// Bytes requested by the whole process so far.
    pub fn allocated_bytes() -> u64 {
        COUNTERS.bytes.load(Ordering::Relaxed)
    }
}

// SAFETY: delegates every operation to `System`; the counter updates have no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        COUNTERS.count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        COUNTERS.count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        COUNTERS.count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// A point-in-time reading of the allocation counters, for measuring the
/// traffic of a code region.
///
/// # Examples
///
/// ```
/// use st_obs::alloc::AllocSnapshot;
///
/// let before = AllocSnapshot::take();
/// let v = vec![0u8; 4096];
/// drop(v);
/// // Counts are zero here unless CountingAlloc is the global allocator.
/// let _ = before.allocations_since();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    allocations: u64,
    bytes: u64,
}

impl AllocSnapshot {
    /// Reads the current counters.
    pub fn take() -> Self {
        Self {
            allocations: CountingAlloc::allocations(),
            bytes: CountingAlloc::allocated_bytes(),
        }
    }

    /// Allocations made since this snapshot.
    pub fn allocations_since(&self) -> u64 {
        CountingAlloc::allocations() - self.allocations
    }

    /// Bytes requested since this snapshot.
    pub fn bytes_since(&self) -> u64 {
        CountingAlloc::allocated_bytes() - self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas_are_monotonic() {
        // The counting allocator is not installed in the library's own test
        // binary, so the counters stay frozen — deltas are exactly zero.
        let snap = AllocSnapshot::take();
        let _v = vec![1u8; 128];
        assert_eq!(snap.allocations_since(), snap.allocations_since());
        let later = AllocSnapshot::take();
        assert!(later.allocations >= snap.allocations);
    }
}
