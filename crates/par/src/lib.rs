//! Deterministic data parallelism on std scoped threads.
//!
//! The workspace's determinism contract (see `tests/determinism.rs` at the
//! repository root) demands that every result — training losses, gradients,
//! adjacency matrices — is **bit-identical across thread counts**. This
//! crate provides the only parallel primitives the workspace is allowed to
//! use, each designed so that floating-point evaluation order never depends
//! on how work is scheduled:
//!
//! * [`par_chunks_mut`] — a chunked map over a slice. Each chunk is
//!   produced by exactly one task, so as long as the per-chunk
//!   computation is itself deterministic, the result is independent of the
//!   worker count and of which worker claims which chunk.
//! * [`for_each_index`] — an index-space map with the same disjoint-output
//!   guarantee.
//! * [`par_map_reduce`] — a reduction over `0..n` that partitions the index
//!   space into **fixed** ranges (boundaries depend only on `n` and the
//!   requested grain, never on the thread count) and combines the partial
//!   results serially *in range order*. f64 summation order is therefore a
//!   pure function of the input size: one thread and sixteen threads produce
//!   the same bits.
//! * [`scope`] — a thin re-export of [`std::thread::scope`] for ad-hoc
//!   structured fan-out (e.g. building M temporal graphs concurrently).
//!
//! The worker count resolves as: programmatic override via
//! [`set_num_threads`] (used by the `--threads` CLI flag and by tests) →
//! the `ST_NUM_THREADS` environment variable → the machine's available
//! parallelism. At 1 every primitive degrades to a plain serial loop with
//! zero thread overhead.
//!
//! # Examples
//!
//! ```
//! // A deterministic parallel dot product: fixed 4-element partials,
//! // combined in index order regardless of thread count.
//! let xs: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
//! let serial: f64 = {
//!     st_par::set_num_threads(1);
//!     st_par::par_map_reduce(xs.len(), 4, |r| xs[r].iter().sum::<f64>(), 0.0, |a, b| a + b)
//! };
//! let parallel: f64 = {
//!     st_par::set_num_threads(4);
//!     st_par::par_map_reduce(xs.len(), 4, |r| xs[r].iter().sum::<f64>(), 0.0, |a, b| a + b)
//! };
//! assert_eq!(serial.to_bits(), parallel.to_bits());
//! st_par::set_num_threads(0); // back to the environment default
//! ```

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Programmatic worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker count resolved from `ST_NUM_THREADS` / available parallelism,
/// cached on first use (environment changes after that are ignored).
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Overrides the worker count for all subsequent parallel calls.
///
/// Passing `0` clears the override, falling back to `ST_NUM_THREADS` (or,
/// absent that, the machine's available parallelism). This is what the
/// `--threads` CLI flag and the trainer's `threads` field call; tests use it
/// to pin both sides of a serial-vs-parallel comparison.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count parallel primitives will use right now.
///
/// Resolution order: [`set_num_threads`] override → `ST_NUM_THREADS`
/// environment variable → [`std::thread::available_parallelism`]. Always at
/// least 1.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    *ENV_THREADS.get_or_init(|| {
        std::env::var("ST_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Parallel regions dispatched to scoped workers.
static PAR_REGIONS: AtomicU64 = AtomicU64::new(0);

/// Regions that took the serial fallback (1 worker or tiny input).
static SERIAL_REGIONS: AtomicU64 = AtomicU64::new(0);

/// Tasks (chunks / indices / ranges) dispatched by parallel regions.
static PAR_TASKS: AtomicU64 = AtomicU64::new(0);

/// Nanoseconds workers spent inside their claim loops.
static PAR_BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// Wall nanoseconds of parallel regions, from the calling thread.
static PAR_WALL_NS: AtomicU64 = AtomicU64::new(0);

/// Wall nanoseconds × workers: the time budget the regions could have used.
static PAR_CAPACITY_NS: AtomicU64 = AtomicU64::new(0);

/// Cumulative scheduling statistics for this crate's primitives.
///
/// All counters are process-global and updated with relaxed atomics; the
/// serial fallback costs exactly one `fetch_add` per region, so the
/// accounting is safe to leave on permanently. Parallel regions also time
/// their workers, giving the utilization figure the serve `/metrics`
/// endpoint exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParStats {
    /// Regions dispatched to 2+ scoped workers.
    pub par_regions: u64,
    /// Regions that ran on the calling thread (1 worker or tiny input).
    pub serial_regions: u64,
    /// Tasks (chunks / indices / ranges) handed out by parallel regions.
    pub tasks: u64,
    /// Nanoseconds workers spent claiming and running tasks.
    pub busy_ns: u64,
    /// Wall nanoseconds of the parallel regions themselves.
    pub wall_ns: u64,
    /// `wall_ns × workers`: the compute budget those regions spanned.
    pub capacity_ns: u64,
}

impl ParStats {
    /// Fraction of the parallel regions' compute budget spent busy, in
    /// `[0, 1]` (0 when no parallel region has run). Low values mean
    /// workers idled at the claim loop — chunks too coarse or too few.
    pub fn utilization(&self) -> f64 {
        if self.capacity_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.capacity_ns as f64
        }
    }
}

/// Reads the cumulative [`ParStats`] counters.
pub fn stats() -> ParStats {
    ParStats {
        par_regions: PAR_REGIONS.load(Ordering::Relaxed),
        serial_regions: SERIAL_REGIONS.load(Ordering::Relaxed),
        tasks: PAR_TASKS.load(Ordering::Relaxed),
        busy_ns: PAR_BUSY_NS.load(Ordering::Relaxed),
        wall_ns: PAR_WALL_NS.load(Ordering::Relaxed),
        capacity_ns: PAR_CAPACITY_NS.load(Ordering::Relaxed),
    }
}

/// Times a parallel region on the calling thread and charges its wall
/// time and capacity (`wall × workers`) to the global counters.
fn parallel_region<R>(tasks: usize, workers: usize, body: impl FnOnce() -> R) -> R {
    PAR_REGIONS.fetch_add(1, Ordering::Relaxed);
    PAR_TASKS.fetch_add(tasks as u64, Ordering::Relaxed);
    let start = Instant::now();
    let out = body();
    let wall = start.elapsed().as_nanos() as u64;
    PAR_WALL_NS.fetch_add(wall, Ordering::Relaxed);
    PAR_CAPACITY_NS.fetch_add(wall * workers as u64, Ordering::Relaxed);
    out
}

/// Times one worker's claim loop and charges it to the busy counter.
fn busy_worker(body: impl FnOnce()) {
    let start = Instant::now();
    body();
    PAR_BUSY_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Structured fan-out: re-export of [`std::thread::scope`].
///
/// Spawned threads may borrow from the enclosing stack frame and are all
/// joined before `scope` returns. Callers remain responsible for keeping
/// any floating-point combination of the threads' results in a fixed order.
pub use std::thread::scope;

/// A raw pointer that may cross thread boundaries.
///
/// Used to hand each worker the base of a shared output buffer; safety
/// rests on the claiming discipline below, which gives every chunk index to
/// exactly one worker so the derived `&mut` sub-slices are pairwise
/// disjoint.
struct SendPtr<T>(*mut T);

unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Applies `f(chunk_index, chunk)` to consecutive `chunk_len`-sized chunks
/// of `data` (the last chunk may be shorter), claiming chunks dynamically
/// across the resolved worker count.
///
/// Determinism: every output element belongs to exactly one chunk and every
/// chunk is processed by exactly one call of `f`, so the result is
/// bit-identical for any thread count provided `f` itself is deterministic.
///
/// # Panics
///
/// Panics if `chunk_len == 0`. If `f` panics on a worker the panic is
/// propagated after all workers have stopped.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let total = data.len();
    if total == 0 {
        return;
    }
    let num_chunks = total.div_ceil(chunk_len);
    let workers = num_threads().min(num_chunks);
    let _span = st_obs::span!("par.chunks_mut", num_chunks, workers);
    if workers <= 1 {
        SERIAL_REGIONS.fetch_add(1, Ordering::Relaxed);
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }

    let base = SendPtr(data.as_mut_ptr());
    let next = AtomicUsize::new(0);
    parallel_region(num_chunks, workers, || {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    busy_worker(|| {
                        let base = &base;
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= num_chunks {
                                break;
                            }
                            let start = idx * chunk_len;
                            let end = (start + chunk_len).min(total);
                            // SAFETY: the atomic counter hands each chunk
                            // index to exactly one worker, so the [start,
                            // end) ranges carved out here never overlap, and
                            // `data` outlives the scope.
                            let chunk = unsafe {
                                std::slice::from_raw_parts_mut(base.0.add(start), end - start)
                            };
                            f(idx, chunk);
                        }
                    });
                });
            }
        });
    });
}

/// Runs `f(i)` for every `i in 0..n`, claiming indices dynamically across
/// the resolved worker count.
///
/// `f` must only write through interior mutability it owns per index (or
/// not write at all); with disjoint per-index outputs the result is
/// bit-identical for any thread count.
pub fn for_each_index<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let workers = num_threads().min(n);
    let _span = st_obs::span!("par.for_each", n, workers);
    if workers <= 1 {
        SERIAL_REGIONS.fetch_add(1, Ordering::Relaxed);
        for i in 0..n {
            f(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    parallel_region(n, workers, || {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    busy_worker(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        f(i);
                    });
                });
            }
        });
    });
}

/// Deterministic ordered reduction over the index space `0..n`.
///
/// The index space is split into `ceil(n / grain)` **fixed** ranges of
/// `grain` indices each — the partition depends only on `n` and `grain`,
/// never on the thread count. `map` evaluates each range to a partial
/// result (in parallel, each range by exactly one worker); `combine` then
/// folds the partials into `init` serially, in ascending range order, on
/// the calling thread.
///
/// Because both the partition and the combination order are fixed, the
/// floating-point evaluation order — and hence every bit of the result —
/// is identical for any worker count.
///
/// # Panics
///
/// Panics if `grain == 0`, or propagates a worker's panic.
///
/// # Examples
///
/// ```
/// let sum = st_par::par_map_reduce(10, 3, |r| r.sum::<usize>(), 0, |a, b| a + b);
/// assert_eq!(sum, 45);
/// ```
pub fn par_map_reduce<R, M, C>(n: usize, grain: usize, map: M, init: R, mut combine: C) -> R
where
    R: Send,
    M: Fn(Range<usize>) -> R + Sync,
    C: FnMut(R, R) -> R,
{
    assert!(grain > 0, "grain must be positive");
    if n == 0 {
        return init;
    }
    let num_ranges = n.div_ceil(grain);
    let range_of = |idx: usize| idx * grain..((idx + 1) * grain).min(n);

    let workers = num_threads().min(num_ranges);
    let _span = st_obs::span!("par.map_reduce", num_ranges, workers);
    let mut partials: Vec<Option<R>> = (0..num_ranges).map(|_| None).collect();
    if workers <= 1 {
        SERIAL_REGIONS.fetch_add(1, Ordering::Relaxed);
        for (idx, slot) in partials.iter_mut().enumerate() {
            *slot = Some(map(range_of(idx)));
        }
    } else {
        let base = SendPtr(partials.as_mut_ptr());
        let next = AtomicUsize::new(0);
        parallel_region(num_ranges, workers, || {
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        busy_worker(|| {
                            let base = &base;
                            loop {
                                let idx = next.fetch_add(1, Ordering::Relaxed);
                                if idx >= num_ranges {
                                    break;
                                }
                                // SAFETY: each partial slot is written by the
                                // single worker that claimed its index;
                                // `partials` outlives the scope and is only
                                // read after all joins.
                                unsafe { *base.0.add(idx) = Some(map(range_of(idx))) };
                            }
                        });
                    });
                }
            });
        });
    }

    let mut acc = init;
    for partial in partials {
        acc = combine(acc, partial.expect("every range produced a partial"));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that mutate the global override serialise on this lock and
    /// restore the default before releasing it.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_forced_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _guard = OVERRIDE_LOCK.lock().unwrap();
        set_num_threads(n);
        let out = f();
        set_num_threads(0);
        out
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn override_wins_and_clears() {
        with_forced_threads(3, || assert_eq!(num_threads(), 3));
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        for threads in [1, 4] {
            with_forced_threads(threads, || {
                let mut data = vec![0u32; 103];
                par_chunks_mut(&mut data, 10, |idx, chunk| {
                    for x in chunk.iter_mut() {
                        *x += 1 + idx as u32;
                    }
                });
                for (i, &x) in data.iter().enumerate() {
                    assert_eq!(x, 1 + (i / 10) as u32, "element {i}");
                }
            });
        }
    }

    #[test]
    fn par_chunks_mut_handles_empty_and_short_input() {
        let mut empty: Vec<f64> = Vec::new();
        par_chunks_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        let mut one = vec![1.0];
        par_chunks_mut(&mut one, 8, |idx, chunk| {
            assert_eq!(idx, 0);
            chunk[0] = 2.0;
        });
        assert_eq!(one, vec![2.0]);
    }

    #[test]
    fn for_each_index_covers_the_range() {
        for threads in [1, 4] {
            with_forced_threads(threads, || {
                let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
                for_each_index(100, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
                }
            });
        }
    }

    #[test]
    fn map_reduce_is_bitwise_thread_invariant() {
        // Summands chosen so that a different association order would
        // actually change the result bits.
        let xs: Vec<f64> = (0..1234)
            .map(|i| (i as f64 * 0.7131).sin() * 10f64.powi((i % 13) as i32 - 6))
            .collect();
        let run = |threads| {
            with_forced_threads(threads, || {
                par_map_reduce(
                    xs.len(),
                    7,
                    |r| xs[r].iter().sum::<f64>(),
                    0.0,
                    |a, b| a + b,
                )
            })
        };
        let serial = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(
                serial.to_bits(),
                run(threads).to_bits(),
                "{threads} threads diverged"
            );
        }
    }

    #[test]
    fn map_reduce_differs_from_naive_order_for_adversarial_grain() {
        // Sanity check on the test above: with a *different* grain the
        // association order changes and so (generically) do the bits.
        let xs: Vec<f64> = (0..1234)
            .map(|i| (i as f64 * 0.7131).sin() * 10f64.powi((i % 13) as i32 - 6))
            .collect();
        let sum_with_grain = |g| {
            par_map_reduce(
                xs.len(),
                g,
                |r| xs[r].iter().sum::<f64>(),
                0.0,
                |a, b| a + b,
            )
        };
        assert_ne!(sum_with_grain(7).to_bits(), sum_with_grain(1000).to_bits());
    }

    #[test]
    fn map_reduce_empty_returns_init() {
        let out = par_map_reduce(0, 4, |_| unreachable!(), 42.0, |a, b: f64| a + b);
        assert_eq!(out, 42.0);
    }

    #[test]
    fn map_reduce_collects_in_index_order() {
        let order: Vec<usize> = with_forced_threads(4, || {
            par_map_reduce(
                20,
                3,
                |r| vec![r.start],
                Vec::new(),
                |mut acc: Vec<usize>, p| {
                    acc.extend(p);
                    acc
                },
            )
        });
        assert_eq!(order, vec![0, 3, 6, 9, 12, 15, 18]);
    }

    #[test]
    fn scope_reexport_joins_threads() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|| counter.fetch_add(1, Ordering::Relaxed));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn stats_count_serial_and_parallel_regions() {
        let before = stats();
        with_forced_threads(1, || for_each_index(8, |_| {}));
        let mid = stats();
        assert!(mid.serial_regions > before.serial_regions);
        with_forced_threads(4, || for_each_index(64, |_| {}));
        let after = stats();
        assert!(after.par_regions > mid.par_regions);
        assert!(after.tasks >= mid.tasks + 64);
        assert!(after.wall_ns >= mid.wall_ns);
        // Other tests may bump the global counters concurrently, so only
        // sanity-check the derived ratio.
        let u = after.utilization();
        assert!(u.is_finite() && u >= 0.0, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        let mut data = vec![0.0];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }
}
