//! Self-contained micro-benchmark timing loop.
//!
//! Replaces the external `criterion` harness so the workspace builds with
//! zero registry dependencies. The protocol is deliberately simple and
//! robust: calibrate the per-sample iteration count, warm up, then time a
//! fixed number of samples and report the median (plus min/mean), which is
//! insensitive to scheduler noise in either tail.
//!
//! Set `RIHGCN_BENCH_SAMPLES` to change the sample count (default 20) and
//! `RIHGCN_BENCH_SAMPLE_MS` to change the per-sample time target
//! (default 5 ms) — lower both for smoke runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// Returns the smallest element such that at least `p·n` of the samples are
/// `≤` it: index `⌈p·n⌉ − 1` (0-based). For `p = 0.5` on an even count this
/// selects the **lower** middle element.
///
/// `p` is clamped to `(0, 1]`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
///
/// # Examples
///
/// ```
/// use rihgcn_bench::timing::percentile;
///
/// let xs = [10u64, 20, 30, 40];
/// assert_eq!(percentile(&xs, 0.50), 20); // rank ⌈0.5·4⌉ = 2
/// assert_eq!(percentile(&xs, 0.99), 40);
/// ```
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let n = sorted.len();
    let rank = (p.clamp(f64::MIN_POSITIVE, 1.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLES: usize = 20;

/// Default wall-clock target for one sample, in milliseconds.
const DEFAULT_SAMPLE_MS: u64 = 5;

/// Warm-up budget before sampling starts.
const WARMUP: Duration = Duration::from_millis(300);

/// One benchmark's timing summary, all values per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark label.
    pub name: String,
    /// Median per-iteration time.
    pub median: Duration,
    /// Fastest sample's per-iteration time.
    pub min: Duration,
    /// Mean per-iteration time across samples.
    pub mean: Duration,
    /// Iterations timed per sample.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
}

impl BenchResult {
    /// One aligned report line, e.g. for collecting into a table.
    pub fn report_line(&self) -> String {
        format!(
            "{:<40} median {:>12?}  min {:>12?}  mean {:>12?}  ({} iters × {} samples)",
            self.name, self.median, self.min, self.mean, self.iters_per_sample, self.samples
        )
    }
}

/// Micro-benchmark runner: warmup then median-of-N timing.
///
/// # Examples
///
/// ```
/// let mut runner = rihgcn_bench::timing::Runner::with_settings(5, 1);
/// let r = runner.bench("sum", || (0..1000u64).sum::<u64>());
/// assert!(r.median.as_nanos() > 0);
/// ```
#[derive(Debug, Default)]
pub struct Runner {
    samples: usize,
    sample_ms: u64,
    results: Vec<BenchResult>,
}

impl Runner {
    /// Creates a runner configured from the environment (see module docs).
    pub fn from_env() -> Self {
        let parse = |var: &str, default: u64| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        Self::with_settings(
            parse("RIHGCN_BENCH_SAMPLES", DEFAULT_SAMPLES as u64) as usize,
            parse("RIHGCN_BENCH_SAMPLE_MS", DEFAULT_SAMPLE_MS),
        )
    }

    /// Creates a runner with an explicit sample count and per-sample target.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn with_settings(samples: usize, sample_ms: u64) -> Self {
        assert!(samples > 0, "need at least one sample");
        Self {
            samples,
            sample_ms: sample_ms.max(1),
            results: Vec::new(),
        }
    }

    /// Times `f`, prints the report line, and records the result.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> BenchResult {
        // Calibrate: how many iterations fit in one sample target?
        let once = time_iters(&mut f, 1);
        let target = Duration::from_millis(self.sample_ms);
        let iters = if once.is_zero() {
            1000
        } else {
            (target.as_nanos() / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64
        };

        // Warm up: caches, allocator, branch predictors.
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP {
            black_box(f());
        }

        let mut per_iter: Vec<Duration> = (0..self.samples)
            .map(|_| time_iters(&mut f, iters) / iters as u32)
            .collect();
        per_iter.sort_unstable();

        let result = BenchResult {
            name: name.to_string(),
            median: percentile(&per_iter, 0.5),
            min: per_iter[0],
            mean: per_iter.iter().sum::<Duration>() / per_iter.len() as u32,
            iters_per_sample: iters,
            samples: self.samples,
        };
        println!("{}", result.report_line());
        self.results.push(result.clone());
        result
    }

    /// All results recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// Wall-clock time for `iters` calls of `f`, results black-boxed.
fn time_iters<T>(f: &mut impl FnMut() -> T, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_runner() -> Runner {
        Runner::with_settings(5, 1)
    }

    #[test]
    fn bench_produces_ordered_statistics() {
        let mut runner = quick_runner();
        let r = runner.bench("spin", || {
            let mut acc = 0u64;
            // `black_box` per step keeps the optimiser from folding the
            // loop into a constant, which would time at 0 ns.
            for i in 0..500 {
                acc = black_box(acc.wrapping_add(i * i));
            }
            acc
        });
        assert!(r.min <= r.median, "min {:?} > median {:?}", r.min, r.median);
        assert!(r.median.as_nanos() > 0);
        assert_eq!(r.samples, 5);
        assert_eq!(runner.results().len(), 1);
    }

    #[test]
    fn report_line_contains_name_and_stats() {
        let mut runner = quick_runner();
        let r = runner.bench("labelled", || 1 + 1);
        assert!(r.report_line().contains("labelled"));
        assert!(r.report_line().contains("median"));
    }

    #[test]
    fn env_settings_fall_back_to_defaults() {
        let runner = Runner::from_env();
        assert!(runner.samples >= 1);
        assert!(runner.sample_ms >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = Runner::with_settings(0, 1);
    }

    #[test]
    fn percentile_nearest_rank_on_known_distributions() {
        // Even count: nearest-rank p50 is the LOWER middle element
        // (rank ⌈0.5·4⌉ = 2); the old len/2 indexing returned 30.
        let even = [10u64, 20, 30, 40];
        assert_eq!(percentile(&even, 0.50), 20);
        assert_eq!(percentile(&even, 0.25), 10);
        assert_eq!(percentile(&even, 0.75), 30);
        assert_eq!(percentile(&even, 0.99), 40);
        assert_eq!(percentile(&even, 1.00), 40);

        // Odd count: p50 is the true middle.
        let odd = [1u64, 2, 3, 4, 5];
        assert_eq!(percentile(&odd, 0.50), 3);
        assert_eq!(percentile(&odd, 0.20), 1);
        assert_eq!(percentile(&odd, 0.21), 2);

        // n = 100: p99 must be the 99th value (index 98), not the maximum.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.99), 99);
        assert_eq!(percentile(&hundred, 0.50), 50);
        assert_eq!(percentile(&hundred, 0.01), 1);

        // Degenerate single sample and out-of-range p clamp.
        assert_eq!(percentile(&[7u64], 0.5), 7);
        assert_eq!(percentile(&even, 0.0), 10);
        assert_eq!(percentile(&even, 2.0), 40);

        // Works for Duration (the Runner's median path).
        let ds: Vec<Duration> = (1..=4).map(Duration::from_micros).collect();
        assert_eq!(percentile(&ds, 0.5), Duration::from_micros(2));
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn percentile_rejects_empty_input() {
        let _ = percentile::<u64>(&[], 0.5);
    }
}
