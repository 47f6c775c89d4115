//! Per-layer bookkeeping for traced runs: span totals drained from the
//! st-obs rings and deltas of the process-wide counters (`st_par::stats`,
//! the counting allocator).

use crate::report::Report;
use st_obs::alloc::AllocSnapshot;
use st_obs::trace;
use std::collections::BTreeMap;

/// Summed statistics of every span recorded under one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children), nanoseconds.
    pub self_ns: u64,
}

/// Span totals accumulated across drains.
#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, SpanTotals>,
    /// Floating-point operations of the recorded matmuls (`2·m·k·n` from
    /// the span arguments), by span name.
    flops: BTreeMap<&'static str, f64>,
    /// Spans lost to ring wrap-around or torn reads.
    pub dropped: u64,
}

impl Spans {
    /// Folds every recorded span into the totals and rewinds the rings.
    ///
    /// The rewind races a thread that is recording at the same moment, so
    /// callers drain only at quiescent points: between `fit` calls, or
    /// after a load phase has completed every request.
    pub fn drain(&mut self) {
        let snap = trace::snapshot();
        self.dropped += snap.dropped;
        for agg in trace::aggregate(&snap) {
            let t = self.by_name.entry(agg.name).or_default();
            t.count += agg.count;
            t.total_ns += agg.total_ns;
            t.self_ns += agg.self_ns;
        }
        for span in snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("tensor.matmul"))
        {
            let dims: f64 = span
                .args
                .iter()
                .filter(|(k, _)| matches!(*k, "m" | "k" | "n"))
                .map(|&(_, v)| v as f64)
                .product();
            *self.flops.entry(span.name).or_default() += 2.0 * dims;
        }
        trace::reset();
    }

    /// Totals of one span name (zeros when it never fired).
    pub fn get(&self, name: &str) -> SpanTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of one span name in milliseconds (0 when absent).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let t = self.get(name);
        ratio(t.total_ns as f64 / 1e6, t.count as f64)
    }

    /// Mean self time of one span name in milliseconds (0 when absent).
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        let t = self.get(name);
        ratio(t.self_ns as f64 / 1e6, t.count as f64)
    }

    /// Achieved GFLOP/s of one matmul span name over its *total* time —
    /// self time would exclude the `par.*` regions that do the work.
    pub fn gflops(&self, name: &str) -> f64 {
        let flops = self.flops.get(name).copied().unwrap_or(0.0);
        ratio(flops, self.get(name).total_ns as f64)
    }

    /// Sum of self times over span names accepted by `keep`, nanoseconds.
    pub fn self_ns_where(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.by_name
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(_, t)| t.self_ns)
            .sum()
    }
}

/// Sets the set-up layer metrics: seconds per set-up spent generating
/// data, building the model, in DTW distances and in Chebyshev bases.
pub fn report_setup(report: &mut Report, setup: &Spans, setups: usize) {
    for (metric, span) in [
        ("data.generate_s", "bench.generate"),
        ("core.model_build_s", "bench.model_build"),
        ("graph.pairwise_distances_s", "graph.pairwise_distances"),
        ("nn.cheb_basis_s", "nn.cheb_basis"),
    ] {
        report.set(
            metric,
            setup.get(span).total_ns as f64 / 1e9 / setups as f64,
        );
    }
}

/// Sets the matmul metrics: milliseconds per unit of work (`units` of
/// them were traced), achieved GFLOP/s, and the share of `wall_ns` the
/// three kernels took together.
pub fn report_matmuls(report: &mut Report, spans: &Spans, units: f64, wall_ns: f64) {
    let mut matmul_ns = 0.0;
    for (span, ms, gflops) in [
        ("tensor.matmul", "tensor.matmul_ms", "tensor.matmul_gflops"),
        (
            "tensor.matmul_tn",
            "tensor.matmul_tn_ms",
            "tensor.matmul_tn_gflops",
        ),
        (
            "tensor.matmul_nt",
            "tensor.matmul_nt_ms",
            "tensor.matmul_nt_gflops",
        ),
    ] {
        let total = spans.get(span).total_ns as f64;
        matmul_ns += total;
        report.set(ms, ratio(total / 1e6, units));
        report.set(gflops, spans.gflops(span));
    }
    report.set("tensor.matmul_share", ratio(matmul_ns, wall_ns));
}

/// Counters read at the start of a measured region.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    par: st_par::ParStats,
    alloc: AllocSnapshot,
}

/// What the counters moved by over a region.
#[derive(Debug, Default, Clone, Copy)]
pub struct CounterDelta {
    /// Parallel regions dispatched to workers.
    pub par_regions: u64,
    /// Worker busy nanoseconds.
    pub busy_ns: u64,
    /// Parallel-region capacity nanoseconds (wall × workers).
    pub capacity_ns: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap bytes requested.
    pub bytes: u64,
}

impl CounterDelta {
    /// Adds another region's movement.
    pub fn add(&mut self, other: CounterDelta) {
        self.par_regions += other.par_regions;
        self.busy_ns += other.busy_ns;
        self.capacity_ns += other.capacity_ns;
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }

    /// Worker busy time over parallel-region capacity (0 without regions).
    pub fn utilization(&self) -> f64 {
        if self.capacity_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.capacity_ns as f64
        }
    }
}

impl Counters {
    /// Reads the counters now.
    pub fn take() -> Self {
        Self {
            par: st_par::stats(),
            alloc: AllocSnapshot::take(),
        }
    }

    /// Movement since [`Counters::take`].
    pub fn delta(&self) -> CounterDelta {
        let now = st_par::stats();
        CounterDelta {
            par_regions: now.par_regions - self.par.par_regions,
            busy_ns: now.busy_ns - self.par.busy_ns,
            capacity_ns: now.capacity_ns - self.par.capacity_ns,
            allocs: self.alloc.allocations_since(),
            bytes: self.alloc.bytes_since(),
        }
    }
}

/// Ratio that reads 0 instead of NaN on an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
