//! The metric catalogue, the per-run report, and the small statistics the
//! workloads share.
//!
//! Every workload prints the same metric names: the end-to-end set in an
//! untraced run, the per-layer set in a traced run. A metric a workload
//! does not exercise (a serve queue on a training run) reads 0 in the
//! per-layer set; the end-to-end set is defined on every workload (see
//! the crate README for what each name means per workload).

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_s", "s"),
    ("core.model_build_s", "s"),
    ("graph.pairwise_distances_s", "s"),
    ("nn.cheb_basis_s", "s"),
    ("core.train_step_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.forward_self_ms", "ms"),
    ("autodiff.backward_ms", "ms"),
    ("autodiff.backward_self_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.matmul_tn_ms", "ms"),
    ("tensor.matmul_nt_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.matmul_tn_gflops", "GFLOP/s"),
    ("tensor.matmul_nt_gflops", "GFLOP/s"),
    ("tensor.matmul_share", "ratio"),
    ("par.regions_per_window", "count"),
    ("par.utilization", "ratio"),
    ("nn.adam_step_ms", "ms"),
    ("tape.pool_hit_rate", "ratio"),
    ("alloc.allocs_per_window", "count"),
    ("alloc.bytes_per_window", "B"),
    ("serve.route_forecast_us", "us"),
    ("http.transport_forecast_us", "us"),
    ("wire.format_steps_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("core.forward_batched_ms", "ms"),
    ("serve.forecast_batch_ms", "ms"),
    ("serve.tape_runs_per_forecast", "ratio"),
    ("serve.route_observe_us", "us"),
    ("serve.observe_ms", "ms"),
    ("wire.parse_observation_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.pool_hit_rate", "ratio"),
    ("http.reconnects", "count"),
    ("gen.lag_ms_p99", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.dropped", "count"),
    ("trace.overhead", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name; names outside the printed catalogue are
    /// ignored, catalogue names missing here print as 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context lines (sample counts, digests, extra
    /// end-to-end figures such as observe latency and SLO misses).
    pub notes: Vec<String>,
    /// Failed output checks; the run is correct iff this stays empty.
    pub failures: Vec<String>,
    /// Operations attempted (training windows or HTTP requests).
    pub attempted: u64,
    /// Operations that failed (non-finite loss or failed request).
    pub failed: u64,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a context line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records an output check; a false condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.notes.push(format!("check ok: {what}"));
        } else {
            self.failures.push(what);
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the report: context lines, one `metric NAME VALUE UNIT` line
    /// per catalogue metric, then the JSON result as the last line.
    pub fn print(&self, traced: bool) {
        for line in &self.notes {
            println!("# {line}");
        }
        for failure in &self.failures {
            println!("# CHECK FAILED: {failure}");
        }
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        let mut correct = self.correct();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            println!("metric {name} {value} {unit}");
            if !value.is_finite() {
                println!("# CHECK FAILED: metric {name} is not finite");
                correct = false;
            }
            let shown = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Nearest-rank percentile (rank `⌈p·n⌉`, the workspace convention) of an
/// ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (NaN-free by construction of the callers).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over the bit patterns of a sequence of floats: equal digests
/// mean bit-identical sequences (up to hash collisions).
pub fn loss_digest(values: &[f64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.9), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[2.0, 1.0]), 1.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_eq!(loss_digest(&[1.0, 2.0]), loss_digest(&[1.0, 2.0]));
        assert_ne!(loss_digest(&[1.0, 2.0]), loss_digest(&[2.0, 1.0]));
        assert_ne!(loss_digest(&[0.0]), loss_digest(&[-0.0]));
    }

    #[test]
    fn catalogues_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }
}
