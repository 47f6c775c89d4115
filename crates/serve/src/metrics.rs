//! Lock-free service counters rendered in a Prometheus-style text format.
//!
//! Every family carries its `# HELP` / `# TYPE` header and histograms come
//! with the `_sum`/`_count` lines rate/avg queries need. Beyond the
//! HTTP-side counters, [`Metrics::render`] also exports the engine's queue
//! depth and tape-run counters, the inference tape's
//! [`MatrixPool`](st_tensor::MatrixPool) statistics (published by the engine thread via
//! [`Metrics::set_pool_stats`]) and the process-wide [`st_par::stats`]
//! scheduling counters — one scrape shows the whole pipeline.

use std::sync::atomic::{AtomicU64, Ordering};

/// Routes the service distinguishes in its metrics.
///
/// The discriminant doubles as the index into the route table (asserted at
/// compile time), so per-request recording is O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /observe`
    Observe,
    /// `GET /forecast`
    Forecast,
    /// `GET /imputed`
    Imputed,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /debug/trace`
    Trace,
    /// `POST /admin/shutdown`
    Shutdown,
    /// `POST /admin/load`
    AdminLoad,
    /// `POST /admin/unload`
    AdminUnload,
    /// `GET /admin/tenants`
    AdminTenants,
    /// Anything else (404/405 traffic).
    Other,
}

const ROUTES: [(Route, &str); 11] = [
    (Route::Observe, "observe"),
    (Route::Forecast, "forecast"),
    (Route::Imputed, "imputed"),
    (Route::Healthz, "healthz"),
    (Route::Metrics, "metrics"),
    (Route::Trace, "trace"),
    (Route::Shutdown, "shutdown"),
    (Route::AdminLoad, "admin_load"),
    (Route::AdminUnload, "admin_unload"),
    (Route::AdminTenants, "admin_tenants"),
    (Route::Other, "other"),
];

// `route_index` relies on ROUTES being listed in discriminant order.
const _: () = {
    let mut i = 0;
    while i < ROUTES.len() {
        assert!(
            ROUTES[i].0 as usize == i,
            "ROUTES must be listed in Route discriminant order"
        );
        i += 1;
    }
};

#[inline]
fn route_index(route: Route) -> usize {
    route as usize
}

/// Upper bounds (inclusive, in microseconds) of the latency histogram
/// buckets; the last bucket is unbounded.
const BUCKET_BOUNDS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, u64::MAX];
const BUCKET_LABELS: [&str; 6] = ["100us", "1ms", "10ms", "100ms", "1s", "+inf"];

/// Upper bounds (inclusive) of the batched-forecast size histogram; the
/// last bucket is unbounded so `--max-batch` above 16 still lands somewhere.
const BATCH_BUCKET_BOUNDS: [u64; 6] = [1, 2, 4, 8, 16, u64::MAX];
const BATCH_BUCKET_LABELS: [&str; 6] = ["1", "2", "4", "8", "16", "+inf"];

/// Atomic counters for the service: per-route request counts and latency
/// sums, error count, engine cache hits and queue depth, tape runs,
/// rejected connections, a request-latency histogram, per-shard engine
/// counters, and gauges mirroring the inference tape's buffer pool. All
/// methods are callable from any worker thread.
#[derive(Debug)]
pub struct Metrics {
    requests: [AtomicU64; ROUTES.len()],
    latency_us: [AtomicU64; ROUTES.len()],
    errors: AtomicU64,
    cache_hits: AtomicU64,
    rejected_connections: AtomicU64,
    latency: [AtomicU64; BUCKET_BOUNDS_US.len()],
    queue_depth: AtomicU64,
    engine_requests: AtomicU64,
    tape_runs: AtomicU64,
    shard_requests: Vec<AtomicU64>,
    shard_queue_depth: Vec<AtomicU64>,
    shard_tape_runs: Vec<AtomicU64>,
    batch_size: [AtomicU64; BATCH_BUCKET_BOUNDS.len()],
    batch_size_sum: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    pool_released: AtomicU64,
    pool_free_bytes: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::with_shards(1)
    }
}

impl Metrics {
    /// Fresh zeroed counters for a single-shard service.
    pub fn new() -> Self {
        Self::with_shards(1)
    }

    /// Fresh zeroed counters with per-shard families for `shards` engine
    /// shards (min 1). The aggregate engine counters are always maintained
    /// alongside, so `sum(shard_requests) == engine_requests` holds at any
    /// quiescent point.
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        let zeroed = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Self {
            requests: Default::default(),
            latency_us: Default::default(),
            errors: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            latency: Default::default(),
            queue_depth: AtomicU64::new(0),
            engine_requests: AtomicU64::new(0),
            tape_runs: AtomicU64::new(0),
            shard_requests: zeroed(shards),
            shard_queue_depth: zeroed(shards),
            shard_tape_runs: zeroed(shards),
            batch_size: Default::default(),
            batch_size_sum: AtomicU64::new(0),
            pool_hits: AtomicU64::new(0),
            pool_misses: AtomicU64::new(0),
            pool_released: AtomicU64::new(0),
            pool_free_bytes: AtomicU64::new(0),
        }
    }

    /// Number of engine shards these metrics cover.
    pub fn num_shards(&self) -> usize {
        self.shard_requests.len()
    }

    /// Records one served request: its route, wall latency, and whether the
    /// response was an error (status ≥ 400).
    pub fn record(&self, route: Route, latency_us: u64, error: bool) {
        let i = route_index(route);
        self.requests[i].fetch_add(1, Ordering::Relaxed);
        self.latency_us[i].fetch_add(latency_us, Ordering::Relaxed);
        if error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&b| latency_us <= b)
            .expect("last bound is u64::MAX");
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a forecast served from a shard's window-version cache.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection rejected by the max-connections limit.
    pub fn reject_connection(&self) {
        self.rejected_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// A request entered a shard's queue.
    pub fn queue_enter(&self, shard: usize) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.shard_queue_depth[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// A shard dequeued a request.
    pub fn queue_exit(&self, shard: usize) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.shard_queue_depth[shard].fetch_sub(1, Ordering::Relaxed);
        self.engine_requests.fetch_add(1, Ordering::Relaxed);
        self.shard_requests[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// A request left a shard's queue without reaching it (the shard
    /// thread is gone and the send failed).
    pub fn queue_drop(&self, shard: usize) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.shard_queue_depth[shard].fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently queued for (or being handled by) any shard.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Requests one shard has dequeued.
    pub fn shard_requests(&self, shard: usize) -> u64 {
        self.shard_requests[shard].load(Ordering::Relaxed)
    }

    /// Requests the shards have dequeued in total.
    pub fn total_engine_requests(&self) -> u64 {
        self.engine_requests.load(Ordering::Relaxed)
    }

    /// Counts one actual model evaluation (a cache miss) on a shard.
    pub fn tape_run(&self, shard: usize) {
        self.tape_runs.fetch_add(1, Ordering::Relaxed);
        self.shard_tape_runs[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// Total model evaluations the engine has run.
    pub fn total_tape_runs(&self) -> u64 {
        self.tape_runs.load(Ordering::Relaxed)
    }

    /// Records one batched forecast run answering `size` distinct windows.
    pub fn record_batch(&self, size: u64) {
        let bucket = BATCH_BUCKET_BOUNDS
            .iter()
            .position(|&b| size <= b)
            .expect("last bound is u64::MAX");
        self.batch_size[bucket].fetch_add(1, Ordering::Relaxed);
        self.batch_size_sum.fetch_add(size, Ordering::Relaxed);
    }

    /// Batched forecast runs recorded so far.
    pub fn total_batches(&self) -> u64 {
        self.batch_size
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Windows answered across all batched forecast runs. Strictly greater
    /// than [`Metrics::total_batches`] iff at least one batch grouped more
    /// than one window.
    pub fn total_batched_windows(&self) -> u64 {
        self.batch_size_sum.load(Ordering::Relaxed)
    }

    /// Publishes the inference tape's buffer-pool statistics (the engine
    /// thread calls this after each tape run).
    pub fn set_pool_stats(&self, stats: st_tensor::PoolStats, free_bytes: u64) {
        self.pool_hits.store(stats.hits, Ordering::Relaxed);
        self.pool_misses.store(stats.misses, Ordering::Relaxed);
        self.pool_released.store(stats.released, Ordering::Relaxed);
        self.pool_free_bytes.store(free_bytes, Ordering::Relaxed);
    }

    /// The last published pool statistics, as `(hits, misses, released)`.
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        (
            self.pool_hits.load(Ordering::Relaxed),
            self.pool_misses.load(Ordering::Relaxed),
            self.pool_released.load(Ordering::Relaxed),
        )
    }

    /// Total requests across all routes.
    pub fn total_requests(&self) -> u64 {
        self.requests
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total error responses.
    pub fn total_errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Total engine cache hits.
    pub fn total_cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Renders all counters as `GET /metrics` plain text: one family per
    /// counter/gauge with `# HELP`/`# TYPE` headers, cumulative histogram
    /// buckets with `_sum`/`_count`, per-route latency summaries, pool
    /// gauges and the st-par scheduling counters.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let header = |out: &mut String, name: &str, kind: &str, help: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };

        header(
            &mut out,
            "st_serve_requests_total",
            "counter",
            "Requests served, by route.",
        );
        for (i, (_, name)) in ROUTES.iter().enumerate() {
            out.push_str(&format!(
                "st_serve_requests_total{{route=\"{name}\"}} {}\n",
                self.requests[i].load(Ordering::Relaxed)
            ));
        }

        header(
            &mut out,
            "st_serve_errors_total",
            "counter",
            "Responses with status >= 400.",
        );
        out.push_str(&format!(
            "st_serve_errors_total {}\n",
            self.errors.load(Ordering::Relaxed)
        ));

        header(
            &mut out,
            "st_serve_cache_hits_total",
            "counter",
            "Requests served from the engine's window-version cache.",
        );
        out.push_str(&format!(
            "st_serve_cache_hits_total {}\n",
            self.cache_hits.load(Ordering::Relaxed)
        ));

        header(
            &mut out,
            "st_serve_rejected_connections_total",
            "counter",
            "Connections rejected by the max-connections limit.",
        );
        out.push_str(&format!(
            "st_serve_rejected_connections_total {}\n",
            self.rejected_connections.load(Ordering::Relaxed)
        ));

        header(
            &mut out,
            "st_serve_queue_depth",
            "gauge",
            "Requests queued for (or being handled by) the engine thread.",
        );
        out.push_str(&format!(
            "st_serve_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));

        header(
            &mut out,
            "st_serve_engine_requests_total",
            "counter",
            "Requests the engine thread has dequeued.",
        );
        out.push_str(&format!(
            "st_serve_engine_requests_total {}\n",
            self.engine_requests.load(Ordering::Relaxed)
        ));

        header(
            &mut out,
            "st_serve_tape_runs_total",
            "counter",
            "Model evaluations run by the engine (cache misses).",
        );
        out.push_str(&format!(
            "st_serve_tape_runs_total {}\n",
            self.tape_runs.load(Ordering::Relaxed)
        ));

        header(
            &mut out,
            "st_serve_shard_requests_total",
            "counter",
            "Requests dequeued, by engine shard.",
        );
        for (i, c) in self.shard_requests.iter().enumerate() {
            out.push_str(&format!(
                "st_serve_shard_requests_total{{shard=\"{i}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }

        header(
            &mut out,
            "st_serve_shard_queue_depth",
            "gauge",
            "Requests queued for (or being handled by) each shard.",
        );
        for (i, c) in self.shard_queue_depth.iter().enumerate() {
            out.push_str(&format!(
                "st_serve_shard_queue_depth{{shard=\"{i}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }

        header(
            &mut out,
            "st_serve_shard_tape_runs_total",
            "counter",
            "Model evaluations run (cache misses), by engine shard.",
        );
        for (i, c) in self.shard_tape_runs.iter().enumerate() {
            out.push_str(&format!(
                "st_serve_shard_tape_runs_total{{shard=\"{i}\"}} {}\n",
                c.load(Ordering::Relaxed)
            ));
        }

        header(
            &mut out,
            "st_serve_batch_size",
            "histogram",
            "Distinct windows answered per batched forecast run.",
        );
        let mut batch_cumulative = 0u64;
        for (i, label) in BATCH_BUCKET_LABELS.iter().enumerate() {
            batch_cumulative += self.batch_size[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "st_serve_batch_size_bucket{{le=\"{label}\"}} {batch_cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "st_serve_batch_size_sum {}\n",
            self.batch_size_sum.load(Ordering::Relaxed)
        ));
        out.push_str(&format!("st_serve_batch_size_count {batch_cumulative}\n"));

        header(
            &mut out,
            "st_serve_latency",
            "histogram",
            "Request latency, microsecond buckets.",
        );
        let mut cumulative = 0u64;
        for (i, label) in BUCKET_LABELS.iter().enumerate() {
            cumulative += self.latency[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "st_serve_latency_bucket{{le=\"{label}\"}} {cumulative}\n"
            ));
        }
        let total_us: u64 = self
            .latency_us
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        out.push_str(&format!("st_serve_latency_sum {total_us}\n"));
        out.push_str(&format!("st_serve_latency_count {cumulative}\n"));

        header(
            &mut out,
            "st_serve_route_latency_us",
            "summary",
            "Per-route latency sum (microseconds) and request count.",
        );
        for (i, (_, name)) in ROUTES.iter().enumerate() {
            out.push_str(&format!(
                "st_serve_route_latency_us_sum{{route=\"{name}\"}} {}\n",
                self.latency_us[i].load(Ordering::Relaxed)
            ));
            out.push_str(&format!(
                "st_serve_route_latency_us_count{{route=\"{name}\"}} {}\n",
                self.requests[i].load(Ordering::Relaxed)
            ));
        }

        header(
            &mut out,
            "st_serve_pool_acquires_total",
            "counter",
            "Inference tape buffer-pool acquires, by outcome.",
        );
        out.push_str(&format!(
            "st_serve_pool_acquires_total{{outcome=\"hit\"}} {}\n",
            self.pool_hits.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "st_serve_pool_acquires_total{{outcome=\"miss\"}} {}\n",
            self.pool_misses.load(Ordering::Relaxed)
        ));

        header(
            &mut out,
            "st_serve_pool_released_total",
            "counter",
            "Buffers returned to the inference tape's pool.",
        );
        out.push_str(&format!(
            "st_serve_pool_released_total {}\n",
            self.pool_released.load(Ordering::Relaxed)
        ));

        header(
            &mut out,
            "st_serve_pool_free_bytes",
            "gauge",
            "Bytes held by the inference tape pool's free buffers.",
        );
        out.push_str(&format!(
            "st_serve_pool_free_bytes {}\n",
            self.pool_free_bytes.load(Ordering::Relaxed)
        ));

        let par = st_par::stats();
        header(
            &mut out,
            "st_par_regions_total",
            "counter",
            "Parallel-primitive regions, by dispatch kind.",
        );
        out.push_str(&format!(
            "st_par_regions_total{{kind=\"parallel\"}} {}\n",
            par.par_regions
        ));
        out.push_str(&format!(
            "st_par_regions_total{{kind=\"serial\"}} {}\n",
            par.serial_regions
        ));

        header(
            &mut out,
            "st_par_tasks_total",
            "counter",
            "Tasks dispatched by parallel regions.",
        );
        out.push_str(&format!("st_par_tasks_total {}\n", par.tasks));

        header(
            &mut out,
            "st_par_busy_ns_total",
            "counter",
            "Nanoseconds workers spent in claim loops.",
        );
        out.push_str(&format!("st_par_busy_ns_total {}\n", par.busy_ns));

        header(
            &mut out,
            "st_par_utilization",
            "gauge",
            "Worker busy time over parallel-region capacity, 0 to 1.",
        );
        out.push_str(&format!("st_par_utilization {:.6}\n", par.utilization()));

        out
    }
}

/// Value of the sample `name` (the family name with its labels, exactly
/// as [`Metrics::render`] writes them) in a metrics scrape, if present.
pub fn sample_value(scrape: &str, name: &str) -> Option<f64> {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_value_reads_exact_sample_names() {
        let m = Metrics::with_shards(2);
        m.record(Route::Forecast, 50, false);
        let text = m.render();
        let forecast = "st_serve_requests_total{route=\"forecast\"}";
        assert_eq!(sample_value(&text, forecast), Some(1.0));
        assert_eq!(sample_value(&text, "st_serve_latency_count"), Some(1.0));
        // A prefix of a longer sample name is not that sample.
        assert_eq!(sample_value(&text, "st_serve_latency"), None);
        assert_eq!(sample_value(&text, "st_serve_no_such_metric"), None);
    }

    #[test]
    fn records_routes_errors_and_buckets() {
        let m = Metrics::new();
        m.record(Route::Forecast, 50, false);
        m.record(Route::Forecast, 5_000, false);
        m.record(Route::Observe, 500, true);
        m.cache_hit();
        m.reject_connection();
        assert_eq!(m.total_requests(), 3);
        assert_eq!(m.total_errors(), 1);
        assert_eq!(m.total_cache_hits(), 1);
        let text = m.render();
        assert!(text.contains("st_serve_requests_total{route=\"forecast\"} 2"));
        assert!(text.contains("st_serve_requests_total{route=\"observe\"} 1"));
        assert!(text.contains("st_serve_errors_total 1"));
        assert!(text.contains("st_serve_cache_hits_total 1"));
        assert!(text.contains("st_serve_rejected_connections_total 1"));
        // Cumulative: ≤100us holds 1, ≤1ms holds 2, ≤10ms (and beyond) 3.
        assert!(text.contains("st_serve_latency_bucket{le=\"100us\"} 1"));
        assert!(text.contains("st_serve_latency_bucket{le=\"1ms\"} 2"));
        assert!(text.contains("st_serve_latency_bucket{le=\"+inf\"} 3"));
        // Histogram _sum/_count complete the family.
        assert!(text.contains("st_serve_latency_sum 5550"));
        assert!(text.contains("st_serve_latency_count 3"));
        // Per-route summaries.
        assert!(text.contains("st_serve_route_latency_us_sum{route=\"forecast\"} 5050"));
        assert!(text.contains("st_serve_route_latency_us_count{route=\"forecast\"} 2"));
    }

    #[test]
    fn huge_latency_lands_in_last_bucket() {
        let m = Metrics::new();
        m.record(Route::Healthz, u64::MAX, false);
        assert!(m
            .render()
            .contains("st_serve_latency_bucket{le=\"+inf\"} 1"));
        assert!(m.render().contains("st_serve_latency_bucket{le=\"1s\"} 0"));
    }

    #[test]
    fn every_family_has_help_and_type() {
        let text = Metrics::new().render();
        let mut families = std::collections::BTreeSet::new();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let name = line
                .split(|c| c == '{' || c == ' ')
                .next()
                .unwrap()
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            families.insert(name.to_string());
        }
        assert!(!families.is_empty());
        for family in &families {
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}"
            );
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing TYPE for {family}"
            );
        }
    }

    #[test]
    fn queue_and_engine_counters_track_lifecycle() {
        let m = Metrics::new();
        m.queue_enter(0);
        m.queue_enter(0);
        assert_eq!(m.queue_depth(), 2);
        m.queue_exit(0);
        assert_eq!(m.queue_depth(), 1);
        m.tape_run(0);
        m.set_pool_stats(
            st_tensor::PoolStats {
                hits: 90,
                misses: 10,
                released: 100,
                ..Default::default()
            },
            4096,
        );
        assert_eq!(m.total_tape_runs(), 1);
        assert_eq!(m.pool_stats(), (90, 10, 100));
        let text = m.render();
        assert!(text.contains("st_serve_queue_depth 1"));
        assert!(text.contains("st_serve_engine_requests_total 1"));
        assert!(text.contains("st_serve_tape_runs_total 1"));
        assert!(text.contains("st_serve_pool_acquires_total{outcome=\"hit\"} 90"));
        assert!(text.contains("st_serve_pool_free_bytes 4096"));
        assert!(text.contains("st_par_utilization "));
    }

    #[test]
    fn batch_size_histogram_is_cumulative() {
        let m = Metrics::new();
        m.record_batch(1);
        m.record_batch(1);
        m.record_batch(3);
        m.record_batch(16);
        m.record_batch(40);
        assert_eq!(m.total_batches(), 5);
        assert_eq!(m.total_batched_windows(), 61);
        let text = m.render();
        assert!(text.contains("st_serve_batch_size_bucket{le=\"1\"} 2"));
        assert!(text.contains("st_serve_batch_size_bucket{le=\"2\"} 2"));
        assert!(text.contains("st_serve_batch_size_bucket{le=\"4\"} 3"));
        assert!(text.contains("st_serve_batch_size_bucket{le=\"16\"} 4"));
        assert!(text.contains("st_serve_batch_size_bucket{le=\"+inf\"} 5"));
        assert!(text.contains("st_serve_batch_size_sum 61"));
        assert!(text.contains("st_serve_batch_size_count 5"));
    }

    #[test]
    fn shard_counters_sum_to_the_aggregate() {
        let m = Metrics::with_shards(3);
        assert_eq!(m.num_shards(), 3);
        for (shard, requests) in [(0usize, 4u64), (1, 2), (2, 1)] {
            for _ in 0..requests {
                m.queue_enter(shard);
                m.queue_exit(shard);
            }
        }
        m.tape_run(1);
        m.tape_run(1);
        m.tape_run(2);
        let per_shard: u64 = (0..3).map(|s| m.shard_requests(s)).sum();
        assert_eq!(per_shard, m.total_engine_requests());
        assert_eq!(m.total_engine_requests(), 7);
        let text = m.render();
        assert!(text.contains("st_serve_shard_requests_total{shard=\"0\"} 4"));
        assert!(text.contains("st_serve_shard_requests_total{shard=\"2\"} 1"));
        assert!(text.contains("st_serve_shard_queue_depth{shard=\"1\"} 0"));
        assert!(text.contains("st_serve_shard_tape_runs_total{shard=\"1\"} 2"));
        assert!(text.contains("st_serve_shard_tape_runs_total{shard=\"0\"} 0"));
    }
}
