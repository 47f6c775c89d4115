//! Training workloads: train and evaluate, as the experiment binaries do,
//! timed from outside.
//!
//! A run repeats one cycle: a one-epoch `fit` call over the next chunk of
//! a fixed window pool, then single-window forecasts of held-out windows.
//! Each `fit` call gives one throughput sample (training windows over the
//! call's wall time) and each forecast one latency sample; the reported
//! values are medians. Interleaving the two spreads both samples over the
//! whole run, so a burst of host contention skews neither. Cycle 0 warms
//! the recycled tape pool and is not timed. A traced run traces every
//! other cycle and compares the two halves for `trace.overhead`.

use crate::layers::{ratio, report_matmuls, report_setup, CounterDelta, Counters, Spans};
use crate::report::{loss_digest, median, peak_rss_mb, percentile, sorted, Report};
use rihgcn_core::{fit, prepare_split, Forecaster, RihgcnConfig, RihgcnModel, TrainConfig};
use st_data::{generate_pems, PemsConfig, TrafficDataset, WindowSample, WindowSampler};
use std::time::Instant;

/// Share of observed entries hidden on top of the generator's own gaps.
const EXTRA_MISSING: f64 = 0.4;

/// Sizes of one training workload.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Sensors `N`.
    pub nodes: usize,
    /// Simulated days.
    pub days: usize,
    /// Model hyper-parameters (the seed is replaced by the run seed).
    pub model: RihgcnConfig,
    /// Stride between sampled windows.
    pub stride: usize,
    /// Training windows in the pool (a multiple of `chunk`).
    pub train_windows: usize,
    /// Validation windows in the pool (a multiple of `val_per_call`).
    pub val_windows: usize,
    /// Held-out windows forecast after the `fit` calls (cycled).
    pub test_windows: usize,
    /// Training windows per `fit` call.
    pub chunk: usize,
    /// Validation windows per `fit` call.
    pub val_per_call: usize,
    /// Held-out windows forecast after each `fit` call.
    pub eval_per_call: usize,
    /// Windows per optimizer update.
    pub batch: usize,
    /// Timed cycles whose losses enter `loss_digest` (always run).
    pub digest_cycles: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Per-thread span ring capacity of a traced run (the spans of one
    /// `fit` call or of one cycle's forecasts).
    pub ring: usize,
}

/// `train-paper`: the paper's sizes (N = 207, F = 64, q = 128).
pub fn paper(smoke: bool) -> TrainSpec {
    if smoke {
        return tiny();
    }
    TrainSpec {
        nodes: 207,
        days: 7,
        model: RihgcnConfig::paper_scale(),
        stride: 12,
        train_windows: 48,
        val_windows: 8,
        test_windows: 8,
        chunk: 2,
        val_per_call: 1,
        eval_per_call: 1,
        batch: 2,
        digest_cycles: 2,
        setups: 3,
        ring: 1 << 17,
    }
}

/// `train-exp`: the experiment harness's default scale.
pub fn exp(smoke: bool) -> TrainSpec {
    if smoke {
        return tiny();
    }
    TrainSpec {
        nodes: 12,
        days: 14,
        model: RihgcnConfig {
            gcn_dim: 12,
            lstm_dim: 24,
            ..RihgcnConfig::default()
        },
        stride: 8,
        train_windows: 320,
        val_windows: 64,
        test_windows: 32,
        chunk: 32,
        val_per_call: 8,
        eval_per_call: 8,
        batch: 16,
        digest_cycles: 3,
        setups: 3,
        ring: 1 << 17,
    }
}

/// The model every `--smoke` workload trains or serves.
pub(crate) fn smoke_model() -> RihgcnConfig {
    RihgcnConfig {
        gcn_dim: 3,
        lstm_dim: 4,
        num_temporal_graphs: 2,
        history: 4,
        horizon: 2,
        ..RihgcnConfig::default()
    }
}

/// Seconds-scale sizes for `--smoke`.
fn tiny() -> TrainSpec {
    TrainSpec {
        nodes: 5,
        days: 3,
        model: smoke_model(),
        stride: 12,
        train_windows: 8,
        val_windows: 2,
        test_windows: 4,
        chunk: 2,
        val_per_call: 1,
        eval_per_call: 2,
        batch: 2,
        digest_cycles: 2,
        setups: 2,
        ring: 1 << 14,
    }
}

/// Synthetic PeMS data with extra values hidden, as every workload uses.
pub(crate) fn pems(nodes: usize, days: usize, seed: u64) -> TrafficDataset {
    let _span = st_obs::span!("bench.generate");
    generate_pems(&PemsConfig {
        num_nodes: nodes,
        num_days: days,
        seed,
        ..Default::default()
    })
    .with_extra_missing(EXTRA_MISSING, &mut st_tensor::rng(seed ^ 0x5eed))
}

/// A built model and its window pools.
struct Prepared {
    model: RihgcnModel,
    train: Vec<WindowSample>,
    val: Vec<WindowSample>,
    test: Vec<WindowSample>,
}

/// Generates the dataset, builds the model (DTW temporal graphs,
/// Chebyshev bases) and cuts the window pools: everything a user does
/// before the first training step.
fn prepare(spec: &TrainSpec, seed: u64) -> Prepared {
    let ds = pems(spec.nodes, spec.days, seed);
    let (norm, _) = prepare_split(&ds.split_chronological());
    let model = {
        let _span = st_obs::span!("bench.model_build");
        RihgcnModel::from_dataset(&norm.train, spec.model.clone().with_seed(seed))
    };
    let sampler = WindowSampler::new(spec.model.history, spec.model.horizon, spec.stride);
    let pool = |ds: &TrafficDataset, n: usize| -> Vec<WindowSample> {
        assert!(
            sampler.num_windows(ds.num_times()) >= n,
            "dataset too short for {n} windows"
        );
        (0..n)
            .map(|w| sampler.window_at(ds, w * spec.stride))
            .collect()
    };
    Prepared {
        train: pool(&norm.train, spec.train_windows),
        val: pool(&norm.val, spec.val_windows),
        test: pool(&norm.test, spec.test_windows),
        model,
    }
}

/// Runs one training workload for `seconds` of timed cycles.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setup_times = Vec::with_capacity(spec.setups);
    let mut prepared = None;
    for _ in 0..spec.setups {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(prepare(spec, seed));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let Prepared {
        mut model,
        train,
        val,
        test,
    } = prepared.expect("at least one set-up");
    st_obs::set_enabled(false);
    let mut setup_spans = Spans::default();
    if traced {
        setup_spans.drain();
    }
    report.note(format!(
        "setup: {} runs {:?} s, model {} parameters",
        spec.setups,
        setup_times,
        model.num_parameters()
    ));

    let tc = TrainConfig {
        max_epochs: 1,
        patience: 1,
        batch_size: spec.batch,
        seed,
        ..Default::default()
    };
    let probe = &train[0];
    let loss_before = model.loss(probe);
    let mut digest_input = vec![loss_before];
    let mut train_losses = Vec::new();
    let mut rates = Vec::new();
    let mut latency_ms = Vec::new();
    let mut fit_spans = Spans::default();
    let mut eval_spans = Spans::default();
    let mut counters = CounterDelta::default();
    let (mut pool_hits, mut pool_misses) = (0u64, 0u64);
    // `(windows, seconds)` of the traced and the untraced timed calls.
    let (mut traced_fit, mut plain_fit) = ((0usize, 0.0f64), (0usize, 0.0f64));

    let calls_per_pool = spec.train_windows / spec.chunk;
    let start = Instant::now();
    let mut cycle = 0usize;
    while cycle <= spec.digest_cycles || start.elapsed().as_secs_f64() < seconds {
        let lo = (cycle % calls_per_pool) * spec.chunk;
        let vlo = (cycle * spec.val_per_call) % spec.val_windows;
        let trace_this = traced && cycle % 2 == 1;
        st_obs::set_enabled(trace_this);
        let before = Counters::take();
        let pool_before = model.training_pool_stats();
        let t0 = Instant::now();
        let fitted = {
            let _span = st_obs::span!("bench.fit");
            fit(
                &mut model,
                &train[lo..lo + spec.chunk],
                &val[vlo..vlo + spec.val_per_call],
                &tc,
            )
        };
        let dt = t0.elapsed().as_secs_f64();
        st_obs::set_enabled(false);
        let call_losses = [fitted.train_losses[0], fitted.val_losses[0]];
        report.attempted += (spec.chunk + spec.val_per_call) as u64;
        if call_losses.iter().any(|l| !l.is_finite()) {
            report.failed += (spec.chunk + spec.val_per_call) as u64;
        }
        train_losses.push(call_losses[0]);
        if (1..=spec.digest_cycles).contains(&cycle) {
            digest_input.extend(call_losses);
        }
        if trace_this {
            counters.add(before.delta());
            if let (Some(p0), Some(p1)) = (pool_before, model.training_pool_stats()) {
                pool_hits += p1.hits - p0.hits;
                pool_misses += p1.misses - p0.misses;
            }
            fit_spans.drain();
        }

        st_obs::set_enabled(trace_this);
        for j in 0..spec.eval_per_call {
            let window = &test[(cycle * spec.eval_per_call + j) % spec.test_windows];
            let t0 = Instant::now();
            let predictions = {
                let _span = st_obs::span!("bench.predict");
                model.predict(window)
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            report.attempted += 1;
            if predictions
                .iter()
                .any(|p| p.as_slice().iter().any(|v| !v.is_finite()))
            {
                report.failed += 1;
            }
            if cycle > 0 {
                latency_ms.push(ms);
            }
        }
        st_obs::set_enabled(false);
        if trace_this {
            eval_spans.drain();
        }

        if cycle > 0 {
            rates.push(spec.chunk as f64 / dt);
            let side = if trace_this {
                &mut traced_fit
            } else {
                &mut plain_fit
            };
            side.0 += spec.chunk;
            side.1 += dt;
        }
        cycle += 1;
    }
    let loss_after = model.loss(probe);

    report.check(
        loss_after < loss_before,
        format!("loss(first window) drops across fit: {loss_before} -> {loss_after}"),
    );
    report.check(report.failed == 0, "every loss and forecast is finite");
    report.note(format!(
        "loss_digest {:016x} (first window + {} cycles)",
        loss_digest(&digest_input),
        spec.digest_cycles
    ));
    report.note(format!(
        "train_loss {} (mean epoch loss over {} calls)",
        train_losses.iter().sum::<f64>() / cycle as f64,
        cycle
    ));

    let latency = sorted(latency_ms);
    report.set("setup_s", median(&setup_times));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("throughput_per_s", median(&rates));
    report.set("latency_p50_ms", percentile(&latency, 0.5));
    report.note(format!(
        "throughput: median of {} timed fit calls of {} windows",
        rates.len(),
        spec.chunk
    ));
    report.note(format!(
        "latency: {} forecasts, p90 {} ms, p99 {} ms",
        latency.len(),
        percentile(&latency, 0.9),
        percentile(&latency, 0.99)
    ));

    if traced {
        let windows = traced_fit.0 as f64;
        let wall_ns = traced_fit.1 * 1e9;
        report_setup(&mut report, &setup_spans, spec.setups);
        report_matmuls(&mut report, &fit_spans, windows, wall_ns);
        report.set("core.train_step_ms", fit_spans.mean_ms("core.train_step"));
        report.set("core.forward_ms", eval_spans.mean_ms("core.forward"));
        report.set(
            "core.forward_self_ms",
            eval_spans.mean_self_ms("core.forward"),
        );
        report.set(
            "autodiff.backward_ms",
            fit_spans.mean_ms("autodiff.backward"),
        );
        report.set(
            "autodiff.backward_self_ms",
            fit_spans.mean_self_ms("autodiff.backward"),
        );
        report.set("nn.adam_step_ms", fit_spans.mean_ms("nn.adam_step"));
        report.set(
            "par.regions_per_window",
            ratio(counters.par_regions as f64, windows),
        );
        report.set("par.utilization", counters.utilization());
        report.set(
            "tape.pool_hit_rate",
            ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
        );
        report.set(
            "alloc.allocs_per_window",
            ratio(counters.allocs as f64, windows),
        );
        report.set(
            "alloc.bytes_per_window",
            ratio(counters.bytes as f64, windows),
        );

        // Coverage: the share of the traced calls' wall time that the
        // program's own spans account for (everything under `bench.fit`
        // except its self time).
        let program_ns = fit_spans.self_ns_where(|name| !name.starts_with("bench."));
        let coverage = ratio(program_ns as f64, wall_ns);
        let dropped = setup_spans.dropped + fit_spans.dropped + eval_spans.dropped;
        report.set("trace.coverage", coverage);
        report.set("trace.dropped", dropped as f64);
        report.set(
            "trace.overhead",
            ratio(
                ratio(traced_fit.0 as f64, traced_fit.1),
                ratio(plain_fit.0 as f64, plain_fit.1),
            ) - 1.0,
        );
        report.check(dropped == 0, format!("no spans dropped ({dropped})"));
        report.check(
            coverage >= 0.95,
            format!("program spans cover >= 95% of traced fit time ({coverage:.4})"),
        );
    }
    report
}
