//! Batched-forecast benchmark for the st-serve engine.
//!
//! Measures the shard drain loop end to end at the engine layer, where
//! request RTT is a channel hop instead of an HTTP round trip: an
//! in-process [`Registry`] (single shard, deterministic model) has its
//! bounded queue saturated with [`FORECASTS`] fire-and-forget
//! observe → forecast pairs, once at `max_batch` 1
//! (batching off) and once at 16, best of three runs each. Every observe
//! bumps the window version, so no forecast can coalesce on the version
//! cache and the drain must either run each window alone or stack them
//! into batched tape runs. Reports forecast RPS for both, writes
//! `BENCH_batch.json` (`--out`), checks the per-shard metrics consistency
//! gate on each engine, and exits non-zero unless batching delivers at
//! least [`MIN_BATCH_SPEEDUP`]× the unbatched throughput.
//!
//! ```text
//! cargo run --release -p rihgcn-bench --bin bench_batch -- [--out FILE]
//! ```
//!
//! HTTP load is measured by `stbench --workload serve-city|serve-fleet`.

use st_serve::metrics::sample_value;
use st_serve::shard::{ObserveAck, ShardRequest};
use st_serve::{EngineError, Metrics, Registry, RegistryConfig};
use st_tensor::Matrix;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum forecast-throughput ratio `max_batch` 16 must deliver over
/// `max_batch` 1 on a saturated single-tenant queue.
const MIN_BATCH_SPEEDUP: f64 = 2.0;

/// Observe → forecast pairs per timed run.
const FORECASTS: usize = 640;

/// The output path: `--out FILE`, default `BENCH_batch.json`.
fn parse_out() -> Result<String, String> {
    let mut out = "BENCH_batch.json".to_string();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => out = iter.next().ok_or("missing value for --out")?,
            "--help" | "-h" => {
                println!("bench_batch [--out FILE]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Deterministic synthetic measurements for step `t`: values varying
/// smoothly so forecasts are well-conditioned.
fn observation_values(t: usize, nodes: usize, features: usize) -> Matrix {
    Matrix::from_fn(nodes, features, |r, c| {
        40.0 + 10.0 * (((t + 1) * (r + 2) + c) as f64 * 0.37).sin()
    })
}

/// Value of the sample `name` in a metrics scrape.
fn metric_value(metrics: &str, name: &str) -> Result<f64, String> {
    sample_value(metrics, name).ok_or_else(|| format!("metrics missing {name}"))
}

/// The deterministic in-process forecaster both bench-batch engines
/// load. Deliberately small: batching amortises per-window tape
/// overhead (op dispatch, pool traffic, session bookkeeping), so the
/// win is largest exactly where serving latency is cheapest — many
/// small tenants on one shard, the registry's design centre.
fn bench_forecaster() -> rihgcn_core::OnlineForecaster {
    let ds = st_data::generate_pems(&st_data::PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut st_tensor::rng(3));
    let (norm, z) = rihgcn_core::prepare_split(&ds.split_chronological());
    let cfg = rihgcn_core::RihgcnConfig {
        gcn_dim: 2,
        lstm_dim: 4,
        cheb_k: 2,
        num_temporal_graphs: 2,
        history: 6,
        horizon: 3,
        ..Default::default()
    };
    let model = rihgcn_core::RihgcnModel::from_dataset(&norm.train, cfg);
    rihgcn_core::OnlineForecaster::new(model, z)
}

/// One saturation run against a fresh single-shard engine at the given
/// `max_batch`: after filling the window, the submitter fire-and-forgets
/// `forecasts` observe → forecast pairs straight into the shard's
/// bounded queue, then awaits every reply. The queue therefore holds a
/// standing backlog the whole run, and because each observe bumps the
/// window version, no forecast can coalesce on the version cache: the
/// drain loop either runs every window alone (`max_batch` 1) or parks
/// up to `max_batch` distinct versions and answers them with one
/// batched tape run.
///
/// Two details keep the measurement honest on a small host. The backlog
/// is headed by [`PRELUDE`] observe → imputed pairs — each imputation
/// hits a fresh window version, so the shard answers it with a full
/// inline tape run; on a single-CPU box that keeps the drain busy with
/// compute (instead of racing the submitter for the queue and flushing
/// partial batches at transient queue-empty) until the flood is fully
/// queued. And throughput is measured steady-state, first forecast
/// reply → last, so both runs exclude their warm-up. Returns forecast
/// RPS plus the batch histogram `(count, sum)`.
fn bench_batch_run(max_batch: usize, forecasts: usize) -> Result<(f64, u64, u64), String> {
    /// Observe → imputed pairs heading the backlog (see above).
    const PRELUDE: usize = 8;
    let metrics = Arc::new(Metrics::with_shards(1));
    let registry = Registry::new(
        RegistryConfig {
            shards: 1,
            max_batch,
            // Hold the whole backlog: with a short queue the submitter
            // parks on every freed slot and the drain can win the
            // wake-up race, flushing partial batches at queue-empty.
            queue_depth: 2 * (PRELUDE + forecasts) + 16,
            // On a single-CPU host the drain still sees transient
            // queue-empty whenever it preempts the submitter mid-flood;
            // a short linger lets batches fill regardless.
            batch_linger: Duration::from_micros(200),
            ..Default::default()
        },
        Arc::clone(&metrics),
    );
    registry
        .load("bench", bench_forecaster())
        .map_err(|e| format!("load bench tenant: {e}"))?;
    let resolved = registry
        .resolve("bench")
        .ok_or("bench tenant missing after load")?;
    let info = resolved.info;

    let observe = |t: usize, reply: &std::sync::mpsc::Sender<Result<ObserveAck, EngineError>>| {
        registry.submit(
            resolved.shard,
            ShardRequest::Observe {
                tenant: Arc::clone(&resolved.key),
                values: observation_values(t, info.nodes, info.features),
                mask: Matrix::from_fn(info.nodes, info.features, |_, _| 1.0),
                slot: t % info.slots_per_day,
                reply: reply.clone(),
            },
        )
    };

    // Fill the window before the clock starts.
    let (ack_tx, ack_rx) = channel();
    for t in 0..info.history {
        observe(t, &ack_tx)?;
    }
    for _ in 0..info.history {
        ack_rx
            .recv()
            .map_err(|_| "observe ack channel closed")?
            .map_err(|e| format!("window fill: {e}"))?;
    }

    // Pre-build every request so the flood is pure channel sends — the
    // queue then holds a standing backlog rather than draining between
    // submits, which would flush partial batches.
    let (steps_tx, steps_rx) = channel();
    let (imputed_tx, imputed_rx) = channel();
    let mut backlog = Vec::with_capacity(2 * (PRELUDE + forecasts));
    let mut next_slot = info.history;
    for _ in 0..PRELUDE {
        backlog.push(ShardRequest::Observe {
            tenant: Arc::clone(&resolved.key),
            values: observation_values(next_slot, info.nodes, info.features),
            mask: Matrix::from_fn(info.nodes, info.features, |_, _| 1.0),
            slot: next_slot % info.slots_per_day,
            reply: ack_tx.clone(),
        });
        backlog.push(ShardRequest::Imputed {
            tenant: Arc::clone(&resolved.key),
            reply: imputed_tx.clone(),
        });
        next_slot += 1;
    }
    for _ in 0..forecasts {
        backlog.push(ShardRequest::Observe {
            tenant: Arc::clone(&resolved.key),
            values: observation_values(next_slot, info.nodes, info.features),
            mask: Matrix::from_fn(info.nodes, info.features, |_, _| 1.0),
            slot: next_slot % info.slots_per_day,
            reply: ack_tx.clone(),
        });
        backlog.push(ShardRequest::Forecast {
            tenant: Arc::clone(&resolved.key),
            reply: steps_tx.clone(),
        });
        next_slot += 1;
    }
    for req in backlog {
        registry.submit(resolved.shard, req)?;
    }
    drop(steps_tx);
    drop(imputed_tx);
    let mut received = 0usize;
    let mut first: Option<Instant> = None;
    let mut last = Instant::now();
    while let Ok(reply) = steps_rx.recv() {
        let reply = reply.map_err(|e| format!("forecast: {e}"))?;
        if reply.steps.len() != info.horizon {
            return Err(format!(
                "forecast reply has {} steps, expected {}",
                reply.steps.len(),
                info.horizon
            ));
        }
        last = Instant::now();
        first.get_or_insert(last);
        received += 1;
    }
    if received != forecasts {
        return Err(format!(
            "expected {forecasts} forecast replies, got {received}"
        ));
    }
    drop(ack_tx);
    while let Ok(ack) = ack_rx.recv() {
        ack.map_err(|e| format!("observe: {e}"))?;
    }
    let mut imputed_replies = 0usize;
    while let Ok(reply) = imputed_rx.recv() {
        reply.map_err(|e| format!("imputed: {e}"))?;
        imputed_replies += 1;
    }
    if imputed_replies != PRELUDE {
        return Err(format!(
            "expected {PRELUDE} imputed replies, got {imputed_replies}"
        ));
    }
    let elapsed = (last - first.ok_or("no forecast replies")?).as_secs_f64();
    let rps = (forecasts - 1) as f64 / elapsed;

    // At quiescence per-shard request counters must sum exactly to the
    // aggregate engine counter.
    let rendered = registry.render_metrics();
    let shard_sum = metric_value(&rendered, "st_serve_shard_requests_total{shard=\"0\"}")?;
    let engine_total = metric_value(&rendered, "st_serve_engine_requests_total")?;
    if shard_sum != engine_total {
        return Err(format!(
            "max_batch {max_batch}: per-shard requests sum to {shard_sum} \
             but engine total is {engine_total}"
        ));
    }
    let batch_count = metrics.total_batches();
    let batch_sum = metrics.total_batched_windows();
    println!(
        "max_batch {max_batch}: {forecasts} forecasts, steady-state {elapsed:.3}s \
         = {rps:.0} req/s, {batch_count} batched runs answering {batch_sum} windows \
         (mean batch {:.2})",
        batch_sum as f64 / batch_count.max(1) as f64
    );
    Ok((rps, batch_count, batch_sum))
}

/// Timed repetitions per `max_batch` setting; the best run of each is
/// compared, so OS scheduling jitter on a shared host can't fail the
/// gate unless it hits all repetitions of one side.
const BENCH_BATCH_REPS: usize = 3;

fn bench_batch(out: &str) -> Result<(), String> {
    let mut rps_unbatched = 0f64;
    for _ in 0..BENCH_BATCH_REPS {
        let (rps, count1, sum1) = bench_batch_run(1, FORECASTS)?;
        if count1 != sum1 {
            return Err(format!(
                "--max-batch 1 must disable batching, yet {count1} runs answered {sum1} windows"
            ));
        }
        rps_unbatched = rps_unbatched.max(rps);
    }
    let (mut rps_batched, mut count16, mut sum16) = (0f64, 0u64, 0u64);
    for _ in 0..BENCH_BATCH_REPS {
        let (rps, count, sum) = bench_batch_run(16, FORECASTS)?;
        if sum <= count {
            return Err(format!(
                "saturated queue at --max-batch 16 formed no batch > 1 \
                 ({count} runs, {sum} windows)"
            ));
        }
        if rps > rps_batched {
            (rps_batched, count16, sum16) = (rps, count, sum);
        }
    }
    let speedup = rps_batched / rps_unbatched;

    let json = format!(
        "{{\n  \"bench\": \"serve_batched_forecast\",\n  \"forecasts\": {FORECASTS},\n  \"st_num_threads\": {},\n  \"rps_max_batch_1\": {rps_unbatched:.1},\n  \"rps_max_batch_16\": {rps_batched:.1},\n  \"speedup\": {speedup:.3},\n  \"batched_runs\": {count16},\n  \"batched_windows\": {sum16},\n  \"mean_batch_size\": {:.3}\n}}\n",
        st_par::num_threads(),
        sum16 as f64 / count16.max(1) as f64
    );
    std::fs::write(out, &json).map_err(|e| format!("write {out}: {e}"))?;
    print!("{json}");

    if speedup < MIN_BATCH_SPEEDUP {
        return Err(format!(
            "batched throughput is only {speedup:.2}x the unbatched baseline \
             (floor {MIN_BATCH_SPEEDUP}x)"
        ));
    }
    Ok(())
}

fn main() {
    let result = parse_out().and_then(|out| bench_batch(&out));
    if let Err(e) = result {
        eprintln!("bench_batch: {e}");
        std::process::exit(1);
    }
}
