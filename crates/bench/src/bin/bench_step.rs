//! Allocation-tracking training-step benchmark.
//!
//! Measures wall-clock time and heap-allocator traffic per RIHGCN training
//! step (forward + backward + clip + Adam), using the counting global
//! allocator from `rihgcn_bench::alloc`. Step 1 runs with an empty buffer
//! pool, steps ≥ 2 reuse the recycled session; `alloc_reduction` is the
//! steady-state saving against step 1.
//!
//! Evaluation is measured the same way: `predict` on the trained model runs
//! on the recycled session, and `predict_alloc_reduction` compares its
//! steady-state allocations against a fresh model's first `predict`, whose
//! session slot is still empty.
//!
//! The tape footprint is the bytes the tape's pool ever allocated
//! (`PoolStats::allocated_bytes`): the pool never frees, so this is the
//! high-water mark of the tape's working set. `tape_bytes_step` is read
//! after the training steps, `tape_bytes_predict` after a fresh model's
//! first `predict`. Both are deterministic.
//!
//! ```text
//! cargo run --release -p rihgcn-bench --bin bench_step -- [--smoke] [--steps N] [--out FILE]
//! ```
//!
//! Writes a JSON report (default `BENCH_step.json`) and exits non-zero if
//! any metric is missing/non-finite, a steady-state training step or
//! `predict` makes more heap allocations than its absolute limit, or the
//! `predict` footprint is not below the training step's.

use rihgcn_bench::alloc::{AllocSnapshot, CountingAlloc};
use rihgcn_core::{Forecaster, RihgcnConfig, RihgcnModel};
use st_data::{generate_pems, PemsConfig, WindowSampler};
use st_nn::Adam;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Most heap allocations a steady-state training step may make, averaged
/// over steps ≥ 2 (measured: 21.7 with `--smoke`, 16.0 without).
const MAX_ALLOCS_PER_STEP: f64 = 40.0;
/// Most heap allocations a steady-state `predict` may make (measured: 14
/// with `--smoke`, 24 without).
const MAX_ALLOCS_PER_PREDICT: f64 = 40.0;

struct Args {
    smoke: bool,
    steps: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        steps: 0,
        out: "BENCH_step.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--steps" => {
                let v = it.next().expect("--steps needs a value");
                args.steps = v.parse().expect("--steps must be an integer");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_step [--smoke] [--steps N] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    if args.steps == 0 {
        args.steps = if args.smoke { 4 } else { 10 };
    }
    assert!(args.steps >= 2, "need at least 2 steps to measure reuse");
    args
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args();

    let (nodes, graphs, gcn_dim, lstm_dim, history, horizon) = if args.smoke {
        (4, 2, 4, 6, 4, 2)
    } else {
        (8, 4, 8, 16, 12, 12)
    };
    let ds = generate_pems(&PemsConfig {
        num_nodes: nodes,
        num_days: 3,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.4, &mut st_tensor::rng(8));
    let cfg = RihgcnConfig {
        gcn_dim,
        lstm_dim,
        num_temporal_graphs: graphs,
        history,
        horizon,
        ..Default::default()
    };
    let mut model = RihgcnModel::from_dataset(&ds, cfg.clone());
    let sample = WindowSampler::new(history, horizon, 1).window_at(&ds, 0);
    let mut adam = Adam::new(model.params(), 1e-3);

    let mut allocs = Vec::with_capacity(args.steps);
    let mut bytes = Vec::with_capacity(args.steps);
    let mut times = Vec::with_capacity(args.steps);
    let mut stats_after_step1 = None;
    for step in 0..args.steps {
        model.params_mut().zero_grads();
        let snap = AllocSnapshot::take();
        let start = Instant::now();
        let loss = model.accumulate_gradients(&sample);
        model.params_mut().clip_grad_norm(5.0);
        adam.step(model.params_mut());
        times.push(start.elapsed().as_secs_f64() * 1e3);
        allocs.push(snap.allocations_since());
        bytes.push(snap.bytes_since());
        assert!(loss.is_finite(), "training loss diverged at step {step}");
        if step == 0 {
            stats_after_step1 = model.training_pool_stats();
        }
    }

    let tape_bytes_step = model.training_pool_stats().map_or(0, |s| s.allocated_bytes);
    let steady = allocs.len() - 1;
    let allocs_step1 = allocs[0];
    let bytes_step1 = bytes[0];
    let allocs_per_step = allocs[1..].iter().sum::<u64>() as f64 / steady as f64;
    let bytes_per_step = bytes[1..].iter().sum::<u64>() as f64 / steady as f64;
    let time_per_step_ms = times[1..].iter().sum::<f64>() / steady as f64;
    let alloc_reduction = 1.0 - allocs_per_step / allocs_step1.max(1) as f64;
    // Steady-state hit rate over steps ≥ 2 only — the same delta the
    // alloc_regression gate measures — so the cold pool of step 1 doesn't
    // drag the reported rate with short (smoke) step counts.
    let pool_hit_rate = match (stats_after_step1, model.training_pool_stats()) {
        (Some(s1), Some(sf)) => {
            let hits = sf.hits - s1.hits;
            let misses = sf.misses - s1.misses;
            hits as f64 / (hits + misses).max(1) as f64
        }
        _ => f64::NAN,
    };

    // Cold evaluation baseline: the first `predict` of a fresh model.
    let fresh = RihgcnModel::from_dataset(&ds, cfg);
    let snap = AllocSnapshot::take();
    let cold = fresh.predict(&sample);
    let allocs_predict1 = snap.allocations_since();
    assert!(cold.iter().all(|m| m.is_finite()), "cold predict diverged");
    let tape_bytes_predict = fresh.training_pool_stats().map_or(0, |s| s.allocated_bytes);

    // Steady-state evaluation on the trained model's recycled session
    // (calls ≥ 2, matching the training-step means).
    let mut predict_allocs = Vec::with_capacity(args.steps);
    let mut predict_bytes = Vec::with_capacity(args.steps);
    let mut predict_times = Vec::with_capacity(args.steps);
    for _ in 0..args.steps {
        let snap = AllocSnapshot::take();
        let start = Instant::now();
        let preds = model.predict(&sample);
        predict_times.push(start.elapsed().as_secs_f64() * 1e3);
        predict_allocs.push(snap.allocations_since());
        predict_bytes.push(snap.bytes_since());
        assert!(preds.iter().all(|m| m.is_finite()), "predict diverged");
    }
    let predict_ms = predict_times[1..].iter().sum::<f64>() / steady as f64;
    let allocs_per_predict = predict_allocs[1..].iter().sum::<u64>() as f64 / steady as f64;
    let bytes_per_predict = predict_bytes[1..].iter().sum::<u64>() as f64 / steady as f64;
    let predict_alloc_reduction = 1.0 - allocs_per_predict / allocs_predict1.max(1) as f64;

    let json = format!(
        "{{\n  \"bench\": \"rihgcn_training_step\",\n  \"smoke\": {},\n  \"threads\": {},\n  \"steps\": {},\n  \"time_per_step_ms\": {},\n  \"allocs_step1\": {},\n  \"bytes_step1\": {},\n  \"allocs_per_step\": {},\n  \"bytes_per_step\": {},\n  \"alloc_reduction\": {},\n  \"pool_hit_rate\": {},\n  \"predict_ms\": {},\n  \"allocs_per_predict\": {},\n  \"bytes_per_predict\": {},\n  \"predict_alloc_reduction\": {},\n  \"tape_bytes_step\": {},\n  \"tape_bytes_predict\": {}\n}}\n",
        args.smoke,
        st_par::num_threads(),
        args.steps,
        json_f64(time_per_step_ms),
        allocs_step1,
        bytes_step1,
        json_f64(allocs_per_step),
        json_f64(bytes_per_step),
        json_f64(alloc_reduction),
        json_f64(pool_hit_rate),
        json_f64(predict_ms),
        json_f64(allocs_per_predict),
        json_f64(bytes_per_predict),
        json_f64(predict_alloc_reduction),
        tape_bytes_step,
        tape_bytes_predict,
    );
    std::fs::write(&args.out, &json).expect("write report");
    print!("{json}");
    eprintln!(
        "step 1: {allocs_step1} allocs / {bytes_step1} B; steady state: \
         {allocs_per_step:.1} allocs / {bytes_per_step:.0} B per step \
         ({:.1}% reduction, pool hit rate {:.1}%); predict: {allocs_per_predict:.1} \
         allocs / {bytes_per_predict:.0} B per call ({:.1}% reduction); \
         tape footprint: step {tape_bytes_step} B, predict {tape_bytes_predict} B",
        alloc_reduction * 100.0,
        pool_hit_rate * 100.0,
        predict_alloc_reduction * 100.0
    );

    let metrics = [
        ("time_per_step_ms", time_per_step_ms),
        ("allocs_per_step", allocs_per_step),
        ("bytes_per_step", bytes_per_step),
        ("alloc_reduction", alloc_reduction),
        ("pool_hit_rate", pool_hit_rate),
        ("predict_ms", predict_ms),
        ("allocs_per_predict", allocs_per_predict),
        ("bytes_per_predict", bytes_per_predict),
        ("predict_alloc_reduction", predict_alloc_reduction),
    ];
    for (name, value) in metrics {
        if !value.is_finite() {
            eprintln!("FAIL: metric {name} is not finite");
            std::process::exit(1);
        }
    }
    for (name, allocs, limit) in [
        ("training-step", allocs_per_step, MAX_ALLOCS_PER_STEP),
        ("predict", allocs_per_predict, MAX_ALLOCS_PER_PREDICT),
    ] {
        if allocs > limit {
            eprintln!(
                "FAIL: steady-state {name} made {allocs:.1} heap allocations per call, \
                 over the limit of {limit}"
            );
            std::process::exit(1);
        }
    }
    if tape_bytes_predict >= tape_bytes_step {
        eprintln!(
            "FAIL: predict's tape footprint ({tape_bytes_predict} B) is not below \
             a training step's ({tape_bytes_step} B)"
        );
        std::process::exit(1);
    }
}
