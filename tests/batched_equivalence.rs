//! Bitwise contract of batched inference: forecasting `B` windows in one
//! tape run must equal `B` sequential single-window forwards bit for bit,
//! at every worker count and for both prediction heads.
//!
//! Why this can hold exactly (DESIGN §13): the batch lives row-stacked as
//! `(B·N) × F`, where every row-local op (elementwise arithmetic, the
//! LSTM/head right-multiplies against shared weights, per-row softmax) is
//! per-block bit-equal by construction; the only column-local ops — the
//! Chebyshev propagations `T_k(L̃) · X` — run in the wide `N × (B·F)`
//! permutation, and the blocked matmul accumulates each output element in
//! ascending `k` independent of operand width (pinned blocked ≡ naive in
//! `crates/tensor/tests/kernel_properties.rs`). The layout permutations
//! themselves are exact f64 moves.
//!
//! The parallel threshold is forced to 1 so the banded parallel kernels
//! actually run at this tiny model size; 1, 2 and 4 workers all must agree
//! (2 puts band boundaries elsewhere than 4 — see `thread_determinism.rs`).
//!
//! Serving forecasts through the recycled session (the tape and buffer
//! pool training steps reuse), so the same batches also run through
//! `OnlineForecaster::forecast_batch`, twice each, to prove pooled buffers
//! are fully overwritten between batched runs.

use rihgcn::core::{
    prepare_split, BatchedWindow, OnlineForecaster, PredictionHead, RihgcnConfig, RihgcnModel,
    SampleOutput, WindowSnapshot,
};
use rihgcn::data::{generate_pems, PemsConfig, WindowSample, WindowSampler, ZScore};
use rihgcn::tensor::{rng, set_parallel_threshold, Matrix};

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} diverged ({x} vs {y})"
        );
    }
}

fn assert_outputs_eq(batched: &SampleOutput, single: &SampleOutput, what: &str) {
    assert_eq!(batched.predictions.len(), single.predictions.len());
    assert_eq!(batched.estimates.len(), single.estimates.len());
    for (h, (b, s)) in batched
        .predictions
        .iter()
        .zip(&single.predictions)
        .enumerate()
    {
        assert_bits_eq(b, s, &format!("{what} prediction step {h}"));
    }
    for (t, (b, s)) in batched.estimates.iter().zip(&single.estimates).enumerate() {
        assert_bits_eq(b, s, &format!("{what} estimate step {t}"));
    }
}

fn model_and_windows(head: PredictionHead) -> (RihgcnModel, Vec<WindowSample>) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut rng(3));
    let (norm, _) = prepare_split(&ds.split_chronological());
    let cfg = RihgcnConfig {
        gcn_dim: 3,
        lstm_dim: 4,
        cheb_k: 2,
        num_temporal_graphs: 2,
        history: 4,
        horizon: 2,
        head,
        ..Default::default()
    };
    let model = RihgcnModel::from_dataset(&norm.train, cfg);
    // Stride 7 spreads the windows across time-of-day slots, so batch
    // members hit different interval weights in the HGCN.
    let mut windows = WindowSampler::new(4, 2, 7).sample(&norm.train);
    assert!(windows.len() >= 16, "need 16 distinct windows");
    // Hidden inputs as +0.0, the way the online window stores them (the
    // sampler's `value · 0` can be −0.0).
    for w in &mut windows {
        for (x, m) in w.inputs.iter_mut().zip(&w.masks) {
            *x = x.zip_map(m, |v, m| if m == 0.0 { 0.0 } else { v });
        }
    }
    (model, windows)
}

/// An online forecaster over `model` with the identity transform, so its
/// forecasts are the normalised-space predictions bit for bit, plus one
/// snapshot per window.
fn online_with_snapshots(
    model: RihgcnModel,
    windows: &[WindowSample],
) -> (OnlineForecaster, Vec<WindowSnapshot>) {
    let d = model.num_features();
    let mut online = OnlineForecaster::new(model, ZScore::from_parts(vec![0.0; d], vec![1.0; d]));
    let snapshots = windows
        .iter()
        .map(|w| {
            online.reset();
            for ((x, m), &slot) in w.inputs.iter().zip(&w.masks).zip(&w.slots) {
                online.push(x.clone(), m.clone(), slot);
            }
            online.snapshot().expect("a full window was pushed")
        })
        .collect();
    (online, snapshots)
}

#[test]
fn batched_forward_bit_identical_to_sequential() {
    let saved = rihgcn::tensor::parallel_threshold();
    set_parallel_threshold(1);
    for head in [PredictionHead::Concat, PredictionHead::Attention] {
        let (model, windows) = model_and_windows(head);
        let singles: Vec<SampleOutput> = windows[..16].iter().map(|w| model.forward(w)).collect();
        let (mut online, snapshots) = online_with_snapshots(model, &windows[..16]);
        for threads in [1usize, 2, 4] {
            rihgcn::par::set_num_threads(threads);
            for b in [1usize, 2, 3, 8, 16] {
                let refs: Vec<&WindowSample> = windows[..b].iter().collect();
                let batch = BatchedWindow::from_samples(&refs);
                let what = format!("{head:?} head, B={b}, {threads} threads");
                // Fresh-session batched forward…
                let fresh = online.model().forward_batched(&batch);
                assert_eq!(fresh.len(), b);
                for (i, out) in fresh.iter().enumerate() {
                    assert_outputs_eq(out, &singles[i], &format!("{what}, fresh, window {i}"));
                }
                // …and the recycled session, twice. The model's unit test
                // `recycled_run_matches_fresh_forward_bitwise` pins the
                // recycled estimates as well.
                for round in 0..2 {
                    let recycled = online.forecast_batch(&snapshots[..b]);
                    assert_eq!(recycled.len(), b);
                    for (i, steps) in recycled.iter().enumerate() {
                        assert_eq!(steps.len(), singles[i].predictions.len());
                        for (h, (r, s)) in steps.iter().zip(&singles[i].predictions).enumerate() {
                            assert_bits_eq(
                                r,
                                s,
                                &format!("{what}, recycled round {round}, window {i} step {h}"),
                            );
                        }
                    }
                }
            }
        }
    }
    rihgcn::par::set_num_threads(0);
    set_parallel_threshold(saved);
}

#[test]
fn batch_members_see_their_own_slots() {
    // Two copies of the same window data at different slots must produce
    // different outputs within one batch (the per-window interval weights
    // actually apply per block, not batch-wide).
    let (model, windows) = model_and_windows(PredictionHead::Concat);
    let mut shifted = windows[0].clone();
    let slots_per_day = model.slots_per_day();
    for s in shifted.slots.iter_mut() {
        *s = (*s + slots_per_day / 2) % slots_per_day;
    }
    let batch = BatchedWindow::from_samples(&[&windows[0], &shifted]);
    let outs = model.forward_batched(&batch);
    let diff: f64 = outs[0].predictions[0].max_abs_diff(&outs[1].predictions[0]);
    assert!(
        diff > 1e-12,
        "slot shift must change a batch member's output"
    );
}
