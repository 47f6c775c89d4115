//! Tape working-set pin at a mid-size model (N = 20 nodes, T = 12 steps,
//! bidirectional, M = 4 temporal graphs).
//!
//! The footprint is the bytes a model's tape pool ever allocated
//! (`PoolStats::allocated_bytes`). The pool never frees, so this is the
//! high-water mark of the tape's working set, and it is deterministic: the
//! tape records the same nodes in the same order at any worker count.
//! Three things keep it small:
//!
//! - Chebyshev bases are borrowed (`Tape::matmul_shared`), not copied onto
//!   the tape at every step: 240 copies of 3,200 B per bidirectional
//!   window here.
//! - The backward sweep frees each intermediate gradient once propagated,
//!   so a training step's gradients never all live at once.
//! - A run without targets returns each recurrent step's scratch to the
//!   pool at the end of the step, so `predict` holds about one step.
//!
//! Measured footprints, training step / `predict`: 6,480,384 / 1,650,856 B.
//! With copied bases, gradients kept until reset and no step release they
//! were 10,774,936 / 5,709,832 B. Keeping intermediate gradients alone
//! lifts the step to 10,006,936 B; skipping the step release alone lifts
//! `predict` to 4,941,832 B. Either breaks a pin below.

use rihgcn::core::{Forecaster, RihgcnConfig, RihgcnModel};
use rihgcn::data::{generate_pems, PemsConfig, WindowSampler};

/// A training step's tape footprint limit (measured: 6,480,384 B).
const MAX_STEP_BYTES: u64 = 7_000_000;
/// A `predict`'s tape footprint limit (measured: 1,650,856 B).
const MAX_PREDICT_BYTES: u64 = 2_000_000;

fn mid_size_model() -> (RihgcnModel, rihgcn::data::WindowSample) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 20,
        num_days: 3,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.4, &mut rihgcn::tensor::rng(3));
    let cfg = RihgcnConfig {
        gcn_dim: 8,
        lstm_dim: 16,
        num_temporal_graphs: 4,
        history: 12,
        horizon: 12,
        bidirectional: true,
        ..Default::default()
    };
    let sample = WindowSampler::new(12, 12, 1).window_at(&ds, 0);
    (RihgcnModel::from_dataset(&ds, cfg), sample)
}

#[test]
fn tape_footprint_stays_under_its_pins() {
    let (mut model, sample) = mid_size_model();
    let (predict_model, _) = mid_size_model();

    // Two steps: the second runs on the recycled pool and must not grow it.
    let _ = model.accumulate_gradients(&sample);
    let step = model.training_pool_stats().expect("session parked");
    let _ = model.accumulate_gradients(&sample);
    let step2 = model.training_pool_stats().expect("session parked");
    assert_eq!(
        step2.allocated_bytes, step.allocated_bytes,
        "a recycled training step grew the tape"
    );

    let _ = predict_model.predict(&sample);
    let predict = predict_model.training_pool_stats().expect("session parked");
    let _ = predict_model.predict(&sample);
    let predict2 = predict_model.training_pool_stats().expect("session parked");
    assert_eq!(
        predict2.allocated_bytes, predict.allocated_bytes,
        "a recycled predict grew the tape"
    );

    assert!(
        step.allocated_bytes <= MAX_STEP_BYTES,
        "a training step's tape footprint is {} B, over the {MAX_STEP_BYTES} B pin",
        step.allocated_bytes
    );
    assert!(
        predict.allocated_bytes <= MAX_PREDICT_BYTES,
        "predict's tape footprint is {} B, over the {MAX_PREDICT_BYTES} B pin",
        predict.allocated_bytes
    );
}
