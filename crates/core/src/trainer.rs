//! Mini-batch training loop with early stopping, plus evaluation helpers.

use crate::observe::{EpochStats, NullObserver, StderrPretty, TrainObserver};
use crate::TrainConfig;
use st_data::{DatasetSplit, TrafficDataset, WindowSample, ZScore};
use st_nn::{Adam, EarlyStopping, ErrorAccum, Metrics, ParamStore, StopDecision};
use st_obs::alloc::AllocSnapshot;
use st_tensor::{rng, Matrix};
use std::time::Instant;

/// A trainable sequence-to-sequence traffic forecaster.
///
/// Implemented by [`crate::RihgcnModel`] and by every deep baseline in the
/// `rihgcn-baselines` crate, so they all share one training loop
/// ([`fit`]) and one evaluation path ([`evaluate_prediction`]).
pub trait Forecaster {
    /// The model's parameter store.
    fn params(&self) -> &ParamStore;

    /// Mutable access to the parameter store.
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Forward + backward on one sample, accumulating gradients into the
    /// store; returns the sample's training loss.
    fn accumulate_gradients(&mut self, sample: &WindowSample) -> f64;

    /// Training loss of one sample without touching gradients.
    fn loss(&self, sample: &WindowSample) -> f64;

    /// Horizon predictions for one sample (normalised space), one `N × D`
    /// matrix per step.
    fn predict(&self, sample: &WindowSample) -> Vec<Matrix>;
}

/// A forecaster that also reconstructs the history window (joint
/// imputation models: RIHGCN and the `-I` baselines).
pub trait Imputer: Forecaster {
    /// Imputation estimates `X̂_t` per history step (normalised space).
    fn impute(&self, sample: &WindowSample) -> Vec<Matrix>;
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_losses: Vec<f64>,
    /// Mean validation loss per epoch.
    pub val_losses: Vec<f64>,
    /// Epoch whose parameters were kept (lowest validation loss).
    pub best_epoch: usize,
    /// Best validation loss.
    pub best_val_loss: f64,
}

impl TrainReport {
    /// Number of epochs actually run.
    pub fn epochs(&self) -> usize {
        self.train_losses.len()
    }
}

/// Trains a model with Adam, gradient clipping, per-epoch validation and
/// patience-based early stopping; the parameters with the best validation
/// loss are restored at the end (checkpointing).
///
/// Progress goes to a [`StderrPretty`] observer when `tc.verbose` is set
/// (the classic `epoch N: train … val …` lines), nowhere otherwise; use
/// [`fit_with_observer`] to route it elsewhere.
///
/// # Panics
///
/// Panics if `train` is empty or the configuration is invalid.
pub fn fit<M: Forecaster>(
    model: &mut M,
    train: &[WindowSample],
    val: &[WindowSample],
    tc: &TrainConfig,
) -> TrainReport {
    if tc.verbose {
        fit_with_observer(model, train, val, tc, &mut StderrPretty)
    } else {
        fit_with_observer(model, train, val, tc, &mut NullObserver)
    }
}

/// [`fit`] reporting every epoch to `observer` (see
/// [`TrainObserver`]); `tc.verbose` is ignored — the observer decides what
/// to surface.
///
/// # Panics
///
/// Panics if `train` is empty or the configuration is invalid.
pub fn fit_with_observer<M: Forecaster>(
    model: &mut M,
    train: &[WindowSample],
    val: &[WindowSample],
    tc: &TrainConfig,
    observer: &mut dyn TrainObserver,
) -> TrainReport {
    tc.validate();
    assert!(!train.is_empty(), "no training samples");
    if tc.threads > 0 {
        // Purely a performance knob: results are bit-identical for any
        // thread count (tests/thread_determinism.rs holds us to that).
        st_par::set_num_threads(tc.threads);
    }

    let mut adam = Adam::new(model.params(), tc.learning_rate);
    let mut stopper = EarlyStopping::new(tc.patience);
    let mut shuffle_rng = rng(tc.seed);
    let mut order: Vec<usize> = (0..train.len()).collect();

    let mut best_params: Option<ParamStore> = None;
    let mut train_losses = Vec::new();
    let mut val_losses = Vec::new();

    for epoch in 0..tc.max_epochs {
        let _span = st_obs::span!("core.epoch", epoch);
        let epoch_start = Instant::now();
        let allocs_before = AllocSnapshot::take();
        shuffle_rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut batch_count = 0usize;
        model.params_mut().zero_grads();
        for (i, &idx) in order.iter().enumerate() {
            // Implementations recycle their tape across calls (see
            // `RihgcnModel::accumulate_gradients`), so this inner loop runs
            // allocation-free at steady state.
            epoch_loss += model.accumulate_gradients(&train[idx]);
            batch_count += 1;
            let end_of_batch = batch_count == tc.batch_size || i + 1 == order.len();
            if end_of_batch {
                // Average the accumulated gradients over the batch.
                model.params_mut().scale_grads(1.0 / batch_count as f64);
                model.params_mut().clip_grad_norm(tc.clip_norm);
                adam.step(model.params_mut());
                model.params_mut().zero_grads();
                batch_count = 0;
            }
        }
        let train_loss = epoch_loss / train.len() as f64;
        train_losses.push(train_loss);

        let val_loss = if val.is_empty() {
            train_loss
        } else {
            val.iter().map(|s| model.loss(s)).sum::<f64>() / val.len() as f64
        };
        val_losses.push(val_loss);

        let decision = stopper.update(val_loss);
        if decision == StopDecision::Improved {
            best_params = Some(model.params().clone());
        }
        observer.on_epoch(&EpochStats {
            epoch,
            train_loss,
            val_loss,
            wall_ms: epoch_start.elapsed().as_secs_f64() * 1e3,
            learning_rate: tc.learning_rate,
            allocations: allocs_before.allocations_since(),
            alloc_bytes: allocs_before.bytes_since(),
            improved: decision == StopDecision::Improved,
        });
        if decision == StopDecision::Stop {
            break;
        }
    }

    if let Some(best) = best_params {
        *model.params_mut() = best;
    }
    let report = TrainReport {
        train_losses,
        val_losses,
        best_epoch: stopper.best_epoch(),
        best_val_loss: stopper.best(),
    };
    observer.on_complete(&report);
    report
}

/// Normalises a dataset split with Z-score statistics fitted on the
/// *training* portion's observed entries (the only defensible choice under
/// missing data), returning the normalised split and the transform.
pub fn prepare_split(split: &DatasetSplit) -> (DatasetSplit, ZScore) {
    let z = ZScore::fit(&split.train.values, &split.train.mask);
    let norm = |ds: &TrafficDataset| TrafficDataset {
        name: ds.name.clone(),
        values: z.apply(&ds.values),
        mask: ds.mask.clone(),
        network: ds.network.clone(),
        interval_minutes: ds.interval_minutes,
    };
    (
        DatasetSplit {
            train: norm(&split.train),
            val: norm(&split.val),
            test: norm(&split.test),
        },
        z,
    )
}

/// Scores horizon predictions against ground-truth targets in the original
/// data units, using each target's observation mask (for synthetic data the
/// targets are fully observed).
pub fn evaluate_prediction<M: Forecaster>(
    model: &M,
    samples: &[WindowSample],
    z: &ZScore,
) -> Metrics {
    let mut acc = ErrorAccum::new();
    for sample in samples {
        let predictions = model.predict(sample);
        for (h, pred) in predictions.iter().enumerate() {
            let pred_raw = z.invert_matrix(pred);
            let target_raw = z.invert_matrix(&sample.targets[h]);
            acc.update(&pred_raw, &target_raw, Some(&sample.target_masks[h]));
        }
    }
    acc.summary()
}

/// Scores the recurrent imputation against ground truth on *hidden* entries
/// of the history window, in the original data units.
///
/// Synthetic datasets carry complete ground truth, so every hidden entry is
/// scoreable — this mirrors the paper's protocol of randomly removing
/// observed entries and scoring their reconstruction.
pub fn evaluate_imputation<M: Imputer>(model: &M, samples: &[WindowSample], z: &ZScore) -> Metrics {
    let mut acc = ErrorAccum::new();
    for sample in samples {
        let estimates = model.impute(sample);
        for (t, est) in estimates.iter().enumerate() {
            let est_raw = z.invert_matrix(est);
            let truth_raw = z.invert_matrix(&sample.truths[t]);
            let hidden = sample.masks[t].map(|m| 1.0 - m);
            acc.update(&est_raw, &truth_raw, Some(&hidden));
        }
    }
    acc.summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RihgcnConfig, RihgcnModel};
    use st_data::{generate_pems, PemsConfig, WindowSampler};

    fn tiny_training_setup() -> (RihgcnModel, Vec<WindowSample>, Vec<WindowSample>, ZScore) {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 2,
            ..Default::default()
        });
        let ds = ds.with_extra_missing(0.3, &mut rng(1));
        let split = ds.split_chronological();
        let (norm, z) = prepare_split(&split);
        let cfg = RihgcnConfig {
            gcn_dim: 3,
            lstm_dim: 4,
            cheb_k: 2,
            num_temporal_graphs: 2,
            history: 4,
            horizon: 2,
            ..Default::default()
        };
        let model = RihgcnModel::from_dataset(&norm.train, cfg);
        let sampler = WindowSampler::new(4, 2, 24);
        let train: Vec<_> = sampler.sample(&norm.train).into_iter().take(8).collect();
        let val: Vec<_> = sampler.sample(&norm.val).into_iter().take(3).collect();
        (model, train, val, z)
    }

    #[test]
    fn fit_decreases_training_loss() {
        let (mut model, train, val, _) = tiny_training_setup();
        let tc = TrainConfig {
            max_epochs: 6,
            batch_size: 4,
            learning_rate: 3e-3,
            ..Default::default()
        };
        let report = fit(&mut model, &train, &val, &tc);
        assert!(report.epochs() >= 1);
        let first = report.train_losses[0];
        let last = *report.train_losses.last().unwrap();
        assert!(last < first, "training loss should fall: {first} → {last}");
        assert!(report.best_val_loss.is_finite());
    }

    #[test]
    fn fit_restores_best_checkpoint() {
        let (mut model, train, val, _) = tiny_training_setup();
        let tc = TrainConfig {
            max_epochs: 4,
            batch_size: 4,
            ..Default::default()
        };
        let report = fit(&mut model, &train, &val, &tc);
        // After restoring, re-computed validation loss equals the best.
        let val_loss: f64 = val.iter().map(|s| model.loss(s)).sum::<f64>() / val.len() as f64;
        assert!(
            (val_loss - report.best_val_loss).abs() < 1e-9,
            "restored params must reproduce best val loss"
        );
    }

    #[test]
    fn evaluation_metrics_are_finite_and_positive() {
        let (mut model, train, val, z) = tiny_training_setup();
        let tc = TrainConfig {
            max_epochs: 2,
            batch_size: 4,
            ..Default::default()
        };
        let _ = fit(&mut model, &train, &val, &tc);
        let pred = evaluate_prediction(&model, &val, &z);
        assert!(pred.mae.is_finite() && pred.mae > 0.0);
        assert!(pred.rmse >= pred.mae);
        let imp = evaluate_imputation(&model, &val, &z);
        assert!(imp.mae.is_finite() && imp.mae > 0.0);
    }

    #[test]
    fn prepare_split_normalises_with_train_stats() {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 3,
            num_days: 2,
            ..Default::default()
        });
        let split = ds.split_chronological();
        let (norm, z) = prepare_split(&split);
        assert_eq!(z.num_features(), 4);
        // Training portion is ~standardised.
        let m = norm.train.values.mean();
        assert!(m.abs() < 0.2, "normalised train mean {m}");
        // Round trip restores raw values.
        let back = z.invert(&norm.test.values);
        let diff = back
            .zip_map(&split.test.values, |a, b| (a - b).abs())
            .mean();
        assert!(diff < 1e-9);
    }

    #[test]
    fn observer_sees_every_epoch_and_the_report() {
        struct Recorder {
            epochs: Vec<EpochStats>,
            completed: usize,
        }
        impl TrainObserver for Recorder {
            fn on_epoch(&mut self, stats: &EpochStats) {
                self.epochs.push(stats.clone());
            }
            fn on_complete(&mut self, _report: &TrainReport) {
                self.completed += 1;
            }
        }

        let (mut model, train, val, _) = tiny_training_setup();
        let tc = TrainConfig {
            max_epochs: 3,
            batch_size: 4,
            ..Default::default()
        };
        let mut rec = Recorder {
            epochs: Vec::new(),
            completed: 0,
        };
        let report = fit_with_observer(&mut model, &train, &val, &tc, &mut rec);
        assert_eq!(rec.epochs.len(), report.epochs());
        assert_eq!(rec.completed, 1);
        for (i, e) in rec.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i);
            assert_eq!(e.train_loss, report.train_losses[i]);
            assert_eq!(e.val_loss, report.val_losses[i]);
            assert!(e.wall_ms > 0.0);
            assert_eq!(e.learning_rate, tc.learning_rate);
        }
        // The first epoch always improves on "no best yet".
        assert!(rec.epochs[0].improved);
    }

    #[test]
    fn observed_training_matches_plain_fit_bitwise() {
        // The observer must not influence training: identical setups with
        // and without one produce identical losses.
        let tc = TrainConfig {
            max_epochs: 3,
            batch_size: 4,
            ..Default::default()
        };
        let (mut plain_model, train, val, _) = tiny_training_setup();
        let plain = fit(&mut plain_model, &train, &val, &tc);
        let (mut observed_model, ..) = tiny_training_setup();
        let mut sink = crate::JsonlObserver::new(Vec::new());
        let observed = fit_with_observer(&mut observed_model, &train, &val, &tc, &mut sink);
        assert_eq!(plain, observed);
        let jsonl = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(jsonl.lines().count(), plain.epochs() + 1);
    }

    #[test]
    #[should_panic(expected = "no training samples")]
    fn fit_rejects_empty_training_set() {
        let (mut model, _, val, _) = tiny_training_setup();
        let _ = fit(&mut model, &[], &val, &TrainConfig::default());
    }
}
