//! Streaming inference: forecasts as observations arrive.
//!
//! The paper's closing note — "the proposed method will be built into a
//! transportation application system to provide future traffic conditions
//! to users" — implies an online deployment mode. [`OnlineForecaster`]
//! wraps a trained [`RihgcnModel`] with a rolling observation window: push
//! each new (partial) measurement matrix as it arrives and ask for a
//! forecast or the imputed recent history at any time, all in original
//! data units.

use crate::{BatchedWindow, RihgcnModel};
use st_data::ZScore;
use st_tensor::Matrix;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error returned by [`OnlineForecaster::try_push`] when an observation is
/// rejected before it can poison the rolling window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError {
    /// The values matrix is not `nodes × features`.
    ValuesShape {
        /// Shape the model expects.
        expected: (usize, usize),
        /// Shape that was pushed.
        got: (usize, usize),
    },
    /// The mask matrix does not match the values matrix.
    MaskShape {
        /// Shape the model expects.
        expected: (usize, usize),
        /// Shape that was pushed.
        got: (usize, usize),
    },
    /// A mask entry is neither 0 nor 1.
    MaskNotBinary {
        /// Offending row (node).
        row: usize,
        /// Offending column (feature).
        col: usize,
    },
    /// An observed entry (mask = 1) is NaN or infinite.
    NonFiniteValue {
        /// Offending row (node).
        row: usize,
        /// Offending column (feature).
        col: usize,
    },
    /// The time-of-day slot is out of range for the model's day length.
    SlotOutOfRange {
        /// Slot that was pushed.
        slot: usize,
        /// Number of slots in a day.
        slots_per_day: usize,
    },
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PushError::ValuesShape { expected, got } => write!(
                f,
                "observation shape must be nodes × features = {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            PushError::MaskShape { expected, got } => write!(
                f,
                "mask shape must match values = {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            PushError::MaskNotBinary { row, col } => {
                write!(f, "mask entry ({row}, {col}) must be 0 or 1")
            }
            PushError::NonFiniteValue { row, col } => {
                write!(f, "observed value at ({row}, {col}) is not finite")
            }
            PushError::SlotOutOfRange {
                slot,
                slots_per_day,
            } => write!(
                f,
                "slot {slot} out of range: the model's day has {slots_per_day} slots"
            ),
        }
    }
}

impl Error for PushError {}

/// A rolling-window online wrapper around a trained model.
///
/// # Examples
///
/// ```no_run
/// use rihgcn_core::{prepare_split, OnlineForecaster, RihgcnConfig, RihgcnModel};
/// use st_data::{generate_pems, PemsConfig};
/// use st_tensor::Matrix;
///
/// let ds = generate_pems(&PemsConfig::default());
/// let (norm, z) = prepare_split(&ds.split_chronological());
/// let model = RihgcnModel::from_dataset(&norm.train, RihgcnConfig::default());
/// let mut online = OnlineForecaster::new(model, z);
/// // Feed measurements as they arrive (slot = time-of-day index).
/// online.push(Matrix::zeros(20, 4), Matrix::zeros(20, 4), 100);
/// ```
#[derive(Debug)]
pub struct OnlineForecaster {
    model: RihgcnModel,
    z: ZScore,
    // (raw values, mask, slot) per buffered timestamp. Entries are
    // `Arc`-shared so a `WindowSnapshot` — the frozen view a deferred
    // batch member forecasts from — clones `history` pointers, not
    // `history` matrices.
    window: VecDeque<Arc<(Matrix, Matrix, usize)>>,
    history: usize,
    horizon: usize,
    version: u64,
}

/// An immutable snapshot of a full observation window at one version.
///
/// Taken with [`OnlineForecaster::snapshot`] and consumed by
/// [`OnlineForecaster::forecast_batch`]: an engine shard snapshots the
/// window when it defers a forecast into a forming batch, so observations
/// that land while the batch accumulates cannot change what the deferred
/// request sees. Snapshots share the underlying matrices with the live
/// window via `Arc` (taking one is O(history) pointer clones).
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    entries: Vec<Arc<(Matrix, Matrix, usize)>>,
    version: u64,
}

impl WindowSnapshot {
    /// The window version this snapshot was taken at.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl OnlineForecaster {
    /// Wraps a trained model and its normalisation transform.
    pub fn new(model: RihgcnModel, z: ZScore) -> Self {
        let history = model.config().history;
        let horizon = model.config().horizon;
        Self {
            model,
            z,
            window: VecDeque::with_capacity(history),
            history,
            horizon,
            version: 0,
        }
    }

    /// Builds a forecaster straight from a checkpoint-v2 stream: the
    /// self-contained persist format carries the model, its graphs and the
    /// ZScore transform, which is everything serving needs.
    ///
    /// # Errors
    ///
    /// Propagates any [`crate::PersistError`] from the checkpoint reader.
    pub fn from_checkpoint<R: std::io::BufRead>(r: &mut R) -> Result<Self, crate::PersistError> {
        let (model, z) = crate::load_checkpoint(r)?;
        Ok(Self::new(model, z))
    }

    /// Number of observations currently buffered (at most `history`).
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no observations are buffered yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Whether a full history window is available for forecasting.
    pub fn ready(&self) -> bool {
        self.window.len() == self.history
    }

    /// Read-only access to the wrapped model.
    pub fn model(&self) -> &RihgcnModel {
        &self.model
    }

    /// The normalisation transform the forecaster converts units with.
    pub fn zscore(&self) -> &ZScore {
        &self.z
    }

    /// History window length `T` the model consumes.
    pub fn history(&self) -> usize {
        self.history
    }

    /// Forecast horizon `T'` the model produces.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Monotonic window version: bumped by every successful
    /// [`OnlineForecaster::push`]/[`try_push`](OnlineForecaster::try_push)
    /// and by [`OnlineForecaster::reset`]. Two calls with the same version
    /// observe the same window, so forecasts can be cached per version.
    pub fn window_version(&self) -> u64 {
        self.version
    }

    /// Pushes one timestamp of measurements in **original units**.
    ///
    /// `values` holds the observed readings (entries with `mask == 0` are
    /// ignored), `slot` is the time-of-day index of this timestamp. The
    /// oldest timestamp falls out once the window is full.
    ///
    /// # Panics
    ///
    /// Panics with the [`PushError`] message if the observation is invalid;
    /// see [`OnlineForecaster::try_push`] for the non-panicking variant.
    pub fn push(&mut self, values: Matrix, mask: Matrix, slot: usize) {
        if let Err(e) = self.try_push(values, mask, slot) {
            panic!("{e}");
        }
    }

    /// Validates and pushes one timestamp of measurements in **original
    /// units**, rejecting malformed observations instead of failing deep
    /// inside the model's `forward`.
    ///
    /// Checks, in order: values shape against the model's `(N, F)`, mask
    /// shape against values, mask entries binary, observed values finite,
    /// and `slot < slots_per_day`. Entries with `mask == 0` are stored as
    /// zero so junk (even NaN) at hidden positions cannot leak into later
    /// arithmetic.
    ///
    /// # Errors
    ///
    /// Returns the first [`PushError`] encountered; the window is left
    /// untouched on error.
    pub fn try_push(&mut self, values: Matrix, mask: Matrix, slot: usize) -> Result<(), PushError> {
        let expected = (self.model.num_nodes(), self.model.num_features());
        if values.shape() != expected {
            return Err(PushError::ValuesShape {
                expected,
                got: values.shape(),
            });
        }
        if mask.shape() != values.shape() {
            return Err(PushError::MaskShape {
                expected,
                got: mask.shape(),
            });
        }
        for row in 0..expected.0 {
            for col in 0..expected.1 {
                let m = mask[(row, col)];
                if m != 0.0 && m != 1.0 {
                    return Err(PushError::MaskNotBinary { row, col });
                }
                if m == 1.0 && !values[(row, col)].is_finite() {
                    return Err(PushError::NonFiniteValue { row, col });
                }
            }
        }
        let slots_per_day = self.model.slots_per_day();
        if slot >= slots_per_day {
            return Err(PushError::SlotOutOfRange {
                slot,
                slots_per_day,
            });
        }
        // Canonicalise: hidden entries are stored as 0 regardless of what
        // the caller put there.
        let clean = values.zip_map(&mask, |v, m| if m == 0.0 { 0.0 } else { v });
        if self.window.len() == self.history {
            self.window.pop_front();
        }
        self.window.push_back(Arc::new((clean, mask, slot)));
        self.version += 1;
        Ok(())
    }

    /// Clears the buffered window.
    pub fn reset(&mut self) {
        self.window.clear();
        self.version += 1;
    }

    /// Freezes the current (full) window for a deferred batched forecast;
    /// `None` until [`OnlineForecaster::ready`].
    pub fn snapshot(&self) -> Option<WindowSnapshot> {
        if !self.ready() {
            return None;
        }
        Some(WindowSnapshot {
            entries: self.window.iter().cloned().collect(),
            version: self.version,
        })
    }

    /// Buffer-pool statistics of the recycled inference/training tape, if
    /// the model has run at least once (`None` before that).
    pub fn pool_stats(&self) -> Option<st_tensor::PoolStats> {
        self.model.training_pool_stats()
    }

    /// Bytes parked in the recycled tape pool's free lists (`None` before
    /// the model has run).
    pub fn pool_free_bytes(&self) -> Option<usize> {
        self.model.training_pool_free_bytes()
    }

    /// Normalises `B` frozen windows straight into the stacked step blocks
    /// of one batch: two `(B·N) × D` allocations per step instead of `3B`
    /// per-window intermediates plus a stacking copy. Every window — live
    /// or snapshot, forecast or imputation — goes through this one
    /// transform, so a snapshot taken at version `v` runs bit-identically
    /// to a live call at `v`.
    fn stack_snapshots(&self, snapshots: &[WindowSnapshot]) -> BatchedWindow {
        let n = self.model.num_nodes();
        let d = self.model.num_features();
        let b = snapshots.len();
        let t_len = self.history;
        let mean = self.z.mean();
        let std = self.z.std();
        let mut inputs = Vec::with_capacity(t_len);
        let mut masks = Vec::with_capacity(t_len);
        let mut slots = Vec::with_capacity(t_len * b);
        for t in 0..t_len {
            let mut input = Matrix::zeros(b * n, d);
            let mut mask_s = Matrix::zeros(b * n, d);
            for (w, snap) in snapshots.iter().enumerate() {
                assert_eq!(snap.entries.len(), t_len, "snapshot history mismatch");
                let (raw, mask, slot) = &*snap.entries[t];
                for i in 0..n {
                    for j in 0..d {
                        let norm = (raw[(i, j)] - mean[j]) / std[j];
                        input[(w * n + i, j)] = norm * mask[(i, j)];
                        mask_s[(w * n + i, j)] = mask[(i, j)];
                    }
                }
                slots.push(*slot);
            }
            inputs.push(input);
            masks.push(mask_s);
        }
        BatchedWindow::from_parts(inputs, masks, slots, b)
    }

    /// The `T'`-step forecast in original units, or `None` until a full
    /// window has been pushed: [`OnlineForecaster::forecast_batch`] over a
    /// snapshot of the live window.
    pub fn forecast(&mut self) -> Option<Vec<Matrix>> {
        let snapshot = self.snapshot()?;
        self.forecast_batch(&[snapshot]).pop()
    }

    /// Forecasts `B` frozen windows in one batched tape run, returning each
    /// snapshot's `T'`-step forecast in original units, in input order.
    ///
    /// Runs through the recycled session (steady-state inference reuses
    /// the tape's buffer pool). Entry `b` is bit-identical to what
    /// [`OnlineForecaster::forecast`] returned (or would have returned) at
    /// snapshot `b`'s version: the batched forward is bit-identical per
    /// block to a one-window run.
    ///
    /// # Panics
    ///
    /// Panics if `snapshots` is empty.
    pub fn forecast_batch(&mut self, snapshots: &[WindowSnapshot]) -> Vec<Vec<Matrix>> {
        assert!(!snapshots.is_empty(), "forecast_batch needs ≥ 1 snapshot");
        let batch = snapshots.len();
        let _span = st_obs::span!("core.forward_batched", batch);
        let n = self.model.num_nodes();
        let d = self.model.num_features();
        let stacked = self.stack_snapshots(snapshots);
        let z = &self.z;
        // Denormalise block `b` of each stacked prediction in place off the
        // live tape — the same `v·σ + μ` per element as `invert_matrix` on
        // a row slice, minus the slice — and never touch the (unused)
        // imputation estimates.
        self.model.with_batched_recycled_run(&stacked, |sess, run| {
            (0..batch)
                .map(|w| {
                    run.predictions
                        .iter()
                        .map(|&v| {
                            let stacked = sess.tape.value(v);
                            Matrix::from_fn(n, d, |i, j| {
                                stacked[(w * n + i, j)] * z.std()[j] + z.mean()[j]
                            })
                        })
                        .collect()
                })
                .collect()
        })
    }

    /// The imputed history window in original units (model estimates at
    /// hidden entries, observations elsewhere), or `None` until ready.
    pub fn imputed_window(&mut self) -> Option<Vec<Matrix>> {
        let snapshot = self.snapshot()?;
        let stacked = self.stack_snapshots(std::slice::from_ref(&snapshot));
        let z = &self.z;
        Some(self.model.with_batched_recycled_run(&stacked, |sess, run| {
            run.estimates
                .iter()
                .zip(&snapshot.entries)
                .map(|(&est, entry)| {
                    let (raw, mask, _) = &**entry;
                    // Complement in raw units: keep observations, fill holes
                    // with the (denormalised) model estimate.
                    let est_raw = z.invert_matrix(sess.tape.value(est));
                    let holes = est_raw.zip_map(mask, |e, m| e * (1.0 - m));
                    let observed = raw.hadamard(mask);
                    &holes + &observed
                })
                .collect()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare_split, RihgcnConfig};
    use st_data::{generate_pems, PemsConfig};
    use st_tensor::rng;

    fn setup() -> (OnlineForecaster, st_data::TrafficDataset) {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 2,
            ..Default::default()
        });
        let ds = ds.with_extra_missing(0.3, &mut rng(3));
        let (norm, z) = prepare_split(&ds.split_chronological());
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
        (OnlineForecaster::new(model, z), ds)
    }

    #[test]
    fn not_ready_until_window_full() {
        let (mut online, ds) = setup();
        assert!(online.is_empty());
        for t in 0..3 {
            online.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
            assert!(!online.ready());
            assert!(online.forecast().is_none());
        }
        online.push(ds.values.time_slice(3), ds.mask.time_slice(3), 3);
        assert!(online.ready());
        assert!(online.forecast().is_some());
    }

    #[test]
    fn forecast_shapes_and_units() {
        let (mut online, ds) = setup();
        for t in 0..4 {
            online.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
        }
        let preds = online.forecast().unwrap();
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].shape(), (4, 4));
        // Raw units: an untrained model's output after denormalisation is
        // still anchored near the data mean (tens of mph), not near 0.
        assert!(preds[0].mean() > 10.0, "mean was {}", preds[0].mean());
    }

    #[test]
    fn window_rolls_forward() {
        let (mut online, ds) = setup();
        for t in 0..4 {
            online.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
        }
        let before = online.forecast().unwrap();
        online.push(ds.values.time_slice(4), ds.mask.time_slice(4), 4);
        assert_eq!(online.len(), 4); // still capped at history
        let after = online.forecast().unwrap();
        assert_ne!(before, after, "new observation must change the forecast");
    }

    #[test]
    fn imputed_window_preserves_observations() {
        let (mut online, ds) = setup();
        for t in 0..4 {
            online.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
        }
        let imputed = online.imputed_window().unwrap();
        assert_eq!(imputed.len(), 4);
        for (t, win) in imputed.iter().enumerate() {
            for r in 0..4 {
                for c in 0..4 {
                    if ds.mask[(r, c, t)] != 0.0 {
                        assert!(
                            (win[(r, c)] - ds.values[(r, c, t)]).abs() < 1e-9,
                            "observed entries must pass through"
                        );
                    } else {
                        assert!(win[(r, c)].is_finite());
                    }
                }
            }
        }
    }

    #[test]
    fn try_push_rejects_bad_observations() {
        let (mut online, ds) = setup();
        let good_v = ds.values.time_slice(0);
        let good_m = ds.mask.time_slice(0);

        let err = online
            .try_push(Matrix::zeros(3, 4), Matrix::zeros(3, 4), 0)
            .unwrap_err();
        assert!(matches!(err, PushError::ValuesShape { .. }), "{err}");
        assert!(err.to_string().contains("4x4"), "{err}");

        let err = online
            .try_push(good_v.clone(), Matrix::zeros(4, 3), 0)
            .unwrap_err();
        assert!(matches!(err, PushError::MaskShape { .. }), "{err}");

        let mut bad_mask = good_m.clone();
        bad_mask[(1, 2)] = 0.5;
        let err = online.try_push(good_v.clone(), bad_mask, 0).unwrap_err();
        assert_eq!(err, PushError::MaskNotBinary { row: 1, col: 2 });

        let mut bad_vals = good_v.clone();
        bad_vals[(2, 1)] = f64::NAN;
        let mut mask = Matrix::zeros(4, 4);
        mask[(2, 1)] = 1.0;
        let err = online.try_push(bad_vals, mask, 0).unwrap_err();
        assert_eq!(err, PushError::NonFiniteValue { row: 2, col: 1 });

        let err = online
            .try_push(good_v.clone(), good_m.clone(), 100_000)
            .unwrap_err();
        assert!(matches!(err, PushError::SlotOutOfRange { .. }), "{err}");

        // Nothing was buffered by any of the rejected pushes.
        assert!(online.is_empty());
        assert_eq!(online.window_version(), 0);
        online.try_push(good_v, good_m, 0).unwrap();
        assert_eq!(online.len(), 1);
        assert_eq!(online.window_version(), 1);
    }

    #[test]
    fn nan_at_hidden_entries_is_harmless() {
        let (mut online, ds) = setup();
        for t in 0..4 {
            let mut vals = ds.values.time_slice(t);
            let mask = ds.mask.time_slice(t);
            for r in 0..4 {
                for c in 0..4 {
                    if mask[(r, c)] == 0.0 {
                        vals[(r, c)] = f64::NAN;
                    }
                }
            }
            online.try_push(vals, mask, t).unwrap();
        }
        let preds = online.forecast().unwrap();
        assert!(preds.iter().all(Matrix::is_finite));
    }

    #[test]
    fn window_version_tracks_pushes_and_reset() {
        let (mut online, ds) = setup();
        assert_eq!(online.window_version(), 0);
        for t in 0..4 {
            online.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
        }
        assert_eq!(online.window_version(), 4);
        online.reset();
        assert_eq!(online.window_version(), 5);
    }

    #[test]
    #[should_panic(expected = "nodes × features")]
    fn push_panics_with_clear_message() {
        let (mut online, _ds) = setup();
        online.push(Matrix::zeros(2, 2), Matrix::zeros(2, 2), 0);
    }

    #[test]
    fn reset_clears_state() {
        let (mut online, ds) = setup();
        for t in 0..4 {
            online.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
        }
        online.reset();
        assert!(online.is_empty());
        assert!(online.forecast().is_none());
    }
}
