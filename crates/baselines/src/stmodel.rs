//! The configurable deep spatio-temporal baseline family.
//!
//! One implementation covers six of the paper's comparison models:
//!
//! | kind        | spatial (GCN) | temporal (LSTM) | recurrent imputation |
//! |-------------|---------------|-----------------|----------------------|
//! | `FcLstm`    |               | ✓               |                      |
//! | `FcGcn`     | ✓             |                 |                      |
//! | `GcnLstm`   | ✓             | ✓               |                      |
//! | `FcLstmI`   |               | ✓               | ✓ (≈ BRITS)          |
//! | `FcGcnI`    | ✓             |                 | ✓                    |
//! | `GcnLstmI`  | ✓             | ✓               | ✓ (RIHGCN w/o HGCN)  |
//!
//! Non-imputing variants expect mean-filled inputs (see
//! [`mean_fill_sample`]); imputing variants run the same bi-directional
//! recurrent-imputation flow as RIHGCN, but with at most the single
//! geographic graph.

use rihgcn_core::{Forecaster, Imputer};
use st_autodiff::Var;
use st_data::{TrafficDataset, WindowSample};
use st_graph::gaussian_adjacency;
use st_graph::scaled_laplacian_from_adjacency;
use st_nn::{Activation, ChebGcn, Linear, LstmCell, ParamStore, Session, SessionSlot};
use st_tensor::{rng, Matrix};

/// Which of the six baseline architectures to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// LSTM only, mean-filled inputs.
    FcLstm,
    /// GCN only, mean-filled inputs.
    FcGcn,
    /// GCN + LSTM, mean-filled inputs.
    GcnLstm,
    /// LSTM with bi-directional recurrent imputation (BRITS-like).
    FcLstmI,
    /// GCN with recurrent imputation.
    FcGcnI,
    /// GCN + LSTM with recurrent imputation (RIHGCN minus temporal graphs).
    GcnLstmI,
}

impl BaselineKind {
    /// Whether the architecture has a graph-convolution block.
    pub fn uses_gcn(self) -> bool {
        !matches!(self, BaselineKind::FcLstm | BaselineKind::FcLstmI)
    }

    /// Whether the architecture has a recurrent (LSTM) block.
    pub fn uses_lstm(self) -> bool {
        !matches!(self, BaselineKind::FcGcn | BaselineKind::FcGcnI)
    }

    /// Whether the model runs the recurrent-imputation flow.
    pub fn imputing(self) -> bool {
        matches!(
            self,
            BaselineKind::FcLstmI | BaselineKind::FcGcnI | BaselineKind::GcnLstmI
        )
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::FcLstm => "FC-LSTM",
            BaselineKind::FcGcn => "FC-GCN",
            BaselineKind::GcnLstm => "GCN-LSTM",
            BaselineKind::FcLstmI => "FC-LSTM-I",
            BaselineKind::FcGcnI => "FC-GCN-I",
            BaselineKind::GcnLstmI => "GCN-LSTM-I",
        }
    }

    /// All six kinds, in the paper's table order.
    pub fn all() -> [BaselineKind; 6] {
        [
            BaselineKind::FcLstm,
            BaselineKind::FcGcn,
            BaselineKind::GcnLstm,
            BaselineKind::FcLstmI,
            BaselineKind::FcGcnI,
            BaselineKind::GcnLstmI,
        ]
    }
}

/// Hyper-parameters shared by the baseline family.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// GCN filter count.
    pub gcn_dim: usize,
    /// LSTM hidden width.
    pub lstm_dim: usize,
    /// Chebyshev order.
    pub cheb_k: usize,
    /// History window length.
    pub history: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Imputation-loss weight (imputing variants only).
    pub lambda: f64,
    /// Adjacency sparsity threshold.
    pub epsilon: f64,
    /// Parameter seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            gcn_dim: 12,
            lstm_dim: 24,
            cheb_k: 3,
            history: 12,
            horizon: 12,
            lambda: 1.0,
            epsilon: 0.1,
            seed: 29,
        }
    }
}

struct DirectionCells {
    lstm: Option<LstmCell>,
    est_head: Linear,
}

/// A member of the deep-baseline family. See the module docs for the
/// architecture table.
pub struct StBaseline {
    store: ParamStore,
    session: SessionSlot,
    kind: BaselineKind,
    cfg: BaselineConfig,
    gcn: Option<ChebGcn>,
    laplacian: Option<Matrix>,
    fwd_lstm: Option<LstmCell>,
    fwd_est: Option<Linear>,
    bwd: Option<DirectionCells>,
    pred_head: Linear,
    num_nodes: usize,
    num_features: usize,
}

impl std::fmt::Debug for StBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StBaseline({}, {} params)",
            self.kind.name(),
            self.store.num_scalars()
        )
    }
}

impl StBaseline {
    /// Builds the baseline for a dataset's road network.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    pub fn from_dataset(train: &TrafficDataset, kind: BaselineKind, cfg: BaselineConfig) -> Self {
        assert!(
            cfg.history > 0 && cfg.horizon > 0,
            "window sizes must be positive"
        );
        let n = train.num_nodes();
        let d = train.num_features();
        let mut init = rng(cfg.seed);
        let mut store = ParamStore::new();

        let (gcn, laplacian) = if kind.uses_gcn() {
            let adj = gaussian_adjacency(&train.network.road_distance_matrix(), None, cfg.epsilon);
            let lap = scaled_laplacian_from_adjacency(&adj);
            let gcn = ChebGcn::new(
                &mut store,
                &mut init,
                d,
                cfg.gcn_dim,
                cfg.cheb_k,
                Activation::Relu,
                "gcn",
            );
            (Some(gcn), Some(lap))
        } else {
            (None, None)
        };

        let s_width = if kind.uses_gcn() { cfg.gcn_dim } else { d };
        let z_width = z_width_for(kind, &cfg, d);
        let lstm_in = if kind.imputing() {
            s_width + d
        } else {
            s_width
        };

        let fwd_lstm = kind
            .uses_lstm()
            .then(|| LstmCell::new(&mut store, &mut init, lstm_in, cfg.lstm_dim, "fwd.lstm"));
        let fwd_est = kind
            .imputing()
            .then(|| Linear::new(&mut store, &mut init, z_width, d, "fwd.est"));
        // Imputing variants run bi-directionally, like RIHGCN / BRITS.
        let bwd = kind.imputing().then(|| DirectionCells {
            lstm: kind
                .uses_lstm()
                .then(|| LstmCell::new(&mut store, &mut init, lstm_in, cfg.lstm_dim, "bwd.lstm")),
            est_head: Linear::new(&mut store, &mut init, z_width, d, "bwd.est"),
        });

        let dirs = if kind.imputing() { 2 } else { 1 };
        let pred_head = Linear::new(
            &mut store,
            &mut init,
            cfg.history * dirs * z_width,
            d * cfg.horizon,
            "pred",
        );

        Self {
            store,
            session: SessionSlot::default(),
            kind,
            cfg,
            gcn,
            laplacian,
            fwd_lstm,
            fwd_est,
            bwd,
            pred_head,
            num_nodes: n,
            num_features: d,
        }
    }

    /// The architecture variant.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Spatial block: GCN embedding or the raw input.
    fn embed(&self, sess: &mut Session, x: Var) -> Var {
        match (&self.gcn, &self.laplacian) {
            (Some(gcn), Some(lap)) => gcn.forward(sess, &self.store, lap, x),
            _ => x,
        }
    }

    /// One directional pass; `lstm`/`est` choose the direction's cells.
    fn run_direction(
        &self,
        sess: &mut Session,
        sample: &WindowSample,
        lstm: Option<&LstmCell>,
        est: Option<&Linear>,
        reverse: bool,
    ) -> (Vec<Var>, Vec<Var>) {
        let t_len = self.cfg.history;
        let order: Vec<usize> = if reverse {
            (0..t_len).rev().collect()
        } else {
            (0..t_len).collect()
        };
        let imputing = self.kind.imputing();

        let mut z: Vec<Option<Var>> = vec![None; t_len];
        let mut estimates: Vec<Option<Var>> = vec![None; t_len];
        let mut est_prev = sess.constant(Matrix::zeros(self.num_nodes, self.num_features));
        let mut state = lstm.map(|cell| cell.zero_state(sess, self.num_nodes));

        for &t in &order {
            estimates[t] = Some(est_prev);
            let x_t = if imputing {
                let obs = sess.constant(sample.inputs[t].clone());
                let inv_mask = sess.constant(sample.masks[t].map(|m| 1.0 - m));
                let est_part = sess.tape.mul(inv_mask, est_prev);
                sess.tape.add(obs, est_part)
            } else {
                // Mean-filled inputs are expected to be baked into the sample.
                sess.constant(sample.inputs[t].clone())
            };

            let s = self.embed(sess, x_t);
            let z_t = if let (Some(cell), Some(state_ref)) = (lstm, state.as_mut()) {
                let lstm_in = if imputing {
                    let mask_c = sess.constant(sample.masks[t].clone());
                    sess.tape.concat_cols(s, mask_c)
                } else {
                    s
                };
                *state_ref = cell.step(sess, &self.store, lstm_in, state_ref);
                if self.kind.uses_gcn() {
                    sess.tape.concat_cols(s, state_ref.h)
                } else {
                    state_ref.h
                }
            } else {
                s
            };
            z[t] = Some(z_t);
            if let Some(head) = est {
                est_prev = head.forward(sess, &self.store, z_t);
            }
        }
        (
            z.into_iter().map(|v| v.expect("visited")).collect(),
            estimates.into_iter().map(|v| v.expect("visited")).collect(),
        )
    }

    fn run_sample(&self, sess: &mut Session, sample: &WindowSample) -> (Vec<Var>, Vec<Var>, Var) {
        assert_eq!(
            sample.history_len(),
            self.cfg.history,
            "history length mismatch"
        );
        assert_eq!(
            sample.horizon_len(),
            self.cfg.horizon,
            "horizon length mismatch"
        );
        let t_len = self.cfg.history;

        let (fz, fe) = self.run_direction(
            sess,
            sample,
            self.fwd_lstm.as_ref(),
            self.fwd_est.as_ref(),
            false,
        );
        let bwd_run = self.bwd.as_ref().map(|cells| {
            self.run_direction(
                sess,
                sample,
                cells.lstm.as_ref(),
                Some(&cells.est_head),
                true,
            )
        });

        // Imputation estimates and loss (imputing variants only).
        let mut estimates = Vec::with_capacity(t_len);
        let mut imp_terms = Vec::new();
        if self.kind.imputing() {
            for t in 0..t_len {
                let est = match &bwd_run {
                    Some((_, be)) => {
                        let s = sess.tape.add(fe[t], be[t]);
                        sess.tape.scale(s, 0.5)
                    }
                    None => fe[t],
                };
                estimates.push(est);
                let target = sess.constant(sample.inputs[t].clone());
                imp_terms.push(sess.tape.masked_mae(est, target, &sample.masks[t]));
                if let Some((_, be)) = &bwd_run {
                    let inv = sample.masks[t].map(|m| 1.0 - m);
                    imp_terms.push(sess.tape.masked_mae(fe[t], be[t], &inv));
                }
            }
        }

        // Prediction head over stacked hidden states.
        let mut wide: Option<Var> = None;
        for t in 0..t_len {
            let z_t = match &bwd_run {
                Some((bz, _)) => sess.tape.concat_cols(fz[t], bz[t]),
                None => fz[t],
            };
            wide = Some(match wide {
                Some(w) => sess.tape.concat_cols(w, z_t),
                None => z_t,
            });
        }
        let pred_flat = self
            .pred_head
            .forward(sess, &self.store, wide.expect("non-empty history"));

        let d = self.num_features;
        let mut predictions = Vec::with_capacity(self.cfg.horizon);
        let mut pred_terms = Vec::with_capacity(self.cfg.horizon);
        for h in 0..self.cfg.horizon {
            let step = sess.tape.slice_cols(pred_flat, h * d, (h + 1) * d);
            let target = sess.constant(sample.targets[h].clone());
            pred_terms.push(sess.tape.masked_mae(step, target, &sample.target_masks[h]));
            predictions.push(step);
        }
        let mut loss = sum_scaled(sess, &pred_terms, 1.0 / self.cfg.horizon as f64);
        if !imp_terms.is_empty() {
            let imp = sum_scaled(sess, &imp_terms, self.cfg.lambda / t_len as f64);
            loss = sess.tape.add(loss, imp);
        }
        (predictions, estimates, loss)
    }
}

fn z_width_for(kind: BaselineKind, cfg: &BaselineConfig, d: usize) -> usize {
    match (kind.uses_gcn(), kind.uses_lstm()) {
        (true, true) => cfg.gcn_dim + cfg.lstm_dim,
        (true, false) => cfg.gcn_dim,
        (false, true) => cfg.lstm_dim,
        (false, false) => d,
    }
}

fn sum_scaled(sess: &mut Session, terms: &[Var], scale: f64) -> Var {
    let mut acc = terms[0];
    for &t in &terms[1..] {
        acc = sess.tape.add(acc, t);
    }
    sess.tape.scale(acc, scale)
}

impl Forecaster for StBaseline {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn accumulate_gradients(&mut self, sample: &WindowSample) -> f64 {
        let mut sess = self.session.take(&self.store);
        let (_, _, loss) = self.run_sample(&mut sess, sample);
        let value = sess.tape.value(loss)[(0, 0)];
        sess.backward(loss);
        sess.write_grads(&mut self.store);
        self.session.put(sess);
        value
    }

    fn loss(&self, sample: &WindowSample) -> f64 {
        self.session.with(&self.store, |sess| {
            let (_, _, loss) = self.run_sample(sess, sample);
            sess.tape.value(loss)[(0, 0)]
        })
    }

    fn predict(&self, sample: &WindowSample) -> Vec<Matrix> {
        self.session.with(&self.store, |sess| {
            let (preds, _, _) = self.run_sample(sess, sample);
            preds.iter().map(|&v| sess.tape.value(v).clone()).collect()
        })
    }
}

impl Imputer for StBaseline {
    /// Imputation estimates; meaningful only for `-I` variants (others
    /// return zero estimates, matching their lack of an imputation path).
    fn impute(&self, sample: &WindowSample) -> Vec<Matrix> {
        self.session.with(&self.store, |sess| {
            let (_, ests, _) = self.run_sample(sess, sample);
            if ests.is_empty() {
                return vec![
                    Matrix::zeros(self.num_nodes, self.num_features);
                    sample.history_len()
                ];
            }
            ests.iter().map(|&v| sess.tape.value(v).clone()).collect()
        })
    }
}

/// Replaces hidden entries of a sample's inputs with the per-(node, feature)
/// mean of the window's observed values (global mean 0 in normalised space
/// when a series has no observations) — the paper's preprocessing for all
/// non-imputing baselines.
pub fn mean_fill_sample(sample: &WindowSample) -> WindowSample {
    let n = sample.inputs[0].rows();
    let d = sample.inputs[0].cols();
    let t_len = sample.history_len();
    let mut sums = Matrix::zeros(n, d);
    let mut counts = Matrix::zeros(n, d);
    for t in 0..t_len {
        for r in 0..n {
            for c in 0..d {
                if sample.masks[t][(r, c)] != 0.0 {
                    sums[(r, c)] += sample.inputs[t][(r, c)];
                    counts[(r, c)] += 1.0;
                }
            }
        }
    }
    let means = Matrix::from_fn(n, d, |r, c| {
        if counts[(r, c)] > 0.0 {
            sums[(r, c)] / counts[(r, c)]
        } else {
            0.0
        }
    });
    let mut out = sample.clone();
    for t in 0..t_len {
        out.inputs[t] = Matrix::from_fn(n, d, |r, c| {
            if sample.masks[t][(r, c)] != 0.0 {
                sample.inputs[t][(r, c)]
            } else {
                means[(r, c)]
            }
        });
    }
    out
}

/// Applies [`mean_fill_sample`] to a whole set of windows.
pub fn mean_fill_samples(samples: &[WindowSample]) -> Vec<WindowSample> {
    samples.iter().map(mean_fill_sample).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rihgcn_core::{fit, prepare_split, TrainConfig};
    use st_data::{generate_pems, PemsConfig, WindowSampler};

    fn tiny() -> (TrafficDataset, BaselineConfig) {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 2,
            ..Default::default()
        });
        let ds = ds.with_extra_missing(0.4, &mut rng(9));
        let cfg = BaselineConfig {
            gcn_dim: 4,
            lstm_dim: 5,
            cheb_k: 2,
            history: 4,
            horizon: 2,
            ..Default::default()
        };
        (ds, cfg)
    }

    #[test]
    fn all_kinds_build_and_forward() {
        let (ds, cfg) = tiny();
        let sampler = WindowSampler::new(4, 2, 1);
        let sample = sampler.window_at(&ds, 0);
        for kind in BaselineKind::all() {
            let model = StBaseline::from_dataset(&ds, kind, cfg.clone());
            let preds = model.predict(&sample);
            assert_eq!(preds.len(), 2, "{}", kind.name());
            assert_eq!(preds[0].shape(), (4, 4), "{}", kind.name());
            assert!(preds.iter().all(Matrix::is_finite), "{}", kind.name());
            assert!(model.loss(&sample).is_finite(), "{}", kind.name());
        }
    }

    #[test]
    fn kind_flags_consistent() {
        use BaselineKind::*;
        assert!(!FcLstm.uses_gcn() && FcLstm.uses_lstm() && !FcLstm.imputing());
        assert!(FcGcn.uses_gcn() && !FcGcn.uses_lstm() && !FcGcn.imputing());
        assert!(GcnLstmI.uses_gcn() && GcnLstmI.uses_lstm() && GcnLstmI.imputing());
        assert!(FcGcnI.imputing() && !FcGcnI.uses_lstm());
    }

    #[test]
    fn imputing_variants_produce_estimates() {
        let (ds, cfg) = tiny();
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 5);
        let model = StBaseline::from_dataset(&ds, BaselineKind::FcLstmI, cfg.clone());
        let ests = model.impute(&sample);
        assert_eq!(ests.len(), 4);
        // Non-imputing variants return zeros.
        let plain = StBaseline::from_dataset(&ds, BaselineKind::FcLstm, cfg);
        let zeros = plain.impute(&sample);
        assert!(zeros.iter().all(|m| m.max_abs() == 0.0));
    }

    #[test]
    fn one_epoch_of_training_reduces_loss() {
        let (ds, cfg) = tiny();
        let split = ds.split_chronological();
        let (norm, _) = prepare_split(&split);
        let sampler = WindowSampler::new(4, 2, 12);
        let train: Vec<_> = sampler.sample(&norm.train).into_iter().take(6).collect();
        for kind in [BaselineKind::GcnLstm, BaselineKind::GcnLstmI] {
            let train_set = if kind.imputing() {
                train.clone()
            } else {
                mean_fill_samples(&train)
            };
            let mut model = StBaseline::from_dataset(&norm.train, kind, cfg.clone());
            let tc = TrainConfig {
                max_epochs: 4,
                batch_size: 3,
                learning_rate: 3e-3,
                ..Default::default()
            };
            let report = fit(&mut model, &train_set, &[], &tc);
            let first = report.train_losses[0];
            let last = *report.train_losses.last().unwrap();
            assert!(last < first, "{}: {first} → {last}", kind.name());
        }
    }

    #[test]
    fn mean_fill_uses_window_statistics() {
        let (ds, _) = tiny();
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let filled = mean_fill_sample(&sample);
        for t in 0..4 {
            for r in 0..4 {
                for c in 0..4 {
                    if sample.masks[t][(r, c)] != 0.0 {
                        assert_eq!(filled.inputs[t][(r, c)], sample.inputs[t][(r, c)]);
                    } else {
                        // Filled with a finite value, not left at zero-by-mask.
                        assert!(filled.inputs[t][(r, c)].is_finite());
                    }
                }
            }
        }
        // Masks and targets unchanged.
        assert_eq!(filled.masks, sample.masks);
        assert_eq!(filled.targets, sample.targets);
    }

    #[test]
    fn parameter_counts_ordered_by_capacity() {
        let (ds, cfg) = tiny();
        let lstm = StBaseline::from_dataset(&ds, BaselineKind::FcLstm, cfg.clone());
        let gcn_lstm = StBaseline::from_dataset(&ds, BaselineKind::GcnLstm, cfg.clone());
        let gcn_lstm_i = StBaseline::from_dataset(&ds, BaselineKind::GcnLstmI, cfg);
        assert!(gcn_lstm.num_parameters() > lstm.num_parameters());
        assert!(gcn_lstm_i.num_parameters() > gcn_lstm.num_parameters());
    }
}
