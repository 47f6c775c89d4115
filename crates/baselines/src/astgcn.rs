//! ASTGCN-lite: attention-based spatial-temporal GCN (Guo et al., AAAI'19),
//! reimplemented at reduced depth.
//!
//! Keeps the comparator's three architectural ingredients — **spatial
//! attention** modulating graph propagation, **temporal attention** over the
//! window, and **temporal convolution** — in a single-block form sized for
//! CPU training. Like the original, it has no mechanism for missing values:
//! inputs are expected mean-filled, which is exactly the failure mode the
//! paper's Table I comparison exercises.

use rihgcn_core::Forecaster;
use st_autodiff::Var;
use st_data::{TrafficDataset, WindowSample};
use st_graph::{gaussian_adjacency, scaled_laplacian_from_adjacency};
use st_nn::{Activation, ChebGcn, Linear, ParamStore, Session, SessionSlot};
use st_tensor::{rng, xavier_matrix, Matrix};

/// Hyper-parameters for [`AstgcnLite`].
#[derive(Debug, Clone, PartialEq)]
pub struct AstgcnConfig {
    /// GCN filter count.
    pub gcn_dim: usize,
    /// Chebyshev order (paper comparator: 3).
    pub cheb_k: usize,
    /// History window length.
    pub history: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Adjacency sparsity threshold.
    pub epsilon: f64,
    /// Parameter seed.
    pub seed: u64,
}

impl Default for AstgcnConfig {
    fn default() -> Self {
        Self {
            gcn_dim: 12,
            cheb_k: 3,
            history: 12,
            horizon: 12,
            epsilon: 0.1,
            seed: 31,
        }
    }
}

/// The reduced ASTGCN comparator.
pub struct AstgcnLite {
    store: ParamStore,
    session: SessionSlot,
    cfg: AstgcnConfig,
    gcn: ChebGcn,
    laplacian: Matrix,
    spatial_att: st_nn::ParamId,  // F × F bilinear form
    temporal_att: st_nn::ParamId, // F × 1 scoring vector
    temporal_conv: Linear,        // 2F → F
    pred_head: Linear,            // 2F → D·horizon
    num_features: usize,
}

impl std::fmt::Debug for AstgcnLite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AstgcnLite({} params)", self.store.num_scalars())
    }
}

impl AstgcnLite {
    /// Builds the model on a dataset's geographic graph.
    pub fn from_dataset(train: &TrafficDataset, cfg: AstgcnConfig) -> Self {
        let d = train.num_features();
        let mut init = rng(cfg.seed);
        let mut store = ParamStore::new();

        let adj = gaussian_adjacency(&train.network.road_distance_matrix(), None, cfg.epsilon);
        let laplacian = scaled_laplacian_from_adjacency(&adj);
        let gcn = ChebGcn::new(
            &mut store,
            &mut init,
            d,
            cfg.gcn_dim,
            cfg.cheb_k,
            Activation::Relu,
            "astgcn.gcn",
        );
        let f = cfg.gcn_dim;
        let spatial_att = store.add("astgcn.satt", xavier_matrix(&mut init, f, f));
        let temporal_att = store.add("astgcn.tatt", xavier_matrix(&mut init, f, 1));
        let temporal_conv = Linear::new(&mut store, &mut init, 2 * f, f, "astgcn.tconv");
        let pred_head = Linear::new(&mut store, &mut init, 2 * f, d * cfg.horizon, "astgcn.pred");

        Self {
            store,
            session: SessionSlot::default(),
            cfg,
            gcn,
            laplacian,
            spatial_att,
            temporal_att,
            temporal_conv,
            pred_head,
            num_features: d,
        }
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    fn run_sample(&self, sess: &mut Session, sample: &WindowSample) -> (Vec<Var>, Var) {
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

        // Per-step embeddings with spatial attention.
        let watt = sess.var(&self.store, self.spatial_att);
        let mut embeddings = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let x = sess.constant(sample.inputs[t].clone());
            let s = self.gcn.forward(sess, &self.store, &self.laplacian, x);
            // Spatial attention: softmax_rows(S·W·Sᵀ) · S.
            let sw = sess.tape.matmul(s, watt);
            let st = sess.tape.transpose(s);
            let logits = sess.tape.matmul(sw, st);
            let att = sess.tape.softmax_rows(logits);
            let s_att = sess.tape.matmul(att, s);
            embeddings.push(s_att);
        }

        // Temporal attention: per-step scalar scores → softmax over time.
        let va = sess.var(&self.store, self.temporal_att);
        let mut scores: Option<Var> = None;
        for &s in &embeddings {
            let proj = sess.tape.matmul(s, va); // N × 1
            let score = sess.tape.mean(proj); // 1 × 1
            scores = Some(match scores {
                Some(acc) => sess.tape.concat_cols(acc, score),
                None => score,
            });
        }
        let alphas = sess.tape.softmax_rows(scores.expect("non-empty history")); // 1 × T
        let mut context: Option<Var> = None;
        for (t, &s) in embeddings.iter().enumerate() {
            let a_t = sess.tape.slice_cols(alphas, t, t + 1); // 1 × 1
            let weighted = sess.tape.scale_var(s, a_t);
            context = Some(match context {
                Some(acc) => sess.tape.add(acc, weighted),
                None => weighted,
            });
        }
        let context = context.expect("non-empty history");

        // Temporal convolution (kernel 2) along the window; keep the last map.
        let mut conv_last = embeddings[0];
        for t in 1..t_len {
            let pair = sess.tape.concat_cols(embeddings[t - 1], embeddings[t]);
            let c = self.temporal_conv.forward(sess, &self.store, pair);
            conv_last = sess.tape.relu(c);
        }

        let features = sess.tape.concat_cols(context, conv_last);
        let pred_flat = self.pred_head.forward(sess, &self.store, features);

        let d = self.num_features;
        let mut predictions = Vec::with_capacity(self.cfg.horizon);
        let mut terms = Vec::with_capacity(self.cfg.horizon);
        for h in 0..self.cfg.horizon {
            let step = sess.tape.slice_cols(pred_flat, h * d, (h + 1) * d);
            let target = sess.constant(sample.targets[h].clone());
            terms.push(sess.tape.masked_mae(step, target, &sample.target_masks[h]));
            predictions.push(step);
        }
        let mut loss = terms[0];
        for &t in &terms[1..] {
            loss = sess.tape.add(loss, t);
        }
        let loss = sess.tape.scale(loss, 1.0 / self.cfg.horizon as f64);
        (predictions, loss)
    }
}

impl Forecaster for AstgcnLite {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn accumulate_gradients(&mut self, sample: &WindowSample) -> f64 {
        let mut sess = self.session.take(&self.store);
        let (_, loss) = self.run_sample(&mut sess, sample);
        let value = sess.tape.value(loss)[(0, 0)];
        sess.backward(loss);
        sess.write_grads(&mut self.store);
        self.session.put(sess);
        value
    }

    fn loss(&self, sample: &WindowSample) -> f64 {
        self.session.with(&self.store, |sess| {
            let (_, loss) = self.run_sample(sess, sample);
            sess.tape.value(loss)[(0, 0)]
        })
    }

    fn predict(&self, sample: &WindowSample) -> Vec<Matrix> {
        self.session.with(&self.store, |sess| {
            let (preds, _) = self.run_sample(sess, sample);
            preds.iter().map(|&v| sess.tape.value(v).clone()).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mean_fill_samples;
    use rihgcn_core::{fit, prepare_split, TrainConfig};
    use st_data::{generate_pems, PemsConfig, WindowSampler};

    fn tiny() -> (TrafficDataset, AstgcnConfig) {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 2,
            ..Default::default()
        });
        let cfg = AstgcnConfig {
            gcn_dim: 4,
            cheb_k: 2,
            history: 4,
            horizon: 2,
            ..Default::default()
        };
        (ds, cfg)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let (ds, cfg) = tiny();
        let model = AstgcnLite::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let preds = model.predict(&sample);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].shape(), (4, 4));
        assert!(preds.iter().all(Matrix::is_finite));
        assert!(model.num_parameters() > 0);
    }

    #[test]
    fn gradients_reach_attention_parameters() {
        let (ds, cfg) = tiny();
        let mut model = AstgcnLite::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let _ = model.accumulate_gradients(&sample);
        assert!(
            model.store.grad(model.spatial_att).max_abs() > 0.0,
            "spatial attention"
        );
        assert!(
            model.store.grad(model.temporal_att).max_abs() > 0.0,
            "temporal attention"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let (ds, cfg) = tiny();
        let split = ds.split_chronological();
        let (norm, _) = prepare_split(&split);
        let sampler = WindowSampler::new(4, 2, 12);
        let train = mean_fill_samples(&sampler.sample(&norm.train)[..6]);
        let mut model = AstgcnLite::from_dataset(&norm.train, cfg);
        let tc = TrainConfig {
            max_epochs: 4,
            batch_size: 3,
            learning_rate: 3e-3,
            ..Default::default()
        };
        let report = fit(&mut model, &train, &[], &tc);
        assert!(*report.train_losses.last().unwrap() < report.train_losses[0]);
    }
}
