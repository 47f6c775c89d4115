//! DCRNN-lite: diffusion-convolutional recurrent network (Li et al.,
//! ICLR'18) at reduced depth.
//!
//! The canonical deep traffic-forecasting baseline: a GRU whose matrix
//! multiplications are replaced by graph convolutions. This reduced form
//! keeps the graph-convolutional GRU cell (Chebyshev convolution standing
//! in for the two-directional diffusion operator — our graphs are
//! undirected) and replaces the sequence-to-sequence decoder with the same
//! FC read-out used by the paper's other baselines, so comparisons isolate
//! the recurrent-spatial cell. No imputation path: expects mean-filled
//! inputs, like ASTGCN / Graph WaveNet.

use rihgcn_core::Forecaster;
use st_autodiff::Var;
use st_data::{TrafficDataset, WindowSample};
use st_graph::{gaussian_adjacency, scaled_laplacian_from_adjacency};
use st_nn::{Activation, ChebGcn, Linear, ParamStore, Session, SessionSlot};
use st_tensor::{rng, Matrix, StRng};

/// Hyper-parameters for [`DcrnnLite`].
#[derive(Debug, Clone, PartialEq)]
pub struct DcrnnConfig {
    /// Hidden state width of the graph-convolutional GRU.
    pub hidden_dim: usize,
    /// Chebyshev order of the diffusion stand-in.
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

impl Default for DcrnnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 12,
            cheb_k: 2,
            history: 12,
            horizon: 12,
            epsilon: 0.1,
            seed: 41,
        }
    }
}

/// The reduced DCRNN comparator: a GRU over graph convolutions.
pub struct DcrnnLite {
    store: ParamStore,
    session: SessionSlot,
    cfg: DcrnnConfig,
    laplacian: Matrix,
    reset_gate: ChebGcn,  // (D+H) → H
    update_gate: ChebGcn, // (D+H) → H
    candidate: ChebGcn,   // (D+H) → H
    pred_head: Linear,    // H → D·horizon
    num_features: usize,
    num_nodes: usize,
}

impl std::fmt::Debug for DcrnnLite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DcrnnLite({} params)", self.store.num_scalars())
    }
}

impl DcrnnLite {
    /// Builds the model on a dataset's geographic graph.
    pub fn from_dataset(train: &TrafficDataset, cfg: DcrnnConfig) -> Self {
        let n = train.num_nodes();
        let d = train.num_features();
        let mut init = rng(cfg.seed);
        let mut store = ParamStore::new();

        let adj = gaussian_adjacency(&train.network.road_distance_matrix(), None, cfg.epsilon);
        let laplacian = scaled_laplacian_from_adjacency(&adj);
        let h = cfg.hidden_dim;
        let make_gate = |store: &mut ParamStore, init: &mut StRng, name: &str| {
            ChebGcn::new(
                store,
                init,
                d + h,
                h,
                cfg.cheb_k,
                Activation::Identity,
                name,
            )
        };
        let reset_gate = make_gate(&mut store, &mut init, "dcrnn.r");
        let update_gate = make_gate(&mut store, &mut init, "dcrnn.u");
        let candidate = make_gate(&mut store, &mut init, "dcrnn.c");
        let pred_head = Linear::new(&mut store, &mut init, h, d * cfg.horizon, "dcrnn.pred");

        Self {
            store,
            session: SessionSlot::default(),
            cfg,
            laplacian,
            reset_gate,
            update_gate,
            candidate,
            pred_head,
            num_features: d,
            num_nodes: n,
        }
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// One graph-convolutional GRU step.
    fn gru_step(&self, sess: &mut Session, x: Var, h: Var) -> Var {
        let xh = sess.tape.concat_cols(x, h);
        let r_pre = self
            .reset_gate
            .forward(sess, &self.store, &self.laplacian, xh);
        let r = sess.tape.sigmoid(r_pre);
        let u_pre = self
            .update_gate
            .forward(sess, &self.store, &self.laplacian, xh);
        let u = sess.tape.sigmoid(u_pre);
        let rh = sess.tape.mul(r, h);
        let xrh = sess.tape.concat_cols(x, rh);
        let c_pre = self
            .candidate
            .forward(sess, &self.store, &self.laplacian, xrh);
        let c = sess.tape.tanh(c_pre);
        // h' = u⊙h + (1−u)⊙c
        let uh = sess.tape.mul(u, h);
        let one = sess.constant(Matrix::ones(self.num_nodes, self.cfg.hidden_dim));
        let inv_u = sess.tape.sub(one, u);
        let uc = sess.tape.mul(inv_u, c);
        sess.tape.add(uh, uc)
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

        let mut h = sess.constant(Matrix::zeros(self.num_nodes, self.cfg.hidden_dim));
        for t in 0..self.cfg.history {
            let x = sess.constant(sample.inputs[t].clone());
            h = self.gru_step(sess, x, h);
        }
        let pred_flat = self.pred_head.forward(sess, &self.store, h);

        let d = self.num_features;
        let mut predictions = Vec::with_capacity(self.cfg.horizon);
        let mut terms = Vec::with_capacity(self.cfg.horizon);
        for hz in 0..self.cfg.horizon {
            let step = sess.tape.slice_cols(pred_flat, hz * d, (hz + 1) * d);
            let target = sess.constant(sample.targets[hz].clone());
            terms.push(sess.tape.masked_mae(step, target, &sample.target_masks[hz]));
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

impl Forecaster for DcrnnLite {
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

    fn tiny() -> (TrafficDataset, DcrnnConfig) {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 2,
            ..Default::default()
        });
        let cfg = DcrnnConfig {
            hidden_dim: 4,
            cheb_k: 2,
            history: 4,
            horizon: 2,
            ..Default::default()
        };
        (ds, cfg)
    }

    #[test]
    fn forward_shapes() {
        let (ds, cfg) = tiny();
        let model = DcrnnLite::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let preds = model.predict(&sample);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].shape(), (4, 4));
        assert!(preds.iter().all(Matrix::is_finite));
        assert!(model.num_parameters() > 0);
    }

    #[test]
    fn all_gates_receive_gradients() {
        let (ds, cfg) = tiny();
        let mut model = DcrnnLite::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 5);
        let _ = model.accumulate_gradients(&sample);
        for prefix in ["dcrnn.r", "dcrnn.u", "dcrnn.c", "dcrnn.pred"] {
            let touched = model
                .store
                .ids()
                .filter(|&id| model.store.name(id).starts_with(prefix))
                .any(|id| model.store.grad(id).max_abs() > 0.0);
            assert!(touched, "no gradient reached {prefix}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (ds, cfg) = tiny();
        let split = ds.split_chronological();
        let (norm, _) = prepare_split(&split);
        let sampler = WindowSampler::new(4, 2, 12);
        let train = mean_fill_samples(&sampler.sample(&norm.train)[..6]);
        let mut model = DcrnnLite::from_dataset(&norm.train, cfg);
        let tc = TrainConfig {
            max_epochs: 4,
            batch_size: 3,
            learning_rate: 3e-3,
            ..Default::default()
        };
        let report = fit(&mut model, &train, &[], &tc);
        assert!(*report.train_losses.last().unwrap() < report.train_losses[0]);
    }

    #[test]
    fn hidden_state_influences_later_predictions() {
        // Changing an early input must change the forecast (recurrence works).
        // Run on the normalised split exactly as training does: raw traffic
        // magnitudes saturate the sigmoid gates, which freezes the update
        // gate (or not) depending on the luck of the parameter draw.
        let (ds, cfg) = tiny();
        let split = ds.split_chronological();
        let (norm, _) = prepare_split(&split);
        let model = DcrnnLite::from_dataset(&norm.train, cfg);
        let sampler = WindowSampler::new(4, 2, 1);
        let sample = sampler.window_at(&norm.train, 0);
        let base = model.predict(&sample);
        let mut perturbed = sample.clone();
        perturbed.inputs[0] = perturbed.inputs[0].map(|x| x + 5.0);
        let changed = model.predict(&perturbed);
        assert!(
            base[0].max_abs_diff(&changed[0]) > 1e-9,
            "first-step input must influence the forecast"
        );
    }
}
