//! STGCN-lite: spatio-temporal graph convolutional network (Yu et al.,
//! IJCAI'18) at reduced depth.
//!
//! The paper's related work cites gated temporal convolution [16] as one of
//! the two standard temporal blocks; STGCN is its canonical carrier. This
//! reduced form keeps the signature "sandwich" block — gated temporal
//! convolution (GLU), Chebyshev graph convolution, gated temporal
//! convolution — followed by the shared FC read-out. No imputation path:
//! expects mean-filled inputs like the other comparators.

use rihgcn_core::Forecaster;
use st_autodiff::Var;
use st_data::{TrafficDataset, WindowSample};
use st_graph::{gaussian_adjacency, scaled_laplacian_from_adjacency};
use st_nn::{Activation, ChebGcn, Linear, ParamStore, Session, SessionSlot};
use st_tensor::{rng, Matrix, StRng};

/// Hyper-parameters for [`StgcnLite`].
#[derive(Debug, Clone, PartialEq)]
pub struct StgcnConfig {
    /// Channel width inside the sandwich block.
    pub hidden_dim: usize,
    /// Chebyshev order of the spatial convolution.
    pub cheb_k: usize,
    /// Temporal kernel size of the gated convolutions.
    pub kernel: usize,
    /// History window length.
    pub history: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Adjacency sparsity threshold.
    pub epsilon: f64,
    /// Parameter seed.
    pub seed: u64,
}

impl Default for StgcnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 12,
            cheb_k: 3,
            kernel: 3,
            history: 12,
            horizon: 12,
            epsilon: 0.1,
            seed: 43,
        }
    }
}

/// A gated (GLU) temporal convolution: `(W_f ⋆ x) ⊙ σ(W_g ⋆ x)` over the
/// window, kernel `k`, padding by clamping at the window start.
struct GatedTemporalConv {
    filter: Linear, // k·C_in → C_out
    gate: Linear,   // k·C_in → C_out
    kernel: usize,
}

impl GatedTemporalConv {
    fn new(
        store: &mut ParamStore,
        init: &mut StRng,
        in_dim: usize,
        out_dim: usize,
        kernel: usize,
        name: &str,
    ) -> Self {
        Self {
            filter: Linear::new(store, init, kernel * in_dim, out_dim, &format!("{name}.f")),
            gate: Linear::new(store, init, kernel * in_dim, out_dim, &format!("{name}.g")),
            kernel,
        }
    }

    fn forward(&self, sess: &mut Session, store: &ParamStore, steps: &[Var]) -> Vec<Var> {
        let t_len = steps.len();
        (0..t_len)
            .map(|t| {
                // Concatenate the k most recent maps, clamping at the start.
                let mut window: Option<Var> = None;
                for offset in (0..self.kernel).rev() {
                    let idx = t.saturating_sub(offset);
                    window = Some(match window {
                        Some(w) => sess.tape.concat_cols(w, steps[idx]),
                        None => steps[idx],
                    });
                }
                let w = window.expect("kernel >= 1");
                let f_pre = self.filter.forward(sess, store, w);
                let f = sess.tape.tanh(f_pre);
                let g_pre = self.gate.forward(sess, store, w);
                let g = sess.tape.sigmoid(g_pre);
                sess.tape.mul(f, g)
            })
            .collect()
    }
}

/// The reduced STGCN comparator: one temporal–spatial–temporal sandwich.
pub struct StgcnLite {
    store: ParamStore,
    session: SessionSlot,
    cfg: StgcnConfig,
    laplacian: Matrix,
    t_in: GatedTemporalConv,
    spatial: ChebGcn,
    t_out: GatedTemporalConv,
    pred_head: Linear,
    num_features: usize,
}

impl std::fmt::Debug for StgcnLite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StgcnLite({} params)", self.store.num_scalars())
    }
}

impl StgcnLite {
    /// Builds the model on a dataset's geographic graph.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn from_dataset(train: &TrafficDataset, cfg: StgcnConfig) -> Self {
        assert!(cfg.kernel >= 1, "temporal kernel must be at least 1");
        let d = train.num_features();
        let mut init = rng(cfg.seed);
        let mut store = ParamStore::new();

        let adj = gaussian_adjacency(&train.network.road_distance_matrix(), None, cfg.epsilon);
        let laplacian = scaled_laplacian_from_adjacency(&adj);
        let h = cfg.hidden_dim;
        let t_in = GatedTemporalConv::new(&mut store, &mut init, d, h, cfg.kernel, "stgcn.t1");
        let spatial = ChebGcn::new(
            &mut store,
            &mut init,
            h,
            h,
            cfg.cheb_k,
            Activation::Relu,
            "stgcn.gcn",
        );
        let t_out = GatedTemporalConv::new(&mut store, &mut init, h, h, cfg.kernel, "stgcn.t2");
        let pred_head = Linear::new(&mut store, &mut init, h, d * cfg.horizon, "stgcn.pred");

        Self {
            store,
            session: SessionSlot::default(),
            cfg,
            laplacian,
            t_in,
            spatial,
            t_out,
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

        let inputs: Vec<Var> = (0..self.cfg.history)
            .map(|t| sess.constant(sample.inputs[t].clone()))
            .collect();
        // Sandwich: gated TCN → GCN (per step) → gated TCN.
        let h1 = self.t_in.forward(sess, &self.store, &inputs);
        let h2: Vec<Var> = h1
            .iter()
            .map(|&s| self.spatial.forward(sess, &self.store, &self.laplacian, s))
            .collect();
        let h3 = self.t_out.forward(sess, &self.store, &h2);

        let last = *h3.last().expect("non-empty history");
        let pred_flat = self.pred_head.forward(sess, &self.store, last);

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

impl Forecaster for StgcnLite {
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

    fn tiny() -> (TrafficDataset, StgcnConfig) {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 2,
            ..Default::default()
        });
        let cfg = StgcnConfig {
            hidden_dim: 4,
            cheb_k: 2,
            kernel: 2,
            history: 4,
            horizon: 2,
            ..Default::default()
        };
        (ds, cfg)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let (ds, cfg) = tiny();
        let model = StgcnLite::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let preds = model.predict(&sample);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].shape(), (4, 4));
        assert!(preds.iter().all(Matrix::is_finite));
        assert!(model.num_parameters() > 0);
    }

    #[test]
    fn all_sandwich_layers_receive_gradients() {
        let (ds, cfg) = tiny();
        let mut model = StgcnLite::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 3);
        let _ = model.accumulate_gradients(&sample);
        for prefix in ["stgcn.t1", "stgcn.gcn", "stgcn.t2", "stgcn.pred"] {
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
        let mut model = StgcnLite::from_dataset(&norm.train, cfg);
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
    fn temporal_kernel_sees_the_past() {
        let (ds, cfg) = tiny();
        let model = StgcnLite::from_dataset(&ds, cfg);
        let sampler = WindowSampler::new(4, 2, 1);
        let sample = sampler.window_at(&ds, 0);
        let base = model.predict(&sample);
        let mut perturbed = sample.clone();
        // Perturbing the second-to-last step must change the forecast
        // (kernel 2 covers it at the final step).
        perturbed.inputs[2] = perturbed.inputs[2].map(|x| x + 5.0);
        let changed = model.predict(&perturbed);
        assert!(base[0].max_abs_diff(&changed[0]) > 1e-9);
    }
}
