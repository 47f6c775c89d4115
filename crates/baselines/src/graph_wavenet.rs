//! GraphWaveNet-lite (Wu et al., IJCAI'19) at reduced depth.
//!
//! Keeps the comparator's signature ingredients: a **self-adaptive
//! adjacency matrix** `Ã = softmax(relu(E₁·E₂ᵀ))` learned from node
//! embeddings (no prior graph needed), and **gated temporal convolutions**
//! with growing dilation. Two TCN+graph-conv layers instead of eight, sized
//! for CPU training. Like the original it assumes complete inputs —
//! mean-fill before use.

use rihgcn_core::Forecaster;
use st_autodiff::Var;
use st_data::{TrafficDataset, WindowSample};
use st_nn::{Linear, ParamId, ParamStore, Session, SessionSlot};
use st_tensor::{rng, uniform_matrix, Matrix};

/// Hyper-parameters for [`GraphWaveNetLite`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphWaveNetConfig {
    /// Residual channel width.
    pub hidden_dim: usize,
    /// Node-embedding width for the adaptive adjacency.
    pub embed_dim: usize,
    /// History window length.
    pub history: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Dilations of the stacked gated TCN layers.
    pub dilations: Vec<usize>,
    /// Parameter seed.
    pub seed: u64,
}

impl Default for GraphWaveNetConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 12,
            embed_dim: 6,
            history: 12,
            horizon: 12,
            dilations: vec![1, 2],
            seed: 37,
        }
    }
}

struct WaveLayer {
    filter: Linear,   // 2F → F
    gate: Linear,     // 2F → F
    spatial: Linear,  // F → F applied after Ã propagation
    residual: Linear, // F → F skip path
    dilation: usize,
}

/// The reduced Graph WaveNet comparator.
pub struct GraphWaveNetLite {
    store: ParamStore,
    session: SessionSlot,
    cfg: GraphWaveNetConfig,
    in_proj: Linear,
    e1: ParamId,
    e2: ParamId,
    layers: Vec<WaveLayer>,
    pred_head: Linear,
    num_features: usize,
}

impl std::fmt::Debug for GraphWaveNetLite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GraphWaveNetLite({} params)", self.store.num_scalars())
    }
}

impl GraphWaveNetLite {
    /// Builds the model; only node count matters (the graph is learned).
    pub fn from_dataset(train: &TrafficDataset, cfg: GraphWaveNetConfig) -> Self {
        assert!(!cfg.dilations.is_empty(), "need at least one TCN layer");
        let n = train.num_nodes();
        let d = train.num_features();
        let mut init = rng(cfg.seed);
        let mut store = ParamStore::new();

        let in_proj = Linear::new(&mut store, &mut init, d, cfg.hidden_dim, "gwn.in");
        let e1 = store.add(
            "gwn.e1",
            uniform_matrix(&mut init, n, cfg.embed_dim, -0.5, 0.5),
        );
        let e2 = store.add(
            "gwn.e2",
            uniform_matrix(&mut init, n, cfg.embed_dim, -0.5, 0.5),
        );

        let f = cfg.hidden_dim;
        let layers = cfg
            .dilations
            .iter()
            .enumerate()
            .map(|(i, &dilation)| WaveLayer {
                filter: Linear::new(&mut store, &mut init, 2 * f, f, &format!("gwn.l{i}.filter")),
                gate: Linear::new(&mut store, &mut init, 2 * f, f, &format!("gwn.l{i}.gate")),
                spatial: Linear::new(&mut store, &mut init, f, f, &format!("gwn.l{i}.spatial")),
                residual: Linear::new(&mut store, &mut init, f, f, &format!("gwn.l{i}.res")),
                dilation,
            })
            .collect();

        let pred_head = Linear::new(&mut store, &mut init, 2 * f, d * cfg.horizon, "gwn.pred");

        Self {
            store,
            session: SessionSlot::default(),
            cfg,
            in_proj,
            e1,
            e2,
            layers,
            pred_head,
            num_features: d,
        }
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The current adaptive adjacency (row-stochastic), detached.
    pub fn adaptive_adjacency(&self) -> Matrix {
        self.session.with(&self.store, |sess| {
            let a = self.build_adjacency(sess);
            sess.tape.value(a).clone()
        })
    }

    fn build_adjacency(&self, sess: &mut Session) -> Var {
        let e1 = sess.var(&self.store, self.e1);
        let e2 = sess.var(&self.store, self.e2);
        let e2t = sess.tape.transpose(e2);
        let logits = sess.tape.matmul(e1, e2t);
        let act = sess.tape.relu(logits);
        sess.tape.softmax_rows(act)
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
        let adj = self.build_adjacency(sess);

        // Input projection per step.
        let mut h: Vec<Var> = (0..t_len)
            .map(|t| {
                let x = sess.constant(sample.inputs[t].clone());
                let p = self.in_proj.forward(sess, &self.store, x);
                sess.tape.relu(p)
            })
            .collect();

        // Stacked gated TCN + adaptive graph convolution layers.
        for layer in &self.layers {
            let mut next = Vec::with_capacity(t_len);
            for t in 0..t_len {
                let past = h[t.saturating_sub(layer.dilation)];
                let pair = sess.tape.concat_cols(past, h[t]);
                let f_pre = layer.filter.forward(sess, &self.store, pair);
                let filter = sess.tape.tanh(f_pre);
                let g_pre = layer.gate.forward(sess, &self.store, pair);
                let gate = sess.tape.sigmoid(g_pre);
                let gated = sess.tape.mul(filter, gate);
                // Adaptive propagation with a residual skip.
                let propagated = sess.tape.matmul(adj, gated);
                let spatial = layer.spatial.forward(sess, &self.store, propagated);
                let res = layer.residual.forward(sess, &self.store, gated);
                let combined = sess.tape.add(spatial, res);
                next.push(sess.tape.relu(combined));
            }
            h = next;
        }

        // Read-out: last step plus the window mean (skip-connection style).
        let mut mean_acc = h[0];
        for &step in &h[1..] {
            mean_acc = sess.tape.add(mean_acc, step);
        }
        let mean = sess.tape.scale(mean_acc, 1.0 / t_len as f64);
        let features = sess.tape.concat_cols(h[t_len - 1], mean);
        let pred_flat = self.pred_head.forward(sess, &self.store, features);

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

impl Forecaster for GraphWaveNetLite {
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

    fn tiny() -> (TrafficDataset, GraphWaveNetConfig) {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 2,
            ..Default::default()
        });
        let cfg = GraphWaveNetConfig {
            hidden_dim: 4,
            embed_dim: 3,
            history: 4,
            horizon: 2,
            ..Default::default()
        };
        (ds, cfg)
    }

    #[test]
    fn forward_shapes() {
        let (ds, cfg) = tiny();
        let model = GraphWaveNetLite::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let preds = model.predict(&sample);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].shape(), (4, 4));
        assert!(preds.iter().all(Matrix::is_finite));
    }

    #[test]
    fn adaptive_adjacency_is_row_stochastic() {
        let (ds, cfg) = tiny();
        let model = GraphWaveNetLite::from_dataset(&ds, cfg);
        let a = model.adaptive_adjacency();
        assert_eq!(a.shape(), (4, 4));
        for r in 0..4 {
            let s: f64 = a.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
            assert!(a.row(r).iter().all(|&w| w >= 0.0));
        }
    }

    #[test]
    fn node_embeddings_receive_gradients() {
        let (ds, cfg) = tiny();
        let mut model = GraphWaveNetLite::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let _ = model.accumulate_gradients(&sample);
        assert!(model.store.grad(model.e1).max_abs() > 0.0, "e1 must learn");
        assert!(model.store.grad(model.e2).max_abs() > 0.0, "e2 must learn");
    }

    #[test]
    fn adjacency_changes_with_training() {
        let (ds, cfg) = tiny();
        let split = ds.split_chronological();
        let (norm, _) = prepare_split(&split);
        let sampler = WindowSampler::new(4, 2, 12);
        let train = mean_fill_samples(&sampler.sample(&norm.train)[..6]);
        let mut model = GraphWaveNetLite::from_dataset(&norm.train, cfg);
        let before = model.adaptive_adjacency();
        let tc = TrainConfig {
            max_epochs: 3,
            batch_size: 3,
            learning_rate: 5e-3,
            ..Default::default()
        };
        let report = fit(&mut model, &train, &[], &tc);
        assert!(*report.train_losses.last().unwrap() < report.train_losses[0]);
        let after = model.adaptive_adjacency();
        assert!(before.max_abs_diff(&after) > 1e-9, "adjacency must adapt");
    }
}
