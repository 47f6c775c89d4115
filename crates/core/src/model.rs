//! The RIHGCN model: bi-directional recurrent imputation over a
//! heterogeneous GCN + shared LSTM, with a joint prediction/imputation loss.
//!
//! Faithful to the paper's computational flow (§III-E/F):
//!
//! 1. at each history step `t`, the complement input
//!    `X̄_t = M_t ⊙ X_t + (1−M_t) ⊙ X̂_t` mixes observations with the model's
//!    own running estimate — and `X̂_t` stays on the autodiff tape, so later
//!    losses refine earlier imputations ("delayed gradients");
//! 2. `S_t = HGCN(X̄_t)` captures spatial structure via the geographic graph
//!    plus `M` interval-specific temporal graphs;
//! 3. a parameter-shared LSTM over `[S_t ; M_t]` captures temporal
//!    structure; `Z_t = [S_t ; H_t]`;
//! 4. `X̂_{t+1} = W_z·Z_t + b_z` (Eq. 5) feeds the next complement;
//! 5. the same recurrence runs backward in time; a fully-connected head over
//!    all `Z_t` (both directions) produces the `T'`-step forecast;
//! 6. the loss is `L_c + λ·L_m` with `L_m` the masked observation error plus
//!    the forward/backward consistency term on missing entries (Eq. 6).

use crate::{PredictionHead, RihgcnConfig, TrainConfig};
use st_autodiff::Var;
use st_data::{DayProfiles, TrafficDataset, WindowSample};
use st_graph::{gaussian_adjacency, partition_day, Interval, IntervalConfig};
use st_nn::{HgcnBlock, Linear, LstmCell, ParamId, ParamStore, Session, SessionSlot};
use st_tensor::{rng, Matrix};

/// One direction's recurrent cells: an LSTM plus the estimation head
/// producing `X̂_{t+1}` from `Z_t`.
#[derive(Debug, Clone)]
struct DirectionCells {
    lstm: LstmCell,
    est_head: Linear,
}

/// Outputs of one directional pass over a view.
struct DirectionRun {
    /// `Z_t = [S_t ; H_t]` per history step, each `(B·N) × (p+q)`.
    z: Vec<Var>,
    /// `estimates[t]` is the direction's estimate of `X_t` (a zero constant
    /// at the direction's first step, matching the paper's `X̂_0 = 0`).
    estimates: Vec<Var>,
}

/// The joint loss nodes of a run whose view carried targets.
struct Losses {
    /// Prediction loss `L_c`.
    prediction: Var,
    /// Imputation loss `L_m`.
    imputation: Var,
    /// Total loss `L_c + λ·L_m`.
    total: Var,
}

/// Tape nodes of one forward pass over `B` windows: per-step stacked
/// predictions and estimates (window `b` = rows `[b·N, (b+1)·N)`), plus the
/// loss nodes when the view carried targets.
pub(crate) struct Run {
    /// Horizon predictions, one `(B·N) × D` tape node per step.
    pub(crate) predictions: Vec<Var>,
    /// Per-step imputation estimates `X̂_t` (average of directions).
    pub(crate) estimates: Vec<Var>,
    /// `L_c`, `L_m` and the total, built only for views with targets.
    losses: Option<Losses>,
    /// Number of windows `B` the run covered.
    batch: usize,
}

impl Run {
    /// The loss nodes of a run over a view with targets.
    fn losses(&self) -> &Losses {
        self.losses
            .as_ref()
            .expect("a view with targets builds losses")
    }

    /// Slices the stacked tape values into per-window outputs (window `b`
    /// = rows `[b·N, (b+1)·N)` of every node, for `nodes = N`).
    fn outputs(&self, sess: &Session, nodes: usize) -> Vec<SampleOutput> {
        let rows = |vars: &[Var], b: usize| -> Vec<Matrix> {
            vars.iter()
                .map(|&v| sess.tape.value(v).slice_rows(b * nodes, (b + 1) * nodes))
                .collect()
        };
        (0..self.batch)
            .map(|b| SampleOutput {
                predictions: rows(&self.predictions, b),
                estimates: rows(&self.estimates, b),
            })
            .collect()
    }
}

/// Concrete (detached) outputs of the model on one sample, in the
/// normalised data space.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleOutput {
    /// Forecast for each horizon step (`N × D` each).
    pub predictions: Vec<Matrix>,
    /// Imputation estimate `X̂_t` for each history step (`N × D` each).
    pub estimates: Vec<Matrix>,
}

/// A borrowed view of `B` windows: what one tape run reads.
///
/// Per history step `t`, `inputs[t]` and `masks[t]` hold the `B` windows'
/// `N × F` matrices row-stacked into one `(B·N) × F` block, and
/// `slots[t·B + b]` is window `b`'s time-of-day slot at that step. A
/// [`WindowSample`] is the `B = 1` view of itself, borrowed without a copy
/// (so training stays allocation-free); only such a view can carry forecast
/// targets, and only a view with targets makes the run build its losses.
#[derive(Clone, Copy)]
struct WindowView<'a> {
    inputs: &'a [Matrix],
    masks: &'a [Matrix],
    slots: &'a [usize],
    batch: usize,
    /// `(targets, target_masks)` per horizon step.
    targets: Option<(&'a [Matrix], &'a [Matrix])>,
}

impl<'a> WindowView<'a> {
    /// One window for inference: no targets, no loss terms.
    fn window(sample: &'a WindowSample) -> Self {
        Self {
            inputs: &sample.inputs,
            masks: &sample.masks,
            slots: &sample.slots,
            batch: 1,
            targets: None,
        }
    }

    /// One window with its forecast targets, for training and loss
    /// evaluation.
    fn with_targets(sample: &'a WindowSample) -> Self {
        Self {
            targets: Some((&sample.targets, &sample.target_masks)),
            ..Self::window(sample)
        }
    }

    /// The `B` windows' slots at history step `t`.
    fn step_slots(&self, t: usize) -> &'a [usize] {
        &self.slots[t * self.batch..(t + 1) * self.batch]
    }
}

/// A batch of `B` inference windows stacked for one tape run.
///
/// Window `b` occupies rows `[b·N, (b+1)·N)` of every step block.
/// Row-stacking is the canonical batched layout because every row-local
/// model op (elementwise arithmetic, the LSTM and head right-multiplies,
/// per-row softmax) applied to the stack is bit-identical per block to a
/// one-window run; the graph-convolution left-multiplies `T_k(L̃) · X` —
/// the only column-local ops — run in the wide `N × (B·F)` permutation of
/// the same data (see [`st_nn::HgcnBlock::forward`]), so one packed-panel
/// matmul covers all `B` windows.
#[derive(Debug, Clone)]
pub struct BatchedWindow {
    inputs: Vec<Matrix>,
    masks: Vec<Matrix>,
    /// Step-major: `slots[t·B + b]` is window `b`'s slot at step `t`.
    slots: Vec<usize>,
    batch: usize,
}

impl BatchedWindow {
    /// Stacks `B` same-shaped window samples (only their history parts —
    /// inputs, masks and slots; targets are inference-irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or the histories disagree in length or
    /// shape.
    pub fn from_samples(samples: &[&WindowSample]) -> Self {
        assert!(!samples.is_empty(), "batch needs at least one window");
        let t_len = samples[0].history_len();
        let shape = samples[0].inputs[0].shape();
        for s in samples {
            assert_eq!(s.history_len(), t_len, "batch history length mismatch");
            assert_eq!(s.inputs[0].shape(), shape, "batch window shape mismatch");
        }
        let mut inputs = Vec::with_capacity(t_len);
        let mut masks = Vec::with_capacity(t_len);
        let mut slots = Vec::with_capacity(t_len * samples.len());
        for t in 0..t_len {
            let step_inputs: Vec<&Matrix> = samples.iter().map(|s| &s.inputs[t]).collect();
            let step_masks: Vec<&Matrix> = samples.iter().map(|s| &s.masks[t]).collect();
            inputs.push(Matrix::stack_rows(&step_inputs));
            masks.push(Matrix::stack_rows(&step_masks));
            slots.extend(samples.iter().map(|s| s.slots[t]));
        }
        Self {
            inputs,
            masks,
            slots,
            batch: samples.len(),
        }
    }

    /// Assembles a batch from already-stacked step blocks and step-major
    /// slots — the allocation-lean spine of the serving path, which
    /// normalises snapshot entries straight into the `(B·N) × F` stacks
    /// instead of materialising `B` per-window samples first.
    pub(crate) fn from_parts(
        inputs: Vec<Matrix>,
        masks: Vec<Matrix>,
        slots: Vec<usize>,
        batch: usize,
    ) -> Self {
        debug_assert!(batch > 0, "batch needs at least one window");
        debug_assert_eq!(inputs.len(), masks.len());
        debug_assert_eq!(inputs.len() * batch, slots.len());
        Self {
            inputs,
            masks,
            slots,
            batch,
        }
    }

    /// Number of windows `B` in the batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// History length `T` of every window.
    pub fn history_len(&self) -> usize {
        self.inputs.len()
    }

    /// The batch as a run view (no targets).
    fn view(&self) -> WindowView<'_> {
        WindowView {
            inputs: &self.inputs,
            masks: &self.masks,
            slots: &self.slots,
            batch: self.batch,
            targets: None,
        }
    }
}

/// The Recurrent-Imputation Heterogeneous GCN traffic forecaster.
///
/// Build one with [`RihgcnModel::from_dataset`], train with
/// [`RihgcnModel::fit`](crate::RihgcnModel::fit) and predict with
/// [`RihgcnModel::forward`].
#[derive(Debug)]
pub struct RihgcnModel {
    pub(crate) store: ParamStore,
    hgcn: HgcnBlock,
    fwd: DirectionCells,
    bwd: Option<DirectionCells>,
    pred_head: Linear,
    attention: Option<ParamId>,
    cfg: RihgcnConfig,
    num_nodes: usize,
    num_features: usize,
    intervals: Vec<Interval>,
    // Graph metadata retained so the model can be persisted self-contained
    // (checkpoint v2) and rebuilt without the original dataset.
    geo_adj: Matrix,
    temporal_graphs: Vec<(Interval, Matrix)>,
    slots_per_day: usize,
    // The one recycled session every tape run of this model goes through,
    // so steady-state runs of any kind reuse one buffer pool.
    session: SessionSlot,
}

impl RihgcnModel {
    /// Builds the model's graphs from a (training) dataset and initialises
    /// all parameters.
    ///
    /// The geographic graph comes from the dataset's road network (Eq. 8);
    /// the `cfg.num_temporal_graphs` temporal graphs come from DTW
    /// similarities of historical per-interval profiles with interval
    /// boundaries chosen by the constrained partitioning of Eq. 2. Pass
    /// `num_temporal_graphs = 0` for the plain-GCN ablation (GCN-LSTM-I).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the dataset is empty.
    pub fn from_dataset(train: &TrafficDataset, cfg: RihgcnConfig) -> Self {
        cfg.validate();
        assert!(train.num_times() > 0, "training dataset is empty");

        let geo_adj = gaussian_adjacency(&train.network.road_distance_matrix(), None, cfg.epsilon);

        let mut temporal_graphs = Vec::new();
        if cfg.num_temporal_graphs > 0 {
            let profiles = DayProfiles::from_dataset(train);
            let slots = train.slots_per_day();
            let icfg = interval_config(cfg.num_temporal_graphs, slots);
            let partition = partition_day(profiles.profiles(), &icfg);
            for interval in &partition.intervals {
                let adj = profiles.interval_adjacency_with(*interval, cfg.epsilon, cfg.distance);
                temporal_graphs.push((*interval, adj));
            }
        }

        Self::from_parts(
            cfg,
            train.num_features(),
            geo_adj,
            temporal_graphs,
            train.slots_per_day(),
        )
    }

    /// Builds the model directly from pre-computed graphs — the constructor
    /// behind [`RihgcnModel::from_dataset`] and the checkpoint-v2 loader.
    ///
    /// `geo_adjacency` is the `N × N` geographic graph; `temporal_graphs`
    /// pairs each time-of-day [`Interval`] with its `N × N` adjacency (one
    /// entry per temporal graph, in interval order). Parameters are
    /// initialised from `cfg.seed` exactly as `from_dataset` would, so a
    /// model rebuilt from persisted graphs is bit-identical to the original
    /// once its parameters are loaded.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the adjacency shapes are
    /// inconsistent, or `temporal_graphs.len()` disagrees with
    /// `cfg.num_temporal_graphs`.
    pub fn from_parts(
        cfg: RihgcnConfig,
        num_features: usize,
        geo_adjacency: Matrix,
        temporal_graphs: Vec<(Interval, Matrix)>,
        slots_per_day: usize,
    ) -> Self {
        cfg.validate();
        assert!(num_features > 0, "num_features must be positive");
        assert!(slots_per_day > 0, "slots_per_day must be positive");
        let n = geo_adjacency.rows();
        assert_eq!(
            geo_adjacency.cols(),
            n,
            "geographic adjacency must be square"
        );
        assert_eq!(
            temporal_graphs.len(),
            cfg.num_temporal_graphs,
            "temporal graph count must match cfg.num_temporal_graphs"
        );
        let d = num_features;
        let geo_adj = geo_adjacency;
        let intervals: Vec<Interval> = temporal_graphs.iter().map(|(i, _)| *i).collect();

        let mut init_rng = rng(cfg.seed);
        let mut store = ParamStore::new();
        let hgcn = HgcnBlock::new(
            &mut store,
            &mut init_rng,
            d,
            cfg.gcn_dim,
            cfg.cheb_k,
            &geo_adj,
            temporal_graphs.clone(),
            slots_per_day,
            cfg.tau,
            "hgcn",
        );
        let p = hgcn.out_dim();
        let z_width = p + cfg.lstm_dim;

        let fwd = DirectionCells {
            lstm: LstmCell::new(&mut store, &mut init_rng, p + d, cfg.lstm_dim, "fwd.lstm"),
            est_head: Linear::new(&mut store, &mut init_rng, z_width, d, "fwd.est"),
        };
        let bwd = cfg.bidirectional.then(|| DirectionCells {
            lstm: LstmCell::new(&mut store, &mut init_rng, p + d, cfg.lstm_dim, "bwd.lstm"),
            est_head: Linear::new(&mut store, &mut init_rng, z_width, d, "bwd.est"),
        });

        let dirs = if cfg.bidirectional { 2 } else { 1 };
        let (head_in, attention) = match cfg.head {
            PredictionHead::Concat => (cfg.history * dirs * z_width, None),
            PredictionHead::Attention => {
                let att = store.add(
                    "pred.att",
                    st_tensor::xavier_matrix(&mut init_rng, dirs * z_width, 1),
                );
                (dirs * z_width, Some(att))
            }
        };
        let pred_head = Linear::new(&mut store, &mut init_rng, head_in, d * cfg.horizon, "pred");

        Self {
            store,
            hgcn,
            fwd,
            bwd,
            pred_head,
            attention,
            cfg,
            num_nodes: n,
            num_features: d,
            intervals,
            geo_adj,
            temporal_graphs,
            slots_per_day,
            session: SessionSlot::default(),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &RihgcnConfig {
        &self.cfg
    }

    /// Number of graph nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of input features per node.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// The time-of-day intervals backing the temporal graphs.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Time-of-day slots per day the model was built for.
    pub fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// The geographic adjacency the model was built from.
    pub fn geo_adjacency(&self) -> &Matrix {
        &self.geo_adj
    }

    /// The temporal graphs (interval, adjacency) the model was built from.
    pub fn temporal_graphs(&self) -> &[(Interval, Matrix)] {
        &self.temporal_graphs
    }

    /// Read-only access to the parameter store (for persistence).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Buffer-pool statistics of the model's recycled tape, counting every
    /// run — training steps, `loss`, `forward`, prediction, imputation and
    /// serving. `None` before the model's first run of any kind.
    pub fn training_pool_stats(&self) -> Option<st_tensor::PoolStats> {
        self.session.pool_stats()
    }

    /// Bytes parked in the recycled tape pool's free lists (`None` before
    /// the first run, like [`training_pool_stats`](Self::training_pool_stats)).
    pub fn training_pool_free_bytes(&self) -> Option<usize> {
        self.session.pool_free_bytes()
    }

    /// Mutable access to the parameter store (for loading persisted
    /// parameters).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Runs the model on one sample, returning detached predictions and
    /// imputation estimates (normalised space). The window runs as a batch
    /// of one, without building the loss terms.
    ///
    /// # Panics
    ///
    /// Panics if the sample's shape disagrees with the model.
    pub fn forward(&self, sample: &WindowSample) -> SampleOutput {
        self.with_run(WindowView::window(sample), |sess, run| {
            run.outputs(sess, self.num_nodes)
        })
        .pop()
        .expect("a one-window run yields one output")
    }

    /// Runs the model once over a batch of `B` windows, returning each
    /// window's detached [`SampleOutput`] (normalised space).
    ///
    /// One tape run covers the whole batch: the imputation recurrence, the
    /// graph convolutions (one packed-panel matmul per Chebyshev term over
    /// the wide `N × (B·F)` layout) and the prediction head all execute
    /// once over the stacked blocks; per-window outputs are row-sliced off
    /// the final tape values. Output `b` is bit-identical to
    /// `forward(window_b)` at every `ST_NUM_THREADS` — see DESIGN §13 for
    /// the argument, and `tests/batched_equivalence.rs` for the pin.
    ///
    /// # Panics
    ///
    /// Panics if the batch's shape disagrees with the model.
    pub fn forward_batched(&self, batch: &BatchedWindow) -> Vec<SampleOutput> {
        self.with_batched_recycled_run(batch, |sess, run| run.outputs(sess, self.num_nodes))
    }

    /// Runs one batch and hands the live tape to `f`: serving reads
    /// predictions off the stacked tape values in place (denormalising
    /// block `b` straight into the response), never materialising
    /// per-window [`SampleOutput`]s.
    pub(crate) fn with_batched_recycled_run<R>(
        &self,
        batch: &BatchedWindow,
        f: impl FnOnce(&Session, &Run) -> R,
    ) -> R {
        self.with_run(batch.view(), f)
    }

    /// Records one run over `view` on the model's recycled session and
    /// hands the live tape to `read`. Pooled buffers are fully overwritten
    /// or `copy_from`-seeded (DESIGN §9), so this is bit-identical to a run
    /// on a fresh session.
    fn with_run<R>(&self, view: WindowView<'_>, read: impl FnOnce(&Session, &Run) -> R) -> R {
        self.session.with(&self.store, |sess| {
            let run = self.run(sess, view);
            read(sess, &run)
        })
    }

    /// The `(L_c, L_m)` pair — prediction and imputation loss — of one
    /// sample, before the `λ` weighting (used by the Figure-5 λ study).
    pub fn loss_components(&self, sample: &WindowSample) -> (f64, f64) {
        self.with_run(WindowView::with_targets(sample), |sess, run| {
            let losses = run.losses();
            (
                sess.tape.value(losses.prediction)[(0, 0)],
                sess.tape.value(losses.imputation)[(0, 0)],
            )
        })
    }

    /// Builds the tape for one view of `B` windows — the model's only
    /// forward.
    ///
    /// Every op is either row-local on the `(B·N)`-row stacks — bit-equal
    /// per block by construction — or one of the batched tape ops whose
    /// per-block bit-identity the tape pins (`to_wide`/`to_stacked`
    /// permutations, `scale_blocks`, `mean_blocks`). When the view carries
    /// targets the joint loss is recorded too: the imputation terms inside
    /// the per-step estimate loop and the prediction terms per horizon
    /// step, so the backward sweep accumulates every gradient in a fixed
    /// order.
    fn run(&self, sess: &mut Session, view: WindowView<'_>) -> Run {
        let history = self.cfg.history;
        let batch = view.batch;
        let _span = st_obs::span!("core.forward", history, batch);
        assert_eq!(view.inputs.len(), history, "history length mismatch");
        assert_eq!(
            view.inputs[0].shape(),
            (batch * self.num_nodes, self.num_features),
            "window shape mismatch"
        );
        if let Some((targets, _)) = view.targets {
            assert_eq!(targets.len(), self.cfg.horizon, "horizon length mismatch");
        }

        let t_len = history;
        let fwd_run = self.impute_direction(sess, view, &self.fwd, false);
        let bwd_run = self
            .bwd
            .as_ref()
            .map(|cells| self.impute_direction(sess, view, cells, true));

        // --- imputation estimates and loss (Eq. 6) ----------------------
        let with_losses = view.targets.is_some();
        let mut imp_terms: Vec<Var> = Vec::with_capacity(2 * t_len);
        let mut estimates: Vec<Var> = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let est = match &bwd_run {
                Some(back) => {
                    let s = sess.tape.add(fwd_run.estimates[t], back.estimates[t]);
                    sess.tape.scale(s, 0.5)
                }
                None => fwd_run.estimates[t],
            };
            estimates.push(est);
            if !with_losses {
                continue;
            }
            // Observation error on observed entries.
            let target = sess.constant_ref(&view.inputs[t]);
            let mask_c = sess.constant_ref(&view.masks[t]);
            let obs_err = sess.tape.masked_mae_var(est, target, mask_c);
            imp_terms.push(obs_err);
            // Forward/backward consistency on missing entries. The inverse
            // mask `1 − M` is built on the tape (−M then +1) so its buffer
            // comes from the pool; for binary masks the result is
            // bit-identical to materialising `map(|m| 1.0 − m)`.
            if self.cfg.consistency_weight > 0.0 {
                if let Some(back) = &bwd_run {
                    let neg_mask = sess.tape.scale(mask_c, -1.0);
                    let inv_mask = sess.tape.add_scalar(neg_mask, 1.0);
                    let cons =
                        sess.tape
                            .masked_mae_var(fwd_run.estimates[t], back.estimates[t], inv_mask);
                    let cons = sess.tape.scale(cons, self.cfg.consistency_weight);
                    imp_terms.push(cons);
                }
            }
        }
        let imputation_loss = with_losses.then(|| {
            let imp_sum = sum_vars(sess, &imp_terms);
            sess.tape.scale(imp_sum, 1.0 / t_len as f64)
        });

        // --- prediction (Eq. 7) -----------------------------------------
        let z_bi: Vec<Var> = (0..t_len)
            .map(|t| match &bwd_run {
                Some(back) => sess.tape.concat_cols(fwd_run.z[t], back.z[t]),
                None => fwd_run.z[t],
            })
            .collect();
        let head_in = match self.cfg.head {
            PredictionHead::Concat => {
                let mut wide: Option<Var> = None;
                for &z_t in &z_bi {
                    wide = Some(match wide {
                        Some(w) => sess.tape.concat_cols(w, z_t),
                        None => z_t,
                    });
                }
                wide.expect("history is non-empty")
            }
            PredictionHead::Attention => {
                // Attention over time: α = softmax_t(mean_n(Z_t · v)),
                // context = Σ α_t Z_t (the paper's weighted-sum option).
                // Per window: scores land in a `B × T` matrix (row b =
                // window b's score vector), the softmax is per row, and
                // `scale_blocks` applies each window's α_t to its block.
                let va = sess.var(
                    &self.store,
                    self.attention.expect("attention head allocates its vector"),
                );
                let mut scores: Option<Var> = None;
                for &z_t in &z_bi {
                    let proj = sess.tape.matmul(z_t, va);
                    let score = sess.tape.mean_blocks(proj, batch);
                    scores = Some(match scores {
                        Some(acc) => sess.tape.concat_cols(acc, score),
                        None => score,
                    });
                }
                let alphas = sess
                    .tape
                    .softmax_rows(scores.expect("history is non-empty"));
                let mut context: Option<Var> = None;
                for (t, &z_t) in z_bi.iter().enumerate() {
                    let a_t = sess.tape.slice_cols(alphas, t, t + 1);
                    let weighted = sess.tape.scale_blocks(z_t, a_t);
                    context = Some(match context {
                        Some(acc) => sess.tape.add(acc, weighted),
                        None => weighted,
                    });
                }
                context.expect("history is non-empty")
            }
        };
        let pred_flat = self.pred_head.forward(sess, &self.store, head_in);

        let d = self.num_features;
        let mut predictions = Vec::with_capacity(self.cfg.horizon);
        let mut pred_terms = Vec::with_capacity(self.cfg.horizon);
        for h in 0..self.cfg.horizon {
            let step = sess.tape.slice_cols(pred_flat, h * d, (h + 1) * d);
            if let Some((targets, target_masks)) = view.targets {
                let target = sess.constant_ref(&targets[h]);
                let err = sess.tape.masked_mae(step, target, &target_masks[h]);
                pred_terms.push(err);
            }
            predictions.push(step);
        }
        let losses = imputation_loss.map(|imputation| {
            let pred_sum = sum_vars(sess, &pred_terms);
            let prediction = sess.tape.scale(pred_sum, 1.0 / self.cfg.horizon as f64);
            let weighted_imp = sess.tape.scale(imputation, self.cfg.lambda);
            let total = sess.tape.add(prediction, weighted_imp);
            Losses {
                prediction,
                imputation,
                total,
            }
        });

        Run {
            predictions,
            estimates,
            losses,
            batch,
        }
    }

    /// Runs one direction of the recurrent imputation over the view's
    /// `B·N` stacked rows. The LSTM, estimation head and complement
    /// arithmetic are all row-local; the HGCN mixes nodes per window.
    fn impute_direction(
        &self,
        sess: &mut Session,
        view: WindowView<'_>,
        cells: &DirectionCells,
        reverse: bool,
    ) -> DirectionRun {
        let t_len = self.cfg.history;
        let rows = view.batch * self.num_nodes;
        let order: Vec<usize> = if reverse {
            (0..t_len).rev().collect()
        } else {
            (0..t_len).collect()
        };

        let mut z: Vec<Option<Var>> = vec![None; t_len];
        let mut estimates: Vec<Option<Var>> = vec![None; t_len];
        let mut est_prev = sess.constant_zeros(rows, self.num_features);
        let mut state = cells.lstm.zero_state(sess, rows);

        for &t in &order {
            estimates[t] = Some(est_prev);
            // Complement input: X̄_t = M⊙X + (1−M)⊙X̂ (Eq. 3). `inputs[t]`
            // is already M⊙X. The inverse mask is built on the tape (−M then
            // +1, bit-identical to `1 − M` for binary masks) so every buffer
            // comes from the pool.
            let obs = sess.constant_ref(&view.inputs[t]);
            let mask_c = sess.constant_ref(&view.masks[t]);
            let neg_mask = sess.tape.scale(mask_c, -1.0);
            let inv_mask = sess.tape.add_scalar(neg_mask, 1.0);
            let est_part = sess.tape.mul(inv_mask, est_prev);
            let x_bar = sess.tape.add(obs, est_part);

            let s = self
                .hgcn
                .forward(sess, &self.store, view.step_slots(t), x_bar);
            let lstm_in = sess.tape.concat_cols(s, mask_c);
            state = cells.lstm.step(sess, &self.store, lstm_in, &state);
            let z_t = sess.tape.concat_cols(s, state.h);
            z[t] = Some(z_t);
            est_prev = cells.est_head.forward(sess, &self.store, z_t);
        }

        DirectionRun {
            z: z.into_iter()
                .map(|v| v.expect("all steps visited"))
                .collect(),
            estimates: estimates
                .into_iter()
                .map(|v| v.expect("all steps visited"))
                .collect(),
        }
    }
}

/// Builds the interval-partitioning configuration for `m` intervals on a
/// day of `slots` timestamps (hourly candidate grid when possible).
fn interval_config(m: usize, slots: usize) -> IntervalConfig {
    // Hourly candidates when the day divides into 24, otherwise the finest
    // divisor grid that can host m intervals.
    let step = if slots % 24 == 0 { slots / 24 } else { 1 };
    let grid = slots / step;
    let max_cells = ((2.0 * grid as f64 / m.max(1) as f64).ceil() as usize).clamp(1, grid / 2);
    IntervalConfig {
        num_intervals: m,
        slots_per_day: slots,
        candidate_step: step,
        min_len: step,
        max_len: max_cells * step,
        eta: 0.1,
        gamma: 0.5,
    }
}

fn sum_vars(sess: &mut Session, terms: &[Var]) -> Var {
    let mut acc = terms[0];
    for &t in &terms[1..] {
        acc = sess.tape.add(acc, t);
    }
    acc
}

impl RihgcnModel {
    /// Convenience: fit on training windows with validation-based early
    /// stopping. See [`crate::fit`] for details.
    pub fn fit(
        &mut self,
        train: &[WindowSample],
        val: &[WindowSample],
        tc: &TrainConfig,
    ) -> crate::TrainReport {
        crate::fit(self, train, val, tc)
    }

    /// Loss of one sample without updating parameters (for validation).
    pub fn loss(&self, sample: &WindowSample) -> f64 {
        self.with_run(WindowView::with_targets(sample), |sess, run| {
            sess.tape.value(run.losses().total)[(0, 0)]
        })
    }
}

impl crate::Forecaster for RihgcnModel {
    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn accumulate_gradients(&mut self, sample: &WindowSample) -> f64 {
        let _span = st_obs::span!("core.train_step");
        // Take/put by hand: `write_grads` needs the store mutably while the
        // session is out.
        let mut sess = self.session.take(&self.store);
        let total = self
            .run(&mut sess, WindowView::with_targets(sample))
            .losses()
            .total;
        let loss_value = sess.tape.value(total)[(0, 0)];
        sess.backward(total);
        sess.write_grads(&mut self.store);
        self.session.put(sess);
        loss_value
    }

    fn loss(&self, sample: &WindowSample) -> f64 {
        RihgcnModel::loss(self, sample)
    }

    fn predict(&self, sample: &WindowSample) -> Vec<Matrix> {
        self.with_run(WindowView::window(sample), |sess, run| {
            run.predictions
                .iter()
                .map(|&v| sess.tape.value(v).clone())
                .collect()
        })
    }
}

impl crate::Imputer for RihgcnModel {
    fn impute(&self, sample: &WindowSample) -> Vec<Matrix> {
        self.with_run(WindowView::window(sample), |sess, run| {
            run.estimates
                .iter()
                .map(|&v| sess.tape.value(v).clone())
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Forecaster, Imputer};
    use st_data::{generate_pems, PemsConfig, WindowSampler};
    use st_tensor::rng as seeded;

    /// The oracle every recycled entry point is held to: one `run` on a
    /// fresh session.
    fn fresh_run(model: &RihgcnModel, view: WindowView<'_>) -> (Session, Run) {
        let mut sess = Session::new(&model.store);
        let run = model.run(&mut sess, view);
        (sess, run)
    }

    fn bits<'a>(ms: impl IntoIterator<Item = &'a Matrix>) -> Vec<u64> {
        ms.into_iter()
            .flat_map(|m| m.as_slice().iter().map(|x| x.to_bits()))
            .collect()
    }

    /// Zeroes the gradients, takes one training step and checks its loss
    /// and every gradient bit against a fresh-session step.
    fn assert_step_matches_fresh(model: &mut RihgcnModel, sample: &WindowSample, ctx: &str) {
        let mut oracle = model.store.clone();
        oracle.zero_grads();
        let (mut sess, run) = fresh_run(model, WindowView::with_targets(sample));
        let total = run.losses().total;
        let want = sess.tape.value(total)[(0, 0)];
        sess.backward(total);
        sess.write_grads(&mut oracle);
        model.store.zero_grads();
        let got = model.accumulate_gradients(sample);
        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: training loss");
        for id in oracle.ids() {
            assert_eq!(
                bits([model.store.grad(id)]),
                bits([oracle.grad(id)]),
                "{ctx}: gradient of {}",
                oracle.name(id)
            );
        }
    }

    fn tiny_setup() -> (TrafficDataset, RihgcnConfig) {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 3,
            ..Default::default()
        });
        let ds = ds.with_extra_missing(0.4, &mut seeded(5));
        let cfg = RihgcnConfig {
            gcn_dim: 4,
            lstm_dim: 6,
            cheb_k: 2,
            num_temporal_graphs: 2,
            history: 4,
            horizon: 2,
            ..Default::default()
        };
        (ds, cfg)
    }

    #[test]
    fn builds_with_temporal_graphs() {
        let (ds, cfg) = tiny_setup();
        let model = RihgcnModel::from_dataset(&ds, cfg);
        assert_eq!(model.num_nodes(), 4);
        assert_eq!(model.num_features(), 4);
        assert_eq!(model.intervals().len(), 2);
        assert!(model.num_parameters() > 0);
    }

    #[test]
    fn builds_without_temporal_graphs() {
        let (ds, cfg) = tiny_setup();
        let model = RihgcnModel::from_dataset(&ds, cfg.with_num_temporal_graphs(0));
        assert!(model.intervals().is_empty());
    }

    #[test]
    fn forward_shapes() {
        let (ds, cfg) = tiny_setup();
        let model = RihgcnModel::from_dataset(&ds, cfg);
        let sampler = WindowSampler::new(4, 2, 1);
        let sample = sampler.window_at(&ds, 0);
        let out = model.forward(&sample);
        assert_eq!(out.predictions.len(), 2);
        assert_eq!(out.estimates.len(), 4);
        assert_eq!(out.predictions[0].shape(), (4, 4));
        assert_eq!(out.estimates[0].shape(), (4, 4));
        assert!(out.predictions.iter().all(Matrix::is_finite));
    }

    #[test]
    fn recycled_run_matches_fresh_forward_bitwise() {
        let (ds, cfg) = tiny_setup();
        // Stride 5 spreads the windows across time-of-day slots.
        let sampler = WindowSampler::new(4, 2, 1);
        let samples: Vec<WindowSample> = (0..16).map(|i| sampler.window_at(&ds, 5 * i)).collect();
        for head in [PredictionHead::Concat, PredictionHead::Attention] {
            let mut model = RihgcnModel::from_dataset(&ds, cfg.clone().with_head(head));
            let fresh: Vec<SampleOutput> = samples
                .iter()
                .map(|s| {
                    let (sess, run) = fresh_run(&model, WindowView::window(s));
                    run.outputs(&sess, model.num_nodes())
                        .pop()
                        .expect("one window")
                })
                .collect();
            // Interleave with a training step so the recycled session has
            // seen a backward sweep too; run every batch twice so pooled
            // buffers are proven fully overwritten between runs.
            let _ = model.accumulate_gradients(&samples[0]);
            for b in [1usize, 2, 3, 8, 16] {
                let refs: Vec<&WindowSample> = samples[..b].iter().collect();
                let batch = BatchedWindow::from_samples(&refs);
                for round in 0..2 {
                    let recycled = model.forward_batched(&batch);
                    assert_eq!(recycled.len(), b);
                    for (w, out) in recycled.iter().enumerate() {
                        let ctx = format!("{head:?}, B={b}, round {round}, window {w}");
                        assert_eq!(bits(&out.predictions), bits(&fresh[w].predictions), "{ctx}");
                        assert_eq!(bits(&out.estimates), bits(&fresh[w].estimates), "{ctx}");
                    }
                }
            }
            let stats = model.training_pool_stats().expect("session exists");
            assert!(stats.hits > 0, "recycled runs must hit the pool");
        }
    }

    #[test]
    fn every_entry_point_recycles_bit_identically_to_a_fresh_session() {
        let (ds, cfg) = tiny_setup();
        let sampler = WindowSampler::new(4, 2, 1);
        let samples: Vec<WindowSample> = (0..3).map(|i| sampler.window_at(&ds, 7 * i)).collect();
        let refs: Vec<&WindowSample> = samples.iter().collect();
        let batch = BatchedWindow::from_samples(&refs);
        let variants = [
            cfg.clone(),
            cfg.clone().with_head(PredictionHead::Attention),
            cfg.clone().unidirectional(),
            cfg.with_num_temporal_graphs(0),
        ];
        for (v, cfg) in variants.into_iter().enumerate() {
            let mut model = RihgcnModel::from_dataset(&ds, cfg);
            let mut adam = st_nn::Adam::new(&model.store, 1e-2);
            // Every call runs on the one recycled session, interleaving
            // backward sweeps, loss-only runs and B = 3 batches; the Adam
            // step between rounds makes the session rebind new values.
            for (round, s) in samples.iter().enumerate() {
                let ctx = format!("variant {v}, round {round}");
                assert_step_matches_fresh(&mut model, s, &ctx);

                let (sess, run) = fresh_run(&model, WindowView::window(s));
                let want = run
                    .outputs(&sess, model.num_nodes())
                    .pop()
                    .expect("one window");
                assert_eq!(
                    bits(&model.predict(s)),
                    bits(&want.predictions),
                    "{ctx}: predict"
                );

                let (sess, run) = fresh_run(&model, batch.view());
                let want_batch = run.outputs(&sess, model.num_nodes());
                let got_batch = model.forward_batched(&batch);
                for (w, (got, exp)) in got_batch.iter().zip(&want_batch).enumerate() {
                    let what = format!("{ctx}: forward_batched window {w}");
                    assert_eq!(bits(&got.predictions), bits(&exp.predictions), "{what}");
                    assert_eq!(bits(&got.estimates), bits(&exp.estimates), "{what}");
                }

                let (sess, run) = fresh_run(&model, WindowView::with_targets(s));
                let value = |v: Var| sess.tape.value(v)[(0, 0)].to_bits();
                let losses = run.losses();
                assert_eq!(model.loss(s).to_bits(), value(losses.total), "{ctx}: loss");
                let (lc, lm) = model.loss_components(s);
                assert_eq!(lc.to_bits(), value(losses.prediction), "{ctx}: L_c");
                assert_eq!(lm.to_bits(), value(losses.imputation), "{ctx}: L_m");

                assert_eq!(
                    bits(&model.impute(s)),
                    bits(&want.estimates),
                    "{ctx}: impute"
                );
                assert_step_matches_fresh(&mut model, s, &ctx);
                adam.step(&mut model.store);
            }
            let stats = model.training_pool_stats().expect("session parked");
            assert!(
                stats.hits > 0,
                "variant {v}: recycled runs must hit the pool"
            );
        }
    }

    #[test]
    fn concurrent_predicts_share_the_model_and_match_sequential_bits() {
        let (ds, cfg) = tiny_setup();
        let model = RihgcnModel::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let want = bits(&model.predict(&sample));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (model, sample, want, start) = (&model, &sample, &want, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..20 {
                        assert_eq!(&bits(&model.predict(sample)), want, "thread {t}, call {i}");
                    }
                });
            }
        });
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (ds, cfg) = tiny_setup();
        let model = RihgcnModel::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 10);
        let l = model.loss(&sample);
        assert!(l.is_finite());
        assert!(l > 0.0);
    }

    #[test]
    fn gradient_accumulation_touches_all_components() {
        let (ds, cfg) = tiny_setup();
        let mut model = RihgcnModel::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let _ = model.accumulate_gradients(&sample);
        // Every major component must receive some gradient.
        for prefix in [
            "hgcn.geo", "hgcn.t0", "fwd.lstm", "bwd.lstm", "fwd.est", "pred",
        ] {
            let touched = model
                .store
                .ids()
                .filter(|&id| model.store.name(id).starts_with(prefix))
                .any(|id| model.store.grad(id).max_abs() > 0.0);
            assert!(touched, "no gradient reached {prefix}");
        }
    }

    #[test]
    fn loss_components_compose_total() {
        let (ds, cfg) = tiny_setup();
        let lambda = 0.7;
        let model = RihgcnModel::from_dataset(&ds, cfg.with_lambda(lambda));
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 3);
        let (lc, lm) = model.loss_components(&sample);
        let total = model.loss(&sample);
        assert!((total - (lc + lambda * lm)).abs() < 1e-9);
        assert!(lc > 0.0 && lm > 0.0);
    }

    #[test]
    fn attention_head_runs_and_learns() {
        use crate::PredictionHead;
        let (ds, cfg) = tiny_setup();
        let mut model =
            RihgcnModel::from_dataset(&ds, cfg.clone().with_head(PredictionHead::Attention));
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let out = model.forward(&sample);
        assert_eq!(out.predictions.len(), 2);
        assert!(out.predictions.iter().all(Matrix::is_finite));
        let _ = model.accumulate_gradients(&sample);
        let att_grad = model
            .store
            .ids()
            .filter(|&id| model.store.name(id) == "pred.att")
            .map(|id| model.store.grad(id).max_abs())
            .next()
            .unwrap();
        assert!(att_grad > 0.0, "attention vector must receive gradients");
        // Attention head has far fewer prediction parameters than concat.
        let concat = RihgcnModel::from_dataset(&ds, cfg);
        assert!(model.num_parameters() < concat.num_parameters());
    }

    #[test]
    fn consistency_weight_zero_changes_loss() {
        let (ds, cfg) = tiny_setup();
        let with = RihgcnModel::from_dataset(&ds, cfg.clone());
        let without = RihgcnModel::from_dataset(&ds, cfg.with_consistency_weight(0.0));
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let (_, lm_with) = with.loss_components(&sample);
        let (_, lm_without) = without.loss_components(&sample);
        assert!(
            lm_with > lm_without,
            "consistency term must add to L_m: {lm_with} vs {lm_without}"
        );
    }

    #[test]
    fn unidirectional_has_fewer_parameters() {
        let (ds, cfg) = tiny_setup();
        let bi = RihgcnModel::from_dataset(&ds, cfg.clone());
        let uni = RihgcnModel::from_dataset(&ds, cfg.unidirectional());
        assert!(uni.num_parameters() < bi.num_parameters());
    }

    #[test]
    fn training_step_reduces_loss_on_one_sample() {
        let (ds, cfg) = tiny_setup();
        let mut model = RihgcnModel::from_dataset(&ds, cfg);
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let mut adam = st_nn::Adam::new(&model.store, 5e-3);
        let before = model.loss(&sample);
        for _ in 0..15 {
            model.store.zero_grads();
            let _ = model.accumulate_gradients(&sample);
            model.store.clip_grad_norm(5.0);
            adam.step(&mut model.store);
        }
        let after = model.loss(&sample);
        assert!(
            after < before,
            "loss should fall when overfitting one sample: {before} → {after}"
        );
    }

    #[test]
    fn delayed_gradients_flow_into_imputation_path() {
        // With λ = 0 the imputation loss contributes nothing, yet the
        // estimation head must still receive gradients *through the
        // complement inputs of later steps* — the paper's core mechanism.
        let (ds, cfg) = tiny_setup();
        let mut model = RihgcnModel::from_dataset(&ds, cfg.with_lambda(0.0));
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let _ = model.accumulate_gradients(&sample);
        let est_grad = model
            .store
            .ids()
            .filter(|&id| model.store.name(id).starts_with("fwd.est"))
            .map(|id| model.store.grad(id).max_abs())
            .fold(0.0_f64, f64::max);
        assert!(
            est_grad > 0.0,
            "estimation head must get delayed gradients from the prediction loss"
        );
    }
}
