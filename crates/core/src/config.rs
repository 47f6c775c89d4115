//! Model and training configuration.

/// Hyper-parameters of the RIHGCN model.
///
/// Defaults follow the paper (§IV-B3) scaled to CPU-friendly sizes; the
/// paper's exact sizes (`gcn_dim = 64`, `lstm_dim = 128`) are available via
/// [`RihgcnConfig::paper_scale`].
///
/// # Examples
///
/// ```
/// use rihgcn_core::RihgcnConfig;
///
/// let cfg = RihgcnConfig::default()
///     .with_num_temporal_graphs(8)
///     .with_lambda(1.0);
/// assert_eq!(cfg.num_temporal_graphs, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RihgcnConfig {
    /// GCN filter count `F` (paper: 64).
    pub gcn_dim: usize,
    /// LSTM hidden width `q` (paper: 128).
    pub lstm_dim: usize,
    /// Chebyshev polynomial order `K` (paper: 3).
    pub cheb_k: usize,
    /// Number of temporal graphs `M` (paper default 4, best 8 in Fig. 4).
    pub num_temporal_graphs: usize,
    /// History window length `T` (paper: 12 = 1 hour).
    pub history: usize,
    /// Forecast horizon `T'` (paper: up to 12).
    pub horizon: usize,
    /// Imputation-loss weight `λ` (paper studies 1e-4…10; ~1 works well).
    pub lambda: f64,
    /// Temperature of the interval soft-membership weights.
    pub tau: f64,
    /// Adjacency sparsity threshold `ε` (paper: 0.1).
    pub epsilon: f64,
    /// Time-series distance used to build the temporal graphs (paper: DTW;
    /// ERP and LCSS are named as alternatives in §III-D).
    pub distance: st_graph::SeriesDistance,
    /// Whether to run the bi-directional recurrent imputation (paper: yes).
    pub bidirectional: bool,
    /// Weight of the forward/backward consistency term inside `L_m`
    /// (paper: 1; set 0 for the ablation).
    pub consistency_weight: f64,
    /// How the per-step hidden states are aggregated for prediction
    /// (paper §III-F: concatenation or attention).
    pub head: PredictionHead,
    /// Parameter-initialisation seed.
    pub seed: u64,
}

/// Aggregation of the hidden states `Z_1..Z_T` feeding the prediction FC
/// (the paper offers both: "we can concatenate hidden states Z_i in Z or
/// use attention mechanism to obtain a weighted sum").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictionHead {
    /// Concatenate all `T` hidden states (the default).
    #[default]
    Concat,
    /// Learned softmax attention over the `T` hidden states.
    Attention,
}

impl Default for RihgcnConfig {
    fn default() -> Self {
        Self {
            gcn_dim: 12,
            lstm_dim: 24,
            cheb_k: 3,
            num_temporal_graphs: 4,
            history: 12,
            horizon: 12,
            lambda: 1.0,
            tau: 6.0,
            epsilon: 0.1,
            distance: st_graph::SeriesDistance::Dtw,
            bidirectional: true,
            consistency_weight: 1.0,
            head: PredictionHead::Concat,
            seed: 17,
        }
    }
}

impl RihgcnConfig {
    /// The paper's full-size configuration (64 GCN filters, 128 LSTM units).
    pub fn paper_scale() -> Self {
        Self {
            gcn_dim: 64,
            lstm_dim: 128,
            ..Self::default()
        }
    }

    /// Sets the number of temporal graphs `M`.
    pub fn with_num_temporal_graphs(mut self, m: usize) -> Self {
        self.num_temporal_graphs = m;
        self
    }

    /// Sets the imputation-loss weight `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the RNG seed for parameter initialisation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables the backward pass (ablation).
    pub fn unidirectional(mut self) -> Self {
        self.bidirectional = false;
        self
    }

    /// Sets the consistency-term weight (0 disables the term).
    pub fn with_consistency_weight(mut self, w: f64) -> Self {
        self.consistency_weight = w;
        self
    }

    /// Selects the prediction-head aggregation.
    pub fn with_head(mut self, head: PredictionHead) -> Self {
        self.head = head;
        self
    }

    /// Selects the temporal-graph series distance (DTW / ERP / LCSS).
    pub fn with_distance(mut self, distance: st_graph::SeriesDistance) -> Self {
        self.distance = distance;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `λ`, `τ` are non-positive where
    /// positivity is required.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }

    /// [`RihgcnConfig::validate`] as a `Result`, for configs read from
    /// untrusted input (checkpoint files) that must fail without a panic.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let rules = [
            (self.gcn_dim > 0, "gcn_dim must be positive"),
            (self.lstm_dim > 0, "lstm_dim must be positive"),
            (self.cheb_k > 0, "cheb_k must be positive"),
            (self.history > 0, "history must be positive"),
            (self.horizon > 0, "horizon must be positive"),
            (self.lambda >= 0.0, "lambda must be non-negative"),
            (
                self.consistency_weight >= 0.0,
                "consistency weight must be non-negative",
            ),
            (self.tau > 0.0, "tau must be positive"),
            (
                (0.0..=1.0).contains(&self.epsilon),
                "epsilon must be in [0, 1]",
            ),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some(&(_, msg)) => Err(msg),
            None => Ok(()),
        }
    }
}

/// Training-loop configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f64,
    /// Maximum epochs (early stopping usually fires first).
    pub max_epochs: usize,
    /// Samples per gradient step (paper: 64).
    pub batch_size: usize,
    /// Global gradient-norm clip.
    pub clip_norm: f64,
    /// Early-stopping patience in epochs (paper: 6).
    pub patience: usize,
    /// Shuffling seed.
    pub seed: u64,
    /// Print per-epoch progress to stderr.
    pub verbose: bool,
    /// Worker threads for the parallel kernels: `0` inherits the ambient
    /// setting (`ST_NUM_THREADS` or available parallelism). Training
    /// results are bit-identical for any value (see the `st-par` crate).
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 1e-3,
            max_epochs: 30,
            batch_size: 16,
            clip_norm: 5.0,
            patience: 6,
            seed: 23,
            verbose: false,
            threads: 0,
        }
    }
}

impl TrainConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range.
    pub fn validate(&self) {
        assert!(self.learning_rate > 0.0, "learning rate must be positive");
        assert!(self.max_epochs > 0, "max_epochs must be positive");
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(self.clip_norm > 0.0, "clip_norm must be positive");
        assert!(self.patience > 0, "patience must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        RihgcnConfig::default().validate();
        TrainConfig::default().validate();
        RihgcnConfig::paper_scale().validate();
    }

    #[test]
    fn builder_chain() {
        let cfg = RihgcnConfig::default()
            .with_num_temporal_graphs(8)
            .with_lambda(0.5)
            .with_seed(99)
            .unidirectional();
        assert_eq!(cfg.num_temporal_graphs, 8);
        assert_eq!(cfg.lambda, 0.5);
        assert_eq!(cfg.seed, 99);
        assert!(!cfg.bidirectional);
    }

    #[test]
    fn head_and_consistency_builders() {
        let cfg = RihgcnConfig::default()
            .with_head(PredictionHead::Attention)
            .with_consistency_weight(0.0);
        assert_eq!(cfg.head, PredictionHead::Attention);
        assert_eq!(cfg.consistency_weight, 0.0);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "tau")]
    fn invalid_tau_rejected() {
        let mut cfg = RihgcnConfig::default();
        cfg.tau = 0.0;
        cfg.validate();
    }

    #[test]
    fn threads_defaults_to_inherit() {
        assert_eq!(TrainConfig::default().threads, 0);
    }

    #[test]
    fn paper_scale_sizes() {
        let cfg = RihgcnConfig::paper_scale();
        assert_eq!(cfg.gcn_dim, 64);
        assert_eq!(cfg.lstm_dim, 128);
        assert_eq!(cfg.cheb_k, 3);
    }
}
