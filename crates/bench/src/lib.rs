//! Experiment harness reproducing every table and figure of the RIHGCN
//! paper.
//!
//! Each paper artefact has a dedicated binary (run with
//! `cargo run --release -p rihgcn-bench --bin <name>`):
//!
//! | binary             | paper artefact |
//! |--------------------|----------------|
//! | `table1_missing`   | Table I (upper): PeMS vs missing rate |
//! | `table1_horizon`   | Table I (lower): PeMS vs prediction length |
//! | `table2_stampede`  | Table II: Stampede vs prediction length |
//! | `table3_imputation`| RQ2: imputation vs Last/KNN/MF/TD |
//! | `fig3_graphs`      | Figure 3: geographic vs temporal graphs |
//! | `fig4_num_graphs`  | Figure 4: error vs number of temporal graphs |
//! | `fig5_lambda`      | Figure 5: error vs imputation-loss weight λ |
//!
//! The experiment scale is selected by the `RIHGCN_SCALE` environment
//! variable: `quick` (smoke test, seconds), `default` (minutes), or `full`
//! (tens of minutes). Everything is seeded and deterministic at a given
//! scale.

#![warn(missing_docs)]

use rihgcn_baselines::{
    AstgcnConfig, AstgcnLite, BaselineConfig, BaselineKind, DcrnnConfig, DcrnnLite,
    GraphWaveNetConfig, GraphWaveNetLite, HistoricalAverage, StBaseline, StgcnConfig, StgcnLite,
    VarModel,
};
use rihgcn_core::{
    evaluate_imputation, evaluate_prediction, fit, prepare_split, Forecaster, RihgcnConfig,
    RihgcnModel, TrainConfig,
};
use st_data::{
    generate_pems, generate_stampede, DatasetSplit, PemsConfig, StampedeConfig, TrafficDataset,
    WindowSample, WindowSampler, ZScore,
};
use st_nn::{ErrorAccum, Metrics};

pub mod alloc;
pub mod timing;

/// Experiment scale: dataset size, model capacity, training budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Scale label for report headers.
    pub name: &'static str,
    /// PeMS corridor sensors.
    pub pems_nodes: usize,
    /// Simulated days (both datasets).
    pub days: usize,
    /// GCN filter count.
    pub gcn_dim: usize,
    /// LSTM hidden width.
    pub lstm_dim: usize,
    /// Training epochs ceiling.
    pub epochs: usize,
    /// Early-stopping patience.
    pub patience: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Stride between training windows.
    pub stride: usize,
    /// Stride between evaluation windows.
    pub eval_stride: usize,
}

impl Scale {
    /// Seconds-long smoke-test scale (used by integration tests).
    pub fn quick() -> Self {
        Self {
            name: "quick",
            pems_nodes: 5,
            days: 4,
            gcn_dim: 4,
            lstm_dim: 6,
            epochs: 2,
            patience: 2,
            batch: 8,
            stride: 48,
            eval_stride: 48,
        }
    }

    /// Minutes-long default scale.
    pub fn default_scale() -> Self {
        Self {
            name: "default",
            pems_nodes: 12,
            days: 14,
            gcn_dim: 12,
            lstm_dim: 24,
            epochs: 30,
            patience: 8,
            batch: 16,
            stride: 8,
            eval_stride: 6,
        }
    }

    /// The most faithful (tens of minutes) scale.
    pub fn full() -> Self {
        Self {
            name: "full",
            pems_nodes: 20,
            days: 28,
            gcn_dim: 16,
            lstm_dim: 32,
            epochs: 40,
            patience: 10,
            batch: 32,
            stride: 3,
            eval_stride: 3,
        }
    }

    /// Reads `RIHGCN_SCALE` (`quick` / `default` / `full`), defaulting to
    /// [`Scale::default_scale`].
    pub fn from_env() -> Self {
        match std::env::var("RIHGCN_SCALE").as_deref() {
            Ok("quick") => Self::quick(),
            Ok("full") => Self::full(),
            _ => Self::default_scale(),
        }
    }

    /// Training configuration at this scale.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            max_epochs: self.epochs,
            patience: self.patience,
            batch_size: self.batch,
            ..Default::default()
        }
    }
}

/// A prepared experiment environment on one dataset: normalised split,
/// transform and window samples.
pub struct Bench {
    /// Normalised chronological split.
    pub norm: DatasetSplit,
    /// The fitted Z-score transform.
    pub z: ZScore,
    /// Training windows (normalised, hidden entries zeroed).
    pub train: Vec<WindowSample>,
    /// Validation windows.
    pub val: Vec<WindowSample>,
    /// Test windows.
    pub test: Vec<WindowSample>,
    /// The experiment scale.
    pub scale: Scale,
    /// History window length.
    pub history: usize,
    /// Forecast horizon.
    pub horizon: usize,
}

impl Bench {
    /// Prepares an experiment from a raw dataset (already carrying the
    /// desired missingness).
    pub fn prepare(ds: &TrafficDataset, scale: &Scale, history: usize, horizon: usize) -> Self {
        let split = ds.split_chronological();
        let (norm, z) = prepare_split(&split);
        let train_sampler = WindowSampler::new(history, horizon, scale.stride);
        let eval_sampler = WindowSampler::new(history, horizon, scale.eval_stride);
        Self {
            train: train_sampler.sample(&norm.train),
            val: eval_sampler.sample(&norm.val),
            test: eval_sampler.sample(&norm.test),
            norm,
            z,
            scale: scale.clone(),
            history,
            horizon,
        }
    }
}

/// Generates the synthetic PeMS dataset at a scale with extra missingness.
pub fn pems_at(scale: &Scale, missing_rate: f64, seed: u64) -> TrafficDataset {
    let ds = generate_pems(&PemsConfig {
        num_nodes: scale.pems_nodes,
        num_days: scale.days,
        seed,
        ..Default::default()
    });
    if missing_rate > 0.0 {
        ds.with_extra_missing(missing_rate, &mut st_tensor::rng(seed ^ 0x5eed))
    } else {
        ds
    }
}

/// Generates the synthetic Stampede dataset at a scale (its missingness is
/// intrinsic — no extra drops).
pub fn stampede_at(scale: &Scale, seed: u64) -> TrafficDataset {
    generate_stampede(&StampedeConfig {
        num_days: scale.days,
        seed,
        ..Default::default()
    })
}

/// Every prediction method in the paper's comparison, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Historical average.
    Ha,
    /// Vector autoregression (3 lags).
    Var,
    /// ASTGCN (reduced).
    Astgcn,
    /// Graph WaveNet (reduced).
    GraphWaveNet,
    /// One of the six FC/GCN/LSTM family members.
    Baseline(BaselineKind),
    /// DCRNN (reduced) — an extra comparator beyond the paper's roster.
    Dcrnn,
    /// STGCN (reduced) — an extra comparator beyond the paper's roster.
    Stgcn,
    /// The paper's model.
    Rihgcn,
}

impl Method {
    /// Paper-style row label.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Ha => "HA",
            Method::Var => "VAR",
            Method::Astgcn => "ASTGCN",
            Method::GraphWaveNet => "Graph WaveNet",
            Method::Baseline(kind) => kind.name(),
            Method::Dcrnn => "DCRNN",
            Method::Stgcn => "STGCN",
            Method::Rihgcn => "RIHGCN",
        }
    }

    /// The full Table-I/II roster, in paper order.
    pub fn roster() -> Vec<Method> {
        let mut out = vec![
            Method::Ha,
            Method::Var,
            Method::Astgcn,
            Method::GraphWaveNet,
        ];
        out.extend(BaselineKind::all().into_iter().map(Method::Baseline));
        out.push(Method::Rihgcn);
        out
    }
}

/// Trains (when applicable) and evaluates one method on a prepared bench,
/// returning test MAE/RMSE in original units over the full horizon.
pub fn run_method(method: Method, bench: &Bench, temporal_graphs: usize) -> Metrics {
    run_method_horizons(method, bench, temporal_graphs, &[bench.horizon])[0]
}

/// Like [`run_method`] but reports metrics over several horizon prefixes
/// (e.g. 15/30/45/60 minutes = 3/6/9/12 steps) from one trained model.
pub fn run_method_horizons(
    method: Method,
    bench: &Bench,
    temporal_graphs: usize,
    horizons: &[usize],
) -> Vec<Metrics> {
    let scale = &bench.scale;
    let tc = scale.train_config();
    // All samples are in normalised space where hidden entries are zero —
    // i.e. already filled with the global per-feature mean, the paper's
    // preprocessing for every non-imputing model. Imputing models replace
    // those zeros with their own recurrent estimates internally.
    let (train, val, test) = (&bench.train, &bench.val, &bench.test);

    match method {
        Method::Ha => {
            let ha = HistoricalAverage::fit(&bench.norm.train, bench.horizon);
            evaluate_horizons(&ha, test, &bench.z, horizons)
        }
        Method::Var => match VarModel::fit(&bench.norm.train, 3, bench.horizon) {
            Ok(var) => evaluate_horizons(&var, test, &bench.z, horizons),
            Err(_) => vec![
                Metrics {
                    mae: f64::NAN,
                    rmse: f64::NAN
                };
                horizons.len()
            ],
        },
        Method::Astgcn => {
            let cfg = AstgcnConfig {
                gcn_dim: scale.gcn_dim,
                history: bench.history,
                horizon: bench.horizon,
                ..Default::default()
            };
            let mut model = AstgcnLite::from_dataset(&bench.norm.train, cfg);
            fit(&mut model, train, val, &tc);
            evaluate_horizons(&model, test, &bench.z, horizons)
        }
        Method::GraphWaveNet => {
            let cfg = GraphWaveNetConfig {
                hidden_dim: scale.gcn_dim,
                history: bench.history,
                horizon: bench.horizon,
                ..Default::default()
            };
            let mut model = GraphWaveNetLite::from_dataset(&bench.norm.train, cfg);
            fit(&mut model, train, val, &tc);
            evaluate_horizons(&model, test, &bench.z, horizons)
        }
        Method::Baseline(kind) => {
            let cfg = BaselineConfig {
                gcn_dim: scale.gcn_dim,
                lstm_dim: scale.lstm_dim,
                history: bench.history,
                horizon: bench.horizon,
                ..Default::default()
            };
            let mut model = StBaseline::from_dataset(&bench.norm.train, kind, cfg);
            fit(&mut model, train, val, &tc);
            evaluate_horizons(&model, test, &bench.z, horizons)
        }
        Method::Dcrnn => {
            let cfg = DcrnnConfig {
                hidden_dim: scale.gcn_dim,
                history: bench.history,
                horizon: bench.horizon,
                ..Default::default()
            };
            let mut model = DcrnnLite::from_dataset(&bench.norm.train, cfg);
            fit(&mut model, train, val, &tc);
            evaluate_horizons(&model, test, &bench.z, horizons)
        }
        Method::Stgcn => {
            let cfg = StgcnConfig {
                hidden_dim: scale.gcn_dim,
                history: bench.history,
                horizon: bench.horizon,
                ..Default::default()
            };
            let mut model = StgcnLite::from_dataset(&bench.norm.train, cfg);
            fit(&mut model, train, val, &tc);
            evaluate_horizons(&model, test, &bench.z, horizons)
        }
        Method::Rihgcn => {
            let model = train_rihgcn(bench, temporal_graphs, 1.0);
            evaluate_horizons(&model, test, &bench.z, horizons)
        }
    }
}

/// Trains RIHGCN on a prepared bench with the given number of temporal
/// graphs and λ (shared by the figure studies).
pub fn train_rihgcn(bench: &Bench, temporal_graphs: usize, lambda: f64) -> RihgcnModel {
    let scale = &bench.scale;
    let cfg = RihgcnConfig {
        gcn_dim: scale.gcn_dim,
        lstm_dim: scale.lstm_dim,
        num_temporal_graphs: temporal_graphs,
        history: bench.history,
        horizon: bench.horizon,
        lambda,
        ..Default::default()
    };
    let mut model = RihgcnModel::from_dataset(&bench.norm.train, cfg);
    let tc = scale.train_config();
    fit(&mut model, &bench.train, &bench.val, &tc);
    model
}

/// Scores a forecaster at several horizon prefixes (in steps) in one pass.
pub fn evaluate_horizons<M: Forecaster>(
    model: &M,
    samples: &[WindowSample],
    z: &ZScore,
    horizons: &[usize],
) -> Vec<Metrics> {
    let mut accs = vec![ErrorAccum::new(); horizons.len()];
    for sample in samples {
        let preds = model.predict(sample);
        for (slot, &h) in horizons.iter().enumerate() {
            for step in 0..h.min(preds.len()) {
                let pred_raw = z.invert_matrix(&preds[step]);
                let target_raw = z.invert_matrix(&sample.targets[step]);
                accs[slot].update(&pred_raw, &target_raw, Some(&sample.target_masks[step]));
            }
        }
    }
    accs.iter().map(ErrorAccum::summary).collect()
}

/// Imputation metrics of a trained RIHGCN on the bench's test windows.
pub fn rihgcn_imputation(model: &RihgcnModel, bench: &Bench) -> Metrics {
    evaluate_imputation(model, &bench.test, &bench.z)
}

/// Prediction metrics of a trained RIHGCN on the bench's test windows.
pub fn rihgcn_prediction(model: &RihgcnModel, bench: &Bench) -> Metrics {
    evaluate_prediction(model, &bench.test, &bench.z)
}

/// Prints a metrics table: one row per method, `MAE`/`RMSE` pairs per
/// column group.
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<Metrics>)]) {
    println!("\n=== {title} ===");
    print!("{:<16}", "Method");
    for c in columns {
        print!(" | {:^19}", c);
    }
    println!();
    print!("{:<16}", "");
    for _ in columns {
        print!(" | {:>9} {:>9}", "MAE", "RMSE");
    }
    println!();
    let width = 16 + columns.len() * 22;
    println!("{}", "-".repeat(width));
    for (name, metrics) in rows {
        print!("{name:<16}");
        for m in metrics {
            print!(" | {:>9.4} {:>9.4}", m.mae, m.rmse);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Scale::quick();
        let d = Scale::default_scale();
        let f = Scale::full();
        assert!(q.days < d.days && d.days < f.days);
        assert!(q.epochs <= d.epochs && d.epochs <= f.epochs);
    }

    #[test]
    fn roster_matches_paper_rows() {
        let roster = Method::roster();
        assert_eq!(roster.len(), 11);
        assert_eq!(roster[0].name(), "HA");
        assert_eq!(roster.last().unwrap().name(), "RIHGCN");
    }

    #[test]
    fn quick_bench_prepares_windows() {
        let scale = Scale::quick();
        let ds = pems_at(&scale, 0.4, 1);
        let bench = Bench::prepare(&ds, &scale, 6, 3);
        assert!(!bench.train.is_empty());
        assert!(!bench.test.is_empty());
        assert_eq!(bench.train[0].history_len(), 6);
        assert_eq!(bench.train[0].horizon_len(), 3);
    }

    #[test]
    fn dcrnn_method_runs() {
        let scale = Scale::quick();
        let ds = pems_at(&scale, 0.3, 3);
        let bench = Bench::prepare(&ds, &scale, 6, 3);
        let m = run_method(Method::Dcrnn, &bench, 0);
        assert!(m.mae.is_finite() && m.mae > 0.0);
        assert_eq!(Method::Dcrnn.name(), "DCRNN");
        // DCRNN is an extension: not in the paper's roster.
        assert!(!Method::roster().contains(&Method::Dcrnn));
    }

    #[test]
    fn stgcn_method_runs() {
        let scale = Scale::quick();
        let ds = pems_at(&scale, 0.3, 4);
        let bench = Bench::prepare(&ds, &scale, 6, 3);
        let m = run_method(Method::Stgcn, &bench, 0);
        assert!(m.mae.is_finite() && m.mae > 0.0);
        assert!(!Method::roster().contains(&Method::Stgcn));
    }

    #[test]
    fn ha_runs_end_to_end_quickly() {
        let scale = Scale::quick();
        let ds = pems_at(&scale, 0.2, 2);
        let bench = Bench::prepare(&ds, &scale, 6, 3);
        let m = run_method(Method::Ha, &bench, 0);
        assert!(m.mae.is_finite() && m.mae > 0.0);
        let per_h = run_method_horizons(Method::Ha, &bench, 0, &[1, 3]);
        assert_eq!(per_h.len(), 2);
    }
}
