//! RIHGCN — Recurrent-Imputation Heterogeneous Graph Convolution Network.
//!
//! From-scratch Rust reproduction of *"Heterogeneous Spatio-Temporal Graph
//! Convolution Network for Traffic Forecasting with Missing Values"*
//! (Zhong et al., ICDCS 2021). The model jointly imputes missing sensor
//! values and forecasts future traffic:
//!
//! * **recurrent imputation** — at each step the input is the *complement*
//!   `X̄ = M⊙X + (1−M)⊙X̂` of observations and the model's own estimate,
//!   with the estimate kept on the autodiff tape so prediction errors flow
//!   back into earlier imputations;
//! * **heterogeneous GCN** — a geographic Chebyshev GCN plus one GCN per
//!   time-of-day interval (intervals chosen by constrained DTW-distance
//!   maximisation, temporal graphs built from historical-profile
//!   similarities);
//! * **bi-directional** passes with a consistency term, trained jointly
//!   with the forecast loss: `L = L_c + λ·L_m`.
//!
//! # Examples
//!
//! ```no_run
//! use rihgcn_core::{fit, prepare_split, evaluate_prediction, RihgcnConfig, RihgcnModel, TrainConfig};
//! use st_data::{generate_pems, PemsConfig, WindowSampler};
//!
//! let ds = generate_pems(&PemsConfig::default());
//! let (norm, z) = prepare_split(&ds.split_chronological());
//! let mut model = RihgcnModel::from_dataset(&norm.train, RihgcnConfig::default());
//!
//! let sampler = WindowSampler::paper_default();
//! let train = sampler.sample(&norm.train);
//! let val = sampler.sample(&norm.val);
//! let report = fit(&mut model, &train, &val, &TrainConfig::default());
//! println!("stopped after {} epochs", report.epochs());
//!
//! let test = sampler.sample(&norm.test);
//! println!("{}", evaluate_prediction(&model, &test, &z));
//! ```

#![warn(missing_docs)]

mod config;
mod model;
mod observe;
mod online;
mod persist;
mod trainer;

pub use config::{PredictionHead, RihgcnConfig, TrainConfig};
pub use model::{BatchedWindow, RihgcnModel, SampleOutput};
pub use observe::{EpochStats, JsonlObserver, NullObserver, StderrPretty, TrainObserver};
pub use online::{OnlineForecaster, PushError, WindowSnapshot};
pub use persist::{load_checkpoint, save_checkpoint, PersistError};
pub use trainer::{
    evaluate_imputation, evaluate_prediction, fit, fit_with_observer, prepare_split, Forecaster,
    Imputer, TrainReport,
};
