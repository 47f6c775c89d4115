//! Baseline models for the RIHGCN comparison tables.
//!
//! Everything the paper compares against, reimplemented from scratch:
//!
//! * classical forecasters — [`HistoricalAverage`], [`VarModel`];
//! * the deep baseline family [`StBaseline`] covering FC-LSTM, FC-GCN,
//!   GCN-LSTM and their imputation-enhanced `-I` variants (one
//!   implementation, selected by [`BaselineKind`]);
//! * reduced comparators [`AstgcnLite`], [`GraphWaveNetLite`] and
//!   [`DcrnnLite`] / [`StgcnLite`];
//! * classical imputers — [`last_observed_fill`], [`knn_impute`],
//!   [`matrix_factorization_impute`] and [`cp_impute`] (the paper's
//!   Last / KNN / MF / TD rows).
//!
//! All deep models implement [`rihgcn_core::Forecaster`] and share the
//! core crate's training loop and evaluation path; non-imputing models
//! expect mean-filled inputs (see [`mean_fill_samples`]), mirroring the
//! paper's preprocessing.
//!
//! # Examples
//!
//! ```no_run
//! use rihgcn_baselines::{BaselineConfig, BaselineKind, StBaseline, mean_fill_samples};
//! use rihgcn_core::{fit, prepare_split, evaluate_prediction, TrainConfig};
//! use st_data::{generate_pems, PemsConfig, WindowSampler};
//!
//! let ds = generate_pems(&PemsConfig::default());
//! let (norm, z) = prepare_split(&ds.split_chronological());
//! let sampler = WindowSampler::paper_default();
//! let train = mean_fill_samples(&sampler.sample(&norm.train));
//!
//! let mut model = StBaseline::from_dataset(&norm.train, BaselineKind::GcnLstm, BaselineConfig::default());
//! fit(&mut model, &train, &[], &TrainConfig::default());
//! let test = mean_fill_samples(&sampler.sample(&norm.test));
//! println!("{}", evaluate_prediction(&model, &test, &z));
//! ```

#![warn(missing_docs)]

mod astgcn;
mod dcrnn;
mod graph_wavenet;
mod ha;
mod imputation;
mod stgcn;
mod stmodel;
mod var;

pub use astgcn::{AstgcnConfig, AstgcnLite};
pub use dcrnn::{DcrnnConfig, DcrnnLite};
pub use graph_wavenet::{GraphWaveNetConfig, GraphWaveNetLite};
pub use ha::HistoricalAverage;
pub use imputation::{cp_impute, knn_impute, last_observed_fill, matrix_factorization_impute};
pub use stgcn::{StgcnConfig, StgcnLite};
pub use stmodel::{mean_fill_sample, mean_fill_samples, BaselineConfig, BaselineKind, StBaseline};
pub use var::VarModel;
