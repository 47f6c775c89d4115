//! Traffic datasets for the RIHGCN reproduction.
//!
//! The paper evaluates on two datasets that this crate reproduces
//! synthetically (the originals are respectively large/external and
//! private — see `DESIGN.md` for the substitution argument):
//!
//! * [`generate_pems`] — a PeMS-like static-sensor corridor: 5-minute
//!   speeds, four features, rush-hour congestion waves, weekly cycles and
//!   incidents; missingness is injected afterwards per the Table-I
//!   protocol ([`drop_observed`] / [`TrafficDataset::with_extra_missing`]);
//! * [`generate_stampede`] — a Stampede-like roving-sensor loop: travel
//!   times observed only when a simulated shuttle fleet traverses a
//!   segment, yielding the bursty ~70–90% missingness of the private
//!   dataset.
//!
//! Supporting machinery: [`TrafficDataset`] (values + mask + network),
//! [`ZScore`] normalisation over observed entries, masking utilities,
//! [`WindowSampler`] for 12-in/12-out sequence windows, and
//! [`DayProfiles`] for historical time-of-day averages feeding the
//! temporal-graph construction.
//!
//! # Examples
//!
//! ```
//! use st_data::{generate_pems, PemsConfig, WindowSampler};
//!
//! let ds = generate_pems(&PemsConfig { num_nodes: 4, num_days: 2, ..Default::default() });
//! let split = ds.split_chronological();
//! let windows = WindowSampler::paper_default().sample(&split.train);
//! assert!(!windows.is_empty());
//! ```

#![warn(missing_docs)]

mod csv;
mod dataset;
mod masking;
mod normalize;
mod pems;
mod profiles;
mod quality;
mod stampede;
mod window;

pub use csv::{read_csv, write_csv, CsvError};
pub use dataset::{DatasetSplit, TrafficDataset};
pub use masking::{drop_observed, holdout_split, mean_fill, missing_rate};
pub use normalize::ZScore;
pub use pems::{generate_pems, PemsConfig, PEMS_FEATURES};
pub use profiles::DayProfiles;
pub use quality::QualityReport;
pub use stampede::{generate_stampede, StampedeConfig};
pub use window::{WindowSample, WindowSampler};
