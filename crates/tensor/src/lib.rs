//! Dense linear-algebra substrate for the RIHGCN reproduction.
//!
//! This crate provides the small, dependency-free numerical kernel the rest
//! of the workspace is built on:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the elementwise,
//!   product and reduction operations the autodiff tape and NN layers need;
//! * [`Tensor3`] — `N × D × T` spatio-temporal data cubes;
//! * [`linalg`] — Gaussian elimination, least squares and a
//!   power-iteration eigenvalue bound;
//! * seeded random initialisation helpers ([`rng`], [`xavier_matrix`], …).
//!
//! # Examples
//!
//! ```
//! use st_tensor::{linalg, Matrix};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
//! let b = Matrix::col_vector(&[2.0, 8.0]);
//! let x = linalg::solve(&a, &b)?;
//! assert_eq!(x, Matrix::col_vector(&[1.0, 2.0]));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod linalg;
mod matrix;
mod parallel;
mod pool;
mod random;
mod rng;
pub mod stats;
mod tensor3;

pub use linalg::SolveError;
pub use matrix::{Matrix, KC, MR, NR};
pub use parallel::{parallel_threshold, set_parallel_threshold, DEFAULT_PARALLEL_THRESHOLD};
pub use pool::{MatrixPool, PoolStats};
pub use random::{rng, standard_normal, uniform_matrix, xavier_matrix};
pub use rng::{splitmix64, SampleRange, StRng};
pub use tensor3::Tensor3;
