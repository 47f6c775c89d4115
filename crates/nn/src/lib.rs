//! Neural-network building blocks for the RIHGCN reproduction.
//!
//! Built directly on the `st-autodiff` tape:
//!
//! * [`ParamStore`] / [`Session`] / [`SessionSlot`] — parameter ownership,
//!   per-pass tape binding and the per-model recycled session;
//! * [`Linear`], [`LstmCell`], [`ChebGcn`], [`HgcnBlock`] — the layers the
//!   paper's model and every deep baseline are assembled from;
//! * [`Adam`] with [`ParamStore::clip_grad_norm`] — the paper's optimiser
//!   (lr 0.001, gradient clipping);
//! * [`ErrorAccum`] / [`Metrics`] — MAE/RMSE scoring with masks;
//! * [`EarlyStopping`] — patience-6 early stopping.
//!
//! # Examples
//!
//! ```
//! use st_nn::{Adam, Linear, ParamStore, Session};
//! use st_tensor::{rng, Matrix};
//!
//! // One gradient step on a tiny regression.
//! let mut store = ParamStore::new();
//! let layer = Linear::new(&mut store, &mut rng(0), 1, 1, "reg");
//! let mut adam = Adam::new(&store, 0.01);
//!
//! let mut sess = Session::new(&store);
//! let x = sess.constant(Matrix::from_rows(&[&[1.0], &[2.0]]));
//! let y = layer.forward(&mut sess, &store, x);
//! let target = sess.constant(Matrix::from_rows(&[&[3.0], &[5.0]]));
//! let loss = sess.tape.mse(y, target);
//! sess.backward(loss);
//! sess.write_grads(&mut store);
//! adam.step(&mut store);
//! ```

#![warn(missing_docs)]

mod adam;
mod gcn;
mod hgcn;
mod linear;
mod lstm;
mod metrics;
mod params;
mod stopping;

pub use adam::Adam;
pub use gcn::{Activation, ChebBasis, ChebGcn};
pub use hgcn::HgcnBlock;
pub use linear::Linear;
pub use lstm::{LstmCell, LstmState};
pub use metrics::{mae, mape, rmse, ErrorAccum, Metrics};
pub use params::{ParamId, ParamStore, Session, SessionSlot};
pub use stopping::{EarlyStopping, StopDecision};
