//! Adam optimiser (Kingma & Ba), the paper's optimiser of choice
//! (learning rate 0.001, gradient clipping).

use crate::ParamStore;
use st_tensor::Matrix;

/// Adam with bias-corrected first/second moment estimates.
///
/// # Examples
///
/// ```
/// use st_nn::{Adam, ParamStore};
/// use st_tensor::Matrix;
///
/// let mut store = ParamStore::new();
/// let p = store.add("p", Matrix::from_rows(&[&[1.0]]));
/// let mut adam = Adam::new(&store, 0.1);
/// store.accumulate_grad(p, &Matrix::from_rows(&[&[2.0]]));
/// adam.step(&mut store);
/// assert!(store.value(p)[(0, 0)] < 1.0); // moved against the gradient
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

/// First-moment decay β₁.
const BETA1: f64 = 0.9;
/// Second-moment decay β₂.
const BETA2: f64 = 0.999;
/// Denominator guard ε.
const EPS: f64 = 1e-8;

impl Adam {
    /// Creates an optimiser with the standard β₁ = 0.9, β₂ = 0.999,
    /// ε = 1e-8.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(store: &ParamStore, lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        let m = store
            .ids()
            .map(|id| {
                let (r, c) = store.value(id).shape();
                Matrix::zeros(r, c)
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Self { lr, t: 0, m, v }
    }

    /// Applies one update using the gradients accumulated in the store,
    /// then leaves the gradients untouched (call
    /// [`ParamStore::zero_grads`] before the next accumulation).
    ///
    /// # Panics
    ///
    /// Panics if the store gained or lost parameters since construction.
    pub fn step(&mut self, store: &mut ParamStore) {
        assert_eq!(
            store.len(),
            self.m.len(),
            "parameter set changed under the optimiser"
        );
        let params = store.len();
        let _span = st_obs::span!("nn.adam_step", params);
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        let ids: Vec<_> = store.ids().collect();
        for id in ids {
            // In-place update through the split value/grad borrow: no
            // per-parameter clones in the hot loop.
            let (value, grad) = store.value_grad_mut(id);
            let m = &mut self.m[id.index()];
            let v = &mut self.v[id.index()];
            for i in 0..grad.len() {
                let gi = grad.as_slice()[i];
                let mi = BETA1 * m.as_slice()[i] + (1.0 - BETA1) * gi;
                let vi = BETA2 * v.as_slice()[i] + (1.0 - BETA2) * gi * gi;
                m.as_mut_slice()[i] = mi;
                v.as_mut_slice()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                value.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // Minimise f(x) = (x − 3)² from x = 0.
        let mut store = ParamStore::new();
        let p = store.add("x", Matrix::from_rows(&[&[0.0]]));
        let mut adam = Adam::new(&store, 0.1);
        for _ in 0..300 {
            store.zero_grads();
            let x = store.value(p)[(0, 0)];
            store.accumulate_grad(p, &Matrix::from_rows(&[&[2.0 * (x - 3.0)]]));
            adam.step(&mut store);
        }
        let x = store.value(p)[(0, 0)];
        assert!((x - 3.0).abs() < 1e-2, "converged to {x}");
    }

    #[test]
    fn first_step_size_is_lr() {
        // With bias correction, the very first Adam step is ≈ lr for any
        // non-zero gradient.
        let mut store = ParamStore::new();
        let p = store.add("x", Matrix::from_rows(&[&[5.0]]));
        let mut adam = Adam::new(&store, 0.01);
        store.accumulate_grad(p, &Matrix::from_rows(&[&[123.0]]));
        adam.step(&mut store);
        let moved = 5.0 - store.value(p)[(0, 0)];
        assert!((moved - 0.01).abs() < 1e-6, "first step was {moved}");
    }

    #[test]
    fn zero_gradient_means_no_motion() {
        let mut store = ParamStore::new();
        let p = store.add("x", Matrix::from_rows(&[&[1.5]]));
        let mut adam = Adam::new(&store, 0.1);
        adam.step(&mut store);
        assert_eq!(store.value(p)[(0, 0)], 1.5);
    }

    #[test]
    fn handles_multiple_params_independently() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_rows(&[&[0.0]]));
        let b = store.add("b", Matrix::from_rows(&[&[0.0]]));
        let mut adam = Adam::new(&store, 0.05);
        for _ in 0..400 {
            store.zero_grads();
            let xa = store.value(a)[(0, 0)];
            let xb = store.value(b)[(0, 0)];
            store.accumulate_grad(a, &Matrix::from_rows(&[&[2.0 * (xa - 1.0)]]));
            store.accumulate_grad(b, &Matrix::from_rows(&[&[2.0 * (xb + 2.0)]]));
            adam.step(&mut store);
        }
        assert!((store.value(a)[(0, 0)] - 1.0).abs() < 1e-2);
        assert!((store.value(b)[(0, 0)] + 2.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "changed under")]
    fn detects_store_mutation() {
        let mut store = ParamStore::new();
        let _ = store.add("a", Matrix::zeros(1, 1));
        let mut adam = Adam::new(&store, 0.1);
        let _ = store.add("b", Matrix::zeros(1, 1));
        adam.step(&mut store);
    }
}
