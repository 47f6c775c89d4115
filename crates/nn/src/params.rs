//! Parameter storage and tape binding.
//!
//! Layers own [`ParamId`]s into a shared [`ParamStore`]; a [`Session`] wraps
//! one autodiff [`Tape`] forward pass, lazily binding each parameter onto
//! the tape the first time a layer uses it and collecting the gradients back
//! when the pass finishes. This keeps parameters alive across passes (the
//! tape is rebuilt every step, as in any dynamic-graph framework); a
//! [`SessionSlot`] parks one session per model so each pass re-records into
//! the previous pass's pooled buffers.

use st_autodiff::{Tape, Var};
use st_tensor::{Matrix, PoolStats};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Handle to one parameter matrix inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

impl ParamId {
    /// Raw index into the store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owning container for all trainable parameters of a model.
///
/// # Examples
///
/// ```
/// use st_nn::ParamStore;
/// use st_tensor::Matrix;
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Matrix::zeros(2, 3));
/// assert_eq!(store.value(w).shape(), (2, 3));
/// assert_eq!(store.num_scalars(), 6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Matrix>,
    grads: Vec<Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter, returning its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.names.push(name.into());
        self.values.push(value);
        self.grads.push(grad);
        ParamId(self.names.len() - 1)
    }

    /// Number of parameter matrices.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Current value of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Overwrites a parameter's value (shape must match).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the registered parameter.
    pub fn set_value(&mut self, id: ParamId, value: Matrix) {
        assert_eq!(
            self.values[id.0].shape(),
            value.shape(),
            "parameter shape is immutable"
        );
        self.values[id.0] = value;
    }

    /// Accumulated gradient of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    /// Mutable value plus gradient of a parameter, for in-place optimiser
    /// updates (values and gradients live in separate vectors, so the split
    /// borrow is safe).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store.
    pub fn value_grad_mut(&mut self, id: ParamId) -> (&mut Matrix, &Matrix) {
        (&mut self.values[id.0], &self.grads[id.0])
    }

    /// Name of a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this store.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// All parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// Zeroes every gradient buffer.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            for x in g.as_mut_slice() {
                *x = 0.0;
            }
        }
    }

    /// Adds `g` into the gradient buffer of `id`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.grads[id.0].axpy(1.0, g);
    }

    /// Multiplies every gradient by `scale` (e.g. to average over a batch).
    pub fn scale_grads(&mut self, scale: f64) {
        for g in &mut self.grads {
            for x in g.as_mut_slice() {
                *x *= scale;
            }
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f64 {
        self.grads
            .iter()
            .map(|g| g.as_slice().iter().map(|&x| x * x).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`
    /// (gradient clipping). Returns the pre-clip norm.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive.
    pub fn clip_grad_norm(&mut self, max_norm: f64) -> f64 {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let norm = self.grad_norm();
        if norm > max_norm {
            let scale = max_norm / norm;
            for g in &mut self.grads {
                for x in g.as_mut_slice() {
                    *x *= scale;
                }
            }
        }
        norm
    }

    /// Whether all values and gradients are finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(Matrix::is_finite) && self.grads.iter().all(Matrix::is_finite)
    }
}

/// One forward/backward pass: a tape plus the parameter bindings made on it.
///
/// Create with [`Session::new`], run layer `forward`s, call
/// [`Session::backward`], then [`Session::write_grads`] to push gradients
/// into the store.
#[derive(Debug)]
pub struct Session {
    /// The autodiff tape recording this pass.
    pub tape: Tape,
    bound: Vec<Option<Var>>,
}

impl Session {
    /// Starts a fresh pass over the given store.
    pub fn new(store: &ParamStore) -> Self {
        Self {
            tape: Tape::new(),
            bound: vec![None; store.len()],
        }
    }

    /// Recycles the session for another pass: the tape's node list and every
    /// matrix buffer return to its pool, and the parameter bindings are
    /// cleared. At steady state the next pass re-records the same graph
    /// without heap allocation, bit-identical to a fresh session.
    pub fn reset(&mut self, store: &ParamStore) {
        self.tape.reset();
        self.bound.clear();
        self.bound.resize(store.len(), None);
    }

    /// The tape variable for a parameter, binding it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the store this session was created
    /// for.
    pub fn var(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.index()] {
            return v;
        }
        let v = self.tape.parameter_ref(store.value(id));
        self.bound[id.index()] = Some(v);
        v
    }

    /// Records a constant on the tape.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.tape.constant(value)
    }

    /// Records a constant by copying `value` into a pooled tape buffer.
    pub fn constant_ref(&mut self, value: &Matrix) -> Var {
        self.tape.constant_ref(value)
    }

    /// Records an all-zero constant in a pooled tape buffer.
    pub fn constant_zeros(&mut self, rows: usize, cols: usize) -> Var {
        self.tape.constant_zeros(rows, cols)
    }

    /// Runs the backward sweep from `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar.
    pub fn backward(&mut self, loss: Var) {
        self.tape.backward(loss);
    }

    /// Accumulates the tape gradients of every bound parameter into the
    /// store's gradient buffers.
    pub fn write_grads(&self, store: &mut ParamStore) {
        for (idx, bound) in self.bound.iter().enumerate() {
            if let Some(var) = bound {
                // A `None` gradient is exactly zero; skipping the
                // accumulation leaves the store buffer bit-identical.
                if let Some(g) = self.tape.grad_ref(*var) {
                    store.accumulate_grad(ParamId(idx), g);
                }
            }
        }
    }
}

/// One model's parked [`Session`], recycled across every tape run the
/// model makes — training steps, loss evaluation, prediction, imputation
/// and serving alike — so at steady state a run re-records its graph into
/// the pooled buffers of the previous one instead of allocating afresh.
///
/// The lock is held only inside [`take`](Self::take) and
/// [`put`](Self::put), never during a run. Two threads running one model
/// at once never block each other: whichever finds the slot empty builds a
/// fresh session (same bits, cold-pool cost), and the last `put` wins. A
/// run that panics simply never puts its session back.
///
/// # Examples
///
/// ```
/// use st_nn::{ParamStore, SessionSlot};
/// use st_tensor::Matrix;
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Matrix::ones(2, 2));
/// let slot = SessionSlot::default();
/// assert!(slot.pool_stats().is_none());
/// for _ in 0..2 {
///     let sum = slot.with(&store, |sess| {
///         let v = sess.var(&store, w);
///         let s = sess.tape.sum(v);
///         sess.tape.value(s)[(0, 0)]
///     });
///     assert_eq!(sum, 4.0);
/// }
/// assert!(slot.pool_stats().expect("parked after a run").hits > 0);
/// ```
#[derive(Debug, Default)]
pub struct SessionSlot {
    parked: Mutex<Option<Session>>,
}

impl SessionSlot {
    /// Pops the parked session and [`reset`](Session::reset)s it for
    /// `store`, or builds a fresh one when the slot is empty.
    pub fn take(&self, store: &ParamStore) -> Session {
        let parked = self.lock().take();
        match parked {
            Some(mut sess) => {
                sess.reset(store);
                sess
            }
            None => Session::new(store),
        }
    }

    /// Parks `sess` for the next [`take`](Self::take).
    pub fn put(&self, sess: Session) {
        // A session a concurrent run parked meanwhile is dropped here,
        // after the lock is released.
        let _displaced = self.lock().replace(sess);
    }

    /// Take → `f` → put: one tape run on the recycled session.
    pub fn with<R>(&self, store: &ParamStore, f: impl FnOnce(&mut Session) -> R) -> R {
        let mut sess = self.take(store);
        let out = f(&mut sess);
        self.put(sess);
        out
    }

    /// Buffer-pool statistics of the parked session's tape (`None` before
    /// the first run, or while the only session is out on a run).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.lock().as_ref().map(|s| s.tape.pool_stats())
    }

    /// Bytes parked in the pooled free lists (`None` exactly when
    /// [`pool_stats`](Self::pool_stats) is).
    pub fn pool_free_bytes(&self) -> Option<usize> {
        self.lock().as_ref().map(|s| s.tape.pool_free_bytes())
    }

    /// Every critical section is one `Option` move that leaves the slot
    /// valid, so a poisoned lock is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Option<Session>> {
        self.parked.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_access() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::ones(2, 2));
        let b = store.add("b", Matrix::zeros(1, 3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 7);
        assert_eq!(store.name(a), "a");
        assert_eq!(store.value(b).shape(), (1, 3));
        assert_eq!(store.ids().count(), 2);
    }

    #[test]
    #[should_panic(expected = "immutable")]
    fn set_value_rejects_shape_change() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::ones(2, 2));
        store.set_value(a, Matrix::ones(3, 3));
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::ones(1, 2));
        store.accumulate_grad(a, &Matrix::from_rows(&[&[1.0, 2.0]]));
        store.accumulate_grad(a, &Matrix::from_rows(&[&[0.5, 0.5]]));
        assert_eq!(store.grad(a), &Matrix::from_rows(&[&[1.5, 2.5]]));
        store.zero_grads();
        assert_eq!(store.grad(a), &Matrix::zeros(1, 2));
    }

    #[test]
    fn clip_scales_down_only_when_needed() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::ones(1, 2));
        store.accumulate_grad(a, &Matrix::from_rows(&[&[3.0, 4.0]])); // norm 5
        let pre = store.clip_grad_norm(1.0);
        assert_eq!(pre, 5.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-12);
        // Already below the cap: untouched.
        let pre2 = store.clip_grad_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-12);
        assert!((store.grad_norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn session_binds_each_param_once() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::ones(1, 1));
        let mut sess = Session::new(&store);
        let v1 = sess.var(&store, a);
        let v2 = sess.var(&store, a);
        assert_eq!(v1, v2);
        assert_eq!(sess.tape.len(), 1);
    }

    #[test]
    fn session_round_trip_gradients() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_rows(&[&[2.0]]));
        let mut sess = Session::new(&store);
        let v = sess.var(&store, a);
        let sq = sess.tape.mul(v, v);
        let loss = sess.tape.sum(sq);
        sess.backward(loss);
        sess.write_grads(&mut store);
        assert_eq!(store.grad(a)[(0, 0)], 4.0); // d(x²)/dx = 2x = 4
                                                // A second pass accumulates on top.
        let mut sess2 = Session::new(&store);
        let v = sess2.var(&store, a);
        let sq = sess2.tape.mul(v, v);
        let loss = sess2.tape.sum(sq);
        sess2.backward(loss);
        sess2.write_grads(&mut store);
        assert_eq!(store.grad(a)[(0, 0)], 8.0);
    }

    #[test]
    fn unused_params_get_no_gradient() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::from_rows(&[&[2.0]]));
        let b = store.add("b", Matrix::from_rows(&[&[3.0]]));
        let mut sess = Session::new(&store);
        let v = sess.var(&store, a);
        let loss = sess.tape.sum(v);
        sess.backward(loss);
        sess.write_grads(&mut store);
        assert_eq!(store.grad(b)[(0, 0)], 0.0);
    }
}
