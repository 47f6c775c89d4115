//! Chebyshev spectral graph convolution layer (paper Eq. 1).
//!
//! `y = Σ_{k<K} T_k(L̃) · x · W_k + b`, the generalised multi-dimensional
//! graph convolution of Defferrard et al. used by the paper. The scaled
//! Laplacian `L̃` is supplied at `forward` time as a constant, so one layer
//! instance can serve different graphs of the same node count (not needed by
//! RIHGCN itself, which allocates one layer per graph, but useful for
//! ablations).

use crate::{ParamId, ParamStore, Session};
use st_autodiff::Var;
use st_tensor::{xavier_matrix, Matrix, StRng};

/// Activation applied by [`ChebGcn::forward`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit (the paper's choice for GCN blocks).
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No activation.
    Identity,
}

/// Precomputed Chebyshev polynomial basis `[T_0(L̃), …, T_{K−1}(L̃)]`.
///
/// [`ChebGcn::forward`] rebuilds the recurrence `T_k x` on the tape for
/// every sample; for a fixed graph the polynomials `T_k(L̃)` are constants,
/// so the HGCN block precomputes them once per graph at construction (the
/// per-temporal-graph fan-out parallelises across `st-par` workers) and
/// [`ChebGcn::forward_with_basis`] then needs one constant matmul per
/// order. Since the basis matrices carry no gradient, the tape also skips
/// their backward work.
///
/// # Examples
///
/// ```
/// use st_nn::ChebBasis;
/// use st_tensor::Matrix;
///
/// let basis = ChebBasis::new(&Matrix::identity(3), 3);
/// assert_eq!(basis.order(), 3);
/// assert_eq!(basis.matrices()[0], Matrix::identity(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChebBasis {
    matrices: Vec<Matrix>,
}

impl ChebBasis {
    /// Evaluates `T_0 … T_{k−1}` of the scaled Laplacian `L̃`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `scaled` is not square.
    pub fn new(scaled: &Matrix, k: usize) -> Self {
        assert!(k >= 1, "chebyshev order must be at least 1");
        let n = scaled.rows();
        assert_eq!(n, scaled.cols(), "scaled laplacian must be square");
        let _span = st_obs::span!("nn.cheb_basis", n, k);
        let mut matrices = Vec::with_capacity(k);
        matrices.push(Matrix::identity(n));
        if k >= 2 {
            matrices.push(scaled.clone());
        }
        for i in 2..k {
            // T_k = 2·L̃·T_{k−1} − T_{k−2}.
            let two_lt = scaled.matmul(&matrices[i - 1]).scale(2.0);
            matrices.push(&two_lt - &matrices[i - 2]);
        }
        Self { matrices }
    }

    /// Number of polynomials `K`.
    pub fn order(&self) -> usize {
        self.matrices.len()
    }

    /// Node count of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.matrices[0].rows()
    }

    /// The polynomial matrices `[T_0(L̃), …, T_{K−1}(L̃)]`.
    pub fn matrices(&self) -> &[Matrix] {
        &self.matrices
    }
}

/// A `K`-order Chebyshev graph convolution.
///
/// # Examples
///
/// ```
/// use st_nn::{Activation, ChebGcn, ParamStore, Session};
/// use st_graph::{gaussian_adjacency, scaled_laplacian_from_adjacency, RoadNetwork};
/// use st_tensor::{rng, Matrix};
///
/// let net = RoadNetwork::corridor(5, 1.0);
/// let adj = gaussian_adjacency(&net.distance_matrix(), None, 0.1);
/// let laplacian = scaled_laplacian_from_adjacency(&adj);
///
/// let mut store = ParamStore::new();
/// let gcn = ChebGcn::new(&mut store, &mut rng(0), 2, 8, 3, Activation::Relu, "gcn");
/// let mut sess = Session::new(&store);
/// let x = sess.constant(Matrix::ones(5, 2));
/// let y = gcn.forward(&mut sess, &store, &laplacian, x);
/// assert_eq!(sess.tape.value(y).shape(), (5, 8));
/// ```
#[derive(Debug, Clone)]
pub struct ChebGcn {
    weights: Vec<ParamId>, // K matrices, each in_dim × out_dim
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
    k: usize,
    activation: Activation,
}

impl ChebGcn {
    /// Creates a layer of Chebyshev order `k` (the paper uses `K = 3`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut StRng,
        in_dim: usize,
        out_dim: usize,
        k: usize,
        activation: Activation,
        name: &str,
    ) -> Self {
        assert!(k >= 1, "chebyshev order must be at least 1");
        let weights = (0..k)
            .map(|i| store.add(format!("{name}.w{i}"), xavier_matrix(rng, in_dim, out_dim)))
            .collect();
        let bias = store.add(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Self {
            weights,
            bias,
            in_dim,
            out_dim,
            k,
            activation,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Chebyshev order `K`.
    pub fn order(&self) -> usize {
        self.k
    }

    /// Applies the convolution over the graph described by `scaled`
    /// (the scaled Laplacian `L̃`, an `N × N` constant).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn forward(&self, sess: &mut Session, store: &ParamStore, scaled: &Matrix, x: Var) -> Var {
        let n = scaled.rows();
        assert_eq!(scaled.cols(), n, "scaled laplacian must be square");
        assert_eq!(
            sess.tape.value(x).rows(),
            n,
            "feature rows must match node count"
        );
        assert_eq!(
            sess.tape.value(x).cols(),
            self.in_dim,
            "gcn expects width {}",
            self.in_dim
        );

        let l = sess.constant_ref(scaled);
        // Chebyshev recurrence on the tape: T_0 x = x, T_1 x = L̃x,
        // T_k x = 2·L̃·T_{k−1}x − T_{k−2}x.
        let mut terms: Vec<Var> = Vec::with_capacity(self.k);
        terms.push(x);
        if self.k >= 2 {
            let t1 = sess.tape.matmul(l, x);
            terms.push(t1);
        }
        for i in 2..self.k {
            let lt = sess.tape.matmul(l, terms[i - 1]);
            let two_lt = sess.tape.scale(lt, 2.0);
            let tk = sess.tape.sub(two_lt, terms[i - 2]);
            terms.push(tk);
        }

        let mut acc: Option<Var> = None;
        for (term, &wid) in terms.iter().zip(&self.weights) {
            let w = sess.var(store, wid);
            let contribution = sess.tape.matmul(*term, w);
            acc = Some(match acc {
                Some(a) => sess.tape.add(a, contribution),
                None => contribution,
            });
        }
        let b = sess.var(store, self.bias);
        let pre = acc.expect("k >= 1 guarantees at least one term");
        let pre = sess.tape.add_bias(pre, b);
        match self.activation {
            Activation::Relu => sess.tape.relu(pre),
            Activation::Tanh => sess.tape.tanh(pre),
            Activation::Identity => pre,
        }
    }

    /// Like [`ChebGcn::forward`] but with the polynomials `T_k(L̃)`
    /// precomputed in a [`ChebBasis`], over a batch of `blocks` windows.
    ///
    /// Each term is a single constant matmul `T_k(L̃) · x` instead of a
    /// tape-level recurrence (`T_0 = I` skips the matmul entirely), which
    /// re-associates the recurrence: results agree with
    /// [`ChebGcn::forward`] to round-off (exactly for `K ≤ 2`).
    ///
    /// `x_stacked` is the row-stacked `(B·N) × in_dim` batch and `x_wide`
    /// its wide `N × (B·in_dim)` permutation (shared by every branch of an
    /// [`crate::HgcnBlock`], so the caller computes it once via
    /// `sess.tape.to_wide`). Each basis term runs as ONE packed-panel
    /// matmul `T_k(L̃) · x_wide` over all windows, then permutes back to
    /// the stacked layout; the weight products, bias and activation are
    /// row-local on the stack. Block `b` of the output is bit-identical to
    /// a one-window call on window `b` alone: matmul accumulates per
    /// output element in ascending `k` independent of the operand width,
    /// and the layout permutations are exact f64 moves. For a single
    /// window pass the same node as both `x_stacked` and `x_wide` with
    /// `blocks = 1`.
    ///
    /// # Panics
    ///
    /// Panics if the basis order is below `K` or shapes are inconsistent.
    pub fn forward_with_basis(
        &self,
        sess: &mut Session,
        store: &ParamStore,
        basis: &ChebBasis,
        x_stacked: Var,
        x_wide: Var,
        blocks: usize,
    ) -> Var {
        assert!(
            basis.order() >= self.k,
            "basis order {} below layer order {}",
            basis.order(),
            self.k
        );
        let n = basis.num_nodes();
        assert_eq!(
            sess.tape.value(x_stacked).shape(),
            (blocks * n, self.in_dim),
            "stacked batch must be (B·N) × in_dim"
        );
        assert_eq!(
            sess.tape.value(x_wide).shape(),
            (n, blocks * self.in_dim),
            "wide batch must be N × (B·in_dim)"
        );

        let mut acc: Option<Var> = None;
        for (order, &wid) in self.weights.iter().enumerate() {
            let term = if order == 0 {
                x_stacked
            } else {
                let t = sess.constant_ref(&basis.matrices()[order]);
                let propagated = sess.tape.matmul(t, x_wide);
                sess.tape.to_stacked(propagated, blocks)
            };
            let w = sess.var(store, wid);
            let contribution = sess.tape.matmul(term, w);
            acc = Some(match acc {
                Some(a) => sess.tape.add(a, contribution),
                None => contribution,
            });
        }
        let b = sess.var(store, self.bias);
        let pre = acc.expect("k >= 1 guarantees at least one term");
        let pre = sess.tape.add_bias(pre, b);
        match self.activation {
            Activation::Relu => sess.tape.relu(pre),
            Activation::Tanh => sess.tape.tanh(pre),
            Activation::Identity => pre,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_autodiff::check_gradient;
    use st_graph::{gaussian_adjacency, scaled_laplacian_from_adjacency, RoadNetwork};
    use st_tensor::rng;

    fn laplacian(n: usize) -> Matrix {
        let net = RoadNetwork::corridor(n, 1.0);
        let adj = gaussian_adjacency(&net.distance_matrix(), None, 0.1);
        scaled_laplacian_from_adjacency(&adj)
    }

    #[test]
    fn forward_shape_and_finite() {
        let mut store = ParamStore::new();
        let gcn = ChebGcn::new(&mut store, &mut rng(1), 3, 5, 3, Activation::Relu, "g");
        let mut sess = Session::new(&store);
        let x = sess.constant(Matrix::ones(4, 3));
        let y = gcn.forward(&mut sess, &store, &laplacian(4), x);
        assert_eq!(sess.tape.value(y).shape(), (4, 5));
        assert!(sess.tape.value(y).is_finite());
    }

    #[test]
    fn information_propagates_to_neighbours() {
        // With K ≥ 2, a spike on node 0 must influence node 1's output.
        let mut store = ParamStore::new();
        let gcn = ChebGcn::new(&mut store, &mut rng(2), 1, 1, 3, Activation::Identity, "g");
        let l = laplacian(4);
        let run = |x0: f64, store: &ParamStore| -> Matrix {
            let mut sess = Session::new(store);
            let mut xm = Matrix::zeros(4, 1);
            xm[(0, 0)] = x0;
            let x = sess.constant(xm);
            let y = gcn.forward(&mut sess, store, &l, x);
            sess.tape.value(y).clone()
        };
        let base = run(0.0, &store);
        let spiked = run(5.0, &store);
        assert!(
            (spiked[(1, 0)] - base[(1, 0)]).abs() > 1e-9,
            "spike on node 0 must reach node 1"
        );
    }

    #[test]
    fn order_one_ignores_graph() {
        // K = 1 uses only T_0 = I: output must not depend on the Laplacian.
        let mut store = ParamStore::new();
        let gcn = ChebGcn::new(&mut store, &mut rng(3), 2, 2, 1, Activation::Identity, "g");
        let x0 = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, -1.0]]);
        let mut sess = Session::new(&store);
        let x = sess.constant(x0.clone());
        let y1 = gcn.forward(&mut sess, &store, &laplacian(3), x);
        let v1 = sess.tape.value(y1).clone();
        let mut sess2 = Session::new(&store);
        let x = sess2.constant(x0);
        let y2 = gcn.forward(&mut sess2, &store, &Matrix::identity(3), x);
        assert!(v1.max_abs_diff(sess2.tape.value(y2)) < 1e-12);
    }

    #[test]
    fn weight_gradients_check() {
        let mut store = ParamStore::new();
        let gcn = ChebGcn::new(&mut store, &mut rng(4), 2, 3, 3, Activation::Tanh, "g");
        let l = laplacian(4);
        let x0 = Matrix::from_fn(4, 2, |r, c| (r as f64 * 0.4 - c as f64 * 0.7).sin());
        let run = |store: &ParamStore| -> (f64, Matrix) {
            let mut sess = Session::new(store);
            let x = sess.constant(x0.clone());
            let y = gcn.forward(&mut sess, store, &l, x);
            let sq = sess.tape.mul(y, y);
            let loss = sess.tape.mean(sq);
            sess.backward(loss);
            let mut tmp = store.clone();
            tmp.zero_grads();
            sess.write_grads(&mut tmp);
            (
                sess.tape.value(loss)[(0, 0)],
                tmp.grad(gcn.weights[2]).clone(),
            )
        };
        let (_, g2) = run(&store);
        let res = check_gradient(store.value(gcn.weights[2]), &g2, 1e-6, |m| {
            let mut s2 = store.clone();
            s2.set_value(gcn.weights[2], m.clone());
            run(&s2).0
        });
        assert!(res.passes(1e-5), "order-2 weight grad failed: {res:?}");
    }

    #[test]
    fn basis_matches_recurrence() {
        // T_k(L̃)·x from the precomputed basis must agree with the
        // tape-level recurrence (exactly for K ≤ 2, to round-off above).
        let l = laplacian(5);
        let x0 = Matrix::from_fn(5, 2, |r, c| (r as f64 - c as f64 * 0.3).cos());
        for k in 1..=4 {
            let mut store = ParamStore::new();
            let gcn = ChebGcn::new(&mut store, &mut rng(7), 2, 3, k, Activation::Tanh, "g");
            let basis = ChebBasis::new(&l, k);
            assert_eq!(basis.order(), k);

            let mut sess = Session::new(&store);
            let x = sess.constant(x0.clone());
            let y = gcn.forward(&mut sess, &store, &l, x);
            let recurrence = sess.tape.value(y).clone();

            let mut sess2 = Session::new(&store);
            let x = sess2.constant(x0.clone());
            let y2 = gcn.forward_with_basis(&mut sess2, &store, &basis, x, x, 1);
            let direct = sess2.tape.value(y2).clone();

            let diff = recurrence.max_abs_diff(&direct);
            assert!(diff < 1e-10, "K={k} diverged by {diff}");
        }
    }

    #[test]
    fn basis_forward_routes_gradients() {
        let mut store = ParamStore::new();
        let gcn = ChebGcn::new(&mut store, &mut rng(8), 2, 3, 3, Activation::Tanh, "g");
        let basis = ChebBasis::new(&laplacian(4), 3);
        let mut sess = Session::new(&store);
        let x = sess.constant(Matrix::from_fn(4, 2, |r, c| 0.3 * (r + c) as f64));
        let y = gcn.forward_with_basis(&mut sess, &store, &basis, x, x, 1);
        let loss = sess.tape.mean(y);
        sess.backward(loss);
        sess.write_grads(&mut store);
        for (i, &w) in gcn.weights.iter().enumerate() {
            assert!(store.grad(w).max_abs() > 0.0, "weight {i} got no gradient");
        }
    }

    #[test]
    fn parameter_count() {
        let mut store = ParamStore::new();
        let _ = ChebGcn::new(&mut store, &mut rng(5), 4, 8, 3, Activation::Relu, "g");
        // 3 weight matrices of 4×8 plus a 1×8 bias.
        assert_eq!(store.num_scalars(), 3 * 32 + 8);
    }
}
