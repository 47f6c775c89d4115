//! Reverse-mode automatic differentiation tape.
//!
//! The [`Tape`] records a computation as a sequence of matrix-valued nodes.
//! Nodes are created in topological order (an operation can only reference
//! earlier nodes), so [`Tape::backward`] is a single reverse sweep that
//! accumulates gradients into every node that transitively depends on a
//! parameter.
//!
//! This is exactly the machinery the paper's "imputed values are trainable
//! variables" trick needs: the estimated matrix `X̂_{t+1}` stays a tape node,
//! so the prediction loss at later timestamps sends *delayed gradients* back
//! through the imputation at earlier timestamps.
//!
//! # Buffer reuse
//!
//! Training replays the same graph topology every step, so the tape owns a
//! [`MatrixPool`] and routes every forward value, backward scratch gradient
//! and persistent gradient slot through it. [`Tape::reset`] returns all of
//! them to the pool instead of freeing them; at steady state a recycled tape
//! performs no heap allocation at all. Pooled execution is bit-identical to
//! the allocating path: recycled buffers are fully overwritten (`*_into`
//! kernels) or seeded by `copy_from` (a memcpy), never partially updated.

use st_tensor::{Matrix, MatrixPool, PoolStats};

/// Handle to a node on a [`Tape`].
///
/// `Var`s are cheap copyable indices; they are only meaningful for the tape
/// that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The raw node index on the owning tape.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Matmul(usize, usize),
    Scale(usize, f64),
    AddScalar(usize),
    AddBias { x: usize, bias: usize },
    Sigmoid(usize),
    Tanh(usize),
    Relu(usize),
    Abs(usize),
    ConcatCols(usize, usize),
    SliceCols { x: usize, start: usize },
    Sum(usize),
    Mean(usize),
    SoftmaxRows(usize),
    ScaleVar { x: usize, s: usize },
    ToWide { x: usize, blocks: usize },
    ToStacked { x: usize, blocks: usize },
    ScaleBlocks { x: usize, s: usize },
    MeanBlocks { x: usize, blocks: usize },
    Transpose(usize),
    Exp(usize),
    Ln(usize),
    Sqrt(usize),
    Div(usize, usize),
}

#[derive(Debug)]
struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// A reverse-mode autodiff tape over dense matrices.
///
/// # Examples
///
/// ```
/// use st_autodiff::Tape;
/// use st_tensor::Matrix;
///
/// let mut tape = Tape::new();
/// let x = tape.parameter(Matrix::from_rows(&[&[3.0]]));
/// let y = tape.mul(x, x); // y = x²
/// let loss = tape.sum(y);
/// tape.backward(loss);
/// assert_eq!(tape.grad(x)[(0, 0)], 6.0); // dy/dx = 2x
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: MatrixPool,
    // Per-sweep scratch gradients, kept across sweeps so the Vec itself is
    // reused; every entry is `None` between sweeps.
    sweep: Vec<Option<Matrix>>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears all nodes, returning every value and gradient buffer to the
    /// tape's pool.
    ///
    /// The node `Vec`'s capacity is kept, so a recycled tape re-records the
    /// same graph without growing. `Var`s from before the reset are invalid
    /// (they would index into the new recording).
    pub fn reset(&mut self) {
        let Tape { nodes, pool, sweep } = self;
        for node in nodes.drain(..) {
            pool.release(node.value);
            if let Some(g) = node.grad {
                pool.release(g);
            }
        }
        for g in sweep.iter_mut() {
            if let Some(g) = g.take() {
                pool.release(g);
            }
        }
    }

    /// Cumulative hit/miss statistics of the tape's buffer pool.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Bytes currently parked in the pool's free lists.
    pub fn pool_free_bytes(&self) -> usize {
        self.pool.free_bytes()
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a constant: gradients are not tracked through it.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Records a constant by copying `value` into a pooled buffer.
    pub fn constant_ref(&mut self, value: &Matrix) -> Var {
        let mut v = self.pool.acquire(value.rows(), value.cols());
        v.copy_from(value);
        self.push(v, Op::Leaf, false)
    }

    /// Records an all-zero constant in a pooled buffer.
    pub fn constant_zeros(&mut self, rows: usize, cols: usize) -> Var {
        let v = self.pool.acquire_zeroed(rows, cols);
        self.push(v, Op::Leaf, false)
    }

    /// Records a `rows × 1` constant column filled from `f(row)`, in a
    /// pooled buffer (no per-call heap allocation at steady state). Used
    /// for the per-block scalars of [`Tape::scale_blocks`].
    pub fn constant_col_with(&mut self, rows: usize, mut f: impl FnMut(usize) -> f64) -> Var {
        let mut v = self.pool.acquire(rows, 1);
        for r in 0..rows {
            v[(r, 0)] = f(r);
        }
        self.push(v, Op::Leaf, false)
    }

    /// Records a trainable parameter leaf.
    pub fn parameter(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Records a trainable parameter leaf by copying `value` into a pooled
    /// buffer.
    pub fn parameter_ref(&mut self, value: &Matrix) -> Var {
        let mut v = self.pool.acquire(value.rows(), value.cols());
        v.copy_from(value);
        self.push(v, Op::Leaf, true)
    }

    /// The forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this tape.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of a node; a zero matrix if [`Tape::backward`]
    /// has not reached it.
    ///
    /// Allocates a copy on every call — prefer [`Tape::grad_ref`] in hot
    /// paths.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this tape.
    pub fn grad(&self, v: Var) -> Matrix {
        let node = &self.nodes[v.0];
        node.grad
            .clone()
            .unwrap_or_else(|| Matrix::zeros(node.value.rows(), node.value.cols()))
    }

    /// Borrows the accumulated gradient of a node; `None` if
    /// [`Tape::backward`] has not reached it (i.e. the gradient is zero).
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this tape.
    pub fn grad_ref(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Whether gradients flow through this node.
    pub fn needs_grad(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    fn binary_needs(&self, a: Var, b: Var) -> bool {
        self.nodes[a.0].needs_grad || self.nodes[b.0].needs_grad
    }

    /// Elementwise sum `a + b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0]
            .value
            .zip_map_into(&self.nodes[b.0].value, &mut v, |x, y| x + y);
        let ng = self.binary_needs(a, b);
        self.push(v, Op::Add(a.0, b.0), ng)
    }

    /// Elementwise difference `a − b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0]
            .value
            .zip_map_into(&self.nodes[b.0].value, &mut v, |x, y| x - y);
        let ng = self.binary_needs(a, b);
        self.push(v, Op::Sub(a.0, b.0), ng)
    }

    /// Elementwise (Hadamard) product `a ⊙ b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0]
            .value
            .hadamard_into(&self.nodes[b.0].value, &mut v);
        let ng = self.binary_needs(a, b);
        self.push(v, Op::Mul(a.0, b.0), ng)
    }

    /// Matrix product `a · b`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let rows = self.nodes[a.0].value.rows();
        let cols = self.nodes[b.0].value.cols();
        let mut v = self.pool.acquire(rows, cols);
        self.nodes[a.0]
            .value
            .matmul_into(&self.nodes[b.0].value, &mut v);
        let ng = self.binary_needs(a, b);
        self.push(v, Op::Matmul(a.0, b.0), ng)
    }

    /// Scalar multiple `s · a`.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0].value.map_into(&mut v, |x| x * s);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Scale(a.0, s), ng)
    }

    /// Adds the scalar `s` to every element.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0].value.map_into(&mut v, |x| x + s);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::AddScalar(a.0), ng)
    }

    /// Adds the `1 × C` row vector `bias` to every row of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a row vector of matching width.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let (r, c) = self.nodes[x.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[x.0]
            .value
            .add_row_broadcast_into(&self.nodes[bias.0].value, &mut v);
        let ng = self.binary_needs(x, bias);
        self.push(
            v,
            Op::AddBias {
                x: x.0,
                bias: bias.0,
            },
            ng,
        )
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0]
            .value
            .map_into(&mut v, |x| 1.0 / (1.0 + (-x).exp()));
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Sigmoid(a.0), ng)
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0].value.map_into(&mut v, f64::tanh);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Tanh(a.0), ng)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0].value.map_into(&mut v, |x| x.max(0.0));
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Relu(a.0), ng)
    }

    /// Elementwise absolute value (subgradient 0 at the origin).
    pub fn abs(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0].value.map_into(&mut v, f64::abs);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Abs(a.0), ng)
    }

    /// Horizontal concatenation `[a; b]` along columns.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let rows = self.nodes[a.0].value.rows();
        let cols = self.nodes[a.0].value.cols() + self.nodes[b.0].value.cols();
        let mut v = self.pool.acquire(rows, cols);
        self.nodes[a.0]
            .value
            .hcat_into(&self.nodes[b.0].value, &mut v);
        let ng = self.binary_needs(a, b);
        self.push(v, Op::ConcatCols(a.0, b.0), ng)
    }

    /// Columns `[start, end)` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_cols(&mut self, x: Var, start: usize, end: usize) -> Var {
        assert!(
            start <= end && end <= self.nodes[x.0].value.cols(),
            "slice_cols range out of bounds"
        );
        let rows = self.nodes[x.0].value.rows();
        let mut v = self.pool.acquire(rows, end - start);
        self.nodes[x.0].value.slice_cols_into(start, end, &mut v);
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::SliceCols { x: x.0, start }, ng)
    }

    /// Sum of all elements as a `1 × 1` matrix.
    pub fn sum(&mut self, a: Var) -> Var {
        let s = self.nodes[a.0].value.sum();
        let mut v = self.pool.acquire(1, 1);
        v.fill(s);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Sum(a.0), ng)
    }

    /// Mean of all elements as a `1 × 1` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a` is empty.
    pub fn mean(&mut self, a: Var) -> Var {
        assert!(!self.nodes[a.0].value.is_empty(), "mean of empty matrix");
        let s = self.nodes[a.0].value.mean();
        let mut v = self.pool.acquire(1, 1);
        v.fill(s);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Mean(a.0), ng)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        v.copy_from(&self.nodes[a.0].value);
        for r in 0..v.rows() {
            let row = v.row_mut(r);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut denom = 0.0;
            for e in row.iter_mut() {
                *e = (*e - max).exp();
                denom += *e;
            }
            for e in row.iter_mut() {
                *e /= denom;
            }
        }
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::SoftmaxRows(a.0), ng)
    }

    /// Scales `x` by the `1 × 1` variable `s` (both gradients tracked).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not `1 × 1`.
    pub fn scale_var(&mut self, x: Var, s: Var) -> Var {
        let sv = &self.nodes[s.0].value;
        assert_eq!(sv.shape(), (1, 1), "scale_var scalar must be 1x1");
        let sv = sv[(0, 0)];
        let (r, c) = self.nodes[x.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[x.0].value.map_into(&mut v, |x| x * sv);
        let ng = self.binary_needs(x, s);
        self.push(v, Op::ScaleVar { x: x.0, s: s.0 }, ng)
    }

    // ----- batched-layout ops -----------------------------------------
    //
    // A batch of B same-shaped windows lives on the tape as one
    // row-stacked `(B·N) × F` node (block `b` = rows `[b·N, (b+1)·N)`).
    // Every row-local op applied to the stack is bit-identical to running
    // the B windows separately; the ops below cover the parts that are
    // not row-local: the layout permutation that widens the stack for a
    // graph propagation `T @ X`, and per-block scalar scaling / reduction.

    /// Row-stacked `(B·N) × F` batch → wide `N × (B·F)` layout:
    /// `out[(i, b·F + j)] = x[(b·N + i, j)]`. A pure f64 permutation (one
    /// memcpy per `(block, row)` pair), so forward and backward are exact.
    ///
    /// At `blocks == 1` both layouts coincide and `x` itself is returned
    /// without recording a node. That is required, not just cheaper: with
    /// a node in between, `x`'s gradient would be summed in two groups
    /// (through the wide node, then directly) and f64 addition is not
    /// associative, so a one-window batch would no longer reproduce the
    /// gradient bits of a plain single-window graph.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero or does not divide `x`'s row count.
    pub fn to_wide(&mut self, x: Var, blocks: usize) -> Var {
        let (rows, cols) = self.nodes[x.0].value.shape();
        assert!(
            blocks > 0 && rows % blocks == 0,
            "to_wide: blocks {blocks} does not divide {rows} rows"
        );
        if blocks == 1 {
            return x;
        }
        let mut v = self.pool.acquire(rows / blocks, blocks * cols);
        self.nodes[x.0].value.wide_from_stacked_into(blocks, &mut v);
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::ToWide { x: x.0, blocks }, ng)
    }

    /// Inverse of [`Tape::to_wide`]: wide `N × (B·F)` → row-stacked
    /// `(B·N) × F`. Like `to_wide`, the identity at `blocks == 1`: `x` is
    /// returned and no node is recorded.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero or does not divide `x`'s column count.
    pub fn to_stacked(&mut self, x: Var, blocks: usize) -> Var {
        let (rows, cols) = self.nodes[x.0].value.shape();
        assert!(
            blocks > 0 && cols % blocks == 0,
            "to_stacked: blocks {blocks} does not divide {cols} cols"
        );
        if blocks == 1 {
            return x;
        }
        let mut v = self.pool.acquire(blocks * rows, cols / blocks);
        self.nodes[x.0].value.stacked_from_wide_into(blocks, &mut v);
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::ToStacked { x: x.0, blocks }, ng)
    }

    /// Scales each row block of the stacked batch `x` by its own scalar:
    /// block `b` of the `(B·N) × F` input is multiplied by `s[(b, 0)]`.
    ///
    /// This is [`Tape::scale_var`] applied per block — the same single f64
    /// multiply per element, so block `b` of the output is bit-identical
    /// to `scale_var(window_b, s_b)` on an unbatched tape. Gradients flow
    /// into both `x` and `s` (per-block fused dot, matching `scale_var`'s
    /// backward element order).
    ///
    /// # Panics
    ///
    /// Panics if `s` is not `B × 1` or `B` does not divide `x`'s rows.
    pub fn scale_blocks(&mut self, x: Var, s: Var) -> Var {
        let (b, sc) = self.nodes[s.0].value.shape();
        assert_eq!(sc, 1, "scale_blocks scalars must be Bx1");
        let (rows, cols) = self.nodes[x.0].value.shape();
        assert!(
            b > 0 && rows % b == 0,
            "scale_blocks: {b} blocks do not divide {rows} rows"
        );
        let n = rows / b;
        let mut v = self.pool.acquire(rows, cols);
        {
            let sv = &self.nodes[s.0].value;
            let xv = &self.nodes[x.0].value;
            for blk in 0..b {
                let f = sv[(blk, 0)];
                let span = blk * n * cols..(blk + 1) * n * cols;
                for (o, &xi) in v.as_mut_slice()[span.clone()]
                    .iter_mut()
                    .zip(&xv.as_slice()[span])
                {
                    *o = xi * f;
                }
            }
        }
        let ng = self.binary_needs(x, s);
        self.push(v, Op::ScaleBlocks { x: x.0, s: s.0 }, ng)
    }

    /// Per-block mean of the stacked batch `x` as a `B × 1` node:
    /// `out[(b, 0)] = mean(block b)`.
    ///
    /// Block rows are contiguous in the stacked layout, so each block's
    /// summation runs in the same element order as [`Tape::mean`] on the
    /// unbatched window — the reduction is bit-identical per block.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `blocks` does not divide its row count.
    pub fn mean_blocks(&mut self, x: Var, blocks: usize) -> Var {
        let (rows, cols) = self.nodes[x.0].value.shape();
        assert!(
            !self.nodes[x.0].value.is_empty(),
            "mean_blocks of empty matrix"
        );
        assert!(
            blocks > 0 && rows % blocks == 0,
            "mean_blocks: blocks {blocks} does not divide {rows} rows"
        );
        let n = rows / blocks;
        let mut v = self.pool.acquire(blocks, 1);
        for blk in 0..blocks {
            let span = &self.nodes[x.0].value.as_slice()[blk * n * cols..(blk + 1) * n * cols];
            let s: f64 = span.iter().sum();
            v[(blk, 0)] = s / (n * cols) as f64;
        }
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::MeanBlocks { x: x.0, blocks }, ng)
    }

    /// Transpose of `x`.
    pub fn transpose(&mut self, x: Var) -> Var {
        let (r, c) = self.nodes[x.0].value.shape();
        let mut v = self.pool.acquire(c, r);
        self.nodes[x.0].value.transpose_into(&mut v);
        let ng = self.nodes[x.0].needs_grad;
        self.push(v, Op::Transpose(x.0), ng)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0].value.map_into(&mut v, f64::exp);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Exp(a.0), ng)
    }

    /// Elementwise natural logarithm.
    ///
    /// # Panics
    ///
    /// Panics if any element is not strictly positive.
    pub fn ln(&mut self, a: Var) -> Var {
        assert!(
            self.nodes[a.0].value.as_slice().iter().all(|&x| x > 0.0),
            "ln requires strictly positive inputs"
        );
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0].value.map_into(&mut v, f64::ln);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Ln(a.0), ng)
    }

    /// Elementwise square root.
    ///
    /// # Panics
    ///
    /// Panics if any element is negative.
    pub fn sqrt(&mut self, a: Var) -> Var {
        assert!(
            self.nodes[a.0].value.as_slice().iter().all(|&x| x >= 0.0),
            "sqrt requires non-negative inputs"
        );
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0].value.map_into(&mut v, f64::sqrt);
        let ng = self.nodes[a.0].needs_grad;
        self.push(v, Op::Sqrt(a.0), ng)
    }

    /// Elementwise division `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or any divisor is zero.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        assert!(
            self.nodes[b.0].value.as_slice().iter().all(|&x| x != 0.0),
            "division by zero"
        );
        let (r, c) = self.nodes[a.0].value.shape();
        let mut v = self.pool.acquire(r, c);
        self.nodes[a.0]
            .value
            .zip_map_into(&self.nodes[b.0].value, &mut v, |x, y| x / y);
        let ng = self.binary_needs(a, b);
        self.push(v, Op::Div(a.0, b.0), ng)
    }

    // ----- composite conveniences -------------------------------------

    /// Mean absolute error `mean(|a − b|)` as a `1 × 1` node.
    pub fn mae(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let d = self.abs(d);
        self.mean(d)
    }

    /// Mean squared error `mean((a − b)²)` as a `1 × 1` node.
    pub fn mse(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.mul(d, d);
        self.mean(sq)
    }

    /// Masked mean absolute error: `sum(|a − b| ⊙ mask) / max(1, sum(mask))`.
    ///
    /// `mask` is a constant `{0,1}` matrix of the same shape.
    pub fn masked_mae(&mut self, a: Var, b: Var, mask: &Matrix) -> Var {
        let m = self.constant_ref(mask);
        self.masked_mae_var(a, b, m)
    }

    /// [`Tape::masked_mae`] with the mask already on the tape.
    ///
    /// The normaliser `max(1, sum(mask))` is read from the mask node's
    /// forward value and treated as a constant, exactly like `masked_mae`;
    /// gradients do not flow into `mask` through the count.
    pub fn masked_mae_var(&mut self, a: Var, b: Var, mask: Var) -> Var {
        let count = self.nodes[mask.0].value.sum().max(1.0);
        let d = self.sub(a, b);
        let d = self.abs(d);
        let d = self.mul(d, mask);
        let s = self.sum(d);
        self.scale(s, 1.0 / count)
    }

    /// Runs the reverse sweep from `loss`, which must be a `1 × 1` node.
    ///
    /// Gradients accumulate into every node with `needs_grad`; read them back
    /// with [`Tape::grad_ref`]. Calling `backward` twice accumulates twice.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar (1x1) loss node"
        );
        let nodes = loss.0 + 1;
        let _span = st_obs::span!("autodiff.backward", nodes);
        let mut seed = self.pool.acquire(1, 1);
        seed.fill(1.0);
        self.seed_and_sweep(loss, seed);
    }

    fn seed_and_sweep(&mut self, root: Var, seed: Matrix) {
        if !self.nodes[root.0].needs_grad {
            self.pool.release(seed);
            return;
        }
        // Per-sweep scratch gradients: using a separate buffer (instead of the
        // persistent `grad` slots) gives PyTorch-like semantics where calling
        // `backward` twice adds d(loss)/d(node) twice, rather than compounding
        // previously-stored gradients through the sweep.
        if self.sweep.len() < root.0 + 1 {
            self.sweep.resize_with(root.0 + 1, || None);
        }
        let Tape { nodes, pool, sweep } = self;
        acc_owned(nodes, sweep, pool, root.0, seed);

        // Children always have higher indices than their parents, so by the
        // time the sweep visits node `i` its scratch gradient is final: take
        // it, distribute to parents, then merge it into the persistent slot.
        for i in (0..=root.0).rev() {
            let Some(g) = sweep[i].take() else { continue };
            match nodes[i].op {
                Op::Leaf => {}
                Op::Add(a, b) => {
                    acc_ref(nodes, sweep, pool, a, &g);
                    acc_ref(nodes, sweep, pool, b, &g);
                }
                Op::Sub(a, b) => {
                    acc_ref(nodes, sweep, pool, a, &g);
                    let mut neg = pool.acquire(g.rows(), g.cols());
                    g.map_into(&mut neg, |x| x * -1.0);
                    acc_owned(nodes, sweep, pool, b, neg);
                }
                Op::Mul(a, b) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.hadamard_into(&nodes[b].value, &mut ga);
                    let mut gb = pool.acquire(g.rows(), g.cols());
                    g.hadamard_into(&nodes[a].value, &mut gb);
                    acc_owned(nodes, sweep, pool, a, ga);
                    acc_owned(nodes, sweep, pool, b, gb);
                }
                Op::Matmul(a, b) => {
                    if nodes[a].needs_grad {
                        let mut ga = pool.acquire(g.rows(), nodes[b].value.rows());
                        g.matmul_nt_into(&nodes[b].value, &mut ga);
                        acc_owned(nodes, sweep, pool, a, ga);
                    }
                    if nodes[b].needs_grad {
                        let mut gb = pool.acquire(nodes[a].value.cols(), g.cols());
                        nodes[a].value.matmul_tn_into(&g, &mut gb);
                        acc_owned(nodes, sweep, pool, b, gb);
                    }
                }
                Op::Scale(a, s) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.map_into(&mut ga, |x| x * s);
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::AddScalar(a) => acc_ref(nodes, sweep, pool, a, &g),
                Op::AddBias { x, bias } => {
                    acc_ref(nodes, sweep, pool, x, &g);
                    if nodes[bias].needs_grad {
                        let mut gb = pool.acquire(1, g.cols());
                        g.sum_cols_into(&mut gb);
                        acc_owned(nodes, sweep, pool, bias, gb);
                    }
                }
                Op::Sigmoid(a) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.zip_map_into(&nodes[i].value, &mut ga, |gi, yi| gi * yi * (1.0 - yi));
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::Tanh(a) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.zip_map_into(&nodes[i].value, &mut ga, |gi, yi| gi * (1.0 - yi * yi));
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::Relu(a) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.zip_map_into(
                        &nodes[a].value,
                        &mut ga,
                        |gi, xi| {
                            if xi > 0.0 {
                                gi
                            } else {
                                0.0
                            }
                        },
                    );
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::Abs(a) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.zip_map_into(&nodes[a].value, &mut ga, |gi, xi| gi * sign(xi));
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::ConcatCols(a, b) => {
                    let ca = nodes[a].value.cols();
                    let mut ga = pool.acquire(g.rows(), ca);
                    g.slice_cols_into(0, ca, &mut ga);
                    let mut gb = pool.acquire(g.rows(), g.cols() - ca);
                    g.slice_cols_into(ca, g.cols(), &mut gb);
                    acc_owned(nodes, sweep, pool, a, ga);
                    acc_owned(nodes, sweep, pool, b, gb);
                }
                Op::SliceCols { x, start } => {
                    if nodes[x].needs_grad {
                        let (pr, pc) = nodes[x].value.shape();
                        if start == 0 && g.cols() == pc {
                            // The slice covered every column; its gradient
                            // is the parent's gradient — no scatter needed.
                            acc_ref(nodes, sweep, pool, x, &g);
                        } else {
                            let width = g.cols();
                            let mut gx = pool.acquire_zeroed(pr, pc);
                            for r in 0..g.rows() {
                                gx.row_mut(r)[start..start + width].copy_from_slice(g.row(r));
                            }
                            acc_owned(nodes, sweep, pool, x, gx);
                        }
                    }
                }
                Op::Sum(a) => {
                    let s = g[(0, 0)];
                    let (r, c) = nodes[a].value.shape();
                    let mut ga = pool.acquire(r, c);
                    ga.fill(s);
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::Mean(a) => {
                    let (r, c) = nodes[a].value.shape();
                    let s = g[(0, 0)] / (r * c) as f64;
                    let mut ga = pool.acquire(r, c);
                    ga.fill(s);
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::SoftmaxRows(a) => {
                    let y = &nodes[i].value;
                    let mut ga = pool.acquire(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let yr = y.row(r);
                        let gr = g.row(r);
                        let dot: f64 = yr.iter().zip(gr).map(|(&yi, &gi)| yi * gi).sum();
                        for (o, (&yi, &gi)) in ga.row_mut(r).iter_mut().zip(yr.iter().zip(gr)) {
                            *o = yi * (gi - dot);
                        }
                    }
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::ScaleVar { x, s } => {
                    let sv = nodes[s].value[(0, 0)];
                    if nodes[x].needs_grad {
                        let mut gx = pool.acquire(g.rows(), g.cols());
                        g.map_into(&mut gx, |gi| gi * sv);
                        acc_owned(nodes, sweep, pool, x, gx);
                    }
                    if nodes[s].needs_grad {
                        // Fused g ⊙ x followed by sum, in the same
                        // element order as the materialised product.
                        let dot: f64 = g
                            .as_slice()
                            .iter()
                            .zip(nodes[x].value.as_slice())
                            .map(|(&gi, &xi)| gi * xi)
                            .sum();
                        let mut gs = pool.acquire(1, 1);
                        gs.fill(dot);
                        acc_owned(nodes, sweep, pool, s, gs);
                    }
                }
                Op::ToWide { x, blocks } => {
                    // Inverse permutation: wide gradient → stacked layout.
                    let mut gx = pool.acquire(blocks * g.rows(), g.cols() / blocks);
                    g.stacked_from_wide_into(blocks, &mut gx);
                    acc_owned(nodes, sweep, pool, x, gx);
                }
                Op::ToStacked { x, blocks } => {
                    let mut gx = pool.acquire(g.rows() / blocks, blocks * g.cols());
                    g.wide_from_stacked_into(blocks, &mut gx);
                    acc_owned(nodes, sweep, pool, x, gx);
                }
                Op::ScaleBlocks { x, s } => {
                    let b = nodes[s].value.rows();
                    let n = g.rows() / b;
                    let cols = g.cols();
                    if nodes[x].needs_grad {
                        let mut gx = pool.acquire(g.rows(), cols);
                        for blk in 0..b {
                            let f = nodes[s].value[(blk, 0)];
                            let span = blk * n * cols..(blk + 1) * n * cols;
                            for (o, &gi) in gx.as_mut_slice()[span.clone()]
                                .iter_mut()
                                .zip(&g.as_slice()[span])
                            {
                                *o = gi * f;
                            }
                        }
                        acc_owned(nodes, sweep, pool, x, gx);
                    }
                    if nodes[s].needs_grad {
                        // Per-block fused g ⊙ x dot in the same element
                        // order as ScaleVar's backward on one window.
                        let mut gs = pool.acquire(b, 1);
                        for blk in 0..b {
                            let span = blk * n * cols..(blk + 1) * n * cols;
                            let dot: f64 = g.as_slice()[span.clone()]
                                .iter()
                                .zip(&nodes[x].value.as_slice()[span])
                                .map(|(&gi, &xi)| gi * xi)
                                .sum();
                            gs[(blk, 0)] = dot;
                        }
                        acc_owned(nodes, sweep, pool, s, gs);
                    }
                }
                Op::MeanBlocks { x, blocks } => {
                    let (r, c) = nodes[x].value.shape();
                    let n = r / blocks;
                    let mut ga = pool.acquire(r, c);
                    for blk in 0..blocks {
                        let s = g[(blk, 0)] / (n * c) as f64;
                        ga.as_mut_slice()[blk * n * c..(blk + 1) * n * c].fill(s);
                    }
                    acc_owned(nodes, sweep, pool, x, ga);
                }
                Op::Transpose(x) => {
                    let mut gx = pool.acquire(g.cols(), g.rows());
                    g.transpose_into(&mut gx);
                    acc_owned(nodes, sweep, pool, x, gx);
                }
                Op::Exp(a) => {
                    // d(eˣ) = eˣ — reuse the stored output.
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.hadamard_into(&nodes[i].value, &mut ga);
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::Ln(a) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.zip_map_into(&nodes[a].value, &mut ga, |gi, xi| gi / xi);
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::Sqrt(a) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.zip_map_into(&nodes[i].value, &mut ga, |gi, yi| {
                        gi / (2.0 * yi.max(1e-300))
                    });
                    acc_owned(nodes, sweep, pool, a, ga);
                }
                Op::Div(a, b) => {
                    let mut ga = pool.acquire(g.rows(), g.cols());
                    g.zip_map_into(&nodes[b].value, &mut ga, |gi, bi| gi / bi);
                    acc_owned(nodes, sweep, pool, a, ga);
                    if nodes[b].needs_grad {
                        let mut gb = pool.acquire(g.rows(), g.cols());
                        for (o, ((&gi, &ai), &bi)) in gb.as_mut_slice().iter_mut().zip(
                            g.as_slice()
                                .iter()
                                .zip(nodes[a].value.as_slice())
                                .zip(nodes[b].value.as_slice()),
                        ) {
                            *o = -gi * ai / (bi * bi);
                        }
                        acc_owned(nodes, sweep, pool, b, gb);
                    }
                }
            }
            // Merge this node's sweep gradient into the persistent slot.
            match &mut nodes[i].grad {
                Some(existing) => {
                    existing.axpy(1.0, &g);
                    pool.release(g);
                }
                slot @ None => *slot = Some(g),
            }
        }
    }
}

/// Accumulates a borrowed gradient into the scratch slot for `idx`.
fn acc_ref(
    nodes: &[Node],
    sweep: &mut [Option<Matrix>],
    pool: &mut MatrixPool,
    idx: usize,
    g: &Matrix,
) {
    if !nodes[idx].needs_grad {
        return;
    }
    match &mut sweep[idx] {
        Some(existing) => existing.axpy(1.0, g),
        slot @ None => {
            let mut buf = pool.acquire(g.rows(), g.cols());
            buf.copy_from(g);
            *slot = Some(buf);
        }
    }
}

/// Accumulates an owned (pooled) gradient into the scratch slot for `idx`,
/// returning the buffer to the pool when it isn't moved into the slot.
fn acc_owned(
    nodes: &[Node],
    sweep: &mut [Option<Matrix>],
    pool: &mut MatrixPool,
    idx: usize,
    g: Matrix,
) {
    if !nodes[idx].needs_grad {
        pool.release(g);
        return;
    }
    match &mut sweep[idx] {
        Some(existing) => {
            existing.axpy(1.0, &g);
            pool.release(g);
        }
        slot @ None => *slot = Some(g),
    }
}

impl Tape {
    /// Summary of one node for rendering: label, parent indices, whether it
    /// is a leaf, and whether gradients flow through it.
    pub(crate) fn node_summary(&self, idx: usize) -> (String, Vec<usize>, bool, bool) {
        let node = &self.nodes[idx];
        let (name, parents): (&str, Vec<usize>) = match &node.op {
            Op::Leaf => (if node.needs_grad { "param" } else { "const" }, Vec::new()),
            Op::Add(a, b) => ("add", vec![*a, *b]),
            Op::Sub(a, b) => ("sub", vec![*a, *b]),
            Op::Mul(a, b) => ("mul", vec![*a, *b]),
            Op::Matmul(a, b) => ("matmul", vec![*a, *b]),
            Op::Scale(a, _) => ("scale", vec![*a]),
            Op::AddScalar(a) => ("add_scalar", vec![*a]),
            Op::AddBias { x, bias } => ("add_bias", vec![*x, *bias]),
            Op::Sigmoid(a) => ("sigmoid", vec![*a]),
            Op::Tanh(a) => ("tanh", vec![*a]),
            Op::Relu(a) => ("relu", vec![*a]),
            Op::Abs(a) => ("abs", vec![*a]),
            Op::ConcatCols(a, b) => ("concat", vec![*a, *b]),
            Op::SliceCols { x, .. } => ("slice", vec![*x]),
            Op::Sum(a) => ("sum", vec![*a]),
            Op::Mean(a) => ("mean", vec![*a]),
            Op::SoftmaxRows(a) => ("softmax", vec![*a]),
            Op::ScaleVar { x, s } => ("scale_var", vec![*x, *s]),
            Op::ToWide { x, .. } => ("to_wide", vec![*x]),
            Op::ToStacked { x, .. } => ("to_stacked", vec![*x]),
            Op::ScaleBlocks { x, s } => ("scale_blocks", vec![*x, *s]),
            Op::MeanBlocks { x, .. } => ("mean_blocks", vec![*x]),
            Op::Transpose(a) => ("transpose", vec![*a]),
            Op::Exp(a) => ("exp", vec![*a]),
            Op::Ln(a) => ("ln", vec![*a]),
            Op::Sqrt(a) => ("sqrt", vec![*a]),
            Op::Div(a, b) => ("div", vec![*a, *b]),
        };
        let (r, c) = node.value.shape();
        (
            format!("{name} {r}x{c}"),
            parents,
            matches!(node.op, Op::Leaf),
            node.needs_grad,
        )
    }
}

fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}
