//! Dense row-major matrix of `f64` values.
//!
//! [`Matrix`] is the workhorse value type of the whole workspace: autodiff
//! tape nodes, GCN propagation, LSTM states and dataset slices are all
//! matrices. The matmul family runs on cache-blocked packed-panel
//! microkernels (see the `MR`/`NR`/`KC` constants) that are branch-free in
//! the inner loop and bit-identical to the retained naive references
//! ([`Matrix::matmul_naive`] and friends) for any thread count.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// Output rows per microkernel register tile.
///
/// With [`NR`] this sizes the accumulator grid at `MR × NR = 16` f64 — eight
/// SSE2 vectors — leaving registers free for the broadcast lhs value and the
/// rhs row, so the tile stays resident for a whole k-panel.
pub const MR: usize = 4;

/// Output columns per microkernel register tile (see [`MR`]).
pub const NR: usize = 4;

/// Reduction-depth (k) panel length.
///
/// Packed lhs tiles are `MR × KC` f64 (8 KiB) and live on the stack, well
/// inside L1; one panel's rhs rows stream through L2.
pub const KC: usize = 256;

/// Cache-blocked packed-panel GEMM over one horizontal band of the output.
///
/// Accumulates `out[i][j] += Σ_k a_at(i, k) · rhs[k*n + j]` for the band of
/// whole output rows `row0..row0 + block.len()/n` held in `block`.
/// `a_at(i, k)` abstracts the lhs layout so one driver serves both
/// `matmul` (row reads) and `matmul_tn` (column reads); each call site gets
/// a monomorphised copy with the packing loop inlined.
///
/// Exactness contract: every output element accumulates its k-terms in
/// ascending order through a single accumulator — carried through `out`
/// between k-panels — so the result is bit-identical to the naive triple
/// loop regardless of the band decomposition (thread count) or the
/// `MR`/`NR`/`KC` tile sizes. The inner loop is branch-free: zero lhs
/// values are multiplied through, never skipped, so `0·NaN` and `0·∞`
/// propagate as IEEE 754 requires.
#[inline(always)]
fn gemm_band(
    a_at: impl Fn(usize, usize) -> f64,
    kk: usize,
    rhs: &[f64],
    n: usize,
    row0: usize,
    block: &mut [f64],
) {
    let nrows = block.len() / n;
    let mut apack = [0.0f64; MR * KC];
    let mut kp = 0;
    while kp < kk {
        let kc = KC.min(kk - kp);
        let mut it = 0;
        while it < nrows {
            let mr = MR.min(nrows - it);
            // Pack the lhs tile k-major: apack[k*MR + r] = A[row0+it+r][kp+k].
            // Rows past `mr` are zero-padded; their accumulators are computed
            // but never stored.
            for (k, col) in apack.chunks_exact_mut(MR).take(kc).enumerate() {
                for (r, slot) in col.iter_mut().enumerate() {
                    *slot = if r < mr {
                        a_at(row0 + it + r, kp + k)
                    } else {
                        0.0
                    };
                }
            }
            let mut j = 0;
            while j + NR <= n {
                // Full-width microkernel: an MR×NR register tile swept over
                // the k-panel, 4-wide accumulator rows the compiler
                // autovectorises.
                let mut acc = [[0.0f64; NR]; MR];
                for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    let row = &block[(it + r) * n + j..(it + r) * n + j + NR];
                    acc_row.copy_from_slice(row);
                }
                for k in 0..kc {
                    let a = &apack[k * MR..(k + 1) * MR];
                    let b = &rhs[(kp + k) * n + j..(kp + k) * n + j + NR];
                    for (acc_row, &ar) in acc.iter_mut().zip(a) {
                        for (slot, &bc) in acc_row.iter_mut().zip(b) {
                            *slot += ar * bc;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate().take(mr) {
                    let row = &mut block[(it + r) * n + j..(it + r) * n + j + NR];
                    row.copy_from_slice(acc_row);
                }
                j += NR;
            }
            if j < n {
                // Column tail (n not a multiple of NR): same ascending-k
                // per-element accumulation at partial width.
                let ncols = n - j;
                let mut acc = [[0.0f64; NR]; MR];
                for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    let row = &block[(it + r) * n + j..(it + r) * n + j + ncols];
                    acc_row[..ncols].copy_from_slice(row);
                }
                for k in 0..kc {
                    let a = &apack[k * MR..(k + 1) * MR];
                    let b = &rhs[(kp + k) * n + j..(kp + k) * n + j + ncols];
                    for (acc_row, &ar) in acc.iter_mut().zip(a) {
                        for (slot, &bc) in acc_row.iter_mut().zip(b) {
                            *slot += ar * bc;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate().take(mr) {
                    let row = &mut block[(it + r) * n + j..(it + r) * n + j + ncols];
                    row.copy_from_slice(&acc_row[..ncols]);
                }
            }
            it += mr;
        }
        kp += kc;
    }
}

/// [`gemm_band`]'s sibling for `self · rhsᵀ`: both operands are walked along
/// k in row-major order, so the rhs tile is packed k-major instead.
///
/// Accumulates `out[i][j] += Σ_k lhs[i*lc + k] · rhs[j*lc + k]` for the band
/// of whole output rows starting at `row0`; `n` is the rhs row count (the
/// output width). The same exactness contract as [`gemm_band`] holds:
/// single accumulator per element, ascending k.
#[inline(always)]
fn gemm_band_nt(lhs: &[f64], lc: usize, rhs: &[f64], n: usize, row0: usize, block: &mut [f64]) {
    let nrows = block.len() / n;
    let mut bpack = [0.0f64; NR * KC];
    let mut kp = 0;
    while kp < lc {
        let kc = KC.min(lc - kp);
        let mut j = 0;
        while j < n {
            let nr = NR.min(n - j);
            // Pack the rhs tile k-major: bpack[k*NR + c] = B[j+c][kp+k],
            // zero-padding columns past `nr`.
            for (k, row) in bpack.chunks_exact_mut(NR).take(kc).enumerate() {
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = if c < nr {
                        rhs[(j + c) * lc + kp + k]
                    } else {
                        0.0
                    };
                }
            }
            let mut it = 0;
            while it < nrows {
                let mr = MR.min(nrows - it);
                // Tail rows alias the last valid lhs row: their accumulators
                // are computed (branch-free inner loop) but never stored.
                let mut arows = [&lhs[..0]; MR];
                for (r, slot) in arows.iter_mut().enumerate() {
                    let rr = row0 + it + r.min(mr - 1);
                    *slot = &lhs[rr * lc..(rr + 1) * lc];
                }
                let mut acc = [[0.0f64; NR]; MR];
                for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    let row = &block[(it + r) * n + j..(it + r) * n + j + nr];
                    acc_row[..nr].copy_from_slice(row);
                }
                for k in 0..kc {
                    let b = &bpack[k * NR..(k + 1) * NR];
                    for (acc_row, arow) in acc.iter_mut().zip(&arows) {
                        let a = arow[kp + k];
                        for (slot, &bc) in acc_row.iter_mut().zip(b) {
                            *slot += a * bc;
                        }
                    }
                }
                for (r, acc_row) in acc.iter().enumerate().take(mr) {
                    let row = &mut block[(it + r) * n + j..(it + r) * n + j + nr];
                    row.copy_from_slice(&acc_row[..nr]);
                }
                it += mr;
            }
            j += nr;
        }
        kp += kc;
    }
}

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use st_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a matrix of ones of the given shape.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row lengths in from_rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {} out of bounds for {} rows",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row {} out of bounds for {} rows",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "col {} out of bounds for {} cols",
            c,
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Element access returning `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Splits `out` into row blocks and runs `per_block(first_row, block)`
    /// for each — serially below the work threshold, across `st-par`
    /// workers above it. Every output row is produced wholly by one call of
    /// `per_block`, so results are bit-identical for any thread count as
    /// long as `per_block` itself is deterministic per row.
    fn rowwise_product(
        out: &mut Matrix,
        flops: usize,
        per_block: impl Fn(usize, &mut [f64]) + Sync,
    ) {
        let out_cols = out.cols;
        if out.rows == 0 || out_cols == 0 {
            return;
        }
        let workers = st_par::num_threads();
        if workers <= 1 || flops < crate::parallel_threshold() {
            per_block(0, &mut out.data);
            return;
        }
        // Aim for a few blocks per worker so a slow block can't straggle.
        let block_rows = out.rows.div_ceil(workers * 4).max(1);
        st_par::par_chunks_mut(&mut out.data, block_rows * out_cols, |idx, block| {
            per_block(idx * block_rows, block);
        });
    }

    /// Matrix product `self · rhs`.
    ///
    /// Row-blocked and parallelised across `st-par` workers above the
    /// [`crate::parallel_threshold`] work estimate; results are
    /// bit-identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_body(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] writing into a caller-provided buffer.
    ///
    /// `out` is fully overwritten (its prior contents may be arbitrary, e.g.
    /// a recycled pool buffer). Bit-identical to `matmul` for any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()` or `out` is not
    /// `self.rows() × rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.rows, rhs.cols),
            "matmul_into output shape mismatch"
        );
        out.fill(0.0);
        self.matmul_body(rhs, out);
    }

    fn matmul_body(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let _span = st_obs::span!("tensor.matmul", m, k, n);
        let flops = self.rows * self.cols * rhs.cols;
        let lc = self.cols;
        Self::rowwise_product(out, flops, |row0, block| {
            gemm_band(
                |i, k| self.data[i * lc + k],
                lc,
                &rhs.data,
                rhs.cols,
                row0,
                block,
            );
        });
    }

    /// Reference `self · rhs`: the textbook scalar i-j-k triple loop.
    ///
    /// Retained as ground truth for the blocked kernels (which must match it
    /// bit for bit — see `tests/kernel_properties.rs`) and as the scalar
    /// baseline of the `bench_kernels` GFLOP/s scoreboard. Always serial.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.data[i * self.cols + k] * rhs.data[k * rhs.cols + j];
                }
                out.data[i * rhs.cols + j] = acc;
            }
        }
        out
    }

    /// Reference `selfᵀ · rhs` triple loop (see [`Matrix::matmul_naive`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for i in 0..self.cols {
            for j in 0..rhs.cols {
                let mut acc = 0.0;
                for k in 0..self.rows {
                    acc += self.data[k * self.cols + i] * rhs.data[k * rhs.cols + j];
                }
                out.data[i * rhs.cols + j] = acc;
            }
        }
        out
    }

    /// Reference `self · rhsᵀ` triple loop (see [`Matrix::matmul_naive`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            for j in 0..rhs.rows {
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.data[i * self.cols + k] * rhs.data[j * rhs.cols + k];
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Matrix product `selfᵀ · rhs` without materialising the transpose.
    ///
    /// Row-blocked over the *output* rows (columns of `self`), each
    /// accumulated over `k` in ascending order — the same per-element order
    /// as the serial path, so results are bit-identical for any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.matmul_tn_body(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] writing into a caller-provided buffer.
    ///
    /// `out` is fully overwritten. Bit-identical to `matmul_tn` for any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()` or `out` is not
    /// `self.cols() × rhs.cols()`.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, rhs.cols),
            "matmul_tn_into output shape mismatch"
        );
        out.fill(0.0);
        self.matmul_tn_body(rhs, out);
    }

    fn matmul_tn_body(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        let _span = st_obs::span!("tensor.matmul_tn", m, k, n);
        let flops = self.rows * self.cols * rhs.cols;
        let lc = self.cols;
        Self::rowwise_product(out, flops, |row0, block| {
            // Output row i is column i of `self`: the packing closure reads
            // down a column, everything else matches `matmul`.
            gemm_band(
                |i, k| self.data[k * lc + i],
                self.rows,
                &rhs.data,
                rhs.cols,
                row0,
                block,
            );
        });
    }

    /// Matrix product `self · rhsᵀ` without materialising the transpose.
    ///
    /// Row-blocked and parallelised like [`Matrix::matmul`]; bit-identical
    /// for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_nt_body(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_nt`] writing into a caller-provided buffer.
    ///
    /// `out` is fully overwritten (its prior contents may be arbitrary, e.g.
    /// a recycled pool buffer). Bit-identical to `matmul_nt` for any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()` or `out` is not
    /// `self.rows() × rhs.rows()`.
    pub fn matmul_nt_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.rows, rhs.rows),
            "matmul_nt_into output shape mismatch"
        );
        out.fill(0.0);
        self.matmul_nt_body(rhs, out);
    }

    fn matmul_nt_body(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        if self.cols == 0 {
            return; // empty reduction: out stays zero
        }
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let _span = st_obs::span!("tensor.matmul_nt", m, k, n);
        let flops = self.rows * self.cols * rhs.rows;
        let lc = self.cols;
        Self::rowwise_product(out, flops, |row0, block| {
            gemm_band_nt(&self.data, lc, &rhs.data, rhs.rows, row0, block);
        });
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of `self` into `out`, fully overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `self.cols() × self.rows()`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into output shape mismatch"
        );
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Elementwise product written into `out`, fully overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if any of the three shapes differ.
    pub fn hadamard_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.zip_map_into(rhs, out, |a, b| a * b);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Overwrites `self` with the contents of `src` (a shape-checked
    /// memcpy — the bit pattern of every element is preserved exactly).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Writes `f(x)` for every element of `self` into `out`, fully
    /// overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s shape differs from `self`'s.
    pub fn map_into(&self, out: &mut Matrix, mut f: impl FnMut(f64) -> f64) {
        assert_eq!(self.shape(), out.shape(), "map_into shape mismatch");
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Combines two equal-shaped matrices elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, rhs: &Matrix, mut f: impl FnMut(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "zip_map shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Writes `f(a, b)` for every element pair into `out`, fully
    /// overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if any of the three shapes differ.
    pub fn zip_map_into(&self, rhs: &Matrix, out: &mut Matrix, mut f: impl FnMut(f64, f64) -> f64) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "zip_map shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        assert_eq!(
            self.shape(),
            out.shape(),
            "zip_map_into output shape mismatch"
        );
        for (o, (&a, &b)) in out.data.iter_mut().zip(self.data.iter().zip(&rhs.data)) {
            *o = f(a, b);
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `rhs` scaled by `alpha` into `self` in place (`self += alpha * rhs`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Adds the single-row matrix `bias` to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_assign(bias);
        out
    }

    /// [`Matrix::add_row_broadcast`] written into `out`, fully overwriting
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols()` or `out`'s shape differs
    /// from `self`'s.
    pub fn add_row_broadcast_into(&self, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.shape(),
            out.shape(),
            "add_row_broadcast_into output shape mismatch"
        );
        out.copy_from(self);
        out.add_row_broadcast_assign(bias);
    }

    fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Column vector containing the sum of each row.
    pub fn sum_rows(&self) -> Matrix {
        Matrix::from_fn(self.rows, 1, |r, _| self.row(r).iter().sum())
    }

    /// Row vector containing the sum of each column.
    pub fn sum_cols(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        self.sum_cols_body(&mut out);
        out
    }

    /// [`Matrix::sum_cols`] written into `out`, fully overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `1 × self.cols()`.
    pub fn sum_cols_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (1, self.cols),
            "sum_cols_into output shape mismatch"
        );
        out.fill(0.0);
        self.sum_cols_body(out);
    }

    fn sum_cols_body(&self, out: &mut Matrix) {
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Maximum absolute value of any element; `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Horizontally concatenates `self` and `rhs` (same row count).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "hcat row count mismatch");
        let cols = self.cols + rhs.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(rhs.row(r));
        }
        Matrix {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// [`Matrix::hcat`] written into `out`, fully overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or `out` is not
    /// `self.rows() × (self.cols() + rhs.cols())`.
    pub fn hcat_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, rhs.rows, "hcat row count mismatch");
        let cols = self.cols + rhs.cols;
        assert_eq!(
            out.shape(),
            (self.rows, cols),
            "hcat_into output shape mismatch"
        );
        for r in 0..self.rows {
            let out_row = &mut out.data[r * cols..(r + 1) * cols];
            out_row[..self.cols].copy_from_slice(self.row(r));
            out_row[self.cols..].copy_from_slice(rhs.row(r));
        }
    }

    /// Vertically concatenates `self` and `rhs` (same column count).
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "vcat column count mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns columns `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols range out of bounds"
        );
        Matrix::from_fn(self.rows, end - start, |r, c| self[(r, start + c)])
    }

    /// Columns `[start, end)` written into `out`, fully overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `out` is not
    /// `self.rows() × (end - start)`.
    pub fn slice_cols_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols range out of bounds"
        );
        let width = end - start;
        assert_eq!(
            out.shape(),
            (self.rows, width),
            "slice_cols_into output shape mismatch"
        );
        for r in 0..self.rows {
            let src = &self.data[r * self.cols + start..r * self.cols + end];
            out.data[r * width..(r + 1) * width].copy_from_slice(src);
        }
    }

    /// Returns rows `[start, end)` as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Matrix {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows range out of bounds"
        );
        Matrix {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Rows `[start, end)` written into `out`, fully overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `out` is not
    /// `(end - start) × self.cols()`.
    pub fn slice_rows_into(&self, start: usize, end: usize, out: &mut Matrix) {
        assert!(
            start <= end && end <= self.rows,
            "slice_rows range out of bounds"
        );
        assert_eq!(
            out.shape(),
            (end - start, self.cols),
            "slice_rows_into output shape mismatch"
        );
        out.data
            .copy_from_slice(&self.data[start * self.cols..end * self.cols]);
    }

    /// Vertically stacks `blocks` same-shaped matrices into one
    /// `(B·rows) × cols` matrix: block `b` occupies rows
    /// `[b·rows, (b+1)·rows)`. This is the canonical "row-stacked" batched
    /// layout: every row-local kernel (elementwise ops, right-multiplies by
    /// a shared weight, per-row softmax) applied to the stack is bit-equal
    /// to applying it to each block separately.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or the shapes differ.
    pub fn stack_rows(blocks: &[&Matrix]) -> Matrix {
        assert!(!blocks.is_empty(), "stack_rows needs at least one block");
        let (rows, cols) = blocks[0].shape();
        let mut out = Matrix::zeros(blocks.len() * rows, cols);
        Matrix::stack_rows_into(blocks, &mut out);
        out
    }

    /// [`Matrix::stack_rows`] written into `out`, fully overwriting it.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty, the block shapes differ, or `out` is
    /// not `(B·rows) × cols`.
    pub fn stack_rows_into(blocks: &[&Matrix], out: &mut Matrix) {
        assert!(!blocks.is_empty(), "stack_rows needs at least one block");
        let (rows, cols) = blocks[0].shape();
        assert_eq!(
            out.shape(),
            (blocks.len() * rows, cols),
            "stack_rows_into output shape mismatch"
        );
        for (b, block) in blocks.iter().enumerate() {
            assert_eq!(block.shape(), (rows, cols), "stack_rows shape mismatch");
            out.data[b * rows * cols..(b + 1) * rows * cols].copy_from_slice(&block.data);
        }
    }

    /// Row-stacked `(B·N) × F` batch → wide `N × (B·F)` layout:
    /// `out[(i, b·F + j)] = self[(b·N + i, j)]`. Pure f64 moves (one
    /// `memcpy` per `(block, row)` pair), so the permutation is exact.
    ///
    /// The wide layout puts every window side by side column-wise, which
    /// lets a graph propagation `T @ X` over all B windows run as a single
    /// packed-panel matmul over the widened right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero or does not divide `self.rows()`, or if
    /// `out` is not `(rows/B) × (B·cols)`.
    pub fn wide_from_stacked_into(&self, blocks: usize, out: &mut Matrix) {
        assert!(
            blocks > 0 && self.rows % blocks == 0,
            "wide_from_stacked: blocks {blocks} does not divide {} rows",
            self.rows
        );
        let n = self.rows / blocks;
        let f = self.cols;
        assert_eq!(
            out.shape(),
            (n, blocks * f),
            "wide_from_stacked_into output shape mismatch"
        );
        let wide = blocks * f;
        for b in 0..blocks {
            for i in 0..n {
                let src = &self.data[(b * n + i) * f..(b * n + i + 1) * f];
                out.data[i * wide + b * f..i * wide + (b + 1) * f].copy_from_slice(src);
            }
        }
    }

    /// Owning wrapper around [`Matrix::wide_from_stacked_into`].
    pub fn wide_from_stacked(&self, blocks: usize) -> Matrix {
        assert!(
            blocks > 0 && self.rows % blocks == 0,
            "wide_from_stacked: blocks {blocks} does not divide {} rows",
            self.rows
        );
        let mut out = Matrix::zeros(self.rows / blocks, blocks * self.cols);
        self.wide_from_stacked_into(blocks, &mut out);
        out
    }

    /// Inverse of [`Matrix::wide_from_stacked_into`]: wide `N × (B·F)` →
    /// row-stacked `(B·N) × F`, `out[(b·N + i, j)] = self[(i, b·F + j)]`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero or does not divide `self.cols()`, or if
    /// `out` is not `(B·rows) × (cols/B)`.
    pub fn stacked_from_wide_into(&self, blocks: usize, out: &mut Matrix) {
        assert!(
            blocks > 0 && self.cols % blocks == 0,
            "stacked_from_wide: blocks {blocks} does not divide {} cols",
            self.cols
        );
        let n = self.rows;
        let f = self.cols / blocks;
        assert_eq!(
            out.shape(),
            (blocks * n, f),
            "stacked_from_wide_into output shape mismatch"
        );
        for b in 0..blocks {
            for i in 0..n {
                let src = &self.data[i * self.cols + b * f..i * self.cols + (b + 1) * f];
                out.data[(b * n + i) * f..(b * n + i + 1) * f].copy_from_slice(src);
            }
        }
    }

    /// Owning wrapper around [`Matrix::stacked_from_wide_into`].
    pub fn stacked_from_wide(&self, blocks: usize) -> Matrix {
        assert!(
            blocks > 0 && self.cols % blocks == 0,
            "stacked_from_wide: blocks {blocks} does not divide {} cols",
            self.cols
        );
        let mut out = Matrix::zeros(blocks * self.rows, self.cols / blocks);
        self.stacked_from_wide_into(blocks, &mut out);
        out
    }

    /// Whether all elements are finite (no NaN / ±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum elementwise absolute difference between two matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            let max_cols = 8;
            for (j, v) in self.row(r).iter().take(max_cols).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(0), vec![1.0, 4.0]);
        assert_eq!(m.get(5, 0), None);
        assert_eq!(m.get(1, 1), Some(5.0));
    }

    #[test]
    fn filled_and_identity() {
        assert_eq!(Matrix::filled(2, 2, 3.0).sum(), 12.0);
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[5.0], &[2.0]]);
        assert_eq!(a.matmul(&b), Matrix::from_rows(&[&[5.0]]));
    }

    #[test]
    fn zero_times_nonfinite_propagates() {
        // Regression: the old inner loop skipped `a == 0.0`, silently
        // dropping `0·NaN` and `0·∞` contributions. IEEE 754 requires them
        // to poison the output element.
        let zero_row = Matrix::from_rows(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0]]);
        let rhs = Matrix::from_rows(&[&[1.0, 2.0], &[f64::NAN, 3.0], &[4.0, f64::INFINITY]]);
        let out = zero_row.matmul(&rhs);
        // Row 0 hits NaN via 0·NaN and NaN via 0·∞ − … (NaN + finite).
        assert!(
            out[(0, 0)].is_nan(),
            "0·NaN must propagate, got {}",
            out[(0, 0)]
        );
        assert!(
            out[(0, 1)].is_nan(),
            "0·∞ must propagate, got {}",
            out[(0, 1)]
        );
        // And the blocked kernel must agree with the naive reference on the
        // non-finite pattern, bit for bit.
        let naive = zero_row.matmul_naive(&rhs);
        for (a, b) in out.as_slice().iter().zip(naive.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Same contract for the transpose kernels.
        let tn = zero_row.transpose().matmul_tn(&rhs);
        assert!(tn[(0, 0)].is_nan());
        let nt = zero_row.matmul_nt(&rhs.transpose());
        assert!(nt[(0, 0)].is_nan());
    }

    #[test]
    fn blocked_kernels_match_naive_references() {
        // Shapes straddling the MR/NR/KC tile edges; values span magnitudes
        // so any reassociation in the blocked kernels would change bits.
        let mut rng = crate::rng(77);
        let mut gen = |r: usize, c: usize| {
            Matrix::from_fn(r, c, |_, _| {
                (rng.gen_f64() - 0.5) * 10f64.powi((rng.next_u64() % 9) as i32 - 4)
            })
        };
        for (m, k, n) in [
            (1, 1, 1),
            (1, 7, 5),
            (5, 3, 1),
            (4, 4, 4),
            (6, 9, 10),
            (13, 17, 11),
            (32, 300, 9), // k = 300 > KC: the reduction spans two k-panels
        ] {
            let a = gen(m, k);
            let b = gen(k, n);
            let at = gen(k, m);
            let bt = gen(n, k);
            for (name, blocked, naive) in [
                ("matmul", a.matmul(&b), a.matmul_naive(&b)),
                ("matmul_tn", at.matmul_tn(&b), at.matmul_tn_naive(&b)),
                ("matmul_nt", a.matmul_nt(&bt), a.matmul_nt_naive(&bt)),
            ] {
                assert_eq!(blocked.shape(), naive.shape(), "{name} {m}x{k}x{n}");
                for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name} {m}x{k}x{n} diverged from naive: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 3.0]]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 3.0]]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(&a - &b, Matrix::from_rows(&[&[-2.0, -6.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, -8.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, -4.0]]));
        assert_eq!(-&a, Matrix::from_rows(&[&[-1.0, 2.0]]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn row_broadcast_bias() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(
            x.add_row_broadcast(&b),
            Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]])
        );
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 10.0);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.sum_rows(), Matrix::from_rows(&[&[3.0], &[7.0]]));
        assert_eq!(m.sum_cols(), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn concat_and_slice() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let h = a.hcat(&b);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(h.slice_cols(2, 3), b);
        assert_eq!(h.slice_cols(0, 2), a);

        let v = a.vcat(&Matrix::from_rows(&[&[7.0, 8.0]]));
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[7.0, 8.0]);
        assert_eq!(v.slice_rows(0, 2), a);
    }

    #[test]
    fn finite_checks() {
        let mut m = Matrix::ones(1, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn max_abs_diff_reports_largest_gap() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, -1.0]]);
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }

    #[test]
    fn empty_matrix_behaviour() {
        let m = Matrix::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max_abs(), 0.0);
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn clone_preserves_matrix() {
        let m = Matrix::from_rows(&[&[1.0, 2.5], &[-3.0, 0.0]]);
        let cloned = m.clone();
        assert_eq!(m, cloned);
    }

    #[test]
    fn into_kernels_match_allocating_kernels() {
        // Every `_into` variant must produce the same bits as its
        // allocating twin even when the output buffer starts out dirty.
        let mut rng = crate::rng(42);
        let a = Matrix::from_fn(4, 3, |_, _| rng.gen_f64() - 0.5);
        let b = Matrix::from_fn(3, 5, |_, _| rng.gen_f64() - 0.5);
        let c = Matrix::from_fn(4, 5, |_, _| rng.gen_f64() - 0.5);
        let d = Matrix::from_fn(2, 3, |_, _| rng.gen_f64() - 0.5);
        let e = Matrix::from_fn(4, 3, |_, _| rng.gen_f64() - 0.5);
        let bias = Matrix::from_fn(1, 3, |_, _| rng.gen_f64() - 0.5);
        let dirty = |r, c| Matrix::filled(r, c, f64::NAN);

        let mut out = dirty(4, 5);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let mut out = dirty(3, 5);
        a.matmul_tn_into(&c, &mut out);
        assert_eq!(out, a.matmul_tn(&c));

        let mut out = dirty(4, 2);
        a.matmul_nt_into(&d, &mut out);
        assert_eq!(out, a.matmul_nt(&d));

        let mut out = dirty(3, 4);
        a.transpose_into(&mut out);
        assert_eq!(out, a.transpose());

        let mut out = dirty(4, 3);
        a.map_into(&mut out, |x| x.tanh());
        assert_eq!(out, a.map(|x| x.tanh()));

        let mut out = dirty(4, 3);
        a.zip_map_into(&e, &mut out, |x, y| x - y);
        assert_eq!(out, a.zip_map(&e, |x, y| x - y));

        let mut out = dirty(4, 3);
        a.hadamard_into(&e, &mut out);
        assert_eq!(out, a.hadamard(&e));

        let mut out = dirty(1, 3);
        a.sum_cols_into(&mut out);
        assert_eq!(out, a.sum_cols());

        let mut out = dirty(4, 6);
        a.hcat_into(&e, &mut out);
        assert_eq!(out, a.hcat(&e));

        let mut out = dirty(4, 2);
        a.slice_cols_into(1, 3, &mut out);
        assert_eq!(out, a.slice_cols(1, 3));

        let mut out = dirty(4, 3);
        a.add_row_broadcast_into(&bias, &mut out);
        assert_eq!(out, a.add_row_broadcast(&bias));
    }

    #[test]
    fn fill_and_copy_from() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.fill(7.0);
        assert_eq!(m, Matrix::filled(2, 2, 7.0));
        let src = Matrix::from_rows(&[&[-1.0, 0.5], &[2.0, -0.0]]);
        m.copy_from(&src);
        assert_eq!(m.as_slice()[3].to_bits(), (-0.0_f64).to_bits());
        assert_eq!(m, src);
    }

    #[test]
    #[should_panic(expected = "matmul_into output shape mismatch")]
    fn matmul_into_rejects_wrong_output_shape() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut out = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut out);
    }

    #[test]
    fn matmul_family_is_bitwise_thread_invariant() {
        // Force the parallel path at a checkable size and compare against
        // the serial path bit for bit, across the whole matmul family.
        // Entries span many magnitudes so order-sensitive summation would
        // show up immediately.
        let gen = |seed: u64, r: usize, c: usize| {
            let mut rng = crate::rng(seed);
            Matrix::from_fn(r, c, |i, j| {
                let x = rng.gen_f64() - 0.5;
                // A sprinkle of exact zeros: multiplied through, never
                // skipped (the zero-skip fast path was removed because it
                // swallowed 0·NaN / 0·∞).
                if (i + j) % 7 == 0 {
                    0.0
                } else {
                    x * 10f64.powi((rng.next_u64() % 9) as i32 - 4)
                }
            })
        };
        let a = gen(1, 33, 17);
        let b = gen(2, 17, 29);
        let c = gen(3, 33, 29); // same rows as a (for tn), same cols as b? no: nt pairs below
        let d = gen(4, 21, 17); // same cols as a, for nt

        let saved = crate::parallel_threshold();
        crate::set_parallel_threshold(usize::MAX);
        let serial = (a.matmul(&b), a.matmul_tn(&c), a.matmul_nt(&d));
        crate::set_parallel_threshold(1);
        st_par::set_num_threads(4);
        let parallel = (a.matmul(&b), a.matmul_tn(&c), a.matmul_nt(&d));
        st_par::set_num_threads(0);
        crate::set_parallel_threshold(saved);

        for (name, s, p) in [
            ("matmul", &serial.0, &parallel.0),
            ("matmul_tn", &serial.1, &parallel.1),
            ("matmul_nt", &serial.2, &parallel.2),
        ] {
            assert_eq!(s.shape(), p.shape(), "{name} shape");
            for (x, y) in s.as_slice().iter().zip(p.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{name} diverged: {x} vs {y}");
            }
        }
    }
}
