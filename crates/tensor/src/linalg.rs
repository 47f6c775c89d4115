//! Linear solvers and spectral utilities.
//!
//! Provides the handful of dense linear-algebra routines the workspace needs:
//! Gaussian elimination with partial pivoting (used by the VAR baseline and
//! the matrix-factorisation imputers), ordinary least squares via the
//! normal equations (Cholesky first, elimination as the fallback), and a
//! power-iteration bound on the largest eigenvalue of a symmetric matrix
//! (needed to scale the graph Laplacian for Chebyshev convolutions).

use crate::Matrix;
use std::error::Error;
use std::fmt;

/// Error returned when a linear system cannot be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The coefficient matrix is singular (or numerically so).
    Singular,
    /// The matrix is not square or the right-hand side has the wrong shape.
    ShapeMismatch(String),
    /// Cholesky factorisation encountered a non-positive pivot.
    NotPositiveDefinite,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular => write!(f, "matrix is singular to working precision"),
            SolveError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            SolveError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
        }
    }
}

impl Error for SolveError {}

/// Solves `A · X = B` by Gaussian elimination with partial pivoting.
///
/// `B` may have multiple columns; the returned matrix has the same shape.
///
/// # Errors
///
/// Returns [`SolveError::ShapeMismatch`] if `A` is not square or `B` has a
/// different row count, and [`SolveError::Singular`] if a pivot smaller than
/// `1e-12` (relative to the largest entry) is encountered.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix, SolveError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolveError::ShapeMismatch(format!(
            "coefficient matrix is {}x{}, expected square",
            a.rows(),
            a.cols()
        )));
    }
    if b.rows() != n {
        return Err(SolveError::ShapeMismatch(format!(
            "rhs has {} rows, expected {}",
            b.rows(),
            n
        )));
    }

    let mut aug = a.clone();
    let mut rhs = b.clone();
    let scale = aug.max_abs().max(1.0);
    let tol = 1e-12 * scale;

    for col in 0..n {
        // Partial pivoting: bring the largest remaining entry into position.
        let mut pivot_row = col;
        let mut pivot_val = aug[(col, col)].abs();
        for r in col + 1..n {
            let v = aug[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val <= tol {
            return Err(SolveError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                let tmp = aug[(col, c)];
                aug[(col, c)] = aug[(pivot_row, c)];
                aug[(pivot_row, c)] = tmp;
            }
            for c in 0..rhs.cols() {
                let tmp = rhs[(col, c)];
                rhs[(col, c)] = rhs[(pivot_row, c)];
                rhs[(pivot_row, c)] = tmp;
            }
        }

        let pivot = aug[(col, col)];
        for r in col + 1..n {
            let factor = aug[(r, col)] / pivot;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                let v = aug[(col, c)];
                aug[(r, c)] -= factor * v;
            }
            for c in 0..rhs.cols() {
                let v = rhs[(col, c)];
                rhs[(r, c)] -= factor * v;
            }
        }
    }

    // Back substitution.
    let mut x = Matrix::zeros(n, b.cols());
    for c in 0..b.cols() {
        for r in (0..n).rev() {
            let mut acc = rhs[(r, c)];
            for k in r + 1..n {
                acc -= aug[(r, k)] * x[(k, c)];
            }
            x[(r, c)] = acc / aug[(r, r)];
        }
    }
    Ok(x)
}

/// Cholesky factorisation of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular `L` with `A = L·Lᵀ`.
///
/// # Errors
///
/// Returns [`SolveError::ShapeMismatch`] for non-square input and
/// [`SolveError::NotPositiveDefinite`] when a pivot is non-positive.
fn cholesky(a: &Matrix) -> Result<Matrix, SolveError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolveError::ShapeMismatch(format!(
            "matrix is {}x{}, expected square",
            a.rows(),
            a.cols()
        )));
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut acc = a[(i, j)];
            for k in 0..j {
                acc -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if acc <= 0.0 {
                    return Err(SolveError::NotPositiveDefinite);
                }
                l[(i, j)] = acc.sqrt();
            } else {
                l[(i, j)] = acc / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Solves the SPD system `A · X = B` via Cholesky factorisation.
///
/// # Errors
///
/// Propagates the errors of [`cholesky`]; additionally returns
/// [`SolveError::ShapeMismatch`] when `B` has the wrong row count.
fn solve_spd(a: &Matrix, b: &Matrix) -> Result<Matrix, SolveError> {
    let l = cholesky(a)?;
    let n = a.rows();
    if b.rows() != n {
        return Err(SolveError::ShapeMismatch(format!(
            "rhs has {} rows, expected {}",
            b.rows(),
            n
        )));
    }
    // Forward substitution: L · Y = B.
    let mut y = Matrix::zeros(n, b.cols());
    for c in 0..b.cols() {
        for r in 0..n {
            let mut acc = b[(r, c)];
            for k in 0..r {
                acc -= l[(r, k)] * y[(k, c)];
            }
            y[(r, c)] = acc / l[(r, r)];
        }
    }
    // Back substitution: Lᵀ · X = Y.
    let mut x = Matrix::zeros(n, b.cols());
    for c in 0..b.cols() {
        for r in (0..n).rev() {
            let mut acc = y[(r, c)];
            for k in r + 1..n {
                acc -= l[(k, r)] * x[(k, c)];
            }
            x[(r, c)] = acc / l[(r, r)];
        }
    }
    Ok(x)
}

/// Ordinary least squares: finds `W` minimising `‖X·W − Y‖²` via the
/// regularised normal equations `(XᵀX + ridge·I) W = XᵀY`.
///
/// A small `ridge` (e.g. `1e-8`) keeps the system well-conditioned; pass
/// `0.0` for plain OLS.
///
/// # Errors
///
/// Returns an error if the normal-equation system cannot be solved.
pub fn least_squares(x: &Matrix, y: &Matrix, ridge: f64) -> Result<Matrix, SolveError> {
    if x.rows() != y.rows() {
        return Err(SolveError::ShapeMismatch(format!(
            "design matrix has {} rows but targets have {}",
            x.rows(),
            y.rows()
        )));
    }
    let mut xtx = x.matmul_tn(x);
    if ridge > 0.0 {
        for i in 0..xtx.rows() {
            xtx[(i, i)] += ridge;
        }
    }
    let xty = x.matmul_tn(y);
    // The normal equations are SPD whenever X has full column rank (plus
    // ridge); fall back to pivoted elimination if Cholesky rejects them.
    solve_spd(&xtx, &xty).or_else(|_| solve(&xtx, &xty))
}

/// Estimates the largest eigenvalue (in absolute value) of a symmetric
/// matrix by power iteration.
///
/// Returns an upper estimate after at most `max_iter` iterations or when two
/// consecutive Rayleigh quotients differ by less than `tol`. For the zero
/// matrix, returns `0.0`.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn power_iteration_max_eig(a: &Matrix, max_iter: usize, tol: f64) -> f64 {
    assert_eq!(a.rows(), a.cols(), "power iteration needs a square matrix");
    let n = a.rows();
    if n == 0 || a.max_abs() == 0.0 {
        return 0.0;
    }
    // Deterministic, fully-dense starting vector.
    let mut v = Matrix::from_fn(n, 1, |r, _| 1.0 + (r as f64) * 0.37);
    let mut norm = v.frobenius_norm();
    v = v.scale(1.0 / norm);
    let mut lambda = 0.0;
    for _ in 0..max_iter {
        let w = a.matmul(&v);
        norm = w.frobenius_norm();
        if norm == 0.0 {
            return 0.0;
        }
        let next = w.scale(1.0 / norm);
        let rayleigh = next.matmul_tn(&a.matmul(&next))[(0, 0)];
        if (rayleigh - lambda).abs() < tol {
            return rayleigh.abs();
        }
        lambda = rayleigh;
        v = next;
    }
    lambda.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[10.0]]);
        let x = solve(&a, &b).unwrap();
        assert!(approx(x[(0, 0)], 1.0, 1e-10));
        assert!(approx(x[(1, 0)], 3.0, 1e-10));
    }

    #[test]
    fn solve_multiple_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[8.0, 4.0], &[2.0, 6.0]]);
        let x = solve(&a, &b).unwrap();
        assert_eq!(x, Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = Matrix::from_rows(&[&[2.0], &[3.0]]);
        let x = solve(&a, &b).unwrap();
        assert!(approx(x[(0, 0)], 3.0, 1e-12));
        assert!(approx(x[(1, 0)], 2.0, 1e-12));
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0]]);
        assert_eq!(solve(&a, &b), Err(SolveError::Singular));
    }

    #[test]
    fn solve_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 1);
        assert!(matches!(solve(&a, &b), Err(SolveError::ShapeMismatch(_))));
        let a = Matrix::identity(2);
        let b = Matrix::zeros(3, 1);
        assert!(matches!(solve(&a, &b), Err(SolveError::ShapeMismatch(_))));
    }

    #[test]
    fn cholesky_known_factor() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 5.0]]);
        let l = cholesky(&a).unwrap();
        assert!(approx(l[(0, 0)], 2.0, 1e-12));
        assert!(approx(l[(1, 0)], 1.0, 1e-12));
        assert!(approx(l[(1, 1)], 2.0, 1e-12));
        let rebuilt = l.matmul_nt(&l);
        assert!(a.max_abs_diff(&rebuilt) < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert_eq!(cholesky(&a), Err(SolveError::NotPositiveDefinite));
    }

    #[test]
    fn solve_spd_matches_general_solver() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let x1 = solve_spd(&a, &b).unwrap();
        let x2 = solve(&a, &b).unwrap();
        assert!(x1.max_abs_diff(&x2) < 1e-10);
    }

    #[test]
    fn least_squares_recovers_plane() {
        // y = 2·x1 − 3·x2, exactly representable.
        let x = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[2.0, 1.0],
            &[1.0, 2.0],
        ]);
        let y = Matrix::from_rows(&[&[2.0], &[-3.0], &[-1.0], &[1.0], &[-4.0]]);
        let w = least_squares(&x, &y, 0.0).unwrap();
        assert!(approx(w[(0, 0)], 2.0, 1e-9));
        assert!(approx(w[(1, 0)], -3.0, 1e-9));
    }

    #[test]
    fn least_squares_with_ridge_is_finite_on_rank_deficient_input() {
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let y = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let w = least_squares(&x, &y, 1e-6).unwrap();
        assert!(w.is_finite());
        // Both columns identical ⇒ ridge splits the weight evenly.
        assert!(approx(w[(0, 0)], w[(1, 0)], 1e-6));
    }

    #[test]
    fn power_iteration_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -7.0]]);
        let lambda = power_iteration_max_eig(&a, 500, 1e-12);
        assert!(approx(lambda, 7.0, 1e-6));
    }

    #[test]
    fn power_iteration_symmetric() {
        // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let lambda = power_iteration_max_eig(&a, 500, 1e-12);
        assert!(approx(lambda, 3.0, 1e-6));
    }

    #[test]
    fn power_iteration_zero_matrix() {
        assert_eq!(power_iteration_max_eig(&Matrix::zeros(3, 3), 10, 1e-9), 0.0);
    }
}
