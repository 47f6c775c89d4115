//! Graph Laplacians and Chebyshev polynomial propagation.
//!
//! The spectral GCN in the paper (Eq. 1) convolves node features with
//! `Σ_{k<K} θ_k T_k(L̃)` where `L̃ = (2/λ_max)·L − I` is the scaled normalized
//! Laplacian and `T_k` are Chebyshev polynomials of the first kind. This
//! module computes `L`, `L̃` and the stack `[T_0(L̃)X, …, T_{K−1}(L̃)X]` used
//! by the GCN layer.

use st_tensor::{linalg, Matrix};

/// Symmetric normalized Laplacian `L = I − D^{−1/2} A D^{−1/2}`.
///
/// Isolated nodes (zero degree) contribute an identity row/column, matching
/// the convention `D^{−1/2}_{ii} = 0` when `D_ii = 0`.
///
/// # Panics
///
/// Panics if `adjacency` is not square.
pub fn normalized_laplacian(adjacency: &Matrix) -> Matrix {
    let n = adjacency.rows();
    assert_eq!(adjacency.cols(), n, "adjacency must be square");
    let mut d_inv_sqrt = vec![0.0; n];
    for (i, d) in d_inv_sqrt.iter_mut().enumerate() {
        let deg: f64 = adjacency.row(i).iter().sum();
        *d = if deg > 0.0 { 1.0 / deg.sqrt() } else { 0.0 };
    }
    Matrix::from_fn(n, n, |i, j| {
        let norm = d_inv_sqrt[i] * adjacency[(i, j)] * d_inv_sqrt[j];
        if i == j {
            1.0 - norm
        } else {
            -norm
        }
    })
}

/// Scaled Laplacian `L̃ = (2/λ_max)·L − I`, whose spectrum lies in `[−1, 1]`.
///
/// `λ_max` is estimated by power iteration; for the normalized Laplacian it
/// is at most 2, and we clamp the estimate into `[1e-6, 2]` for robustness.
///
/// # Panics
///
/// Panics if `laplacian` is not square.
pub fn scaled_laplacian(laplacian: &Matrix) -> Matrix {
    let n = laplacian.rows();
    assert_eq!(laplacian.cols(), n, "laplacian must be square");
    let lambda_max = linalg::power_iteration_max_eig(laplacian, 200, 1e-9).clamp(1e-6, 2.0);
    let mut out = laplacian.scale(2.0 / lambda_max);
    for i in 0..n {
        out[(i, i)] -= 1.0;
    }
    out
}

/// Convenience: scaled Laplacian straight from an adjacency matrix.
///
/// # Panics
///
/// Panics if `adjacency` is not square.
pub fn scaled_laplacian_from_adjacency(adjacency: &Matrix) -> Matrix {
    scaled_laplacian(&normalized_laplacian(adjacency))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph3() -> Matrix {
        // 0 — 1 — 2 with unit weights.
        Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]])
    }

    #[test]
    fn laplacian_known_values() {
        let l = normalized_laplacian(&path_graph3());
        // Degrees: 1, 2, 1 → L_01 = −1/√2.
        assert!((l[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((l[(0, 1)] + 1.0 / 2.0_f64.sqrt()).abs() < 1e-12);
        assert!((l[(1, 1)] - 1.0).abs() < 1e-12);
        assert_eq!(l[(0, 2)], 0.0);
    }

    #[test]
    fn laplacian_rows_annihilate_constant_vector_after_degree_scaling() {
        // L·D^{1/2}·1 = 0 for the symmetric normalized Laplacian.
        let a = path_graph3();
        let l = normalized_laplacian(&a);
        let d_sqrt = Matrix::col_vector(&[1.0, 2.0_f64.sqrt(), 1.0]);
        let res = l.matmul(&d_sqrt);
        assert!(res.max_abs() < 1e-12);
    }

    #[test]
    fn laplacian_handles_isolated_nodes() {
        let a = Matrix::zeros(3, 3);
        let l = normalized_laplacian(&a);
        assert_eq!(l, Matrix::identity(3));
    }

    #[test]
    fn scaled_laplacian_spectrum_in_unit_interval() {
        let l = normalized_laplacian(&path_graph3());
        let s = scaled_laplacian(&l);
        let lambda = linalg::power_iteration_max_eig(&s, 500, 1e-10);
        assert!(lambda <= 1.0 + 1e-6, "spectral radius was {lambda}");
    }
}
