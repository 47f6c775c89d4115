//! Property-based tests for matrix algebra invariants.

use st_check::{prop_assert, prop_assert_eq, Check};
use st_tensor::{linalg, Matrix};

/// Builds a matrix of the given shape from generated entries in
/// `[-10, 10)`; shrinking happens on the entry vector (element-wise, length
/// preserved by the custom shrinker below).
fn matrix(g: &mut st_check::Gen, rows: usize, cols: usize) -> Matrix {
    g.matrix(rows, cols, -10.0, 10.0)
}

/// Shrinks every matrix of a failing tuple entry-wise (shape preserved).
fn shrink_matrices(ms: &Vec<Matrix>) -> Vec<Vec<Matrix>> {
    use st_check::Shrink;
    ms.iter()
        .enumerate()
        .flat_map(|(i, m)| m.shrink().into_iter().map(move |cand| (i, cand)))
        .map(|(i, cand)| {
            let mut copy = ms.clone();
            copy[i] = cand;
            copy
        })
        .collect()
}

#[test]
fn matmul_associative() {
    Check::new("matmul_associative").cases(64).run_with_shrink(
        |g| vec![matrix(g, 3, 4), matrix(g, 4, 2), matrix(g, 2, 5)],
        shrink_matrices,
        |ms| {
            let (a, b, c) = (&ms[0], &ms[1], &ms[2]);
            let left = a.matmul(b).matmul(c);
            let right = a.matmul(&b.matmul(c));
            prop_assert!(left.max_abs_diff(&right) < 1e-9);
            Ok(())
        },
    );
}

#[test]
fn matmul_distributes_over_addition() {
    Check::new("matmul_distributes_over_addition")
        .cases(64)
        .run_with_shrink(
            |g| vec![matrix(g, 3, 4), matrix(g, 4, 2), matrix(g, 4, 2)],
            shrink_matrices,
            |ms| {
                let (a, b, c) = (&ms[0], &ms[1], &ms[2]);
                let sum = b + c;
                let left = a.matmul(&sum);
                let mut right = a.matmul(b);
                right.axpy(1.0, &a.matmul(c));
                prop_assert!(left.max_abs_diff(&right) < 1e-9);
                Ok(())
            },
        );
}

#[test]
fn transpose_reverses_product() {
    Check::new("transpose_reverses_product")
        .cases(64)
        .run_with_shrink(
            |g| vec![matrix(g, 3, 4), matrix(g, 4, 2)],
            shrink_matrices,
            |ms| {
                let (a, b) = (&ms[0], &ms[1]);
                let left = a.matmul(b).transpose();
                let right = b.transpose().matmul(&a.transpose());
                prop_assert!(left.max_abs_diff(&right) < 1e-10);
                Ok(())
            },
        );
}

#[test]
fn identity_is_neutral() {
    Check::new("identity_is_neutral").cases(64).run(
        |g| matrix(g, 4, 4),
        |a| {
            prop_assert!(a.matmul(&Matrix::identity(4)).max_abs_diff(a) < 1e-12);
            prop_assert!(Matrix::identity(4).matmul(a).max_abs_diff(a) < 1e-12);
            Ok(())
        },
    );
}

#[test]
fn fused_transpose_products_agree() {
    Check::new("fused_transpose_products_agree")
        .cases(64)
        .run_with_shrink(
            |g| vec![matrix(g, 3, 4), matrix(g, 3, 2)],
            shrink_matrices,
            |ms| {
                let (a, b) = (&ms[0], &ms[1]);
                prop_assert!(a.matmul_tn(b).max_abs_diff(&a.transpose().matmul(b)) < 1e-10);
                let c = Matrix::from_fn(5, 4, |r, q| (r * 4 + q) as f64 * 0.1);
                prop_assert!(a.matmul_nt(&c).max_abs_diff(&a.matmul(&c.transpose())) < 1e-10);
                Ok(())
            },
        );
}

#[test]
fn frobenius_norm_triangle_inequality() {
    Check::new("frobenius_norm_triangle_inequality")
        .cases(64)
        .run_with_shrink(
            |g| vec![matrix(g, 3, 3), matrix(g, 3, 3)],
            shrink_matrices,
            |ms| {
                let (a, b) = (&ms[0], &ms[1]);
                let sum = a + b;
                prop_assert!(
                    sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9
                );
                Ok(())
            },
        );
}

#[test]
fn hcat_slice_round_trip() {
    Check::new("hcat_slice_round_trip")
        .cases(64)
        .run_with_shrink(
            |g| vec![matrix(g, 3, 2), matrix(g, 3, 4)],
            shrink_matrices,
            |ms| {
                let (a, b) = (&ms[0], &ms[1]);
                let cat = a.hcat(b);
                prop_assert_eq!(cat.slice_cols(0, 2), *a);
                prop_assert_eq!(cat.slice_cols(2, 6), *b);
                Ok(())
            },
        );
}

#[test]
fn vcat_slice_round_trip() {
    Check::new("vcat_slice_round_trip")
        .cases(64)
        .run_with_shrink(
            |g| vec![matrix(g, 2, 3), matrix(g, 4, 3)],
            shrink_matrices,
            |ms| {
                let (a, b) = (&ms[0], &ms[1]);
                let cat = a.vcat(b);
                prop_assert_eq!(cat.slice_rows(0, 2), *a);
                prop_assert_eq!(cat.slice_rows(2, 6), *b);
                Ok(())
            },
        );
}

#[test]
fn solve_inverts_matmul() {
    Check::new("solve_inverts_matmul").cases(64).run(
        |g| matrix(g, 3, 1),
        |x| {
            // A fixed well-conditioned system: A·x = b ⇒ solve(A, b) = x.
            let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 5.0, 2.0], &[0.0, 2.0, 6.0]]);
            let b = a.matmul(x);
            let solved = linalg::solve(&a, &b).unwrap();
            prop_assert!(solved.max_abs_diff(x) < 1e-8);
            Ok(())
        },
    );
}

#[test]
fn least_squares_agrees_with_lu_on_square_systems() {
    // A square SPD system has the exact solution as its least-squares fit;
    // `least_squares` reaches it through Cholesky on the normal equations.
    Check::new("least_squares_agrees_with_lu_on_square_systems")
        .cases(64)
        .run(
            |g| matrix(g, 3, 2),
            |x| {
                let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 5.0, 2.0], &[0.5, 2.0, 6.0]]);
                let b = a.matmul(x);
                let via_chol = linalg::least_squares(&a, &b, 0.0).unwrap();
                let via_lu = linalg::solve(&a, &b).unwrap();
                prop_assert!(via_chol.max_abs_diff(&via_lu) < 1e-8);
                Ok(())
            },
        );
}

#[test]
fn sum_cols_then_rows_equals_total() {
    Check::new("sum_cols_then_rows_equals_total").cases(64).run(
        |g| matrix(g, 4, 5),
        |a| {
            let total = a.sum();
            let by_cols = a.sum_cols().sum();
            let by_rows = a.sum_rows().sum();
            prop_assert!((total - by_cols).abs() < 1e-9);
            prop_assert!((total - by_rows).abs() < 1e-9);
            Ok(())
        },
    );
}
