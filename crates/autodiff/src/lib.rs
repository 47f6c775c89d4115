//! Reverse-mode automatic differentiation over dense matrices.
//!
//! The RIHGCN paper's central training trick — imputed values that receive
//! *delayed gradients* from losses at later timestamps — requires a dynamic
//! computation graph. This crate provides exactly that: a [`Tape`] on which
//! matrix operations are recorded in execution order and differentiated by a
//! single reverse sweep ([`Tape::backward`]).
//!
//! The operation set is deliberately small — the union of what a Chebyshev
//! GCN, an LSTM cell, attention blocks and the paper's masked L1 losses
//! need — and each backward rule is verified against finite differences in
//! the test suite (see [`check`]).
//!
//! # Examples
//!
//! ```
//! use st_autodiff::Tape;
//! use st_tensor::Matrix;
//!
//! let mut tape = Tape::new();
//! let w = tape.parameter(Matrix::from_rows(&[&[0.5], &[-1.0]]));
//! let x = tape.constant(Matrix::from_rows(&[&[2.0, 3.0]]));
//! let y = tape.matmul(x, w);           // ŷ = x · w
//! let target = tape.constant(Matrix::from_rows(&[&[1.0]]));
//! let loss = tape.mse(y, target);
//! tape.backward(loss);
//! assert_eq!(tape.grad(w).shape(), (2, 1));
//! ```

#![warn(missing_docs)]

pub mod check;
mod tape;

pub use check::{check_gradient, GradCheck};
pub use tape::{Tape, Var};

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::{rng, uniform_matrix, Matrix};

    fn tape_grad(at: &Matrix, build: impl Fn(&mut Tape, Var) -> Var) -> Matrix {
        let mut tape = Tape::new();
        let p = tape.parameter(at.clone());
        let loss = build(&mut tape, p);
        tape.backward(loss);
        tape.grad(p)
    }

    fn fd_check(at: &Matrix, build: impl Fn(&mut Tape, Var) -> Var + Copy) {
        let analytic = tape_grad(at, build);
        let res = check_gradient(at, &analytic, 1e-6, |m| {
            let mut tape = Tape::new();
            let p = tape.parameter(m.clone());
            let loss = build(&mut tape, p);
            tape.value(loss)[(0, 0)]
        });
        assert!(res.passes(1e-5), "gradient check failed: {res:?}");
    }

    #[test]
    fn add_backward() {
        let at = uniform_matrix(&mut rng(1), 3, 2, -1.0, 1.0);
        fd_check(&at, |t, p| {
            let c = t.constant(Matrix::filled(3, 2, 0.3));
            let s = t.add(p, c);
            let s2 = t.add(s, p);
            t.sum(s2)
        });
    }

    #[test]
    fn sub_backward() {
        let at = uniform_matrix(&mut rng(2), 2, 2, -1.0, 1.0);
        fd_check(&at, |t, p| {
            let c = t.constant(Matrix::filled(2, 2, 0.7));
            let d = t.sub(c, p);
            let sq = t.mul(d, d);
            t.sum(sq)
        });
    }

    #[test]
    fn mul_backward() {
        let at = uniform_matrix(&mut rng(3), 2, 3, 0.1, 1.0);
        fd_check(&at, |t, p| {
            let prod = t.mul(p, p);
            let prod = t.mul(prod, p); // p³
            t.mean(prod)
        });
    }

    #[test]
    fn matmul_backward_both_sides() {
        let a = uniform_matrix(&mut rng(4), 3, 4, -1.0, 1.0);
        fd_check(&a, |t, p| {
            let b = t.constant(Matrix::from_fn(4, 2, |r, c| (r + c) as f64 * 0.1));
            let m = t.matmul(p, b);
            t.sum(m)
        });
        let b = uniform_matrix(&mut rng(5), 4, 2, -1.0, 1.0);
        fd_check(&b, |t, p| {
            let a = t.constant(Matrix::from_fn(3, 4, |r, c| (r as f64 - c as f64) * 0.2));
            let m = t.matmul(a, p);
            let sq = t.mul(m, m);
            t.sum(sq)
        });
    }

    #[test]
    fn scale_and_add_scalar_backward() {
        let at = uniform_matrix(&mut rng(6), 2, 2, -1.0, 1.0);
        fd_check(&at, |t, p| {
            let s = t.scale(p, -2.5);
            let s = t.add_scalar(s, 1.0);
            let sq = t.mul(s, s);
            t.mean(sq)
        });
    }

    #[test]
    fn bias_backward() {
        let bias = uniform_matrix(&mut rng(7), 1, 3, -1.0, 1.0);
        fd_check(&bias, |t, p| {
            let x = t.constant(Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 * 0.1));
            let y = t.add_bias(x, p);
            let sq = t.mul(y, y);
            t.sum(sq)
        });
    }

    #[test]
    fn sigmoid_backward() {
        let at = uniform_matrix(&mut rng(8), 2, 3, -2.0, 2.0);
        fd_check(&at, |t, p| {
            let y = t.sigmoid(p);
            t.sum(y)
        });
    }

    #[test]
    fn tanh_backward() {
        let at = uniform_matrix(&mut rng(9), 2, 3, -2.0, 2.0);
        fd_check(&at, |t, p| {
            let y = t.tanh(p);
            let sq = t.mul(y, y);
            t.mean(sq)
        });
    }

    #[test]
    fn relu_backward() {
        // Keep entries away from the kink at 0 (after the −1 shift below).
        let at = uniform_matrix(&mut rng(10), 2, 3, 0.2, 2.0).map(|x| {
            if (x - 1.0).abs() < 0.05 {
                1.2
            } else {
                x
            }
        });
        fd_check(&at, |t, p| {
            let shifted = t.add_scalar(p, -1.0);
            let y = t.relu(shifted);
            t.sum(y)
        });
    }

    #[test]
    fn abs_backward() {
        let at =
            uniform_matrix(&mut rng(11), 2, 3, -1.0, 1.0)
                .map(|x| if x.abs() < 0.05 { 0.1 } else { x });
        fd_check(&at, |t, p| {
            let y = t.abs(p);
            t.sum(y)
        });
    }

    #[test]
    fn concat_and_slice_backward() {
        let at = uniform_matrix(&mut rng(12), 3, 2, -1.0, 1.0);
        fd_check(&at, |t, p| {
            let c = t.constant(Matrix::from_fn(3, 2, |r, c| (r + 2 * c) as f64 * 0.3));
            let cat = t.concat_cols(p, c);
            let left = t.slice_cols(cat, 0, 2);
            let right = t.slice_cols(cat, 2, 4);
            let prod = t.mul(left, right);
            t.sum(prod)
        });
    }

    #[test]
    fn softmax_backward() {
        let at = uniform_matrix(&mut rng(13), 3, 4, -1.0, 1.0);
        fd_check(&at, |t, p| {
            let y = t.softmax_rows(p);
            let w = t.constant(Matrix::from_fn(3, 4, |r, c| {
                ((r + 1) * (c + 1)) as f64 * 0.1
            }));
            let weighted = t.mul(y, w);
            t.sum(weighted)
        });
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]));
        let y = tape.softmax_rows(x);
        let v = tape.value(y);
        for r in 0..2 {
            let s: f64 = v.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Large logits must not overflow.
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1000.0, 1001.0]]));
        let y = tape.softmax_rows(x);
        assert!(tape.value(y).is_finite());
    }

    #[test]
    fn scale_var_backward_both() {
        let x = uniform_matrix(&mut rng(14), 2, 2, -1.0, 1.0);
        fd_check(&x, |t, p| {
            let s = t.parameter(Matrix::from_rows(&[&[0.7]]));
            let y = t.scale_var(p, s);
            let sq = t.mul(y, y);
            t.sum(sq)
        });
        let s0 = Matrix::from_rows(&[&[0.7]]);
        fd_check(&s0, |t, p| {
            let x = t.constant(Matrix::from_fn(2, 2, |r, c| (r + c) as f64 - 0.5));
            let y = t.scale_var(x, p);
            let sq = t.mul(y, y);
            t.sum(sq)
        });
    }

    #[test]
    fn transpose_backward() {
        let at = uniform_matrix(&mut rng(15), 2, 3, -1.0, 1.0);
        fd_check(&at, |t, p| {
            let pt = t.transpose(p);
            let w = t.constant(Matrix::from_fn(3, 2, |r, c| {
                (r as f64 + 1.0) * (c as f64 - 0.5)
            }));
            let prod = t.mul(pt, w);
            t.sum(prod)
        });
    }

    #[test]
    fn mae_and_mse_backward() {
        let at = uniform_matrix(&mut rng(16), 2, 3, 0.3, 1.0);
        fd_check(&at, |t, p| {
            let target = t.constant(Matrix::filled(2, 3, -0.2));
            t.mae(p, target)
        });
        fd_check(&at, |t, p| {
            let target = t.constant(Matrix::filled(2, 3, -0.2));
            t.mse(p, target)
        });
    }

    #[test]
    fn masked_mae_only_counts_mask() {
        let mut tape = Tape::new();
        let a = tape.parameter(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = tape.constant(Matrix::zeros(2, 2));
        let mask = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let loss = tape.masked_mae(a, b, &mask);
        // (|1| + |4|) / 2 = 2.5.
        assert!((tape.value(loss)[(0, 0)] - 2.5).abs() < 1e-12);
        tape.backward(loss);
        let g = tape.grad(a);
        assert_eq!(g[(0, 0)], 0.5);
        assert_eq!(g[(0, 1)], 0.0);
        assert_eq!(g[(1, 0)], 0.0);
        assert_eq!(g[(1, 1)], 0.5);
    }

    #[test]
    fn gradients_flow_through_long_chains() {
        // Simulates the "delayed gradient" pattern of recurrent imputation:
        // x_{t+1} = tanh(x_t · w); a loss only at the final step must reach w
        // through every unrolled step.
        let w0 = Matrix::from_rows(&[&[0.4, -0.3], &[0.2, 0.6]]);
        fd_check(&w0, |t, p| {
            let mut x = t.constant(Matrix::from_rows(&[&[1.0, -1.0]]));
            for _ in 0..10 {
                let h = t.matmul(x, p);
                x = t.tanh(h);
            }
            let target = t.constant(Matrix::from_rows(&[&[0.3, -0.1]]));
            t.mse(x, target)
        });
    }

    #[test]
    fn constants_do_not_accumulate_gradients() {
        let mut tape = Tape::new();
        let c = tape.constant(Matrix::ones(2, 2));
        let p = tape.parameter(Matrix::ones(2, 2));
        let y = tape.mul(c, p);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert!(!tape.needs_grad(c));
        assert_eq!(tape.grad(c), Matrix::zeros(2, 2));
        assert_eq!(tape.grad(p), Matrix::ones(2, 2));
    }

    #[test]
    fn backward_twice_accumulates() {
        let mut tape = Tape::new();
        let p = tape.parameter(Matrix::ones(1, 1));
        let y = tape.scale(p, 3.0);
        let loss = tape.sum(y);
        tape.backward(loss);
        tape.backward(loss);
        assert_eq!(tape.grad(p)[(0, 0)], 6.0);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_rejects_non_scalar() {
        let mut tape = Tape::new();
        let p = tape.parameter(Matrix::ones(2, 2));
        tape.backward(p);
    }

    #[test]
    fn shared_subexpression_gradients_sum() {
        // loss = sum(p + p) ⇒ dL/dp = 2 everywhere.
        let mut tape = Tape::new();
        let p = tape.parameter(Matrix::ones(2, 2));
        let y = tape.add(p, p);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(tape.grad(p), Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn exp_ln_sqrt_div_backward() {
        let at = uniform_matrix(&mut rng(21), 2, 3, 0.3, 1.5);
        fd_check(&at, |t, p| {
            let e = t.exp(p);
            t.mean(e)
        });
        fd_check(&at, |t, p| {
            let l = t.ln(p);
            let sq = t.mul(l, l);
            t.mean(sq)
        });
        fd_check(&at, |t, p| {
            let s = t.sqrt(p);
            t.sum(s)
        });
        fd_check(&at, |t, p| {
            let c = t.constant(Matrix::from_fn(2, 3, |r, q| 0.5 + (r + q) as f64 * 0.3));
            let d = t.div(p, c);
            t.mean(d)
        });
        // Gradient w.r.t. the divisor.
        fd_check(&at, |t, p| {
            let c = t.constant(Matrix::filled(2, 3, 0.8));
            let d = t.div(c, p);
            t.mean(d)
        });
    }

    #[test]
    fn domain_violations_panic() {
        let mut tape = Tape::new();
        let neg = tape.constant(Matrix::from_rows(&[&[-1.0]]));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t2 = Tape::new();
            let v = t2.constant(Matrix::from_rows(&[&[-1.0]]));
            t2.ln(v)
        }));
        assert!(result.is_err(), "ln of negative must panic");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t2 = Tape::new();
            let v = t2.constant(Matrix::from_rows(&[&[-1.0]]));
            t2.sqrt(v)
        }));
        assert!(result.is_err(), "sqrt of negative must panic");
        let _ = neg;
        let _ = &mut tape;
    }

    #[test]
    fn lstm_style_gate_gradcheck() {
        // One LSTM-like gate built from primitives must gradcheck end-to-end.
        let w = uniform_matrix(&mut rng(17), 3, 2, -0.5, 0.5);
        fd_check(&w, |t, p| {
            let x = t.constant(Matrix::from_fn(4, 3, |r, c| {
                r as f64 * 0.3 - c as f64 * 0.2
            }));
            let b = t.constant(Matrix::from_fn(1, 2, |_, c| 0.1 * c as f64));
            let z = t.matmul(x, p);
            let z = t.add_bias(z, b);
            let f = t.sigmoid(z);
            let g = t.tanh(z);
            let h = t.mul(f, g);
            t.mean(h)
        });
    }
}
