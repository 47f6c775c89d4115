//! Finite-difference gradient checks for the batched-layout tape ops.
//!
//! Every forward — training included — runs `B` windows row-stacked as
//! one `(B·N) × F` node, so the layout permutations (`to_wide`,
//! `to_stacked`) and the per-block ops (`scale_blocks`, `mean_blocks`)
//! sit on the training gradient path. Each is checked against central
//! differences at `B = 1`, where the permutations are the identity, and at
//! `B = 3`. The readout weights every output element differently, so a
//! gradient routed to the wrong block or position changes the loss.
//!
//! The graph propagation between the permutations, `matmul_shared` of a
//! borrowed Chebyshev basis with the wide batch, is checked here too.

use st_autodiff::{check_gradient, Tape, Var};
use st_tensor::Matrix;
use std::sync::Arc;

const NODES: usize = 4;
const FEATURES: usize = 2;

fn pattern(rows: usize, cols: usize, phase: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c) as f64 * 0.37 + phase).sin()
    })
}

/// Checks d(loss)/d(param) for `loss = sum(tanh(op(param)) ⊙ W)` with a
/// fixed position-dependent `W`.
fn check_op(label: &str, at: &Matrix, op: impl Fn(&mut Tape, Var) -> Var) {
    let run = |m: &Matrix| -> (f64, Matrix) {
        let mut tape = Tape::new();
        let p = tape.parameter(m.clone());
        let out = op(&mut tape, p);
        let (rows, cols) = tape.value(out).shape();
        let w = tape.constant(pattern(rows, cols, 0.5));
        let squashed = tape.tanh(out);
        let weighted = tape.mul(squashed, w);
        let loss = tape.sum(weighted);
        tape.backward(loss);
        (tape.value(loss)[(0, 0)], tape.grad(p))
    };
    let (_, analytic) = run(at);
    let res = check_gradient(at, &analytic, 1e-6, |m| run(m).0);
    assert!(res.passes(1e-6), "{label}: gradient check failed: {res:?}");
}

#[test]
fn to_wide_gradients() {
    for b in [1, 3] {
        let x = pattern(b * NODES, FEATURES, 0.1);
        check_op(&format!("to_wide B={b}"), &x, |tape, p| tape.to_wide(p, b));
    }
}

#[test]
fn to_stacked_gradients() {
    for b in [1, 3] {
        let x = pattern(NODES, b * FEATURES, 0.2);
        check_op(&format!("to_stacked B={b}"), &x, |tape, p| {
            tape.to_stacked(p, b)
        });
    }
}

#[test]
fn permutations_are_identity_at_one_block() {
    let mut tape = Tape::new();
    let x = tape.parameter(pattern(NODES, FEATURES, 0.3));
    let before = tape.len();
    assert_eq!(tape.to_wide(x, 1), x);
    assert_eq!(tape.to_stacked(x, 1), x);
    assert_eq!(tape.len(), before, "B = 1 permutations record no node");
}

#[test]
fn scale_blocks_gradients_for_both_operands() {
    for b in [1, 3] {
        let x = pattern(b * NODES, FEATURES, 0.4);
        let s = Matrix::from_fn(b, 1, |r, _| 0.8 - 0.3 * r as f64);
        let s_const = s.clone();
        check_op(&format!("scale_blocks x-grad B={b}"), &x, |tape, p| {
            let sc = tape.constant(s_const.clone());
            tape.scale_blocks(p, sc)
        });
        // The attention head trains its weights through the s-gradient.
        let x_const = x.clone();
        check_op(&format!("scale_blocks s-grad B={b}"), &s, |tape, p| {
            let xc = tape.constant(x_const.clone());
            tape.scale_blocks(xc, p)
        });
    }
}

#[test]
fn mean_blocks_gradients() {
    for b in [1, 3] {
        let x = pattern(b * NODES, FEATURES, 0.6);
        check_op(&format!("mean_blocks B={b}"), &x, |tape, p| {
            tape.mean_blocks(p, b)
        });
    }
}

#[test]
fn matmul_shared_gradients() {
    let basis = Arc::new(pattern(NODES, NODES, 0.7));
    for b in [1, 3] {
        let x = pattern(NODES, b * FEATURES, 0.8);
        check_op(&format!("matmul_shared B={b}"), &x, |tape, p| {
            tape.matmul_shared(&basis, p)
        });
    }
}
