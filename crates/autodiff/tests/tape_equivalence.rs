//! Pooled-tape equivalence suite: for every `Op`, a graph built on a
//! recycled tape (`Tape::reset()` after a different, buffer-dirtying graph)
//! must produce bit-identical values and gradients to the same graph on a
//! fresh `Tape::new()` — including across two consecutive recycled passes,
//! which would expose any stale-buffer reuse (a pooled buffer whose old
//! contents leak into a new node).
//!
//! It also pins the tape's memory contract: only leaves keep a gradient
//! after `backward` (intermediate gradients go back to the pool once
//! propagated, without moving a leaf gradient bit), and a value returned
//! by `release_since` can no longer be read.

use st_autodiff::{Tape, Var};
use st_tensor::{rng, uniform_matrix, Matrix};
use std::sync::Arc;

/// A graph builder: records parameters and returns (params, scalar loss).
type Builder = fn(&mut Tape) -> (Vec<Var>, Var);

fn mat(seed: u64, r: usize, c: usize) -> Matrix {
    uniform_matrix(&mut rng(seed), r, c, -1.5, 1.5)
}

/// Strictly positive inputs for `ln` / `sqrt` / `div` denominators.
fn pos(seed: u64, r: usize, c: usize) -> Matrix {
    uniform_matrix(&mut rng(seed), r, c, 0.5, 2.0)
}

fn binary_mask(seed: u64, r: usize, c: usize) -> Matrix {
    let noise = uniform_matrix(&mut rng(seed), r, c, 0.0, 1.0);
    noise.map(|v| if v < 0.6 { 1.0 } else { 0.0 })
}

/// Bitwise snapshot of a completed backward pass.
#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    loss: u64,
    grads: Vec<Vec<u64>>,
}

fn run(tape: &mut Tape, builder: Builder) -> Snapshot {
    let (params, loss) = builder(tape);
    tape.backward(loss);
    Snapshot {
        loss: tape.value(loss)[(0, 0)].to_bits(),
        grads: params
            .iter()
            .map(|&p| {
                tape.grad_ref(p)
                    .expect("parameters always receive a gradient")
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect(),
    }
}

/// Fills the tape's pool with buffers of shapes *different* from what the
/// cases use, then runs a backward pass, so a recycled tape starts from a
/// dirty pool rather than an empty one.
fn dirty(tape: &mut Tape) {
    let w = tape.parameter(mat(901, 7, 5));
    let x = tape.constant(mat(902, 2, 7));
    let h = tape.matmul(x, w);
    let t = tape.tanh(h);
    let neg = tape.scale(t, -3.0);
    let e = tape.exp(neg);
    let loss = tape.mean(e);
    tape.backward(loss);
}

fn cases() -> Vec<(&'static str, Builder)> {
    vec![
        ("leaf", |t| {
            let a = t.parameter(mat(1, 3, 4));
            let loss = t.sum(a);
            (vec![a], loss)
        }),
        ("add", |t| {
            let a = t.parameter(mat(2, 3, 4));
            let b = t.parameter(mat(3, 3, 4));
            let y = t.add(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("sub", |t| {
            let a = t.parameter(mat(4, 3, 4));
            let b = t.parameter(mat(5, 3, 4));
            let y = t.sub(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("mul", |t| {
            let a = t.parameter(mat(6, 3, 4));
            let b = t.parameter(mat(7, 3, 4));
            let y = t.mul(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("mul_same_operand", |t| {
            let a = t.parameter(mat(8, 3, 4));
            let y = t.mul(a, a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("matmul", |t| {
            let a = t.parameter(mat(9, 3, 5));
            let b = t.parameter(mat(10, 5, 2));
            let y = t.matmul(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("scale", |t| {
            let a = t.parameter(mat(11, 3, 4));
            let y = t.scale(a, -2.5);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("add_scalar", |t| {
            let a = t.parameter(mat(12, 3, 4));
            let y = t.add_scalar(a, 0.75);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("add_bias", |t| {
            let x = t.parameter(mat(13, 3, 4));
            let b = t.parameter(mat(14, 1, 4));
            let y = t.add_bias(x, b);
            let loss = t.sum(y);
            (vec![x, b], loss)
        }),
        ("sigmoid", |t| {
            let a = t.parameter(mat(15, 3, 4));
            let y = t.sigmoid(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("tanh", |t| {
            let a = t.parameter(mat(16, 3, 4));
            let y = t.tanh(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("relu", |t| {
            let a = t.parameter(mat(17, 3, 4));
            let y = t.relu(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("abs", |t| {
            let a = t.parameter(mat(18, 3, 4));
            let y = t.abs(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("concat_cols", |t| {
            let a = t.parameter(mat(19, 3, 2));
            let b = t.parameter(mat(20, 3, 5));
            let y = t.concat_cols(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("slice_cols_partial", |t| {
            let a = t.parameter(mat(21, 3, 5));
            let y = t.slice_cols(a, 1, 4);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("slice_cols_full_width", |t| {
            // start == 0 covering every column: exercises the fused
            // backward path that skips the zero-scatter entirely.
            let a = t.parameter(mat(22, 3, 5));
            let y = t.slice_cols(a, 0, 5);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("sum", |t| {
            let a = t.parameter(mat(23, 3, 4));
            let loss = t.sum(a);
            (vec![a], loss)
        }),
        ("mean", |t| {
            let a = t.parameter(mat(24, 3, 4));
            let loss = t.mean(a);
            (vec![a], loss)
        }),
        ("softmax_rows", |t| {
            let a = t.parameter(mat(25, 3, 4));
            let y = t.softmax_rows(a);
            let w = t.constant(mat(26, 3, 4));
            let m = t.mul(y, w);
            let loss = t.sum(m);
            (vec![a], loss)
        }),
        ("scale_var", |t| {
            let x = t.parameter(mat(27, 3, 4));
            let s = t.parameter(mat(28, 1, 1));
            let y = t.scale_var(x, s);
            let loss = t.sum(y);
            (vec![x, s], loss)
        }),
        ("transpose", |t| {
            let a = t.parameter(mat(29, 3, 5));
            let y = t.transpose(a);
            let w = t.constant(mat(30, 5, 3));
            let m = t.mul(y, w);
            let loss = t.sum(m);
            (vec![a], loss)
        }),
        ("exp", |t| {
            let a = t.parameter(mat(31, 3, 4));
            let y = t.exp(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("ln", |t| {
            let a = t.parameter(pos(32, 3, 4));
            let y = t.ln(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("sqrt", |t| {
            let a = t.parameter(pos(33, 3, 4));
            let y = t.sqrt(a);
            let loss = t.sum(y);
            (vec![a], loss)
        }),
        ("div", |t| {
            let a = t.parameter(mat(34, 3, 4));
            let b = t.parameter(pos(35, 3, 4));
            let y = t.div(a, b);
            let loss = t.sum(y);
            (vec![a, b], loss)
        }),
        ("masked_mae", |t| {
            let a = t.parameter(mat(36, 3, 4));
            let b = t.parameter(mat(37, 3, 4));
            let loss = t.masked_mae(a, b, &binary_mask(38, 3, 4));
            (vec![a, b], loss)
        }),
        ("masked_mae_var", |t| {
            let a = t.parameter(mat(39, 3, 4));
            let b = t.parameter(mat(40, 3, 4));
            let m = t.constant_ref(&binary_mask(41, 3, 4));
            let loss = t.masked_mae_var(a, b, m);
            (vec![a, b], loss)
        }),
        ("matmul_shared", |t| {
            let a = Arc::new(mat(60, 5, 4));
            let x = t.parameter(mat(61, 4, 3));
            let y = t.matmul_shared(&a, x);
            let y = t.tanh(y);
            let loss = t.sum(y);
            (vec![x], loss)
        }),
        ("deep_composite", |t| {
            // A mixed graph chaining most ops, closer to a model step.
            let w1 = t.parameter(mat(42, 4, 6));
            let w2 = t.parameter(mat(43, 6, 3));
            let b = t.parameter(mat(44, 1, 6));
            let x = t.constant(mat(45, 5, 4));
            let h = t.matmul(x, w1);
            let h = t.add_bias(h, b);
            let h = t.tanh(h);
            let left = t.slice_cols(h, 0, 3);
            let right = t.slice_cols(h, 3, 6);
            let g = t.sigmoid(right);
            let gated = t.mul(left, g);
            let out = t.matmul(h, w2);
            let cat = t.concat_cols(gated, out);
            let sm = t.softmax_rows(cat);
            let loss = t.mean(sm);
            (vec![w1, w2, b], loss)
        }),
    ]
}

#[test]
fn every_op_is_bit_identical_on_a_recycled_tape() {
    for (name, builder) in cases() {
        let mut fresh = Tape::new();
        let reference = run(&mut fresh, builder);

        // Recycled pass 1: the tape has run (and backward-swept) a graph of
        // unrelated shapes, so the pool hands back dirty buffers.
        let mut tape = Tape::new();
        dirty(&mut tape);
        tape.reset();
        let first = run(&mut tape, builder);
        assert_eq!(
            first, reference,
            "{name}: recycled tape diverged from fresh tape"
        );

        // Recycled pass 2: now the pool holds buffers from the case itself —
        // any stale-content reuse shows up here.
        tape.reset();
        let second = run(&mut tape, builder);
        assert_eq!(
            second, reference,
            "{name}: second consecutive recycled pass diverged"
        );
    }
}

#[test]
fn recycled_tape_reuses_buffers() {
    let mut tape = Tape::new();
    let builder: Builder = |t| {
        let a = t.parameter(mat(50, 6, 6));
        let b = t.parameter(mat(51, 6, 6));
        let y = t.matmul(a, b);
        let s = t.sigmoid(y);
        let loss = t.mean(s);
        (vec![a, b], loss)
    };
    let _ = run(&mut tape, builder);
    let misses_after_first = tape.pool_stats().misses;
    tape.reset();
    let _ = run(&mut tape, builder);
    let stats = tape.pool_stats();
    assert_eq!(
        stats.misses, misses_after_first,
        "steady-state pass must not miss the pool"
    );
    assert!(stats.hits > 0, "steady-state pass must hit the pool");
}

#[test]
fn matmul_shared_matches_matmul_with_a_copied_constant() {
    let shared = Arc::new(mat(70, 5, 4));
    let copied = |t: &mut Tape| {
        let x = t.parameter(mat(71, 4, 3));
        let a = t.constant_ref(&mat(70, 5, 4));
        let y = t.matmul(a, x);
        (x, y)
    };
    let borrowed = |t: &mut Tape| {
        let x = t.parameter(mat(71, 4, 3));
        let y = t.matmul_shared(&shared, x);
        (x, y)
    };
    let mut snapshots = Vec::new();
    for build in [&copied as &dyn Fn(&mut Tape) -> (Var, Var), &borrowed] {
        let mut tape = Tape::new();
        let (x, y) = build(&mut tape);
        let y = tape.sigmoid(y);
        let loss = tape.mean(y);
        tape.backward(loss);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        snapshots.push((
            bits(tape.value(y)),
            bits(tape.grad_ref(x).expect("leaf grad")),
        ));
    }
    assert_eq!(snapshots[0], snapshots[1]);
}

/// `loss = sum(a ⊙ a + a)` with `a = tanh(p · w)`: `a` feeds three
/// gradient terms, so its sweep gradient is an accumulated buffer that
/// goes back to the pool while the sweep still runs.
#[test]
fn only_leaves_keep_gradients_and_they_match_a_hand_accumulation() {
    let (p0, w0) = (mat(80, 3, 4), mat(81, 4, 2));

    // The sweep the tape runs, written out with the same kernels in the
    // same order, every gradient kept.
    let mut h = Matrix::zeros(3, 2);
    p0.matmul_into(&w0, &mut h);
    let a = h.map(f64::tanh);
    let g_s = Matrix::filled(3, 2, 1.0);
    let g_b = g_s.clone();
    let mut g_a = g_s.clone();
    for _ in 0..2 {
        let mut part = Matrix::zeros(3, 2);
        g_b.hadamard_into(&a, &mut part);
        g_a.axpy(1.0, &part);
    }
    let mut g_h = Matrix::zeros(3, 2);
    g_a.zip_map_into(&a, &mut g_h, |gi, yi| gi * (1.0 - yi * yi));
    let mut g_p = Matrix::zeros(3, 4);
    g_h.matmul_nt_into(&w0, &mut g_p);
    let mut g_w = Matrix::zeros(4, 2);
    p0.matmul_tn_into(&g_h, &mut g_w);

    let mut tape = Tape::new();
    for recycled in [false, true] {
        if recycled {
            dirty(&mut tape);
            tape.reset();
        }
        let p = tape.parameter(p0.clone());
        let w = tape.parameter(w0.clone());
        let h = tape.matmul(p, w);
        let a = tape.tanh(h);
        let b = tape.mul(a, a);
        let s = tape.add(b, a);
        let loss = tape.sum(s);
        tape.backward(loss);
        for (name, v) in [("h", h), ("a", a), ("b", b), ("s", s), ("loss", loss)] {
            assert!(
                tape.grad_ref(v).is_none(),
                "intermediate {name} kept its gradient"
            );
        }
        for (name, v, want) in [("p", p, &g_p), ("w", w, &g_w)] {
            let got = tape.grad_ref(v).expect("leaf keeps its gradient");
            assert!(
                got.as_slice()
                    .iter()
                    .zip(want.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name} (recycled: {recycled}): leaf gradient moved"
            );
        }
        tape.reset();
    }
}

/// Records `p`, a constant, `x · p`, `tanh` and a parameter bound after
/// the release mark, then releases everything from the constant on except
/// the `tanh` node.
fn released_tape() -> (Tape, [Var; 5]) {
    let mut tape = Tape::new();
    let p = tape.parameter(mat(90, 3, 3));
    let x = tape.constant(mat(91, 2, 3));
    let y = tape.matmul(x, p);
    let z = tape.tanh(y);
    let q = tape.parameter(mat(92, 2, 3));
    tape.release_since(x.index(), &[z]);
    (tape, [p, x, y, z, q])
}

#[test]
fn release_since_recycles_all_but_kept_nodes_and_parameters() {
    let (mut tape, [p, _, _, z, q]) = released_tape();
    assert_eq!(tape.value(p), &mat(90, 3, 3));
    assert_eq!(tape.value(q), &mat(92, 2, 3));
    let mut want_z = Matrix::zeros(2, 3);
    mat(91, 2, 3).matmul_into(&mat(90, 3, 3), &mut want_z);
    assert_eq!(tape.value(z), &want_z.map(f64::tanh));
    // The two released 2×3 values serve the next two 2×3 acquires.
    assert_eq!(tape.pool_free_bytes(), 2 * 6 * 8);
    let misses = tape.pool_stats().misses;
    let a = tape.add(z, q);
    let _ = tape.mul(a, q);
    assert_eq!(tape.pool_stats().misses, misses);
    assert_eq!(tape.pool_free_bytes(), 0);
}

#[test]
#[should_panic(expected = "tape node 2 was released")]
fn reading_a_released_value_panics_with_the_node_index() {
    let (tape, [_, _, y, _, _]) = released_tape();
    let _ = tape.value(y);
}

#[test]
#[should_panic(expected = "tape node 1 was released")]
fn a_released_operand_panics_with_the_node_index() {
    let (mut tape, [_, x, _, _, q]) = released_tape();
    let _ = tape.add(x, q);
}

#[test]
#[should_panic(expected = "backward needs every value, but tape node 1 was released")]
fn backward_after_a_release_panics() {
    let (mut tape, [_, _, _, z, _]) = released_tape();
    let loss = tape.sum(z);
    tape.backward(loss);
}
