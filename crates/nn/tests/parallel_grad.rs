//! Finite-difference gradient checks for the layers whose kernels run on
//! the parallel path: the blocked matmul family and the HGCN block.
//!
//! The serial and parallel code paths are bit-identical by construction
//! (the st-par determinism contract), but an indexing bug in the blocked
//! kernels would corrupt values *and* gradients — so here the analytic
//! gradients are re-verified against central differences with the
//! parallel work threshold forced low enough that every product actually
//! fans out across workers, at sizes on both sides of the threshold.

use st_autodiff::{check_gradient, Tape};
use st_graph::{gaussian_adjacency, Interval, RoadNetwork};
use st_nn::{HgcnBlock, ParamStore, Session};
use st_tensor::{rng, uniform_matrix, Matrix};

fn matmul_chain_check(n: usize, label: &str) {
    // loss(w) = mean(tanh(x·w)·wᵀ-ish chain) exercising matmul, matmul_tn
    // and matmul_nt through the tape's forward and backward sweeps.
    let x0 = uniform_matrix(&mut rng(21), n, n, -1.0, 1.0);
    let w0 = uniform_matrix(&mut rng(22), n, n, -0.5, 0.5);
    let run = |w: &Matrix| -> (f64, Matrix) {
        let mut tape = Tape::new();
        let wv = tape.parameter(w.clone());
        let x = tape.constant(x0.clone());
        let h = tape.matmul(x, wv);
        let h = tape.tanh(h);
        let h = tape.matmul(h, wv);
        let loss = tape.mean(h);
        tape.backward(loss);
        (tape.value(loss)[(0, 0)], tape.grad(wv))
    };
    let (_, analytic) = run(&w0);
    let res = check_gradient(&w0, &analytic, 1e-6, |w| run(w).0);
    assert!(
        res.passes(1e-5),
        "{label}: matmul chain grad failed: {res:?}"
    );
}

fn hgcn_check(threads: usize, label: &str) {
    st_par::set_num_threads(threads);
    let n = 5;
    let net = RoadNetwork::corridor(n, 1.0);
    let geo = gaussian_adjacency(&net.distance_matrix(), None, 0.1);
    let day = Matrix::from_fn(n, n, |i, j| if i != j { 0.8 } else { 0.0 });
    let night = Matrix::from_fn(n, n, |i, j| {
        if i != j && i.abs_diff(j) == 1 {
            0.5
        } else {
            0.0
        }
    });
    let temporal = vec![(Interval::new(72, 216), day), (Interval::new(0, 72), night)];
    let mut store = ParamStore::new();
    let block = HgcnBlock::new(
        &mut store,
        &mut rng(23),
        3,
        4,
        2,
        &geo,
        temporal,
        288,
        4.0,
        "hgcn",
    );
    // One window, then a batch of two stacked windows at different slots
    // (the second inside the other temporal interval).
    for slots in [&[100][..], &[100, 30][..]] {
        hgcn_grad_check(&block, &store, slots, label);
    }
}

fn hgcn_grad_check(block: &HgcnBlock, store: &ParamStore, slots: &[usize], label: &str) {
    let n = block.num_nodes();
    let x0 = uniform_matrix(&mut rng(24), slots.len() * n, 3, -1.0, 1.0);

    let run = |store: &ParamStore, id: st_nn::ParamId| -> (f64, Matrix) {
        let mut sess = Session::new(store);
        let x = sess.constant(x0.clone());
        let y = block.forward(&mut sess, store, slots, x);
        let sq = sess.tape.mul(y, y);
        let loss = sess.tape.mean(sq);
        sess.backward(loss);
        let mut tmp = store.clone();
        tmp.zero_grads();
        sess.write_grads(&mut tmp);
        (sess.tape.value(loss)[(0, 0)], tmp.grad(id).clone())
    };

    // Checking every parameter would be slow under finite differences;
    // first, middle and last cover the geo GCN, a temporal GCN and the
    // interval gate.
    let ids: Vec<_> = store.ids().collect();
    let picks = [ids[0], ids[ids.len() / 2], ids[ids.len() - 1]];
    for id in picks {
        let (_, analytic) = run(store, id);
        let res = check_gradient(store.value(id), &analytic, 1e-6, |m| {
            let mut s2 = store.clone();
            s2.set_value(id, m.clone());
            run(&s2, id).0
        });
        assert!(
            res.passes(1e-5),
            "{label}, {} window(s): HGCN grad for {} failed: {res:?}",
            slots.len(),
            store.name(id)
        );
    }
}

// One #[test] owns all the global-knob flipping: the parallel threshold
// and the thread override are process-wide and the harness runs tests on
// concurrent threads.
#[test]
fn gradients_are_correct_on_both_sides_of_the_parallel_threshold() {
    let saved = st_tensor::parallel_threshold();

    // Threshold between the two matmul sizes: 6³ = 216 flops stays
    // serial, 14³ = 2744 goes parallel — the same chain is checked on
    // both sides of the cut.
    st_par::set_num_threads(4);
    st_tensor::set_parallel_threshold(1000);
    matmul_chain_check(6, "below threshold (serial)");
    matmul_chain_check(14, "above threshold (parallel)");
    // 13 = 3·MR + 1 = 3·NR + 1: exercises the microkernel's row and
    // column tail paths (partial 4-wide tiles) through the whole chain.
    matmul_chain_check(13, "above threshold, tile remainder (parallel)");

    // HGCN forward: force every product through the parallel path, then
    // repeat fully serial.
    st_tensor::set_parallel_threshold(1);
    hgcn_check(4, "parallel");
    st_tensor::set_parallel_threshold(usize::MAX);
    hgcn_check(1, "serial");

    st_tensor::set_parallel_threshold(saved);
    st_par::set_num_threads(0);
}
