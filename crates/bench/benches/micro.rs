//! Micro-benchmarks for the computational kernels behind the experiments:
//! dense matmul, Chebyshev GCN forward, LSTM step, adjacency construction,
//! and a full RIHGCN forward+backward step. The DTW kernel itself is timed
//! by the `bench_kernels` scoreboard.
//!
//! Runs on the in-tree timing harness (`rihgcn_bench::timing`) so the
//! workspace needs no external benchmark crate:
//!
//! ```text
//! cargo bench -p rihgcn-bench --bench micro
//! ```

use rihgcn_bench::alloc::{AllocSnapshot, CountingAlloc};
use rihgcn_bench::timing::Runner;
use rihgcn_core::{Forecaster, RihgcnConfig, RihgcnModel};
use st_autodiff::Tape;
use st_data::{generate_pems, DayProfiles, PemsConfig, WindowSampler};
use st_graph::{gaussian_adjacency, scaled_laplacian_from_adjacency, Interval, RoadNetwork};
use st_nn::{Activation, ChebGcn, LstmCell, ParamStore, Session};
use st_tensor::{rng, uniform_matrix, Matrix};

// Count heap traffic for the mem/* group; a System passthrough otherwise.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn bench_matmul(runner: &mut Runner) {
    for &n in &[16usize, 64, 128] {
        let a = uniform_matrix(&mut rng(1), n, n, -1.0, 1.0);
        let b = uniform_matrix(&mut rng(2), n, n, -1.0, 1.0);
        runner.bench(&format!("matmul/{n}"), || a.matmul(&b));
    }
}

fn bench_gcn_forward(runner: &mut Runner) {
    for &n in &[10usize, 50] {
        let net = RoadNetwork::corridor(n, 1.0);
        let adj = gaussian_adjacency(&net.distance_matrix(), None, 0.1);
        let lap = scaled_laplacian_from_adjacency(&adj);
        let mut store = ParamStore::new();
        let gcn = ChebGcn::new(&mut store, &mut rng(3), 4, 16, 3, Activation::Relu, "g");
        let x0 = uniform_matrix(&mut rng(4), n, 4, -1.0, 1.0);
        runner.bench(&format!("cheb_gcn_forward/{n}"), || {
            let mut sess = Session::new(&store);
            let x = sess.constant(x0.clone());
            gcn.forward(&mut sess, &store, &lap, x)
        });
    }
}

fn bench_lstm_step(runner: &mut Runner) {
    let mut store = ParamStore::new();
    let cell = LstmCell::new(&mut store, &mut rng(5), 20, 32, "lstm");
    let x0 = uniform_matrix(&mut rng(6), 16, 20, -1.0, 1.0);
    runner.bench("lstm_step_batch16", || {
        let mut sess = Session::new(&store);
        let state = cell.zero_state(&mut sess, 16);
        let x = sess.constant(x0.clone());
        cell.step(&mut sess, &store, x, &state)
    });
}

fn bench_adjacency_build(runner: &mut Runner) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 8,
        num_days: 3,
        ..Default::default()
    });
    let profiles = DayProfiles::from_dataset(&ds);
    runner.bench("temporal_adjacency_8nodes", || {
        profiles.interval_adjacency(Interval::new(84, 132), 0.1)
    });
}

fn bench_backward_sweep(runner: &mut Runner) {
    // A deep chain stressing the reverse sweep.
    let w0 = uniform_matrix(&mut rng(7), 16, 16, -0.3, 0.3);
    runner.bench("tape_backward_chain100", || {
        let mut tape = Tape::new();
        let w = tape.parameter(w0.clone());
        let mut x = tape.constant(Matrix::ones(4, 16));
        for _ in 0..100 {
            let h = tape.matmul(x, w);
            x = tape.tanh(h);
        }
        let loss = tape.mean(x);
        tape.backward(loss);
        tape.grad(w)
    });
}

fn bench_imputers(runner: &mut Runner) {
    use rihgcn_baselines::{knn_impute, last_observed_fill, matrix_factorization_impute};
    use st_data::drop_observed;
    let ds = generate_pems(&PemsConfig {
        num_nodes: 8,
        num_days: 2,
        ..Default::default()
    });
    let mask = drop_observed(
        &st_tensor::Tensor3::ones(8, 4, ds.num_times()),
        0.4,
        &mut rng(9),
    );
    runner.bench("imputers/last_observed", || {
        last_observed_fill(&ds.values, &mask)
    });
    runner.bench("imputers/knn_k3", || knn_impute(&ds.values, &mask, 3));
    runner.bench("imputers/mf_rank4_iters5", || {
        matrix_factorization_impute(&ds.values, &mask, 4, 5, 1)
    });
}

fn bench_rihgcn_step(runner: &mut Runner) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 8,
        num_days: 3,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.4, &mut rng(8));
    let cfg = RihgcnConfig {
        gcn_dim: 8,
        lstm_dim: 16,
        num_temporal_graphs: 4,
        ..Default::default()
    };
    let mut model = RihgcnModel::from_dataset(&ds, cfg);
    let sample = WindowSampler::paper_default().window_at(&ds, 0);
    runner.bench("rihgcn_forward_backward", || {
        model.accumulate_gradients(&sample)
    });
    let model = model;
    runner.bench("rihgcn_forward_only", || model.forward(&sample));
}

fn bench_memory(runner: &mut Runner) {
    // Allocator traffic of a training step: the first step misses the empty
    // buffer pool on every tape buffer (the historical tape-per-step
    // baseline), steady-state steps reuse the recycled session.
    let ds = generate_pems(&PemsConfig {
        num_nodes: 8,
        num_days: 3,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.4, &mut rng(8));
    let cfg = RihgcnConfig {
        gcn_dim: 8,
        lstm_dim: 16,
        num_temporal_graphs: 4,
        ..Default::default()
    };
    let mut model = RihgcnModel::from_dataset(&ds, cfg);
    let sample = WindowSampler::paper_default().window_at(&ds, 0);

    let fresh = AllocSnapshot::take();
    let _ = model.accumulate_gradients(&sample);
    println!(
        "{:<40} {} allocations, {} bytes",
        "mem/step_fresh_pool",
        fresh.allocations_since(),
        fresh.bytes_since()
    );
    let steady = AllocSnapshot::take();
    let _ = model.accumulate_gradients(&sample);
    println!(
        "{:<40} {} allocations, {} bytes",
        "mem/step_recycled",
        steady.allocations_since(),
        steady.bytes_since()
    );
    runner.bench("mem/recycled_step_time", || {
        model.accumulate_gradients(&sample)
    });
}

fn bench_parallel_speedup(runner: &mut Runner) {
    // Serial-vs-parallel comparisons over the two workloads the tentpole
    // parallelised: large dense matmul and the O(N²) DTW pairwise distance
    // matrix. Thread counts are pinned per measurement; results are
    // bit-identical either way (the st-par determinism contract), so only
    // wall-clock should move. The explicit speedup lines feed BENCH logs.
    let n = 256;
    let a = uniform_matrix(&mut rng(10), n, n, -1.0, 1.0);
    let b = uniform_matrix(&mut rng(11), n, n, -1.0, 1.0);
    st_par::set_num_threads(1);
    let mm_serial = runner.bench(&format!("parallel/matmul{n}/1thread"), || a.matmul(&b));
    st_par::set_num_threads(4);
    let mm_par = runner.bench(&format!("parallel/matmul{n}/4threads"), || a.matmul(&b));

    let series: Vec<Vec<Vec<f64>>> = (0..24)
        .map(|node| {
            vec![(0..288)
                .map(|t| ((t as f64) * 0.05 + node as f64 * 0.31).sin() * (1.0 + node as f64 * 0.1))
                .collect()]
        })
        .collect();
    st_par::set_num_threads(1);
    let dtw_serial = runner.bench("parallel/dtw_pairwise24/1thread", || {
        st_graph::pairwise_distances(&series, st_graph::SeriesDistance::Dtw)
    });
    st_par::set_num_threads(4);
    let dtw_par = runner.bench("parallel/dtw_pairwise24/4threads", || {
        st_graph::pairwise_distances(&series, st_graph::SeriesDistance::Dtw)
    });
    st_par::set_num_threads(0);

    eprintln!(
        "speedup at 4 threads: matmul{n} {:.2}x, dtw_pairwise24 {:.2}x",
        mm_serial.median.as_secs_f64() / mm_par.median.as_secs_f64(),
        dtw_serial.median.as_secs_f64() / dtw_par.median.as_secs_f64()
    );
}

fn main() {
    let mut runner = Runner::from_env();
    bench_matmul(&mut runner);
    bench_gcn_forward(&mut runner);
    bench_lstm_step(&mut runner);
    bench_adjacency_build(&mut runner);
    bench_backward_sweep(&mut runner);
    bench_imputers(&mut runner);
    bench_rihgcn_step(&mut runner);
    bench_memory(&mut runner);
    bench_parallel_speedup(&mut runner);
    eprintln!("{} benchmarks completed", runner.results().len());
}
