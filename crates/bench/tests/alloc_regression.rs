//! Allocation-regression guard for the zero-reallocation training and
//! evaluation loops.
//!
//! This file must hold exactly one `#[test]`: the counting allocator's
//! counters are process-global, so a second concurrently-running test would
//! pollute the measurements (libtest runs tests in threads of one process).

use rihgcn_bench::alloc::{AllocSnapshot, CountingAlloc};
use rihgcn_core::{Forecaster, RihgcnConfig, RihgcnModel};
use st_data::{generate_pems, PemsConfig, WindowSample, WindowSampler};
use st_nn::Adam;
use st_tensor::Matrix;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Step 3 of a recycled-session training loop must allocate under 5% of
/// what step 1 (empty pool — the historical tape-per-step baseline) does,
/// at 1 and at 4 configured worker threads. The model is small enough that
/// every kernel stays below `st_par`'s parallel threshold, so worker
/// threads add no allocator traffic of their own.
///
/// Evaluation runs on the same recycled session: the third `predict` and
/// the third `loss` on one model must each allocate under 5% of the first
/// call on a fresh model, whose session slot is still empty.
#[test]
fn steady_state_step_allocates_under_five_percent_of_step_one() {
    for threads in [1usize, 4] {
        st_par::set_num_threads(threads);

        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 3,
            ..Default::default()
        });
        let ds = ds.with_extra_missing(0.4, &mut st_tensor::rng(5));
        let cfg = RihgcnConfig {
            gcn_dim: 4,
            lstm_dim: 6,
            cheb_k: 2,
            num_temporal_graphs: 2,
            history: 4,
            horizon: 2,
            ..Default::default()
        };
        let mut model = RihgcnModel::from_dataset(&ds, cfg.clone());
        let sample = WindowSampler::new(4, 2, 1).window_at(&ds, 0);
        let mut adam = Adam::new(model.params(), 1e-3);

        let mut allocs = Vec::new();
        let mut stats_after_step1 = None;
        for _ in 0..3 {
            model.params_mut().zero_grads();
            let snap = AllocSnapshot::take();
            let loss = model.accumulate_gradients(&sample);
            model.params_mut().clip_grad_norm(5.0);
            adam.step(model.params_mut());
            allocs.push(snap.allocations_since());
            assert!(loss.is_finite());
            if stats_after_step1.is_none() {
                stats_after_step1 = model.training_pool_stats();
            }
        }

        assert!(
            allocs[0] > 100,
            "step 1 should miss the empty pool on every buffer, got {} allocs",
            allocs[0]
        );
        let limit = allocs[0] / 20;
        assert!(
            allocs[2] < limit,
            "with {threads} threads, step 3 made {} heap allocations — \
             not under 5% of step 1's {} (limit {})",
            allocs[2],
            allocs[0],
            limit
        );

        // The pool accessor must corroborate the allocator-level numbers:
        // once step 1 has stocked the pool, steady-state steps serve ≥90%
        // of buffer acquisitions from it. Measured as a delta so step 1's
        // cold misses don't dilute the steady-state rate.
        let s1 = stats_after_step1.expect("session exists after step 1");
        let sf = model.training_pool_stats().expect("session still alive");
        let hits = sf.hits - s1.hits;
        let misses = sf.misses - s1.misses;
        let rate = hits as f64 / (hits + misses).max(1) as f64;
        assert!(
            rate >= 0.90,
            "with {threads} threads, steady-state pool hit rate {:.1}% \
             below the 90% floor ({hits} hits / {misses} misses after step 1)",
            rate * 100.0
        );

        type Eval = fn(&RihgcnModel, &WindowSample);
        let evals: [(&str, Eval); 2] = [
            ("predict", |m, s| {
                assert!(m.predict(s).iter().all(Matrix::is_finite));
            }),
            ("loss", |m, s| assert!(m.loss(s).is_finite())),
        ];
        for (name, eval) in evals {
            let fresh = RihgcnModel::from_dataset(&ds, cfg.clone());
            let allocs: Vec<u64> = (0..3)
                .map(|_| {
                    let snap = AllocSnapshot::take();
                    eval(&fresh, &sample);
                    snap.allocations_since()
                })
                .collect();
            assert!(
                allocs[0] > 100,
                "the first {name} should miss the empty pool on every buffer, got {} allocs",
                allocs[0]
            );
            let limit = allocs[0] / 20;
            assert!(
                allocs[2] < limit,
                "with {threads} threads, the third {name} made {} heap allocations — \
                 not under 5% of the first's {} (limit {})",
                allocs[2],
                allocs[0],
                limit
            );
        }
    }
    st_par::set_num_threads(0);
}
