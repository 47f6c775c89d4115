//! Shape, finiteness and seeded-reproducibility contracts for the full
//! baseline roster: HA, VAR, STGCN-lite, DCRNN-lite, ASTGCN-lite and
//! Graph WaveNet-lite.
//!
//! Each model must (a) emit `horizon` matrices of shape
//! `num_nodes × num_features` with every entry finite, and (b) reproduce
//! its predictions bit for bit when constructed and trained again from
//! the same seed — the per-model counterpart of the whole-pipeline
//! guarantee in the workspace-level `tests/determinism.rs`. The deep
//! models must also answer bit-identically on their recycled session as
//! on a fresh one, and be shareable across threads.

use rihgcn_baselines::{
    mean_fill_samples, AstgcnConfig, AstgcnLite, BaselineConfig, BaselineKind, DcrnnConfig,
    DcrnnLite, GraphWaveNetConfig, GraphWaveNetLite, HistoricalAverage, StBaseline, StgcnConfig,
    StgcnLite, VarModel,
};
use rihgcn_core::{fit, prepare_split, Forecaster, RihgcnModel, TrainConfig};
use st_data::{generate_pems, PemsConfig, TrafficDataset, WindowSample, WindowSampler};
use st_nn::Adam;
use st_tensor::{rng, Matrix};

const NODES: usize = 4;
const FEATURES: usize = st_data::PEMS_FEATURES;
const HISTORY: usize = 6;
const HORIZON: usize = 3;

fn setup() -> (TrafficDataset, Vec<WindowSample>) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: NODES,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.2, &mut rng(17));
    let (norm, _) = prepare_split(&ds.split_chronological());
    let samples = mean_fill_samples(&WindowSampler::new(HISTORY, HORIZON, 24).sample(&norm.test));
    (norm.train, samples)
}

fn assert_well_formed(name: &str, predictions: &[Matrix]) {
    assert_eq!(
        predictions.len(),
        HORIZON,
        "{name}: expected {HORIZON} horizon steps, got {}",
        predictions.len()
    );
    for (step, m) in predictions.iter().enumerate() {
        assert_eq!(
            m.shape(),
            (NODES, FEATURES),
            "{name}: bad shape at horizon step {step}"
        );
        assert!(
            m.as_slice().iter().all(|v| v.is_finite()),
            "{name}: non-finite prediction at horizon step {step}"
        );
    }
}

fn assert_bitwise_equal(name: &str, a: &[Matrix], b: &[Matrix]) {
    assert_eq!(a.len(), b.len(), "{name}: prediction counts diverged");
    for (step, (m_a, m_b)) in a.iter().zip(b).enumerate() {
        for (x, y) in m_a.as_slice().iter().zip(m_b.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}: run-to-run divergence at horizon step {step}: {x} vs {y}"
            );
        }
    }
}

/// Runs `build` twice and checks both well-formedness and bitwise
/// run-to-run agreement of the resulting predictions on every sample.
fn check_model<F>(name: &str, samples: &[WindowSample], build: F)
where
    F: Fn() -> Box<dyn Forecaster>,
{
    let first = build();
    let second = build();
    for sample in samples {
        let a = first.predict(sample);
        let b = second.predict(sample);
        assert_well_formed(name, &a);
        assert_bitwise_equal(name, &a, &b);
    }
}

#[test]
fn historical_average_shapes_and_reproducibility() {
    let (train, samples) = setup();
    check_model("HA", &samples, || {
        Box::new(HistoricalAverage::fit(&train, HORIZON))
    });
}

#[test]
fn var_shapes_and_reproducibility() {
    let (train, samples) = setup();
    check_model("VAR", &samples, || {
        Box::new(VarModel::fit(&train, 3, HORIZON).expect("VAR fit"))
    });
}

#[test]
fn stgcn_shapes_and_reproducibility() {
    let (train, samples) = setup();
    let fit_samples = samples.clone();
    check_model("STGCN", &samples, move || {
        let mut model = StgcnLite::from_dataset(
            &train,
            StgcnConfig {
                hidden_dim: 4,
                cheb_k: 2,
                history: HISTORY,
                horizon: HORIZON,
                ..Default::default()
            },
        );
        fit(
            &mut model,
            &fit_samples,
            &[],
            &TrainConfig {
                max_epochs: 1,
                batch_size: 4,
                ..Default::default()
            },
        );
        Box::new(model)
    });
}

#[test]
fn dcrnn_shapes_and_reproducibility() {
    let (train, samples) = setup();
    let fit_samples = samples.clone();
    check_model("DCRNN", &samples, move || {
        let mut model = DcrnnLite::from_dataset(
            &train,
            DcrnnConfig {
                hidden_dim: 4,
                cheb_k: 2,
                history: HISTORY,
                horizon: HORIZON,
                ..Default::default()
            },
        );
        fit(
            &mut model,
            &fit_samples,
            &[],
            &TrainConfig {
                max_epochs: 1,
                batch_size: 4,
                ..Default::default()
            },
        );
        Box::new(model)
    });
}

#[test]
fn astgcn_shapes_and_reproducibility() {
    let (train, samples) = setup();
    let fit_samples = samples.clone();
    check_model("ASTGCN", &samples, move || {
        let mut model = AstgcnLite::from_dataset(
            &train,
            AstgcnConfig {
                gcn_dim: 4,
                cheb_k: 2,
                history: HISTORY,
                horizon: HORIZON,
                ..Default::default()
            },
        );
        fit(
            &mut model,
            &fit_samples,
            &[],
            &TrainConfig {
                max_epochs: 1,
                batch_size: 4,
                ..Default::default()
            },
        );
        Box::new(model)
    });
}

#[test]
fn graph_wavenet_shapes_and_reproducibility() {
    let (train, samples) = setup();
    let fit_samples = samples.clone();
    check_model("GraphWaveNet", &samples, move || {
        let mut model = GraphWaveNetLite::from_dataset(
            &train,
            GraphWaveNetConfig {
                hidden_dim: 4,
                embed_dim: 3,
                history: HISTORY,
                horizon: HORIZON,
                ..Default::default()
            },
        );
        fit(
            &mut model,
            &fit_samples,
            &[],
            &TrainConfig {
                max_epochs: 1,
                batch_size: 4,
                ..Default::default()
            },
        );
        Box::new(model)
    });
}

#[test]
fn different_seeds_change_deep_baseline_predictions() {
    // Sanity companion to the reproducibility checks above: if the lite
    // models ignored their seeds, bitwise equality would hold vacuously.
    let (train, samples) = setup();
    let build = |seed| {
        StgcnLite::from_dataset(
            &train,
            StgcnConfig {
                hidden_dim: 4,
                cheb_k: 2,
                history: HISTORY,
                horizon: HORIZON,
                seed,
                ..Default::default()
            },
        )
    };
    let a = build(43).predict(&samples[0]);
    let b = build(44).predict(&samples[0]);
    let identical = a.iter().zip(&b).all(|(m, n)| m.as_slice() == n.as_slice());
    assert!(!identical, "changing the seed must change the predictions");
}

/// `predict → accumulate_gradients → Adam step → predict` on one model,
/// every call after the first on its recycled session, must match twins
/// built from the same seed (and given the same parameters) that answer
/// on a fresh session.
fn check_recycled_session<M: Forecaster>(name: &str, sample: &WindowSample, build: impl Fn() -> M) {
    let mut model = build();
    let _ = model.predict(sample);
    let loss = model.accumulate_gradients(sample);

    let mut twin = build();
    let twin_loss = twin.accumulate_gradients(sample);
    assert_eq!(loss.to_bits(), twin_loss.to_bits(), "{name}: training loss");
    for id in model.params().ids() {
        assert_bitwise_equal(
            name,
            std::slice::from_ref(model.params().grad(id)),
            std::slice::from_ref(twin.params().grad(id)),
        );
    }

    Adam::new(model.params(), 1e-2).step(model.params_mut());
    let recycled = model.predict(sample);
    let mut twin = build();
    for id in model.params().ids() {
        twin.params_mut()
            .set_value(id, model.params().value(id).clone());
    }
    assert_bitwise_equal(name, &recycled, &twin.predict(sample));
}

#[test]
fn recycled_sessions_match_fresh_twins() {
    let (train, samples) = setup();
    let sample = &samples[0];
    for kind in BaselineKind::all() {
        let cfg = BaselineConfig {
            gcn_dim: 4,
            lstm_dim: 5,
            cheb_k: 2,
            history: HISTORY,
            horizon: HORIZON,
            ..Default::default()
        };
        check_recycled_session(kind.name(), sample, || {
            StBaseline::from_dataset(&train, kind, cfg.clone())
        });
    }
    check_recycled_session("STGCN", sample, || {
        StgcnLite::from_dataset(
            &train,
            StgcnConfig {
                hidden_dim: 4,
                cheb_k: 2,
                history: HISTORY,
                horizon: HORIZON,
                ..Default::default()
            },
        )
    });
    check_recycled_session("DCRNN", sample, || {
        DcrnnLite::from_dataset(
            &train,
            DcrnnConfig {
                hidden_dim: 4,
                cheb_k: 2,
                history: HISTORY,
                horizon: HORIZON,
                ..Default::default()
            },
        )
    });
    check_recycled_session("ASTGCN", sample, || {
        AstgcnLite::from_dataset(
            &train,
            AstgcnConfig {
                gcn_dim: 4,
                cheb_k: 2,
                history: HISTORY,
                horizon: HORIZON,
                ..Default::default()
            },
        )
    });
    check_recycled_session("GraphWaveNet", sample, || {
        GraphWaveNetLite::from_dataset(
            &train,
            GraphWaveNetConfig {
                hidden_dim: 4,
                embed_dim: 3,
                history: HISTORY,
                horizon: HORIZON,
                ..Default::default()
            },
        )
    });
}

fn assert_send_sync<T: Send + Sync>() {}

/// Each model parks its recycled session behind a lock, so a shared
/// `&model` can serve predictions from several threads.
#[test]
fn deep_models_are_send_and_sync() {
    assert_send_sync::<RihgcnModel>();
    assert_send_sync::<StBaseline>();
    assert_send_sync::<StgcnLite>();
    assert_send_sync::<DcrnnLite>();
    assert_send_sync::<AstgcnLite>();
    assert_send_sync::<GraphWaveNetLite>();
}
