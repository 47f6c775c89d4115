//! Integration: streaming inference and checkpoint persistence through the
//! public facade.

use rihgcn::core::{
    fit, load_checkpoint, prepare_split, save_checkpoint, OnlineForecaster, RihgcnConfig,
    RihgcnModel, TrainConfig,
};
use rihgcn::data::{generate_pems, PemsConfig, WindowSampler};
use rihgcn::tensor::rng;

fn tiny_cfg() -> RihgcnConfig {
    RihgcnConfig {
        gcn_dim: 4,
        lstm_dim: 5,
        cheb_k: 2,
        num_temporal_graphs: 2,
        history: 4,
        horizon: 2,
        ..Default::default()
    }
}

#[test]
fn save_load_reproduces_forecasts_exactly() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut rng(1));
    let (norm, z) = prepare_split(&ds.split_chronological());
    let sampler = WindowSampler::new(4, 2, 24);
    let train = sampler.sample(&norm.train);
    let test = sampler.sample(&norm.test);

    let mut model = RihgcnModel::from_dataset(&norm.train, tiny_cfg());
    let tc = TrainConfig {
        max_epochs: 2,
        batch_size: 4,
        ..Default::default()
    };
    fit(&mut model, &train, &[], &tc);

    let mut buffer = Vec::new();
    save_checkpoint(&model, &z, &mut buffer).unwrap();

    // The checkpoint rebuilds the model without the dataset.
    let (restored, restored_z) = load_checkpoint(buffer.as_slice()).unwrap();
    assert_eq!(restored_z, z, "normaliser must round-trip exactly");

    let a = model.forward(&test[0]);
    let b = restored.forward(&test[0]);
    for (x, y) in a.predictions.iter().zip(&b.predictions) {
        assert_eq!(x, y, "restored forecasts must be bit-identical");
    }
    for (x, y) in a.estimates.iter().zip(&b.estimates) {
        assert_eq!(x, y, "restored imputations must be bit-identical");
    }
}

#[test]
fn online_forecaster_tracks_batch_model() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut rng(2));
    let (norm, z) = prepare_split(&ds.split_chronological());
    let model = RihgcnModel::from_dataset(&norm.train, tiny_cfg());

    // Batch path: one window sample from raw data, manually normalised by
    // the sampler over the *normalised* dataset.
    let sampler = WindowSampler::new(4, 2, 1);
    let t0 = 100;
    let norm_full = {
        // Normalise the full dataset the same way prepare_split would.
        rihgcn::data::TrafficDataset {
            name: ds.name.clone(),
            values: z.apply(&ds.values),
            mask: ds.mask.clone(),
            network: ds.network.clone(),
            interval_minutes: ds.interval_minutes,
        }
    };
    let sample = sampler.window_at(&norm_full, t0);
    let batch_pred = model.forward(&sample).predictions;

    // Online path: push the same four raw observations.
    let mut online = OnlineForecaster::new(model, z.clone());
    for i in 0..4 {
        let t = t0 + i;
        online.push(
            ds.values.time_slice(t),
            ds.mask.time_slice(t),
            ds.slot_of(t),
        );
    }
    let online_pred = online.forecast().unwrap();

    for (raw, normed) in online_pred.iter().zip(&batch_pred) {
        let denorm_batch = z.invert_matrix(normed);
        assert!(
            raw.max_abs_diff(&denorm_batch) < 1e-9,
            "online and batch forecasts must agree"
        );
    }
}

#[test]
fn online_survives_fully_missing_timestamps() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let (norm, z) = prepare_split(&ds.split_chronological());
    let model = RihgcnModel::from_dataset(&norm.train, tiny_cfg());
    let mut online = OnlineForecaster::new(model, z);
    let zeros = rihgcn::tensor::Matrix::zeros(4, 4);
    for t in 0..4 {
        // No sensor reports anything at all.
        online.push(zeros.clone(), zeros.clone(), t);
    }
    let preds = online.forecast().unwrap();
    assert!(preds.iter().all(|m| m.is_finite()));
}
