//! Whole-pipeline determinism: with every stochastic component flowing
//! through the in-tree seeded RNG, two training runs from the same seed
//! must agree bit for bit — per-epoch losses and every final parameter.

use rihgcn::core::{
    fit, prepare_split, Forecaster, PredictionHead, RihgcnConfig, RihgcnModel, TrainConfig,
};
use rihgcn::data::{generate_pems, PemsConfig, WindowSampler};
use rihgcn::nn::Adam;
use rihgcn::tensor::{rng, Matrix};

fn train_once() -> (Vec<f64>, Vec<f64>, Vec<(String, Matrix)>) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut rng(9));
    let (norm, _) = prepare_split(&ds.split_chronological());
    let sampler = WindowSampler::new(6, 3, 24);
    let train = sampler.sample(&norm.train);
    let val = sampler.sample(&norm.val);

    let mut model = RihgcnModel::from_dataset(
        &norm.train,
        RihgcnConfig {
            gcn_dim: 4,
            lstm_dim: 6,
            cheb_k: 2,
            num_temporal_graphs: 2,
            history: 6,
            horizon: 3,
            ..Default::default()
        },
    );
    let tc = TrainConfig {
        max_epochs: 3,
        batch_size: 4,
        ..Default::default()
    };
    let report = fit(&mut model, &train, &val, &tc);

    let store = model.params();
    let params = store
        .ids()
        .map(|id| (store.name(id).to_string(), store.value(id).clone()))
        .collect();
    (report.train_losses, report.val_losses, params)
}

#[test]
fn training_is_bitwise_reproducible() {
    let (train_a, val_a, params_a) = train_once();
    let (train_b, val_b, params_b) = train_once();

    // Losses must match exactly — not within a tolerance. Any hidden source
    // of nondeterminism (iteration order, shared global RNG state, time-
    // dependent code) shows up here first.
    assert_eq!(
        train_a.len(),
        train_b.len(),
        "epoch counts diverged: {} vs {}",
        train_a.len(),
        train_b.len()
    );
    for (epoch, (a, b)) in train_a.iter().zip(&train_b).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "train loss diverged at epoch {epoch}: {a} vs {b}"
        );
    }
    for (epoch, (a, b)) in val_a.iter().zip(&val_b).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "val loss diverged at epoch {epoch}: {a} vs {b}"
        );
    }

    // Every final parameter matrix must be bit-identical too.
    assert_eq!(params_a.len(), params_b.len(), "parameter counts diverged");
    for ((name_a, m_a), (name_b, m_b)) in params_a.iter().zip(&params_b) {
        assert_eq!(name_a, name_b, "parameter order diverged");
        assert_eq!(m_a.shape(), m_b.shape(), "shape diverged for {name_a}");
        for (x, y) in m_a.as_slice().iter().zip(m_b.as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "parameter {name_a} diverged: {x} vs {y}"
            );
        }
    }
}

#[test]
fn different_training_seeds_actually_diverge() {
    // Sanity check for the test above: if the pipeline ignored its seeds,
    // bitwise equality would pass vacuously.
    let run = |seed| {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 4,
            num_days: 2,
            ..Default::default()
        });
        let ds = ds.with_extra_missing(0.3, &mut rng(9));
        let (norm, _) = prepare_split(&ds.split_chronological());
        let train = WindowSampler::new(6, 3, 24).sample(&norm.train);
        let mut model = RihgcnModel::from_dataset(
            &norm.train,
            RihgcnConfig {
                gcn_dim: 4,
                lstm_dim: 6,
                cheb_k: 2,
                num_temporal_graphs: 2,
                history: 6,
                horizon: 3,
                ..Default::default()
            },
        );
        let tc = TrainConfig {
            max_epochs: 2,
            batch_size: 4,
            seed,
            ..Default::default()
        };
        fit(&mut model, &train, &[], &tc).train_losses
    };
    assert_ne!(
        run(1),
        run(2),
        "different shuffle seeds must change the loss trajectory"
    );
}

/// FNV-1a (64-bit) over a sequence of f64 bit patterns.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Six `accumulate_gradients` + Adam steps, then a validation loss and a
/// forward. Returns the bits of every loss, an FNV digest of the final
/// parameters, and an FNV digest of the forward's predictions and
/// imputation estimates.
fn short_trajectory(cfg: RihgcnConfig) -> (Vec<u64>, u64, u64) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut rng(9));
    let (norm, _) = prepare_split(&ds.split_chronological());
    let windows = WindowSampler::new(6, 3, 24).sample(&norm.train);
    let mut model = RihgcnModel::from_dataset(&norm.train, cfg);
    let mut adam = Adam::new(model.params(), 5e-3);
    let mut losses = Vec::new();
    for step in 0..6 {
        model.params_mut().zero_grads();
        let loss = model.accumulate_gradients(&windows[step % windows.len()]);
        model.params_mut().clip_grad_norm(5.0);
        adam.step(model.params_mut());
        losses.push(loss.to_bits());
    }
    let held_out = windows.last().expect("sampler yields windows");
    losses.push(RihgcnModel::loss(&model, held_out).to_bits());
    let store = model.params();
    let params = fnv1a(
        store
            .ids()
            .flat_map(|id| store.value(id).as_slice().to_vec()),
    );
    let out = model.forward(held_out);
    let outputs = fnv1a(
        out.predictions
            .iter()
            .chain(&out.estimates)
            .flat_map(|m| m.as_slice().to_vec()),
    );
    (losses, params, outputs)
}

/// Pins the exact training trajectory of four model variants to constants,
/// so a refactor of the forward or backward pass that changes a single
/// gradient bit fails here even though it stays self-consistent.
#[test]
fn training_trajectory_is_pinned_across_revisions() {
    let base = RihgcnConfig {
        gcn_dim: 4,
        lstm_dim: 6,
        cheb_k: 3,
        num_temporal_graphs: 2,
        history: 6,
        horizon: 3,
        ..Default::default()
    };
    // Any change to these bits changes what training computes; update
    // them only for a deliberate change of the model's arithmetic.
    let cases: [(&str, RihgcnConfig, [u64; 7], u64, u64); 4] = [
        (
            "concat, bidirectional",
            base.clone(),
            [
                0x3ff283f910d9bf3e,
                0x3ff0cc023b1528c4,
                0x3ff299022b3ab045,
                0x3ffc7a4179d7632b,
                0x40143b16159cc63e,
                0x3fecab916ac38ac4,
                0x4017503113d13eb6,
            ],
            0xdf6a529621785440,
            0x3a3f3b1b4fbd2ff4,
        ),
        (
            "attention head",
            base.clone().with_head(PredictionHead::Attention),
            [
                0x3ff61231c7692b62,
                0x3ff30602cf273304,
                0x3ff96974607057e0,
                0x3ff79a4eb46013a4,
                0x4011d5a6d94e8880,
                0x3fee2833ac6c91c0,
                0x40149652b7d57dc6,
            ],
            0xfbcb2b4bdf5eba6b,
            0x4900ead0f2607d08,
        ),
        (
            "unidirectional",
            base.clone().unidirectional(),
            [
                0x3ff295f326e27521,
                0x3ff0a0d3ca7a835e,
                0x3ff4ec2d66cb71c3,
                0x3ff76b4f5e0fb25e,
                0x4006a38af3c4fa7e,
                0x3fea60dccac5e10b,
                0x400dbe98e0a308bc,
            ],
            0xe354d47ccab2d027,
            0x357aba6ee7f78b14,
        ),
        (
            "no temporal graphs",
            base.with_num_temporal_graphs(0),
            [
                0x3ff95d04a53421c6,
                0x3ff5df3a213e7288,
                0x3ff81c05afb35a5a,
                0x4000ae27226de052,
                0x4011c2938ff936c9,
                0x3fef63ceb365272c,
                0x4011356c6abd6b74,
            ],
            0xed64810509c130a4,
            0x71a42f8b887d6db7,
        ),
    ];
    let mut changed = Vec::new();
    for (what, cfg, losses, params, outputs) in cases {
        let (got_losses, got_params, got_outputs) = short_trajectory(cfg);
        if (got_losses.as_slice(), got_params, got_outputs) != (&losses[..], params, outputs) {
            let hex: Vec<String> = got_losses.iter().map(|b| format!("0x{b:016x}")).collect();
            changed.push(format!(
                "{what}: losses [{}], params 0x{got_params:016x}, outputs 0x{got_outputs:016x}",
                hex.join(", ")
            ));
        }
    }
    assert!(
        changed.is_empty(),
        "training trajectory changed:\n{}",
        changed.join("\n")
    );
}

/// Pins the temporal graphs `RihgcnModel::from_dataset` builds: the Eq. 2
/// interval partition and every bit of each interval's Eq. 8 adjacency
/// over DTW distances. A change to the distance kernels or the interval
/// search that moves a single bit fails here.
#[test]
fn temporal_graphs_are_pinned_across_revisions() {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 24,
        num_days: 3,
        ..Default::default()
    });
    assert_eq!(ds.num_features(), 4);
    let ds = ds.with_extra_missing(0.3, &mut rng(5));
    let (norm, _) = prepare_split(&ds.split_chronological());
    let cfg = RihgcnConfig {
        gcn_dim: 2,
        lstm_dim: 2,
        num_temporal_graphs: 4,
        ..Default::default()
    };
    let model = RihgcnModel::from_dataset(&norm.train, cfg);
    let graphs = model.temporal_graphs();
    assert_eq!(graphs.len(), 4);
    let intervals: Vec<(usize, usize)> = graphs.iter().map(|(iv, _)| (iv.start, iv.end)).collect();
    let digest = fnv1a(graphs.iter().flat_map(|(iv, adj)| {
        [iv.start as f64, iv.end as f64]
            .into_iter()
            .chain(adj.as_slice().iter().copied())
    }));
    // Update only for a deliberate change of graph construction.
    assert_eq!(
        digest, 0xf765_629c_f207_d873,
        "temporal graphs changed: intervals {intervals:?}, digest 0x{digest:016x}"
    );
}
