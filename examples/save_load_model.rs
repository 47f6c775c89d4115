//! Model persistence: train RIHGCN briefly, save a self-contained
//! checkpoint (parameters, config, normalisation stats and graphs), load it
//! back without the dataset and verify the restored model produces
//! identical forecasts.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example save_load_model
//! ```

use rihgcn::core::{
    fit, load_checkpoint, prepare_split, save_checkpoint, RihgcnConfig, RihgcnModel, TrainConfig,
};
use rihgcn::data::{generate_pems, PemsConfig, WindowSampler};
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

fn main() -> Result<(), Box<dyn Error>> {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 6,
        num_days: 4,
        ..Default::default()
    });
    let (norm, z) = prepare_split(&ds.split_chronological());
    let sampler = WindowSampler::new(12, 12, 24);
    let train = sampler.sample(&norm.train);
    let test = sampler.sample(&norm.test);

    let cfg = RihgcnConfig {
        gcn_dim: 6,
        lstm_dim: 8,
        num_temporal_graphs: 2,
        ..Default::default()
    };
    let mut model = RihgcnModel::from_dataset(&norm.train, cfg);
    let tc = TrainConfig {
        max_epochs: 3,
        ..Default::default()
    };
    fit(&mut model, &train, &[], &tc);

    // Save.
    let path = std::env::temp_dir().join("rihgcn-example.ckpt");
    let mut file = BufWriter::new(File::create(&path)?);
    save_checkpoint(&model, &z, &mut file)?;
    file.flush()?;
    println!(
        "saved a checkpoint of {} parameters to {}",
        model.num_parameters(),
        path.display()
    );

    // The checkpoint carries the config and graphs: no dataset needed.
    let (restored, _z) = load_checkpoint(BufReader::new(File::open(&path)?))?;

    // Identical forecasts bit-for-bit.
    let original = model.forward(&test[0]);
    let reloaded = restored.forward(&test[0]);
    let max_diff = original
        .predictions
        .iter()
        .zip(&reloaded.predictions)
        .map(|(a, b)| a.max_abs_diff(b))
        .fold(0.0_f64, f64::max);
    println!("max forecast difference after reload: {max_diff:e}");
    assert_eq!(
        max_diff, 0.0,
        "restored model must reproduce forecasts exactly"
    );
    println!("restored model reproduces the original forecasts exactly.");
    std::fs::remove_file(&path).ok();
    Ok(())
}
