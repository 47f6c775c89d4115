//! Bring your own data: define a custom road network, load measurements
//! from CSV, and run the full RIHGCN pipeline on them.
//!
//! This is the integration path for real sensor extracts (e.g. a true PeMS
//! download converted to the long CSV format documented in
//! `st_data::read_csv`).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example custom_data
//! ```

use rihgcn::core::{
    evaluate_prediction, fit, prepare_split, RihgcnConfig, RihgcnModel, TrainConfig,
};
use rihgcn::data::{read_csv, write_csv, WindowSampler};
use rihgcn::graph::{RoadNetwork, RoadSegment};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A custom road network: four segments of an arterial with explicit
    //    geometry and metadata (positions in km).
    let network = RoadNetwork::new(vec![
        RoadSegment {
            id: 0,
            x: 0.0,
            y: 0.0,
            lanes: 2,
            speed_limit: 50.0,
            traffic_lights: 1,
        },
        RoadSegment {
            id: 1,
            x: 0.9,
            y: 0.1,
            lanes: 2,
            speed_limit: 50.0,
            traffic_lights: 2,
        },
        RoadSegment {
            id: 2,
            x: 1.8,
            y: 0.3,
            lanes: 3,
            speed_limit: 60.0,
            traffic_lights: 1,
        },
        RoadSegment {
            id: 3,
            x: 2.6,
            y: 0.2,
            lanes: 3,
            speed_limit: 60.0,
            traffic_lights: 0,
        },
    ]);

    // 2. Your measurements in the long CSV format. Here we synthesise two
    //    days of 5-minute speeds in-memory to stand in for a real file;
    //    with real data you would pass a `BufReader<File>` instead.
    let mut csv = String::from("node,feature,time,value,observed\n");
    let slots = 288 * 2;
    for node in 0..4 {
        for t in 0..slots {
            let minute = (t % 288) as f64 * 5.0;
            let rush = (-0.5 * ((minute - 510.0) / 90.0_f64).powi(2)).exp();
            let speed =
                52.0 - 18.0 * rush + (node as f64) * 1.5 + ((t * 37 + node * 11) % 13) as f64 * 0.3;
            // Simulate ~25% sensor dropout.
            let observed = (t * 7 + node * 3) % 4 != 0;
            if observed {
                csv.push_str(&format!("{node},0,{t},{speed:.3},1\n"));
            } else {
                csv.push_str(&format!("{node},0,{t},,0\n"));
            }
        }
    }
    let ds = read_csv(csv.as_bytes(), "arterial", |_| network, 5)?;
    println!(
        "loaded {} nodes × {} timestamps from CSV ({:.0}% missing)",
        ds.num_nodes(),
        ds.num_times(),
        ds.missing_rate() * 100.0
    );

    // 3. Standard pipeline: split, normalise, window, train, evaluate.
    let (norm, z) = prepare_split(&ds.split_chronological());
    let sampler = WindowSampler::new(12, 6, 4);
    let cfg = RihgcnConfig {
        gcn_dim: 6,
        lstm_dim: 8,
        num_temporal_graphs: 2,
        horizon: 6,
        ..Default::default()
    };
    let mut model = RihgcnModel::from_dataset(&norm.train, cfg);
    let tc = TrainConfig {
        max_epochs: 6,
        patience: 3,
        ..Default::default()
    };
    fit(
        &mut model,
        &sampler.sample(&norm.train),
        &sampler.sample(&norm.val),
        &tc,
    );
    let metrics = evaluate_prediction(&model, &sampler.sample(&norm.test), &z);
    println!("30-minute forecast on the custom network: {metrics}");

    // 4. Datasets round-trip back to CSV for interchange.
    let mut out = Vec::new();
    write_csv(&ds, &mut out)?;
    println!("re-exported {} CSV bytes", out.len());
    Ok(())
}
