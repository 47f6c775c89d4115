//! End-to-end test of the `rihgcn` binary: generate → inspect → impute →
//! train → checkpoint → forecast, chained through real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rihgcn"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("rihgcn-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_cli_workflow() {
    let data = tmp("data.csv");
    let filled = tmp("filled.csv");
    let model = tmp("model.ckpt");

    // generate
    let out = bin()
        .args([
            "generate",
            "--dataset",
            "pems",
            "--out",
            data.to_str().unwrap(),
            "--nodes",
            "3",
            "--days",
            "2",
            "--missing-rate",
            "0.3",
            "--seed",
            "5",
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(data.exists());

    // inspect
    let out = bin()
        .args(["inspect", "--data", data.to_str().unwrap()])
        .output()
        .expect("run inspect");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("missing rate"), "{text}");

    // impute
    let out = bin()
        .args([
            "impute",
            "--data",
            data.to_str().unwrap(),
            "--method",
            "last",
            "--out",
            filled.to_str().unwrap(),
        ])
        .output()
        .expect("run impute");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(filled.exists());

    // train (tiny budget)
    let out = bin()
        .args([
            "train",
            "--data",
            data.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--epochs",
            "1",
            "--graphs",
            "2",
            "--gcn-dim",
            "3",
            "--lstm-dim",
            "4",
            "--horizon",
            "3",
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    // forecast from the checkpoint, which carries the architecture
    let out = bin()
        .args([
            "forecast",
            "--data",
            data.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("run forecast");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("node,feature,step,forecast"), "{text}");
    // 3 nodes × 4 features × 3 steps data rows + header.
    assert_eq!(text.lines().count(), 1 + 3 * 4 * 3, "{text}");

    std::fs::remove_dir_all(std::env::temp_dir().join("rihgcn-e2e")).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"), "{err}");
}
