//! Runs every workload at `--smoke` sizes, untraced and traced, and holds
//! the binary to its output contract: the last stdout line is a JSON
//! result whose metrics are exactly the ones `BENCHMARK.json` names for
//! that mode (with the same units, all finite, end-to-end ones non-zero),
//! every output check passes, a traced training run reproduces the
//! untraced run's loss digest bit for bit, and the serving generator
//! survives the server closing connections (smoke servers close them
//! every 25 requests).

use st_obs::json::{self, Json};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["train-paper", "train-exp", "serve-city", "serve-fleet"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn catalogue(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let root = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(entries)) = root.get(section) else {
        panic!("BENCHMARK.json has no {section} array");
    };
    entries
        .iter()
        .map(|e| match (e.get("name"), e.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("{section} entry without name/unit: {e:?}"),
        })
        .collect()
}

/// Runs one smoke workload and returns its stdout.
fn run(workload: &str, traced: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_stbench"))
        .args(["--workload", workload, "--seed", "7", "--smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("spawn stbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} (traced {traced}) failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Checks the JSON result line against the catalogue.
fn check_result(stdout: &str, section: &str, what: &str) {
    let last = stdout.lines().last().expect("some output");
    let result = json::parse(last).unwrap_or_else(|e| panic!("{what}: bad JSON {last:?}: {e}"));
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{what}: {stdout}"
    );
    let Some(Json::Num(attempted)) = result.get("attempted") else {
        panic!("{what}: no attempted count");
    };
    assert!(*attempted >= 1.0, "{what}: attempted {attempted}");
    assert_eq!(
        result.get("failed"),
        Some(&Json::Num(0.0)),
        "{what}: {stdout}"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let expected = catalogue(section);
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        printed, names,
        "{what}: metric names differ from BENCHMARK.json"
    );
    for ((name, unit), (_, metric)) in expected.iter().zip(metrics) {
        let Some(Json::Num(value)) = metric.get("value") else {
            panic!("{what}: {name} has no numeric value");
        };
        assert!(value.is_finite(), "{what}: {name} = {value}");
        if section == "end_to_end" {
            assert!(*value > 0.0, "{what}: end-to-end {name} reads {value}");
        }
        assert_eq!(
            metric.get("unit"),
            Some(&Json::Str(unit.clone())),
            "{what}: unit of {name}"
        );
    }
}

/// Value of a `metric NAME VALUE UNIT` line.
fn metric(stdout: &str, name: &str) -> f64 {
    stdout
        .lines()
        .find_map(|l| {
            let mut parts = l.strip_prefix("metric ")?.split_whitespace();
            (parts.next()? == name).then(|| parts.next()?.parse().ok())?
        })
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn note<'a>(stdout: &'a str, key: &str) -> Option<&'a str> {
    stdout.lines().find_map(|l| {
        l.strip_prefix("# ")?
            .strip_prefix(key)?
            .split_whitespace()
            .next()
    })
}

fn smoke(workload: &str) {
    let plain = run(workload, false);
    check_result(&plain, "end_to_end", &format!("{workload} untraced"));
    let traced = run(workload, true);
    check_result(&traced, "per_layer", &format!("{workload} traced"));
    if workload.starts_with("train") {
        let digest = note(&plain, "loss_digest ").expect("loss digest printed");
        assert_eq!(
            note(&traced, "loss_digest "),
            Some(digest),
            "{workload}: tracing changed the training losses"
        );
    } else {
        assert!(
            metric(&traced, "http.reconnects") > 0.0,
            "{workload}: the generator never reconnected"
        );
    }
}

#[test]
fn train_paper_smoke() {
    smoke(WORKLOADS[0]);
}

#[test]
fn train_exp_smoke() {
    smoke(WORKLOADS[1]);
}

#[test]
fn serve_city_smoke() {
    smoke(WORKLOADS[2]);
}

#[test]
fn serve_fleet_smoke() {
    smoke(WORKLOADS[3]);
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--seed", "1"][..],
        &["--workload", "nope", "--seed", "1"],
        &["--workload", "train-exp", "--seed", "1", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stbench"))
            .args(args)
            .output()
            .expect("spawn stbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
