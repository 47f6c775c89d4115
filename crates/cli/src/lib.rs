//! Implementation of the `rihgcn` command-line tool.
//!
//! Subcommands (see `rihgcn help` or [`run`]):
//!
//! * `generate` — write a synthetic PeMS-like or Stampede-like dataset to
//!   CSV (the long format of `st_data::read_csv`);
//! * `train` — train RIHGCN on a CSV dataset and save a self-contained
//!   checkpoint (parameters, config, normalisation stats and graphs);
//! * `forecast` — load a checkpoint and forecast from the final history
//!   window of the dataset's test portion, printing one CSV row per
//!   (node, feature, step);
//! * `impute` — reconstruct all hidden entries of a CSV dataset with a
//!   classical imputer and write the completed CSV;
//! * `evaluate` — train and score RIHGCN plus reference baselines;
//! * `serve` — run the st-serve HTTP forecast service from a checkpoint
//!   written by `train` or a directory of checkpoints (`--models DIR`,
//!   one tenant per file);
//! * `checkpoint` — `checkpoint info` prints a checkpoint's shapes,
//!   config and normalisation stats.
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to stay within the
//! workspace's dependency policy.

#![warn(missing_docs)]

use rihgcn_baselines::{knn_impute, last_observed_fill, matrix_factorization_impute};
use rihgcn_core::{
    evaluate_imputation, evaluate_prediction, fit, fit_with_observer, load_checkpoint,
    prepare_split, save_checkpoint, JsonlObserver, OnlineForecaster, RihgcnConfig, RihgcnModel,
    StderrPretty, TrainConfig,
};
use st_data::{
    generate_pems, generate_stampede, read_csv, write_csv, PemsConfig, QualityReport,
    StampedeConfig, TrafficDataset, WindowSampler,
};
use st_graph::RoadNetwork;
use std::collections::HashMap;
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

/// Boxed error type used throughout the CLI.
pub type CliError = Box<dyn Error>;

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Options {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Options {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error when a `--key` is missing its value.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut out = Options::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("missing value for --{key}"))?;
                out.flags.insert(key.to_string(), value.clone());
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Rejects any flag not named in `allowed` (space-separated names),
    /// reporting the first unknown one in sorted order.
    ///
    /// # Errors
    ///
    /// Returns an error naming the unknown flag and `command`.
    pub fn reject_unknown(&self, command: &str, allowed: &str) -> Result<(), CliError> {
        let known = |key: &&String| allowed.split_whitespace().any(|name| name == key.as_str());
        match self.flags.keys().filter(|key| !known(key)).min() {
            Some(key) => {
                Err(format!("unknown flag --{key} for `{command}`; try `rihgcn help`").into())
            }
            None => Ok(()),
        }
    }

    /// String flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Parsed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid --{key} {v:?}: {e}").into()),
        }
    }
}

/// Usage text shown by `rihgcn help`.
pub const USAGE: &str = "\
rihgcn — traffic forecasting with missing values (RIHGCN, ICDCS'21)

USAGE:
  rihgcn generate --dataset pems|stampede --out data.csv
                  [--nodes N] [--days D] [--missing-rate R] [--seed S]
  rihgcn train    --data data.csv --out model.ckpt
                  [--epochs E] [--graphs M] [--lambda L]
                  [--gcn-dim F] [--lstm-dim Q]
                  [--history T] [--horizon H]
                  [--log-format none|pretty|json]
  rihgcn forecast --data data.csv --model model.ckpt
  rihgcn impute   --data data.csv --method last|knn|mf --out filled.csv
                  [--k K] [--rank R] [--iters I] [--seed S]
  rihgcn inspect  --data data.csv
  rihgcn evaluate --data data.csv [--epochs E] [--graphs M] [--lambda L]
                  [--gcn-dim F] [--lstm-dim Q]
                  [--history T] [--horizon H]
  rihgcn serve    --checkpoint model.ckpt | --models DIR
                  [--addr HOST:PORT] [--addr-file F] [--workers K]
                  [--max-conns C] [--shards S] [--max-models K]
                  [--max-batch B] [--batch-linger-us U]
                  [--watch-stdin true]
                  [--log-format none|pretty|json]
  rihgcn checkpoint info --file model.ckpt
  rihgcn help

`train` writes a self-contained checkpoint (parameters, config,
normalisation stats and graphs): `forecast` and `serve` load it without
the architecture flags or rebuilding the graphs, and `checkpoint info`
prints its shapes, config and stats.
`serve` prints `listening on HOST:PORT` (and writes the bound address
to --addr-file, useful with port 0), then serves POST /observe,
GET /forecast, GET /imputed, GET /healthz, GET /metrics,
GET /debug/trace and POST /admin/shutdown until shut down; with
`--watch-stdin true` it also shuts down on stdin EOF.

`serve --models DIR` loads every *.ckpt in DIR as one tenant per file
(tenant name = file stem); inference routes then take `?tenant=NAME`.
Tenants are FNV-routed across `--shards S` engine shards, checkpoints
can be hot-swapped at runtime (POST /admin/load, POST /admin/unload,
GET /admin/tenants), and `--max-models K` bounds resident models with
LRU eviction. Under a saturated queue each shard answers up to
`--max-batch B` (default 16) distinct windows of one tenant from a
single batched tape run; `--max-batch 1` disables batching, and
`--batch-linger-us U` (default 0) lets a shard hold parked forecasts up
to U microseconds at queue-empty to fill a batch. Per-tenant results
stay bit-identical to a dedicated single-model server at any shard
count, batch bound and linger.

`train --log-format pretty` streams per-epoch progress to stderr;
`json` streams one JSON object per epoch (JSON Lines) instead.

A command rejects any flag it does not read. Every command also
accepts --threads N to set the worker count of the
parallel kernels (default: ST_NUM_THREADS, else all available cores)
and --trace FILE to record a Chrome trace_event JSON profile of the
run (open in chrome://tracing or Perfetto; ST_OBS=1 enables span
collection without writing a file). Neither changes numerical results:
outputs stay bit-identical for any thread count, traced or not.

Datasets use the long CSV format: node,feature,time,value,observed.
Generated CSVs embed a synthetic road network; externally produced CSVs
are assigned a corridor network over their node count.";

/// A subcommand's entry point.
type Command = fn(&Options, &mut dyn Write) -> Result<(), CliError>;

/// Every subcommand but `help`, with the flags it reads beyond the global
/// `--threads` and `--trace`; [`run`] rejects any other, so a misspelt or
/// retired flag fails instead of passing silently.
const COMMANDS: &[(&str, Command, &str)] = &[
    (
        "generate",
        cmd_generate,
        "dataset out nodes days missing-rate seed",
    ),
    (
        "train",
        cmd_train,
        "data out epochs log-format graphs lambda gcn-dim lstm-dim history horizon",
    ),
    ("forecast", cmd_forecast, "data model"),
    ("impute", cmd_impute, "data method out k rank iters seed"),
    ("inspect", cmd_inspect, "data"),
    (
        "evaluate",
        cmd_evaluate,
        "data epochs graphs lambda gcn-dim lstm-dim history horizon",
    ),
    (
        "serve",
        cmd_serve,
        "checkpoint models addr addr-file workers max-conns shards max-models \
        max-batch batch-linger-us watch-stdin log-format",
    ),
    ("checkpoint", cmd_checkpoint, "file"),
];

fn cmd_help(_: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "{USAGE}")?;
    Ok(())
}

/// Runs the CLI with the given arguments (without the program name),
/// writing human-readable output to `out`.
///
/// # Errors
///
/// Returns an error (already formatted for display) on bad usage, I/O
/// failure or malformed data.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        writeln!(out, "{USAGE}")?;
        return Err("no command given".into());
    };
    let opts = Options::parse(&args[1..])?;
    let (handler, flags) = match command.as_str() {
        "help" | "--help" | "-h" => (cmd_help as Command, ""),
        name => match COMMANDS.iter().find(|(known, ..)| *known == name) {
            Some(&(_, handler, flags)) => (handler, flags),
            None => return Err(format!("unknown command {name:?}; try `rihgcn help`").into()),
        },
    };
    opts.reject_unknown(command, &format!("threads trace {flags}"))?;
    // Global performance knob; never changes numerical results.
    let threads = opts.get_parsed("threads", 0usize)?;
    if threads > 0 {
        st_par::set_num_threads(threads);
    }
    // Global tracing knob; spans never change numerical results either.
    let trace_path = opts.get("trace").map(str::to_string);
    if trace_path.is_some() {
        st_obs::set_enabled(true);
    }
    let result = handler(&opts, out);
    if result.is_ok() {
        if let Some(path) = trace_path {
            let events = st_obs::trace::write_chrome_trace(&path)?;
            writeln!(out, "wrote trace ({events} span events) to {path}")?;
        }
    }
    result
}

/// Builds the epoch observer selected by `--log-format` (`none` is the
/// silent default; `pretty` and `json` stream progress to stderr).
fn train_observer(opts: &Options) -> Result<Box<dyn rihgcn_core::TrainObserver>, CliError> {
    match opts.get("log-format").unwrap_or("none") {
        "none" => Ok(Box::new(rihgcn_core::NullObserver)),
        "pretty" => Ok(Box::new(StderrPretty)),
        "json" => Ok(Box::new(JsonlObserver::new(std::io::stderr()))),
        other => Err(format!("invalid --log-format {other:?} (none|pretty|json)").into()),
    }
}

fn cmd_generate(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let dataset = opts.get("dataset").unwrap_or("pems");
    let path = opts.get("out").ok_or("generate requires --out <file>")?;
    let nodes = opts.get_parsed("nodes", 10usize)?;
    let days = opts.get_parsed("days", 7usize)?;
    let missing = opts.get_parsed("missing-rate", 0.0f64)?;
    let seed = opts.get_parsed("seed", 7u64)?;
    if nodes == 0 || days == 0 {
        return Err("generate needs --nodes and --days of at least 1".into());
    }
    if !(0.0..=1.0).contains(&missing) {
        return Err(format!("invalid --missing-rate {missing}: must be in [0, 1]").into());
    }

    let ds = match dataset {
        "pems" => generate_pems(&PemsConfig {
            num_nodes: nodes,
            num_days: days,
            seed,
            ..Default::default()
        }),
        "stampede" => generate_stampede(&StampedeConfig {
            num_segments: nodes.max(2),
            num_days: days,
            seed,
            ..Default::default()
        }),
        other => return Err(format!("unknown dataset {other:?} (pems|stampede)").into()),
    };
    let ds = if missing > 0.0 {
        ds.with_extra_missing(missing, &mut st_tensor::rng(seed ^ 0xC5))
    } else {
        ds
    };
    write_csv(&ds, BufWriter::new(File::create(path)?))?;
    writeln!(
        out,
        "wrote {} ({} nodes × {} features × {} timestamps, {:.1}% missing)",
        path,
        ds.num_nodes(),
        ds.num_features(),
        ds.num_times(),
        ds.missing_rate() * 100.0
    )?;
    Ok(())
}

fn load_dataset(opts: &Options) -> Result<TrafficDataset, CliError> {
    let path = opts.get("data").ok_or("missing --data <file>")?;
    // A stand-in corridor network, sized from the parsed node count.
    let network = |nodes| RoadNetwork::corridor(nodes, 1.2);
    let ds = read_csv(BufReader::new(File::open(path)?), "csv-data", network, 5)?;
    Ok(ds)
}

fn model_config(opts: &Options) -> Result<RihgcnConfig, CliError> {
    let defaults = RihgcnConfig::default();
    Ok(RihgcnConfig {
        gcn_dim: opts.get_parsed("gcn-dim", 8usize)?,
        lstm_dim: opts.get_parsed("lstm-dim", 16usize)?,
        num_temporal_graphs: opts.get_parsed("graphs", 4usize)?,
        lambda: opts.get_parsed("lambda", 1.0f64)?,
        history: opts.get_parsed("history", defaults.history)?,
        horizon: opts.get_parsed("horizon", 12usize)?,
        ..defaults
    })
}

fn cmd_train(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let model_path = opts.get("out").ok_or("train requires --out <file>")?;
    let ds = load_dataset(opts)?;
    let (norm, z) = prepare_split(&ds.split_chronological());
    let cfg = model_config(opts)?;
    let sampler = WindowSampler::new(cfg.history, cfg.horizon, 3);
    let train = sampler.sample(&norm.train);
    let val = sampler.sample(&norm.val);
    if train.is_empty() {
        return Err("dataset too short for the training window".into());
    }

    let mut model = RihgcnModel::from_dataset(&norm.train, cfg);
    let tc = TrainConfig {
        max_epochs: opts.get_parsed("epochs", 10usize)?,
        threads: opts.get_parsed("threads", 0usize)?,
        ..Default::default()
    };
    let mut observer = train_observer(opts)?;
    let report = fit_with_observer(&mut model, &train, &val, &tc, observer.as_mut());
    let mut file = BufWriter::new(File::create(model_path)?);
    save_checkpoint(&model, &z, &mut file)?;
    file.flush()?;
    writeln!(
        out,
        "trained {} epochs (best val loss {:.4}); saved a checkpoint of {} parameters to {}",
        report.epochs(),
        report.best_val_loss,
        model.num_parameters(),
        model_path
    )?;
    Ok(())
}

/// Loads the model set for `serve`: one checkpoint as the `default`
/// tenant, or every `*.ckpt` in a `--models` directory with the file stem
/// as the tenant name.
fn load_serve_models(opts: &Options) -> Result<Vec<(String, OnlineForecaster)>, CliError> {
    let load = |path: &std::path::Path| -> Result<OnlineForecaster, CliError> {
        let (model, z) = load_checkpoint(BufReader::new(File::open(path)?))?;
        Ok(OnlineForecaster::new(model, z))
    };
    match (opts.get("checkpoint"), opts.get("models")) {
        (Some(_), Some(_)) => Err("pass either --checkpoint or --models, not both".into()),
        (Some(path), None) => Ok(vec![(
            st_serve::DEFAULT_TENANT.to_string(),
            load(std::path::Path::new(path))?,
        )]),
        (None, Some(dir)) => {
            let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "ckpt"))
                .collect();
            paths.sort();
            let mut models = Vec::new();
            for path in paths {
                let tenant = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or_default()
                    .to_string();
                if !st_serve::valid_tenant(&tenant) {
                    return Err(format!(
                        "checkpoint file {} does not name a valid tenant \
                         (use [A-Za-z0-9._-]{{1,64}}.ckpt)",
                        path.display()
                    )
                    .into());
                }
                models.push((tenant, load(&path)?));
            }
            if models.is_empty() {
                return Err(format!("no *.ckpt files found in {dir}").into());
            }
            Ok(models)
        }
        (None, None) => {
            Err("serve requires --checkpoint <file> or --models <dir> (see `train --out`)".into())
        }
    }
}

fn cmd_serve(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let models = load_serve_models(opts)?;
    let num_models = models.len();

    let cfg = st_serve::ServeConfig {
        addr: opts.get("addr").unwrap_or("127.0.0.1:8100").to_string(),
        workers: opts.get_parsed("workers", 0usize)?,
        max_connections: opts.get_parsed("max-conns", 64usize)?,
        shards: opts.get_parsed("shards", 1usize)?,
        max_models: opts.get_parsed("max-models", 0usize)?,
        max_batch: opts.get_parsed("max-batch", 16usize)?,
        batch_linger: std::time::Duration::from_micros(opts.get_parsed("batch-linger-us", 0u64)?),
        ..Default::default()
    };
    let shards = cfg.shards.max(1);
    let json_logs = match opts.get("log-format").unwrap_or("none") {
        "json" => true,
        "none" | "pretty" => false,
        other => return Err(format!("invalid --log-format {other:?} (none|pretty|json)").into()),
    };
    let server = st_serve::Server::start_with_models(models, cfg)
        .map_err(|e| format!("failed to start server: {e}"))?;
    let addr = server.local_addr();
    if json_logs {
        writeln!(
            out,
            "{{\"event\":\"listening\",\"addr\":\"{addr}\",\"shards\":{shards},\"models\":{num_models}}}"
        )?;
    } else {
        writeln!(
            out,
            "listening on {addr} ({shards} shards, {num_models} models)"
        )?;
    }
    out.flush()?;
    if let Some(addr_file) = opts.get("addr-file") {
        // Written last so pollers only ever see the complete address.
        std::fs::write(addr_file, format!("{addr}\n"))?;
    }
    if opts.get_parsed("watch-stdin", false)? {
        let handle = server.shutdown_handle();
        std::thread::spawn(move || {
            // Drain stdin; EOF means the parent is gone — shut down.
            let mut sink = Vec::new();
            let _ = std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut sink);
            handle.shutdown();
        });
    }
    let drained = server.join();
    let observations: usize = drained.iter().map(|(_, online)| online.len()).sum();
    if json_logs {
        writeln!(
            out,
            "{{\"event\":\"stopped\",\"models\":{},\"observations\":{observations}}}",
            drained.len()
        )?;
    } else {
        writeln!(
            out,
            "server stopped after {observations} observations across {} models",
            drained.len()
        )?;
        for (tenant, online) in &drained {
            writeln!(
                out,
                "  tenant {tenant}: {} observations (window version {})",
                online.len(),
                online.window_version()
            )?;
        }
    }
    Ok(())
}

/// `checkpoint info` — print the shapes, config and normalisation stats
/// of a self-contained checkpoint without loading any dataset.
fn cmd_checkpoint(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    match opts.positional().first().map(String::as_str) {
        Some("info") => {}
        other => {
            return Err(format!(
                "unknown checkpoint subcommand {:?} (try `checkpoint info --file model.ckpt`)",
                other.unwrap_or("")
            )
            .into())
        }
    }
    let path = opts
        .get("file")
        .or_else(|| opts.positional().get(1).map(String::as_str))
        .ok_or("checkpoint info requires --file <model.ckpt> (or a positional path)")?;
    let (model, z) = load_checkpoint(BufReader::new(File::open(path)?))?;
    let cfg = model.config();
    writeln!(out, "checkpoint {path}")?;
    writeln!(
        out,
        "nodes {}  features {}  parameters {}",
        model.num_nodes(),
        model.num_features(),
        model.num_parameters()
    )?;
    writeln!(
        out,
        "history {}  horizon {}  slots_per_day {}",
        cfg.history,
        cfg.horizon,
        model.slots_per_day()
    )?;
    writeln!(
        out,
        "gcn_dim {}  lstm_dim {}  cheb_k {}  temporal_graphs {}",
        cfg.gcn_dim,
        cfg.lstm_dim,
        cfg.cheb_k,
        model.temporal_graphs().len()
    )?;
    writeln!(
        out,
        "lambda {}  tau {}  epsilon {}  seed {}",
        cfg.lambda, cfg.tau, cfg.epsilon, cfg.seed
    )?;
    let geo = model.geo_adjacency();
    writeln!(out, "geo adjacency {}x{}", geo.rows(), geo.cols())?;
    for (interval, m) in model.temporal_graphs() {
        writeln!(
            out,
            "temporal graph [{}, {}) {}x{}",
            interval.start,
            interval.end,
            m.rows(),
            m.cols()
        )?;
    }
    let join = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    writeln!(out, "zscore mean {}", join(z.mean()))?;
    writeln!(out, "zscore std {}", join(z.std()))?;
    Ok(())
}

fn cmd_forecast(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let model_path = opts
        .get("model")
        .ok_or("forecast requires --model <model.ckpt>")?;
    let (model, z) = load_checkpoint(BufReader::new(File::open(model_path)?))?;
    let ds = load_dataset(opts)?;
    let shape = (model.num_nodes(), model.num_features());
    if (ds.num_nodes(), ds.num_features()) != shape {
        return Err(format!(
            "dataset has {} nodes × {} features but the checkpoint expects {} × {}",
            ds.num_nodes(),
            ds.num_features(),
            shape.0,
            shape.1
        )
        .into());
    }
    // The temporal graphs are indexed by time-of-day slot.
    if ds.slots_per_day() != model.slots_per_day() {
        return Err(format!(
            "dataset has {} time-of-day slots but the checkpoint expects {}",
            ds.slots_per_day(),
            model.slots_per_day()
        )
        .into());
    }

    // Forecast from the final history window of the test portion,
    // normalised with the statistics the model was trained with.
    let (history, horizon) = (model.config().history, model.config().horizon);
    let test = ds.split_chronological().test;
    if test.num_times() < history + horizon {
        return Err("test split too short for one window".into());
    }
    let test = TrafficDataset {
        values: z.apply(&test.values),
        ..test
    };
    let sampler = WindowSampler::new(history, horizon, 1);
    let sample = sampler.window_at(&test, test.num_times() - history - horizon);
    let output = model.forward(&sample);

    writeln!(out, "node,feature,step,forecast")?;
    for (step, pred) in output.predictions.iter().enumerate() {
        let raw = z.invert_matrix(pred);
        for node in 0..raw.rows() {
            for feature in 0..raw.cols() {
                writeln!(out, "{node},{feature},{step},{:.4}", raw[(node, feature)])?;
            }
        }
    }
    Ok(())
}

fn cmd_impute(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let method = opts.get("method").unwrap_or("knn");
    let path = opts.get("out").ok_or("impute requires --out <file>")?;
    let ds = load_dataset(opts)?;
    let filled = match method {
        "last" => last_observed_fill(&ds.values, &ds.mask),
        "knn" => knn_impute(&ds.values, &ds.mask, opts.get_parsed("k", 3usize)?),
        "mf" => matrix_factorization_impute(
            &ds.values,
            &ds.mask,
            opts.get_parsed("rank", 4usize)?,
            opts.get_parsed("iters", 15usize)?,
            opts.get_parsed("seed", 1u64)?,
        ),
        other => return Err(format!("unknown imputer {other:?} (last|knn|mf)").into()),
    };
    let completed = TrafficDataset::new(
        format!("{}-imputed", ds.name),
        filled,
        st_tensor::Tensor3::ones(ds.num_nodes(), ds.num_features(), ds.num_times()),
        ds.network.clone(),
        ds.interval_minutes,
    );
    write_csv(&completed, BufWriter::new(File::create(path)?))?;
    writeln!(
        out,
        "imputed {:.1}% of entries with {method}; wrote {path}",
        ds.missing_rate() * 100.0
    )?;
    Ok(())
}

fn cmd_inspect(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = load_dataset(opts)?;
    let report = QualityReport::compute(&ds);
    writeln!(
        out,
        "dataset: {} nodes × {} features × {} timestamps",
        ds.num_nodes(),
        ds.num_features(),
        ds.num_times()
    )?;
    write!(out, "{}", report.render())?;
    Ok(())
}

fn cmd_evaluate(opts: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let ds = load_dataset(opts)?;
    let (norm, z) = prepare_split(&ds.split_chronological());
    let cfg = model_config(opts)?;
    let sampler = WindowSampler::new(cfg.history, cfg.horizon, 3);
    let train = sampler.sample(&norm.train);
    let val = sampler.sample(&norm.val);
    let test = sampler.sample(&norm.test);
    if train.is_empty() || test.is_empty() {
        return Err("dataset too short to evaluate".into());
    }

    let ha = rihgcn_baselines::HistoricalAverage::fit(&norm.train, cfg.horizon);
    let ha_m = evaluate_prediction(&ha, &test, &z);

    let mut model = RihgcnModel::from_dataset(&norm.train, cfg);
    let tc = TrainConfig {
        max_epochs: opts.get_parsed("epochs", 10usize)?,
        threads: opts.get_parsed("threads", 0usize)?,
        ..Default::default()
    };
    fit(&mut model, &train, &val, &tc);
    let pred = evaluate_prediction(&model, &test, &z);
    let imp = evaluate_imputation(&model, &test, &z);

    writeln!(out, "method,mae,rmse")?;
    writeln!(out, "HA,{:.4},{:.4}", ha_m.mae, ha_m.rmse)?;
    writeln!(out, "RIHGCN,{:.4},{:.4}", pred.mae, pred.rmse)?;
    writeln!(out, "RIHGCN-imputation,{:.4},{:.4}", imp.mae, imp.rmse)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_serve::metrics::sample_value;
    use st_serve::{wire, HttpClient};
    use st_tensor::Matrix;
    use std::path::Path;
    use std::time::{Duration, Instant};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// `command` split on whitespace, then a `--flag path` pair per entry
    /// of `paths` (kept whole, so a path may hold spaces).
    fn argv(command: &str, paths: &[(&str, &Path)]) -> Vec<String> {
        let mut out = args(&command.split_whitespace().collect::<Vec<_>>());
        for (flag, path) in paths {
            out.extend([format!("--{flag}"), path.to_str().unwrap().to_string()]);
        }
        out
    }

    /// Runs [`argv`]`(command, paths)`, which must succeed; returns the output.
    fn run_ok(command: &str, paths: &[(&str, &Path)]) -> String {
        let mut buf = Vec::new();
        run(&argv(command, paths), &mut buf).unwrap_or_else(|e| panic!("{command}: {e}"));
        String::from_utf8(buf).unwrap()
    }

    /// Runs [`argv`]`(command, paths)`, which must fail; returns the error.
    fn run_err(command: &str, paths: &[(&str, &Path)]) -> String {
        let mut buf = Vec::new();
        let result = run(&argv(command, paths), &mut buf);
        result.expect_err(command).to_string()
    }

    #[test]
    fn options_parse_flags_and_positionals() {
        let opts = Options::parse(&args(&["pos1", "--key", "value", "pos2"])).unwrap();
        assert_eq!(opts.positional(), &["pos1", "pos2"]);
        assert_eq!(opts.get("key"), Some("value"));
        assert_eq!(opts.get_parsed("missing", 5usize).unwrap(), 5);
    }

    #[test]
    fn options_reject_dangling_flag() {
        assert!(Options::parse(&args(&["--key"])).is_err());
    }

    #[test]
    fn options_reject_bad_parse() {
        let opts = Options::parse(&args(&["--n", "abc"])).unwrap();
        assert!(opts.get_parsed("n", 0usize).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let mut buf = Vec::new();
        run(&args(&["help"]), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("generate"));
    }

    #[test]
    fn unknown_command_errors() {
        let mut buf = Vec::new();
        let err = run(&args(&["frobnicate"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn no_command_errors_with_usage() {
        let mut buf = Vec::new();
        let err = run(&[], &mut buf).unwrap_err();
        assert!(err.to_string().contains("no command"));
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn generate_and_impute_round_trip() {
        let dir = std::env::temp_dir().join("rihgcn-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (data, filled) = (dir.join("data.csv"), dir.join("filled.csv"));
        let generate = "generate --dataset pems --nodes 3 --days 1 --missing-rate 0.3";
        let mut text = run_ok(generate, &[("out", &data)]);
        assert!(data.exists());
        text += &run_ok("impute --method last", &[("data", &data), ("out", &filled)]);
        assert!(filled.exists());
        assert!(text.contains("wrote"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_reports_quality() {
        let dir = std::env::temp_dir().join("rihgcn-cli-inspect");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let generate = "generate --dataset pems --nodes 3 --days 1 --missing-rate 0.4";
        run_ok(generate, &[("out", &data)]);
        let text = run_ok("inspect", &[("data", &data)]);
        assert!(text.contains("missing rate"), "{text}");
        assert!(text.contains("daily autocorrelation"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_documented_and_validated() {
        let mut buf = Vec::new();
        run(&args(&["help"]), &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("--threads"));
        let mut buf = Vec::new();
        let err = run(&args(&["help", "--threads", "abc"]), &mut buf).unwrap_err();
        assert!(err.to_string().contains("--threads"));
    }

    /// Generates a 4-node, one-day PeMS CSV from data seed `seed` and
    /// trains one epoch of a small model on it into the checkpoint `ckpt`,
    /// returning the training output and the dataset.
    fn train_small_checkpoint(dir: &Path, seed: &str, ckpt: &Path) -> (String, TrafficDataset) {
        let data = dir.join(format!("data-{seed}.csv"));
        let generate =
            format!("generate --dataset pems --nodes 4 --days 1 --missing-rate 0.2 --seed {seed}");
        run_ok(&generate, &[("out", &data)]);
        let train = "train --epochs 1 --gcn-dim 4 --lstm-dim 6 --graphs 2 --history 4 --horizon 2";
        let log = run_ok(train, &[("data", &data), ("out", ckpt)]);
        (
            log,
            load_dataset(&Options::parse(&argv("", &[("data", &data)])).unwrap()).unwrap(),
        )
    }

    /// Runs `serve` on a thread and waits until it has written its bound
    /// address to `addr_file`. Returns the address and the thread, which
    /// yields the server log once the server shuts down.
    fn start_server(
        serve_args: Vec<String>,
        addr_file: &Path,
    ) -> (String, std::thread::JoinHandle<String>) {
        std::fs::remove_file(addr_file).ok();
        let server = std::thread::spawn(move || {
            let mut buf = Vec::new();
            run(&serve_args, &mut buf).unwrap();
            String::from_utf8(buf).unwrap()
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if !text.trim().is_empty() {
                    break text.trim().to_string();
                }
            }
            assert!(!server.is_finished(), "server exited before binding");
            assert!(Instant::now() < deadline, "server never bound");
            std::thread::sleep(Duration::from_millis(20));
        };
        (addr, server)
    }

    fn connect(addr: &str) -> HttpClient {
        HttpClient::connect(addr, Duration::from_secs(10)).unwrap()
    }

    /// The in-process forecaster a served tenant must match bit for bit.
    fn oracle(ckpt: &Path) -> OnlineForecaster {
        OnlineForecaster::from_checkpoint(&mut BufReader::new(File::open(ckpt).unwrap())).unwrap()
    }

    /// Posts the first `history` steps of `ds`, its missing entries masked
    /// out so the window exercises imputation, to `route` and pushes the
    /// same ones into `oracle`.
    fn fill_window(
        client: &mut HttpClient,
        route: &str,
        oracle: &mut OnlineForecaster,
        ds: &TrafficDataset,
    ) {
        let slots = oracle.model().slots_per_day();
        for t in 0..oracle.history() {
            let (values, mask) = (ds.values.time_slice(t), ds.mask.time_slice(t));
            let body = wire::format_observation(t % slots, &values, &mask);
            client
                .post_ok(route, &body)
                .unwrap_or_else(|e| panic!("{route} t={t}: {e}"));
            oracle.push(values, mask, t % slots);
        }
    }

    /// Value of the sample `name` in a `/metrics` scrape.
    fn metric_value(metrics: &str, name: &str) -> f64 {
        sample_value(metrics, name).unwrap_or_else(|| panic!("metrics missing {name}:\n{metrics}"))
    }

    #[test]
    fn train_checkpoint_then_serve_end_to_end() {
        let dir = std::env::temp_dir().join("rihgcn-cli-serve");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("model.ckpt");
        let (log, ds) = train_small_checkpoint(&dir, "7", &ckpt);
        assert!(log.contains("saved a checkpoint"), "{log}");
        let mut oracle = oracle(&ckpt);

        // Serve from the checkpoint on an ephemeral port in a thread.
        let addr_file = dir.join("addr.txt");
        let serve = argv(
            "serve --addr 127.0.0.1:0 --workers 2",
            &[("checkpoint", &ckpt), ("addr-file", &addr_file)],
        );
        let (addr, server) = start_server(serve, &addr_file);
        let mut client = connect(&addr);
        let health = client.get_ok("/healthz").unwrap();
        assert!(health.contains("nodes 4"), "health: {health}");

        // An empty window answers 409, not a hang or a 500.
        let resp = client.request("GET", "/forecast", "").unwrap();
        assert_eq!(resp.status, 409, "body: {}", resp.body);

        assert!(
            (0..oracle.history()).any(|t| ds.mask.time_slice(t).as_slice().contains(&0.0)),
            "the window must hold missing entries"
        );
        fill_window(&mut client, "/observe", &mut oracle, &ds);
        let (_, steps) = wire::parse_steps(&client.get_ok("/forecast").unwrap()).unwrap();
        assert_eq!(steps.len(), oracle.horizon());
        for step in &steps {
            assert_eq!(step.shape(), (4, oracle.model().num_features()));
            assert!(step.is_finite(), "non-finite forecast: {step:?}");
        }
        assert_eq!(
            steps,
            oracle.forecast().unwrap(),
            "the served forecast must be bit-equal to the in-process forecaster"
        );
        let (_, imputed) = wire::parse_steps(&client.get_ok("/imputed").unwrap()).unwrap();
        assert_eq!(imputed.len(), oracle.history());
        assert_eq!(imputed, oracle.imputed_window().unwrap());

        let metrics = client.get_ok("/metrics").unwrap();
        for needle in [
            "st_serve_requests_total{route=\"forecast\"}",
            "st_serve_latency_bucket{le=\"+inf\"}",
        ] {
            assert!(metrics.contains(needle), "metrics missing {needle}");
        }

        client.post_ok("/admin/shutdown", "").unwrap();
        let log = server.join().unwrap();
        assert!(log.contains("listening on"), "log: {log}");
        let stopped = format!("server stopped after {} observations", oracle.history());
        assert!(log.contains(&stopped), "log: {log}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_info_and_multi_tenant_serve() {
        let dir = std::env::temp_dir().join("rihgcn-cli-multitenant");
        let models_dir = dir.join("models");
        std::fs::create_dir_all(&models_dir).unwrap();
        // Checkpoints trained on differently seeded data, so that the
        // tenants hold two different models.
        let ckpts = [dir.join("seed7.ckpt"), dir.join("seed9.ckpt")];
        let data = [
            train_small_checkpoint(&dir, "7", &ckpts[0]).1,
            train_small_checkpoint(&dir, "9", &ckpts[1]).1,
        ];

        // `checkpoint info` prints shapes, config and zscore stats.
        let info = run_ok("checkpoint info", &[("file", &ckpts[1])]);
        assert!(info.contains("nodes 4"), "info: {info}");
        assert!(info.contains("history 4  horizon 2"), "info: {info}");
        assert!(
            info.contains("gcn_dim 4  lstm_dim 6  cheb_k"),
            "info: {info}"
        );
        assert!(info.contains("slots_per_day"), "info: {info}");
        assert!(info.contains("geo adjacency 4x4"), "info: {info}");
        assert!(info.contains("zscore mean"), "info: {info}");
        assert!(info.contains("zscore std"), "info: {info}");

        // A subcommand other than `info` is rejected.
        let err = run_err("checkpoint frobnicate", &[]);
        assert!(err.contains("checkpoint info"), "{err}");

        // Four tenants alternating between the two checkpoints, on both
        // of two shards.
        let tenants = ["t0", "t1", "t2", "t3"];
        let mut oracles = Vec::new();
        for (i, tenant) in tenants.iter().enumerate() {
            std::fs::copy(&ckpts[i % 2], models_dir.join(format!("{tenant}.ckpt"))).unwrap();
            oracles.push(oracle(&ckpts[i % 2]));
        }
        for shard in 0..2 {
            assert!(
                tenants.iter().any(|t| st_serve::shard_of(t, 2) == shard),
                "no tenant routes to shard {shard}"
            );
        }
        let addr_file = dir.join("addr.txt");
        let serve = argv(
            "serve --shards 2 --addr 127.0.0.1:0 --workers 2",
            &[("models", &models_dir), ("addr-file", &addr_file)],
        );
        let (addr, server) = start_server(serve, &addr_file);

        let mut client = connect(&addr);
        let listing = client.get_ok("/admin/tenants").unwrap();
        assert!(listing.starts_with("shards 2 models 4"), "{listing}");
        for (i, (tenant, oracle)) in tenants.iter().zip(&mut oracles).enumerate() {
            let expected = format!("tenant {tenant} shard {}", st_serve::shard_of(tenant, 2));
            assert!(listing.contains(&expected), "{listing}");
            let health = client.get_ok(&format!("/healthz?tenant={tenant}")).unwrap();
            assert!(health.contains("nodes 4"), "health: {health}");
            let route = format!("/observe?tenant={tenant}");
            fill_window(&mut client, &route, oracle, &data[i % 2]);
        }
        let expected: Vec<Vec<Matrix>> =
            oracles.iter_mut().map(|o| o.forecast().unwrap()).collect();
        assert_ne!(expected[0], expected[1], "the two checkpoints must differ");
        // An idle keep-alive connection would hold one of the two workers.
        drop(client);

        // Concurrent forecast traffic; every reply is bit-equal to its
        // tenant's in-process oracle.
        std::thread::scope(|scope| {
            for first in 0..2 {
                let (addr, tenants, expected) = (&addr, &tenants, &expected);
                scope.spawn(move || {
                    let mut client = connect(addr);
                    for round in 0..12 {
                        let i = (first + round) % tenants.len();
                        let text = client
                            .get_ok(&format!("/forecast?tenant={}", tenants[i]))
                            .unwrap();
                        let (_, steps) = wire::parse_steps(&text).unwrap();
                        assert_eq!(steps, expected[i], "tenant {}", tenants[i]);
                    }
                });
            }
        });

        // At quiescence the per-shard request counters sum exactly to the
        // engine total.
        let mut client = connect(&addr);
        let metrics = client.get_ok("/metrics").unwrap();
        let shard_sum: f64 = (0..2)
            .map(|s| {
                metric_value(
                    &metrics,
                    &format!("st_serve_shard_requests_total{{shard=\"{s}\"}}"),
                )
            })
            .sum();
        let engine_total = metric_value(&metrics, "st_serve_engine_requests_total");
        assert!(engine_total > 0.0, "metrics:\n{metrics}");
        assert_eq!(shard_sum, engine_total, "metrics:\n{metrics}");

        client.post_ok("/admin/shutdown", "").unwrap();
        let log = server.join().unwrap();
        assert!(
            log.contains("listening on") && log.contains("(2 shards, 4 models)"),
            "log: {log}"
        );
        assert!(log.contains("server stopped"), "log: {log}");
        for tenant in tenants {
            assert!(log.contains(&format!("tenant {tenant}:")), "log: {log}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_conflicting_model_sources() {
        let err = run_err("serve --checkpoint a.ckpt --models dir", &[]);
        assert!(err.contains("not both"), "{err}");
    }

    #[test]
    fn train_with_trace_writes_valid_chrome_json() {
        let dir = std::env::temp_dir().join("rihgcn-cli-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let (data, trace) = (dir.join("data.csv"), dir.join("trace.json"));
        let generate = "generate --dataset pems --nodes 3 --days 1 --missing-rate 0.2";
        run_ok(generate, &[("out", &data)]);
        let text = run_ok(
            "train --epochs 1 --gcn-dim 3 --lstm-dim 4 --graphs 2 --history 4 --horizon 2 \
             --log-format json",
            &[
                ("data", &data),
                ("out", &dir.join("model.ckpt")),
                ("trace", &trace),
            ],
        );
        assert!(text.contains("wrote trace"), "output: {text}");

        let doc = std::fs::read_to_string(&trace).unwrap();
        let stats = st_obs::trace::validate_chrome_trace(&doc).expect("valid Chrome trace");
        assert!(stats.span_events > 0, "trace has spans");
        for prefix in ["core.", "autodiff.", "tensor.", "nn."] {
            assert!(
                stats.has_prefix(prefix),
                "trace must contain {prefix}* spans; names: {:?}",
                stats.names
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_rejects_unknown_log_format() {
        let dir = std::env::temp_dir().join("rihgcn-cli-logfmt");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run_ok(
            "generate --dataset pems --nodes 3 --days 1",
            &[("out", &data)],
        );
        let paths = [("data", data.as_path()), ("out", &dir.join("m.ckpt"))];
        let err = run_err("train --log-format yaml", &paths);
        assert!(err.contains("--log-format"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commands_reject_flags_they_do_not_read() {
        for (command, flag) in [
            ("train --out m.params --checkpoint m.ckpt", "--checkpoint"),
            ("forecast --model m.ckpt --gcn-dim 3", "--gcn-dim"),
            ("forecast --model m.ckpt --graphs 2", "--graphs"),
            ("generate --out x.csv --node 3", "--node"),
            ("serve --checkpoint m.ckpt --thread 2", "--thread"),
            ("help --verbose true", "--verbose"),
        ] {
            let err = run_err(command, &[]);
            let name = command.split(' ').next().unwrap();
            assert!(
                err.contains(&format!("unknown flag {flag} for `{name}`")),
                "{err}"
            );
        }
        // A global flag stays accepted by every command.
        assert!(run_ok("help --threads 0", &[]).contains("USAGE"));
    }

    #[test]
    fn forecast_rejects_a_dataset_the_checkpoint_was_not_built_for() {
        let dir = std::env::temp_dir().join("rihgcn-cli-forecast-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run_ok("generate --nodes 4 --days 1", &[("out", &data)]);
        let d = load_dataset(&Options::parse(&argv("", &[("data", &data)])).unwrap())
            .unwrap()
            .num_features();
        // Checkpoints of models built for 3 nodes, and for 4 nodes over
        // 15-minute slots where the CSV has 5-minute ones.
        for (nodes, slots, message) in [(3, 288, "nodes"), (4, 96, "time-of-day slots")] {
            let geo = Matrix::from_fn(nodes, nodes, |r, c| f64::from(r != c));
            let cfg = RihgcnConfig {
                gcn_dim: 2,
                lstm_dim: 3,
                num_temporal_graphs: 1,
                history: 4,
                horizon: 2,
                ..Default::default()
            };
            let interval = st_graph::Interval::new(0, slots);
            let model = RihgcnModel::from_parts(cfg, d, geo.clone(), vec![(interval, geo)], slots);
            let z = st_data::ZScore::from_parts(vec![0.0; d], vec![1.0; d]);
            let ckpt = dir.join(format!("{nodes}-{slots}.ckpt"));
            save_checkpoint(&model, &z, File::create(&ckpt).unwrap()).unwrap();
            let err = run_err("forecast", &[("data", &data), ("model", &ckpt)]);
            assert!(err.contains(message), "{err}");
            assert!(err.contains("checkpoint expects"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_requires_a_checkpoint() {
        assert!(run_err("serve", &[]).contains("--checkpoint"));
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let err = run_err("generate --dataset nope --out /tmp/x.csv", &[]);
        assert!(err.contains("unknown dataset"));
    }

    #[test]
    fn generate_rejects_empty_sizes_and_out_of_range_missing_rates() {
        let out = std::env::temp_dir().join("rihgcn-cli-never-written.csv");
        for (flag, value, message) in [
            ("--missing-rate", "1.5", "--missing-rate"),
            ("--missing-rate", "-0.1", "--missing-rate"),
            ("--missing-rate", "NaN", "--missing-rate"),
            ("--nodes", "0", "at least 1"),
            ("--days", "0", "at least 1"),
        ] {
            for dataset in ["pems", "stampede"] {
                let command = format!("generate --dataset {dataset} {flag} {value}");
                let err = run_err(&command, &[("out", &out)]);
                assert!(err.contains(message), "{flag} {value}: {err}");
                assert!(!out.exists(), "{flag} {value} wrote a file");
            }
        }
    }
}
