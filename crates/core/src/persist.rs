//! Plain-text persistence for trained models: the self-contained
//! **checkpoint v2**, the one persisted model format.
//!
//! A checkpoint bundles everything needed to rebuild and run the model
//! standalone — the [`RihgcnConfig`], the fitted [`ZScore`] statistics, the
//! geographic and temporal graphs with their intervals, and the parameters
//! as an embedded `rihgcn-params v1` section (one header line per
//! parameter followed by its row-major values):
//!
//! ```text
//! rihgcn-checkpoint v2
//! config <key> <value>      (one line per config field)
//! meta nodes <N> features <D> slots_per_day <S>
//! zscore_mean <D values>
//! zscore_std <D values>
//! geo <N> <N>
//! <N*N values>
//! temporal <M>
//! interval <start> <end> <N> <N>    (M times)
//! <N*N values>
//! rihgcn-params v1
//! param <name> <rows> <cols>
//! <v> <v> ...
//! ```
//!
//! Floats are written with Rust's shortest-round-trip (`{:?}`) formatting,
//! so a checkpoint reloads **bit-identically**. A standalone params-only
//! file (an embedded section on its own) is rejected with a typed error.

use crate::{PredictionHead, RihgcnConfig, RihgcnModel};
use st_data::ZScore;
use st_graph::{Interval, SeriesDistance};
use st_nn::ParamStore;
use st_tensor::Matrix;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Error returned when loading persisted parameters fails.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is not in the expected format.
    Format(String),
    /// The file's parameters do not match the model (name/shape/order).
    Mismatch(String),
    /// A value is NaN or infinite (rejected on both save and load — a NaN
    /// written to disk would otherwise round-trip silently into a poisoned
    /// model).
    NonFinite(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format(msg) => write!(f, "malformed parameter file: {msg}"),
            PersistError::Mismatch(msg) => write!(f, "parameter mismatch: {msg}"),
            PersistError::NonFinite(msg) => write!(f, "non-finite value: {msg}"),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

const HEADER: &str = "rihgcn-params v1";
const CKPT_HEADER: &str = "rihgcn-checkpoint v2";

/// Most scalars a loaded checkpoint may make the process hold: 2^27, or
/// 1 GiB of `f64`. A paper-scale model (N = 207, 64 GCN filters, 128 LSTM
/// units) holds about a million, so the bound only turns a corrupt
/// dimension into an error before the model is built, where it would
/// otherwise ask for memory it cannot have.
const MAX_LOADED_SCALARS: f64 = (1u64 << 27) as f64;

/// Writes every parameter of the store as the embedded parameter section.
///
/// Fails with [`PersistError::NonFinite`] if any parameter holds a NaN or
/// infinity, and on any underlying I/O error.
fn save_params<W: Write>(store: &ParamStore, mut w: W) -> Result<(), PersistError> {
    writeln!(w, "{HEADER}")?;
    for id in store.ids() {
        let m = store.value(id);
        if !m.is_finite() {
            return Err(PersistError::NonFinite(format!(
                "parameter {} contains a NaN or infinite value; refusing to save",
                store.name(id)
            )));
        }
        writeln!(w, "param {} {} {}", store.name(id), m.rows(), m.cols())?;
        let mut line = String::new();
        for (i, v) in m.as_slice().iter().enumerate() {
            if i > 0 {
                line.push(' ');
            }
            line.push_str(&format!("{v:?}")); // Debug float formatting round-trips exactly
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Loads the embedded parameter section into an existing store; names,
/// shapes and order must match exactly (i.e. the model must be built with
/// the same configuration).
///
/// Fails with [`PersistError::Format`] for malformed input and
/// [`PersistError::Mismatch`] when the stored parameters do not line up
/// with the model's.
fn load_params<R: BufRead>(store: &mut ParamStore, r: R) -> Result<(), PersistError> {
    let mut lines = r.lines();
    let header = lines
        .next()
        .ok_or_else(|| PersistError::Format("empty file".into()))??;
    if header.trim() != HEADER {
        return Err(PersistError::Format(format!("bad header: {header:?}")));
    }

    let ids: Vec<_> = store.ids().collect();
    for &id in &ids {
        let meta = lines
            .next()
            .ok_or_else(|| PersistError::Format("unexpected end of file".into()))??;
        let parts: Vec<&str> = meta.split_whitespace().collect();
        if parts.len() != 4 || parts[0] != "param" {
            return Err(PersistError::Format(format!("bad param header: {meta:?}")));
        }
        let (name, rows, cols) = (
            parts[1],
            parts[2]
                .parse::<usize>()
                .map_err(|e| PersistError::Format(e.to_string()))?,
            parts[3]
                .parse::<usize>()
                .map_err(|e| PersistError::Format(e.to_string()))?,
        );
        if name != store.name(id) {
            return Err(PersistError::Mismatch(format!(
                "expected parameter {:?}, file has {:?}",
                store.name(id),
                name
            )));
        }
        if (rows, cols) != store.value(id).shape() {
            return Err(PersistError::Mismatch(format!(
                "parameter {name}: expected shape {:?}, file has {rows}x{cols}",
                store.value(id).shape()
            )));
        }
        let data_line = lines
            .next()
            .ok_or_else(|| PersistError::Format("missing data line".into()))??;
        let values: Result<Vec<f64>, _> = data_line
            .split_whitespace()
            .map(str::parse::<f64>)
            .collect();
        let values = values.map_err(|e| PersistError::Format(e.to_string()))?;
        if values.len() != rows * cols {
            return Err(PersistError::Format(format!(
                "parameter {name}: expected {} values, found {}",
                rows * cols,
                values.len()
            )));
        }
        if !values.iter().all(|v| v.is_finite()) {
            return Err(PersistError::NonFinite(format!(
                "parameter {name} contains a NaN or infinite value; refusing to load"
            )));
        }
        store.set_value(id, Matrix::from_vec(rows, cols, values));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Checkpoint v2: self-contained model + normaliser persistence.
// ---------------------------------------------------------------------------

fn fmt_floats(values: &[f64]) -> String {
    let mut line = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        line.push_str(&format!("{v:?}")); // shortest round-trip formatting
    }
    line
}

fn parse_floats(line: &str, expected: usize, what: &str) -> Result<Vec<f64>, PersistError> {
    let values: Result<Vec<f64>, _> = line.split_whitespace().map(str::parse::<f64>).collect();
    let values = values.map_err(|e| PersistError::Format(format!("{what}: {e}")))?;
    if values.len() != expected {
        return Err(PersistError::Format(format!(
            "{what}: expected {expected} values, found {}",
            values.len()
        )));
    }
    if !values.iter().all(|v| v.is_finite()) {
        return Err(PersistError::NonFinite(format!(
            "{what} contains a NaN or infinite value"
        )));
    }
    Ok(values)
}

fn distance_token(d: SeriesDistance) -> String {
    match d {
        SeriesDistance::Dtw => "dtw".to_string(),
        SeriesDistance::Erp { gap } => format!("erp {gap:?}"),
        SeriesDistance::Lcss { epsilon } => format!("lcss {epsilon:?}"),
    }
}

fn parse_distance(parts: &[&str]) -> Result<SeriesDistance, PersistError> {
    match parts {
        ["dtw"] => Ok(SeriesDistance::Dtw),
        ["erp", gap] => Ok(SeriesDistance::Erp {
            gap: gap
                .parse()
                .map_err(|e| PersistError::Format(format!("erp gap: {e}")))?,
        }),
        ["lcss", eps] => Ok(SeriesDistance::Lcss {
            epsilon: eps
                .parse()
                .map_err(|e| PersistError::Format(format!("lcss epsilon: {e}")))?,
        }),
        other => Err(PersistError::Format(format!(
            "unknown distance {other:?} (dtw | erp <gap> | lcss <epsilon>)"
        ))),
    }
}

fn write_config<W: Write>(cfg: &RihgcnConfig, w: &mut W) -> Result<(), PersistError> {
    writeln!(w, "config gcn_dim {}", cfg.gcn_dim)?;
    writeln!(w, "config lstm_dim {}", cfg.lstm_dim)?;
    writeln!(w, "config cheb_k {}", cfg.cheb_k)?;
    writeln!(w, "config num_temporal_graphs {}", cfg.num_temporal_graphs)?;
    writeln!(w, "config history {}", cfg.history)?;
    writeln!(w, "config horizon {}", cfg.horizon)?;
    writeln!(w, "config lambda {:?}", cfg.lambda)?;
    writeln!(w, "config tau {:?}", cfg.tau)?;
    writeln!(w, "config epsilon {:?}", cfg.epsilon)?;
    writeln!(w, "config distance {}", distance_token(cfg.distance))?;
    writeln!(w, "config bidirectional {}", cfg.bidirectional)?;
    writeln!(w, "config consistency_weight {:?}", cfg.consistency_weight)?;
    let head = match cfg.head {
        PredictionHead::Concat => "concat",
        PredictionHead::Attention => "attention",
    };
    writeln!(w, "config head {head}")?;
    writeln!(w, "config seed {}", cfg.seed)?;
    Ok(())
}

fn apply_config_line(cfg: &mut RihgcnConfig, parts: &[&str]) -> Result<(), PersistError> {
    fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, PersistError>
    where
        T::Err: fmt::Display,
    {
        v.parse()
            .map_err(|e| PersistError::Format(format!("config {key}: {e}")))
    }
    let [key, rest @ ..] = parts else {
        return Err(PersistError::Format("empty config line".into()));
    };
    let one = || -> Result<&str, PersistError> {
        match rest {
            [v] => Ok(v),
            _ => Err(PersistError::Format(format!(
                "config {key}: expected one value, got {rest:?}"
            ))),
        }
    };
    match *key {
        "gcn_dim" => cfg.gcn_dim = num(key, one()?)?,
        "lstm_dim" => cfg.lstm_dim = num(key, one()?)?,
        "cheb_k" => cfg.cheb_k = num(key, one()?)?,
        "num_temporal_graphs" => cfg.num_temporal_graphs = num(key, one()?)?,
        "history" => cfg.history = num(key, one()?)?,
        "horizon" => cfg.horizon = num(key, one()?)?,
        "lambda" => cfg.lambda = num(key, one()?)?,
        "tau" => cfg.tau = num(key, one()?)?,
        "epsilon" => cfg.epsilon = num(key, one()?)?,
        "distance" => cfg.distance = parse_distance(rest)?,
        "bidirectional" => cfg.bidirectional = num(key, one()?)?,
        "consistency_weight" => cfg.consistency_weight = num(key, one()?)?,
        "head" => {
            cfg.head = match one()? {
                "concat" => PredictionHead::Concat,
                "attention" => PredictionHead::Attention,
                other => {
                    return Err(PersistError::Format(format!(
                        "unknown prediction head {other:?}"
                    )))
                }
            }
        }
        "seed" => cfg.seed = num(key, one()?)?,
        other => {
            return Err(PersistError::Format(format!(
                "unknown config key {other:?}"
            )))
        }
    }
    Ok(())
}

/// Writes a **self-contained v2 checkpoint**: config, normaliser, graphs
/// and parameters. The result reloads standalone via [`load_checkpoint`] —
/// no dataset required — and reproduces the model's forecasts
/// bit-identically.
///
/// # Errors
///
/// Returns [`PersistError::NonFinite`] if any parameter, statistic or
/// adjacency value is NaN/infinite, and any underlying I/O error.
pub fn save_checkpoint<W: Write>(
    model: &RihgcnModel,
    z: &ZScore,
    mut w: W,
) -> Result<(), PersistError> {
    let n = model.num_nodes();
    writeln!(w, "{CKPT_HEADER}")?;
    write_config(model.config(), &mut w)?;
    writeln!(
        w,
        "meta nodes {n} features {} slots_per_day {}",
        model.num_features(),
        model.slots_per_day()
    )?;
    if !z.mean().iter().chain(z.std()).all(|v| v.is_finite()) {
        return Err(PersistError::NonFinite(
            "normaliser statistics contain a NaN or infinite value".into(),
        ));
    }
    writeln!(w, "zscore_mean {}", fmt_floats(z.mean()))?;
    writeln!(w, "zscore_std {}", fmt_floats(z.std()))?;
    let geo = model.geo_adjacency();
    if !geo.is_finite() {
        return Err(PersistError::NonFinite(
            "geographic adjacency contains a NaN or infinite value".into(),
        ));
    }
    writeln!(w, "geo {} {}", geo.rows(), geo.cols())?;
    writeln!(w, "{}", fmt_floats(geo.as_slice()))?;
    writeln!(w, "temporal {}", model.temporal_graphs().len())?;
    for (interval, adj) in model.temporal_graphs() {
        if !adj.is_finite() {
            return Err(PersistError::NonFinite(format!(
                "temporal adjacency [{}, {}) contains a NaN or infinite value",
                interval.start, interval.end
            )));
        }
        writeln!(
            w,
            "interval {} {} {} {}",
            interval.start,
            interval.end,
            adj.rows(),
            adj.cols()
        )?;
        writeln!(w, "{}", fmt_floats(adj.as_slice()))?;
    }
    save_params(model.params(), &mut w)
}

/// Reads a matrix section: a `rows cols` pair parsed by the caller plus one
/// data line.
fn read_matrix<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    rows: usize,
    cols: usize,
    what: &str,
) -> Result<Matrix, PersistError> {
    let data = lines
        .next()
        .ok_or_else(|| PersistError::Format(format!("{what}: missing data line")))?;
    let len = rows
        .checked_mul(cols)
        .ok_or_else(|| PersistError::Format(format!("{what}: {rows}x{cols} overflows")))?;
    Ok(Matrix::from_vec(rows, cols, parse_floats(data, len, what)?))
}

/// Scalar parameters [`RihgcnModel::from_parts`] allocates for `cfg` over
/// `features` input features: the model's
/// [`num_parameters`](RihgcnModel::num_parameters), computed in `f64` so
/// that a hostile dimension saturates instead of overflowing.
fn parameter_count(cfg: &RihgcnConfig, features: usize) -> f64 {
    let [d, g, q, k, m, t, h] = [
        features,
        cfg.gcn_dim,
        cfg.lstm_dim,
        cfg.cheb_k,
        cfg.num_temporal_graphs,
        cfg.history,
        cfg.horizon,
    ]
    .map(|v| v as f64);
    let dirs = if cfg.bidirectional { 2.0 } else { 1.0 };
    // One Chebyshev GCN (K weights and a bias) per graph, plus the
    // temporal branch's gate; the temporal branch doubles the width p.
    let (gate, p) = if m > 0.0 { (1.0, 2.0 * g) } else { (0.0, g) };
    let gcns = (m + 1.0) * (k * d * g + g) + gate;
    // Per direction: the LSTM's input and recurrent weights and bias, and
    // the estimation head.
    let cells = dirs * (4.0 * q * (p + d + q + 1.0) + (p + q + 1.0) * d);
    let (head_in, attention) = match cfg.head {
        PredictionHead::Concat => (t * dirs * (p + q), 0.0),
        PredictionHead::Attention => (dirs * (p + q), dirs * (p + q)),
    };
    gcns + cells + attention + (head_in + 1.0) * d * h
}

/// Scalars a checkpoint with this config and meta line makes the process
/// hold: the rebuilt model's parameters, the K-term Chebyshev bases of its
/// 1 + M graphs and its slot weight cache, plus the history window (values
/// and masks) of the [`OnlineForecaster`](crate::OnlineForecaster) that
/// serves it.
fn loaded_scalars(cfg: &RihgcnConfig, nodes: usize, features: usize, slots_per_day: usize) -> f64 {
    let [n, d, slots] = [nodes, features, slots_per_day].map(|v| v as f64);
    let [k, m, t] = [cfg.cheb_k, cfg.num_temporal_graphs, cfg.history].map(|v| v as f64);
    parameter_count(cfg, features) + (m + 1.0) * k * n * n + m * slots + 2.0 * t * n * d
}

/// Loads a **self-contained v2 checkpoint** written by [`save_checkpoint`],
/// rebuilding the model from the stored graphs (no dataset needed) and
/// returning it together with the normalisation transform.
///
/// # Errors
///
/// Returns [`PersistError::Format`] for malformed or truncated input (a v1
/// params-only file is reported as such) and for a config that fails
/// [`RihgcnConfig::validate`] or describes a model of more than 2^27
/// scalars, [`PersistError::NonFinite`] for NaN/infinite stored values,
/// and [`PersistError::Mismatch`] when the temporal graph count disagrees
/// with the config or the embedded parameter section does not line up
/// with the rebuilt model.
pub fn load_checkpoint<R: BufRead>(mut r: R) -> Result<(RihgcnModel, ZScore), PersistError> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let mut lines = text.lines();
    match lines.next().map(str::trim) {
        Some(h) if h == CKPT_HEADER => {}
        Some(h) if h == HEADER => {
            return Err(PersistError::Format(
                "this is a v1 params-only file, which carries no config, normaliser or \
                 graphs; retrain with `rihgcn train --out model.ckpt` to write a checkpoint"
                    .into(),
            ))
        }
        Some(h) => return Err(PersistError::Format(format!("bad header: {h:?}"))),
        None => return Err(PersistError::Format("empty file".into())),
    }

    let mut cfg = RihgcnConfig::default();
    let mut seen_config = false;
    let (nodes, features, slots_per_day) = loop {
        let line = lines
            .next()
            .ok_or_else(|| PersistError::Format("unexpected end of file".into()))?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["config", rest @ ..] => {
                seen_config = true;
                apply_config_line(&mut cfg, rest)?;
            }
            ["meta", "nodes", n, "features", d, "slots_per_day", s] => {
                let parse = |v: &str, what: &str| -> Result<usize, PersistError> {
                    v.parse()
                        .map_err(|e| PersistError::Format(format!("meta {what}: {e}")))
                };
                break (
                    parse(n, "nodes")?,
                    parse(d, "features")?,
                    parse(s, "slots_per_day")?,
                );
            }
            other => {
                return Err(PersistError::Format(format!(
                    "expected config/meta line, found {other:?}"
                )))
            }
        }
    };
    if !seen_config {
        return Err(PersistError::Format(
            "checkpoint has no config lines".into(),
        ));
    }
    cfg.check()
        .map_err(|msg| PersistError::Format(format!("config: {msg}")))?;
    // A dataset's slots_per_day is 24·60 / interval_minutes, so at most
    // one slot per minute; the bound also caps the per-slot weight cache.
    if nodes == 0 || features == 0 || !(1..=24 * 60).contains(&slots_per_day) {
        return Err(PersistError::Format(format!(
            "meta needs nodes and features > 0 and slots_per_day in 1..=1440, \
             found {nodes}, {features} and {slots_per_day}"
        )));
    }
    let scalars = loaded_scalars(&cfg, nodes, features, slots_per_day);
    if scalars > MAX_LOADED_SCALARS {
        return Err(PersistError::Format(format!(
            "config and meta describe a model of {scalars:.3e} scalars, \
             over the loader's limit of {MAX_LOADED_SCALARS:.3e}"
        )));
    }

    let mean_line = lines
        .next()
        .ok_or_else(|| PersistError::Format("missing zscore_mean line".into()))?;
    let mean = parse_floats(
        mean_line
            .strip_prefix("zscore_mean ")
            .ok_or_else(|| PersistError::Format("expected zscore_mean".into()))?,
        features,
        "zscore_mean",
    )?;
    let std_line = lines
        .next()
        .ok_or_else(|| PersistError::Format("missing zscore_std line".into()))?;
    let std = parse_floats(
        std_line
            .strip_prefix("zscore_std ")
            .ok_or_else(|| PersistError::Format("expected zscore_std".into()))?,
        features,
        "zscore_std",
    )?;
    if !std.iter().all(|&s| s > 0.0) {
        return Err(PersistError::Format(
            "zscore_std values must be positive".into(),
        ));
    }
    let z = ZScore::from_parts(mean, std);

    let geo_line = lines
        .next()
        .ok_or_else(|| PersistError::Format("missing geo line".into()))?;
    let geo = match geo_line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["geo", r, c] if *r == nodes.to_string() && *c == nodes.to_string() => {
            read_matrix(&mut lines, nodes, nodes, "geo adjacency")?
        }
        other => {
            return Err(PersistError::Format(format!(
                "expected `geo {nodes} {nodes}`, found {other:?}"
            )))
        }
    };

    let temporal_line = lines
        .next()
        .ok_or_else(|| PersistError::Format("missing temporal line".into()))?;
    let m: usize = temporal_line
        .strip_prefix("temporal ")
        .ok_or_else(|| PersistError::Format("expected temporal count".into()))?
        .trim()
        .parse()
        .map_err(|e| PersistError::Format(format!("temporal count: {e}")))?;
    if m != cfg.num_temporal_graphs {
        return Err(PersistError::Mismatch(format!(
            "checkpoint has {m} temporal graphs but config says {}",
            cfg.num_temporal_graphs
        )));
    }
    let mut temporal_graphs = Vec::with_capacity(m);
    for i in 0..m {
        let header = lines
            .next()
            .ok_or_else(|| PersistError::Format(format!("missing interval header {i}")))?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        let ["interval", start, end, r, c] = parts.as_slice() else {
            return Err(PersistError::Format(format!(
                "bad interval header: {header:?}"
            )));
        };
        let parse = |v: &str, what: &str| -> Result<usize, PersistError> {
            v.parse()
                .map_err(|e| PersistError::Format(format!("interval {what}: {e}")))
        };
        let (start, end) = (parse(start, "start")?, parse(end, "end")?);
        if start >= end {
            return Err(PersistError::Format(format!(
                "interval [{start}, {end}) is empty"
            )));
        }
        if (parse(r, "rows")?, parse(c, "cols")?) != (nodes, nodes) {
            return Err(PersistError::Format(format!(
                "temporal adjacency {i} must be {nodes}x{nodes}"
            )));
        }
        let adj = read_matrix(&mut lines, nodes, nodes, &format!("temporal adjacency {i}"))?;
        temporal_graphs.push((Interval::new(start, end), adj));
    }

    // The remainder of the file is an embedded v1 parameter section.
    let params_text: String = lines.collect::<Vec<_>>().join("\n");
    let mut model = RihgcnModel::from_parts(cfg, features, geo, temporal_graphs, slots_per_day);
    if model.num_nodes() != nodes {
        return Err(PersistError::Mismatch(format!(
            "meta says {nodes} nodes but graphs have {}",
            model.num_nodes()
        )));
    }
    load_params(model.params_mut(), params_text.as_bytes())?;
    Ok((model, z))
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::{rng, uniform_matrix};

    fn sample_store() -> ParamStore {
        let mut store = ParamStore::new();
        store.add("a.w", uniform_matrix(&mut rng(1), 2, 3, -1.0, 1.0));
        store.add("a.b", uniform_matrix(&mut rng(2), 1, 3, -1.0, 1.0));
        store
    }

    #[test]
    fn round_trip_is_exact() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_params(&store, &mut buf).unwrap();
        let mut fresh = sample_store();
        // Perturb, then load back.
        let ids: Vec<_> = fresh.ids().collect();
        fresh.set_value(ids[0], st_tensor::Matrix::zeros(2, 3));
        load_params(&mut fresh, buf.as_slice()).unwrap();
        for (a, b) in store.ids().zip(fresh.ids()) {
            assert_eq!(store.value(a), fresh.value(b));
        }
    }

    #[test]
    fn rejects_bad_header() {
        let mut store = sample_store();
        let err = load_params(&mut store, "nonsense\n".as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn rejects_name_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_params(&store, &mut buf).unwrap();
        let mut other = ParamStore::new();
        other.add("different", st_tensor::Matrix::zeros(2, 3));
        other.add("a.b", st_tensor::Matrix::zeros(1, 3));
        let err = load_params(&mut other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_params(&store, &mut buf).unwrap();
        let mut other = ParamStore::new();
        other.add("a.w", st_tensor::Matrix::zeros(3, 2));
        other.add("a.b", st_tensor::Matrix::zeros(1, 3));
        let err = load_params(&mut other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Mismatch(_)));
    }

    #[test]
    fn rejects_truncated_file() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_params(&store, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(2).collect::<Vec<_>>().join("\n");
        let mut fresh = sample_store();
        let err = load_params(&mut fresh, truncated.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    #[test]
    fn save_rejects_non_finite_parameters() {
        let mut store = sample_store();
        let ids: Vec<_> = store.ids().collect();
        let mut poisoned = store.value(ids[0]).clone();
        poisoned[(0, 1)] = f64::NAN;
        store.set_value(ids[0], poisoned);
        let err = save_params(&store, &mut Vec::new()).unwrap_err();
        assert!(matches!(err, PersistError::NonFinite(_)), "{err}");
        assert!(err.to_string().contains("a.w"), "{err}");
    }

    #[test]
    fn load_rejects_non_finite_parameters() {
        let store = sample_store();
        let mut buf = Vec::new();
        save_params(&store, &mut buf).unwrap();
        // A NaN smuggled into the file must not round-trip into the model.
        let text = String::from_utf8(buf).unwrap().replacen(
            &format!("{:?}", store.value(store.ids().next().unwrap())[(0, 0)]),
            "NaN",
            1,
        );
        let mut fresh = sample_store();
        let err = load_params(&mut fresh, text.as_bytes()).unwrap_err();
        assert!(matches!(err, PersistError::NonFinite(_)), "{err}");
    }

    mod checkpoint {
        use super::*;
        use crate::{prepare_split, OnlineForecaster, RihgcnConfig, RihgcnModel};
        use st_data::{generate_pems, PemsConfig, ZScore};

        fn trained_pair() -> (RihgcnModel, ZScore, st_data::TrafficDataset) {
            let ds = generate_pems(&PemsConfig {
                num_nodes: 4,
                num_days: 2,
                ..Default::default()
            });
            let ds = ds.with_extra_missing(0.3, &mut rng(9));
            let (norm, z) = prepare_split(&ds.split_chronological());
            let cfg = RihgcnConfig {
                gcn_dim: 3,
                lstm_dim: 4,
                cheb_k: 2,
                num_temporal_graphs: 2,
                history: 4,
                horizon: 2,
                ..Default::default()
            };
            let model = RihgcnModel::from_dataset(&norm.train, cfg);
            (model, z, ds)
        }

        fn checkpoint_text() -> (RihgcnModel, ZScore, st_data::TrafficDataset, String) {
            let (model, z, ds) = trained_pair();
            let mut buf = Vec::new();
            save_checkpoint(&model, &z, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            (model, z, ds, text)
        }

        #[test]
        fn v2_round_trip_is_bit_exact() {
            let (model, z, ds, text) = checkpoint_text();
            let (restored, z2) = load_checkpoint(text.as_bytes()).unwrap();
            assert_eq!(z, z2, "normaliser must round-trip exactly");
            assert_eq!(restored.config(), model.config());
            assert_eq!(restored.num_nodes(), model.num_nodes());
            assert_eq!(restored.slots_per_day(), model.slots_per_day());
            assert_eq!(restored.intervals(), model.intervals());
            assert_eq!(restored.geo_adjacency(), model.geo_adjacency());

            // Identical forecasts on an identical observation stream.
            let mut a = OnlineForecaster::new(model, z);
            let mut b = OnlineForecaster::new(restored, z2);
            for t in 0..4 {
                a.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
                b.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
            }
            assert_eq!(
                a.forecast().unwrap(),
                b.forecast().unwrap(),
                "restored checkpoint must forecast bit-identically"
            );
            assert_eq!(a.imputed_window().unwrap(), b.imputed_window().unwrap());
        }

        #[test]
        fn v2_reload_of_reload_is_stable() {
            let (_, _, _, text) = checkpoint_text();
            let (m1, z1) = load_checkpoint(text.as_bytes()).unwrap();
            let mut again = Vec::new();
            save_checkpoint(&m1, &z1, &mut again).unwrap();
            assert_eq!(
                text,
                String::from_utf8(again).unwrap(),
                "save∘load must be the identity on the file"
            );
        }

        #[test]
        fn v1_params_still_load_into_dataset_built_model() {
            let (model, _z, ds) = trained_pair();
            let mut buf = Vec::new();
            save_params(model.params(), &mut buf).unwrap();
            let (norm, _) = prepare_split(&ds.split_chronological());
            let mut fresh = RihgcnModel::from_dataset(&norm.train, model.config().clone());
            load_params(fresh.params_mut(), buf.as_slice()).unwrap();
            for (a, b) in model.params().ids().zip(fresh.params().ids()) {
                assert_eq!(model.params().value(a), fresh.params().value(b));
            }
        }

        #[test]
        fn v1_file_gives_helpful_checkpoint_error() {
            let (model, _z, _ds) = trained_pair();
            let mut buf = Vec::new();
            save_params(model.params(), &mut buf).unwrap();
            let err = load_checkpoint(buf.as_slice()).unwrap_err();
            assert!(matches!(err, PersistError::Format(_)));
            assert!(err.to_string().contains("v1 params-only"), "{err}");
            assert!(err.to_string().contains("rihgcn train"), "{err}");
        }

        #[test]
        fn truncation_at_every_section_is_a_clean_error() {
            let (_, _, _, text) = checkpoint_text();
            let total = text.lines().count();
            // Cutting the file anywhere must produce an error, never a panic
            // or a silently wrong model.
            for keep in 0..total {
                let truncated: String = text.lines().take(keep).collect::<Vec<_>>().join("\n");
                let err = load_checkpoint(truncated.as_bytes()).unwrap_err();
                assert!(
                    matches!(err, PersistError::Format(_) | PersistError::Mismatch(_)),
                    "truncation at line {keep}: unexpected {err}"
                );
            }
        }

        #[test]
        fn corrupt_values_are_rejected() {
            let (_, _, _, text) = checkpoint_text();
            let bad_header = text.replacen("rihgcn-checkpoint v2", "rihgcn-checkpoint v9", 1);
            assert!(matches!(
                load_checkpoint(bad_header.as_bytes()).unwrap_err(),
                PersistError::Format(_)
            ));
            let bad_cfg = text.replacen("config gcn_dim 3", "config gcn_dim banana", 1);
            assert!(matches!(
                load_checkpoint(bad_cfg.as_bytes()).unwrap_err(),
                PersistError::Format(_)
            ));
            let nan_z = text.replacen("zscore_std ", "zscore_std NaN ", 1);
            assert!(load_checkpoint(nan_z.as_bytes()).is_err());
            // Each edit once panicked or asked for memory it could not have:
            // a graph count sized the allocation before it was checked, a
            // zero dimension tripped `RihgcnConfig::validate` inside the
            // model build, a huge one sized the model, and a huge node
            // count (with the geo line to match) overflowed the matrix size.
            let meta = text.lines().find(|l| l.starts_with("meta ")).unwrap();
            let huge_meta = meta.replacen("nodes 4 ", "nodes 4294967296 ", 1);
            let huge_geo = "geo 4294967296 4294967296";
            for edits in [
                &[("temporal 2", "temporal 18446744073709551615")][..],
                &[("config cheb_k 2", "config cheb_k 0")],
                &[("config history 4", "config history 0")],
                &[("config gcn_dim 3", "config gcn_dim 0")],
                &[("config gcn_dim 3", "config gcn_dim 4294967296")],
                &[("config history 4", "config history 4294967296")],
                &[(meta, huge_meta.as_str()), ("geo 4 4", huge_geo)],
            ] {
                let mut edited = text.clone();
                for (line, hostile) in edits {
                    assert!(edited.contains(line), "{line:?} not in checkpoint");
                    edited = edited.replacen(line, hostile, 1);
                }
                let err = load_checkpoint(edited.as_bytes()).unwrap_err();
                assert!(
                    matches!(err, PersistError::Format(_) | PersistError::Mismatch(_)),
                    "{edits:?}: {err}"
                );
            }
        }

        #[test]
        fn parameter_count_matches_the_built_model() {
            let geo = Matrix::from_fn(3, 3, |r, c| f64::from(r != c));
            for (graphs, bidirectional, head) in [
                (2, true, PredictionHead::Concat),
                (0, true, PredictionHead::Attention),
                (3, false, PredictionHead::Attention),
                (1, false, PredictionHead::Concat),
            ] {
                let cfg = RihgcnConfig {
                    gcn_dim: 3,
                    lstm_dim: 5,
                    cheb_k: 2,
                    num_temporal_graphs: graphs,
                    history: 4,
                    horizon: 2,
                    bidirectional,
                    head,
                    ..Default::default()
                };
                let temporal = (0..graphs)
                    .map(|i| (Interval::new(i * 8, i * 8 + 8), geo.clone()))
                    .collect();
                let model = RihgcnModel::from_parts(cfg.clone(), 2, geo.clone(), temporal, 24);
                assert_eq!(
                    parameter_count(&cfg, 2),
                    model.num_parameters() as f64,
                    "{cfg:?}"
                );
            }
        }

        #[test]
        fn every_mutated_header_number_is_an_error_or_a_model_never_a_panic() {
            let (_, _, _, text) = checkpoint_text();
            let lines: Vec<&str> = text.lines().collect();
            let params_at = lines.iter().position(|l| *l == HEADER).unwrap();
            let mut panics = Vec::new();
            let mut tried = 0;
            // Every number on a header line (not the matrix data lines).
            for (i, line) in lines.iter().enumerate().take(params_at) {
                let tokens: Vec<&str> = line.split_whitespace().collect();
                if tokens.first().is_some_and(|t| t.parse::<f64>().is_ok()) {
                    continue;
                }
                let values = [
                    "0",
                    "1",
                    "3",
                    "-1",
                    "NaN",
                    "inf",
                    "1e308",
                    "4294967296",
                    "18446744073709551615",
                ];
                for j in 1..tokens.len() {
                    if tokens[j].parse::<f64>().is_err() {
                        continue;
                    }
                    for v in values {
                        let mut mutated = tokens.clone();
                        mutated[j] = v;
                        let mutated = mutated.join(" ");
                        let mut doc = lines.clone();
                        doc[i] = &mutated;
                        let doc = doc.join("\n");
                        tried += 1;
                        let loaded = std::panic::catch_unwind(|| {
                            load_checkpoint(doc.as_bytes()).map(|_| ())
                        });
                        if loaded.is_err() {
                            panics.push(format!("{line:?} with token {j} = {v}"));
                        }
                    }
                }
            }
            assert!(tried > 100, "only {tried} mutations");
            assert!(panics.is_empty(), "load_checkpoint panicked on {panics:#?}");
        }
    }
}
