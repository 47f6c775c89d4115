//! CSV import/export for traffic datasets.
//!
//! A deliberately simple long format so users can plug in real sensor
//! extracts (e.g. true PeMS exports) without extra dependencies:
//!
//! ```text
//! node,feature,time,value,observed
//! 0,0,0,64.25,1
//! 0,0,1,,0
//! ```
//!
//! Hidden entries may leave `value` empty (it is stored as 0) or carry a
//! ground-truth value (synthetic data keeps it so imputation can be scored).

use crate::TrafficDataset;
use st_graph::RoadNetwork;
use st_tensor::Tensor3;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Error returned when CSV parsing fails.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The rows do not form a dense `N × D × T` cube.
    Incomplete(String),
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Parse { line, message } => write!(f, "line {line}: {message}"),
            CsvError::Incomplete(msg) => write!(f, "incomplete data cube: {msg}"),
        }
    }
}

impl Error for CsvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes a dataset in the long CSV format.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_csv<W: Write>(ds: &TrafficDataset, mut w: W) -> Result<(), CsvError> {
    writeln!(w, "node,feature,time,value,observed")?;
    let (n, d, t_len) = ds.values.shape();
    for node in 0..n {
        for f in 0..d {
            for t in 0..t_len {
                let observed = ds.mask[(node, f, t)] != 0.0;
                writeln!(
                    w,
                    "{node},{f},{t},{},{}",
                    ds.values[(node, f, t)],
                    u8::from(observed)
                )?;
            }
        }
    }
    Ok(())
}

/// Reads a dataset from the long CSV format.
///
/// The cube must be dense (every `(node, feature, time)` triple present
/// exactly once) and every value finite, hidden rows included. Only then is
/// `network` called with the parsed node count; the network it returns must
/// have that many nodes.
///
/// # Errors
///
/// Returns [`CsvError::Parse`] for malformed rows and non-finite values,
/// and [`CsvError::Incomplete`] when the rows do not form a dense cube
/// (including sizes that overflow `usize`) or do not match the network.
pub fn read_csv<R: BufRead>(
    r: R,
    name: &str,
    network: impl FnOnce(usize) -> RoadNetwork,
    interval_minutes: usize,
) -> Result<TrafficDataset, CsvError> {
    let mut rows: Vec<(usize, usize, usize, f64, bool)> = Vec::new();
    let mut max_node = 0usize;
    let mut max_feature = 0usize;
    let mut max_time = 0usize;

    for (i, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || (lineno == 1 && trimmed.starts_with("node")) {
            continue;
        }
        let parts: Vec<&str> = trimmed.split(',').collect();
        if parts.len() != 5 {
            return Err(CsvError::Parse {
                line: lineno,
                message: format!("expected 5 fields, found {}", parts.len()),
            });
        }
        let parse_idx = |s: &str, what: &str| {
            s.trim().parse::<usize>().map_err(|e| CsvError::Parse {
                line: lineno,
                message: format!("bad {what}: {e}"),
            })
        };
        let node = parse_idx(parts[0], "node")?;
        let feature = parse_idx(parts[1], "feature")?;
        let time = parse_idx(parts[2], "time")?;
        let value = if parts[3].trim().is_empty() {
            0.0
        } else {
            parts[3]
                .trim()
                .parse::<f64>()
                .map_err(|e| CsvError::Parse {
                    line: lineno,
                    message: format!("bad value: {e}"),
                })?
        };
        // Hidden rows count too: the mask blend computes 0·NaN = NaN.
        if !value.is_finite() {
            return Err(CsvError::Parse {
                line: lineno,
                message: format!("value must be finite, found {value}"),
            });
        }
        let observed = match parts[4].trim() {
            "0" => false,
            "1" => true,
            other => {
                return Err(CsvError::Parse {
                    line: lineno,
                    message: format!("observed must be 0 or 1, found {other:?}"),
                })
            }
        };
        max_node = max_node.max(node);
        max_feature = max_feature.max(feature);
        max_time = max_time.max(time);
        rows.push((node, feature, time, value, observed));
    }

    if rows.is_empty() {
        return Err(CsvError::Incomplete("no data rows".into()));
    }
    let overflow = || CsvError::Incomplete("cube size overflows usize".into());
    let n = max_node.checked_add(1).ok_or_else(overflow)?;
    let d = max_feature.checked_add(1).ok_or_else(overflow)?;
    let t_len = max_time.checked_add(1).ok_or_else(overflow)?;
    let cells = n
        .checked_mul(d)
        .and_then(|nd| nd.checked_mul(t_len))
        .ok_or_else(overflow)?;
    if rows.len() != cells {
        return Err(CsvError::Incomplete(format!(
            "expected {cells} rows for a dense {n}x{d}x{t_len} cube, found {}",
            rows.len()
        )));
    }
    let network = network(n);
    if n != network.len() {
        return Err(CsvError::Incomplete(format!(
            "csv has {n} nodes but the network has {}",
            network.len()
        )));
    }

    let mut values = Tensor3::zeros(n, d, t_len);
    let mut mask = Tensor3::zeros(n, d, t_len);
    let mut seen = vec![false; n * d * t_len];
    for (node, f, t, value, observed) in rows {
        let idx = (node * d + f) * t_len + t;
        if seen[idx] {
            return Err(CsvError::Incomplete(format!(
                "duplicate entry for node {node}, feature {f}, time {t}"
            )));
        }
        seen[idx] = true;
        values[(node, f, t)] = value;
        mask[(node, f, t)] = f64::from(u8::from(observed));
    }
    Ok(TrafficDataset::new(
        name,
        values,
        mask,
        network,
        interval_minutes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_pems, PemsConfig};

    fn corridor(nodes: usize) -> RoadNetwork {
        RoadNetwork::corridor(nodes, 1.0)
    }

    #[test]
    fn round_trip_preserves_dataset() {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 3,
            num_days: 1,
            ..Default::default()
        });
        let ds = ds.with_extra_missing(0.3, &mut st_tensor::rng(1));
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let back = read_csv(buf.as_slice(), "pems-synth", |_| ds.network.clone(), 5).unwrap();
        assert_eq!(back.values, ds.values);
        assert_eq!(back.mask, ds.mask);
        assert_eq!(back.name, ds.name);
    }

    #[test]
    fn header_and_blank_lines_skipped() {
        let csv = "node,feature,time,value,observed\n0,0,0,1.5,1\n\n0,0,1,,0\n";
        let ds = read_csv(csv.as_bytes(), "t", corridor, 5).unwrap();
        assert_eq!(ds.values[(0, 0, 0)], 1.5);
        assert_eq!(ds.mask[(0, 0, 1)], 0.0);
        assert_eq!(ds.values[(0, 0, 1)], 0.0);
    }

    #[test]
    fn rejects_malformed_rows() {
        for (csv, line) in [
            ("0,0,0,1.5\n", 1),
            ("0,0,zero,1.5,1\n", 1),
            ("0,0,0,1.5,yes\n", 1),
            // Non-finite values, hidden rows included: the mask blend
            // computes 0·NaN = NaN.
            ("0,0,0,1,1\n0,0,1,NaN,1\n", 2),
            ("0,0,0,nan,0\n0,0,1,1,1\n", 1),
            ("node,feature,time,value,observed\n0,0,0,inf,1\n", 2),
            ("0,0,0,-inf,0\n", 1),
            ("0,0,0,1e309,1\n", 1),
        ] {
            let err = read_csv(csv.as_bytes(), "t", corridor, 5).unwrap_err();
            assert!(
                matches!(err, CsvError::Parse { line: l, .. } if l == line),
                "{csv:?}: {err}"
            );
        }
    }

    #[test]
    fn rejects_sparse_cube() {
        for csv in [
            // Time 1 missing.
            "0,0,0,1.0,1\n0,0,2,2.0,1\n",
            // max + 1 overflows.
            "0,18446744073709551615,0,1,1\n",
            // (2^32 + 1)² overflows the cube size.
            "0,4294967296,4294967296,1,1\n",
            // (2^63 + 1)·2 wraps to 2, which equals the row count.
            "0,9223372036854775808,0,1,1\n0,0,1,1,1\n",
            // A 2^40-node cube from one row.
            "1099511627776,0,0,1,1\n",
        ] {
            // The network is built only for a dense cube.
            let err = read_csv(csv.as_bytes(), "t", |n| panic!("network for {n}"), 5).unwrap_err();
            assert!(matches!(err, CsvError::Incomplete(_)), "{csv:?}: {err}");
        }
    }

    #[test]
    fn rejects_duplicates() {
        let csv = "0,0,0,1.0,1\n0,0,0,2.0,1\n";
        let err = read_csv(csv.as_bytes(), "t", corridor, 5).unwrap_err();
        assert!(matches!(err, CsvError::Incomplete(_)), "{err}");
    }

    #[test]
    fn rejects_network_mismatch() {
        let csv = "0,0,0,1.0,1\n1,0,0,2.0,1\n";
        let err = read_csv(csv.as_bytes(), "t", |_| corridor(1), 5).unwrap_err();
        assert!(matches!(err, CsvError::Incomplete(_)), "{err}");
    }

    #[test]
    fn every_mutated_field_is_an_error_or_a_dataset_never_a_panic() {
        let text = "node,feature,time,value,observed\n\
                    0,0,0,64.25,1\n0,0,1,,0\n1,0,0,61.5,1\n1,0,1,60,0\n";
        assert!(read_csv(text.as_bytes(), "t", corridor, 5).is_ok());
        let lines: Vec<&str> = text.lines().collect();
        let values = [
            "",
            "-1",
            "NaN",
            "inf",
            "1e308",
            "4294967296",
            "9223372036854775808",
            "18446744073709551615",
        ];
        let mut panics = Vec::new();
        let mut tried = 0;
        for (i, line) in lines.iter().enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            for j in 0..fields.len() {
                for v in values {
                    let mut mutated = fields.clone();
                    mutated[j] = v;
                    let mutated = mutated.join(",");
                    let mut doc = lines.clone();
                    doc[i] = &mutated;
                    let doc = doc.join("\n");
                    tried += 1;
                    let read = std::panic::catch_unwind(|| {
                        read_csv(doc.as_bytes(), "t", corridor, 5)
                            .map(|ds| assert!(ds.values.is_finite(), "accepted a non-finite value"))
                    });
                    if read.is_err() {
                        panics.push(format!("line {} field {j} = {v:?}", i + 1));
                    }
                }
            }
        }
        assert!(tried >= 200, "only {tried} mutations");
        assert!(
            panics.is_empty(),
            "panicked or accepted a non-finite value: {panics:#?}"
        );
    }

    #[test]
    fn rejects_empty_input() {
        let err = read_csv("".as_bytes(), "t", corridor, 5).unwrap_err();
        assert!(matches!(err, CsvError::Incomplete(_)), "{err}");
    }
}
