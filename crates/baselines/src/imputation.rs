//! Classical imputation baselines: Last-observed, KNN, matrix
//! factorisation (ALS) and CP tensor decomposition (ALS).
//!
//! These are the comparison methods of the paper's RQ2 study. Each takes a
//! `(values, mask)` pair and returns a fully-populated tensor: observed
//! entries are passed through unchanged, hidden entries are reconstructed.

use st_tensor::{linalg, rng, uniform_matrix, Matrix, Tensor3};

/// Last-observation-carried-forward (with backward fill for leading gaps and
/// the series mean as the last resort).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn last_observed_fill(values: &Tensor3, mask: &Tensor3) -> Tensor3 {
    assert_eq!(values.shape(), mask.shape(), "values/mask shape mismatch");
    let (n, d, t_len) = values.shape();
    let mut out = values.clone();
    for node in 0..n {
        for f in 0..d {
            let observed: Vec<usize> = (0..t_len).filter(|&t| mask[(node, f, t)] != 0.0).collect();
            if observed.is_empty() {
                for t in 0..t_len {
                    out[(node, f, t)] = 0.0;
                }
                continue;
            }
            let mean: f64 =
                observed.iter().map(|&t| values[(node, f, t)]).sum::<f64>() / observed.len() as f64;
            let mut last: Option<f64> = None;
            let first_value = values[(node, f, observed[0])];
            for t in 0..t_len {
                if mask[(node, f, t)] != 0.0 {
                    last = Some(values[(node, f, t)]);
                } else {
                    out[(node, f, t)] = match last {
                        Some(v) => v,
                        None => {
                            if observed[0] > t {
                                first_value // backward fill of the leading gap
                            } else {
                                mean
                            }
                        }
                    };
                }
            }
        }
    }
    out
}

/// K-nearest-neighbour imputation across nodes.
///
/// Node similarity is the RMS difference over commonly-observed timestamps
/// (per feature); a hidden entry becomes the inverse-distance-weighted mean
/// of the `k` most similar nodes that observed that timestamp, falling back
/// to the series mean when no neighbour has data.
///
/// # Panics
///
/// Panics if shapes differ or `k == 0`.
pub fn knn_impute(values: &Tensor3, mask: &Tensor3, k: usize) -> Tensor3 {
    assert_eq!(values.shape(), mask.shape(), "values/mask shape mismatch");
    assert!(k > 0, "k must be positive");
    let (n, d, t_len) = values.shape();
    let mut out = values.clone();

    for f in 0..d {
        // Pairwise node distances on commonly observed entries.
        let mut dist = Matrix::filled(n, n, f64::INFINITY);
        for i in 0..n {
            dist[(i, i)] = 0.0;
            for j in i + 1..n {
                let mut acc = 0.0;
                let mut count = 0usize;
                for t in 0..t_len {
                    if mask[(i, f, t)] != 0.0 && mask[(j, f, t)] != 0.0 {
                        let e = values[(i, f, t)] - values[(j, f, t)];
                        acc += e * e;
                        count += 1;
                    }
                }
                if count > 0 {
                    let rms = (acc / count as f64).sqrt();
                    dist[(i, j)] = rms;
                    dist[(j, i)] = rms;
                }
            }
        }
        // Series means as fallback.
        let means: Vec<f64> = (0..n)
            .map(|i| {
                let mut sum = 0.0;
                let mut count = 0usize;
                for t in 0..t_len {
                    if mask[(i, f, t)] != 0.0 {
                        sum += values[(i, f, t)];
                        count += 1;
                    }
                }
                if count > 0 {
                    sum / count as f64
                } else {
                    0.0
                }
            })
            .collect();

        for i in 0..n {
            // Neighbours sorted by distance once per node.
            let mut order: Vec<usize> = (0..n).filter(|&j| j != i).collect();
            order.sort_by(|&a, &b| {
                dist[(i, a)]
                    .partial_cmp(&dist[(i, b)])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for t in 0..t_len {
                if mask[(i, f, t)] != 0.0 {
                    continue;
                }
                let mut num = 0.0;
                let mut den = 0.0;
                let mut used = 0usize;
                for &j in &order {
                    if used == k {
                        break;
                    }
                    if mask[(j, f, t)] != 0.0 && dist[(i, j)].is_finite() {
                        let w = 1.0 / (dist[(i, j)] + 1e-6);
                        num += w * values[(j, f, t)];
                        den += w;
                        used += 1;
                    }
                }
                out[(i, f, t)] = if den > 0.0 { num / den } else { means[i] };
            }
        }
    }
    out
}

/// Rank-`r` matrix-factorisation imputation via alternating least squares,
/// applied per feature to the `N × T` slice.
///
/// # Panics
///
/// Panics if shapes differ or `rank == 0`.
pub fn matrix_factorization_impute(
    values: &Tensor3,
    mask: &Tensor3,
    rank: usize,
    iters: usize,
    seed: u64,
) -> Tensor3 {
    assert_eq!(values.shape(), mask.shape(), "values/mask shape mismatch");
    assert!(rank > 0, "rank must be positive");
    let (n, d, t_len) = values.shape();
    let ridge = 1e-2;
    let mut out = values.clone();
    let mut r = rng(seed);

    for f in 0..d {
        let mut u = uniform_matrix(&mut r, n, rank, -0.5, 0.5);
        let mut v = uniform_matrix(&mut r, t_len, rank, -0.5, 0.5);
        for _ in 0..iters {
            als_update(&mut u, &v, values, mask, f, true, ridge);
            als_update(&mut v, &u, values, mask, f, false, ridge);
        }
        for node in 0..n {
            for t in 0..t_len {
                if mask[(node, f, t)] == 0.0 {
                    let mut acc = 0.0;
                    for c in 0..rank {
                        acc += u[(node, c)] * v[(t, c)];
                    }
                    out[(node, f, t)] = acc;
                }
            }
        }
    }
    out
}

/// One ALS half-step: re-solves every row of `target` against the fixed
/// factor using that row's observed entries.
fn als_update(
    target: &mut Matrix,
    fixed: &Matrix,
    values: &Tensor3,
    mask: &Tensor3,
    feature: usize,
    rows_are_nodes: bool,
    ridge: f64,
) {
    let rank = target.cols();
    for row in 0..target.rows() {
        // Gather observed entries of this row.
        let mut design_rows: Vec<usize> = Vec::new();
        for other in 0..fixed.rows() {
            let (node, t) = if rows_are_nodes {
                (row, other)
            } else {
                (other, row)
            };
            if mask[(node, feature, t)] != 0.0 {
                design_rows.push(other);
            }
        }
        if design_rows.is_empty() {
            continue;
        }
        let design = Matrix::from_fn(design_rows.len(), rank, |r, c| fixed[(design_rows[r], c)]);
        let rhs = Matrix::from_fn(design_rows.len(), 1, |r, _| {
            let other = design_rows[r];
            let (node, t) = if rows_are_nodes {
                (row, other)
            } else {
                (other, row)
            };
            values[(node, feature, t)]
        });
        if let Ok(sol) = linalg::least_squares(&design, &rhs, ridge) {
            for c in 0..rank {
                target[(row, c)] = sol[(c, 0)];
            }
        }
    }
}

/// Rank-`r` CP (canonical polyadic) tensor-decomposition imputation via ALS
/// over the full `N × D × T` cube.
///
/// # Panics
///
/// Panics if shapes differ or `rank == 0`.
pub fn cp_impute(
    values: &Tensor3,
    mask: &Tensor3,
    rank: usize,
    iters: usize,
    seed: u64,
) -> Tensor3 {
    assert_eq!(values.shape(), mask.shape(), "values/mask shape mismatch");
    assert!(rank > 0, "rank must be positive");
    let (n, d, t_len) = values.shape();
    let ridge = 1e-2;
    let mut r = rng(seed);
    let mut a = uniform_matrix(&mut r, n, rank, -0.5, 0.5); // node factors
    let mut b = uniform_matrix(&mut r, d, rank, -0.5, 0.5); // feature factors
    let mut c = uniform_matrix(&mut r, t_len, rank, -0.5, 0.5); // time factors

    for _ in 0..iters {
        cp_mode_update(&mut a, &b, &c, values, mask, Mode::Node, ridge);
        cp_mode_update(&mut b, &a, &c, values, mask, Mode::Feature, ridge);
        cp_mode_update(&mut c, &a, &b, values, mask, Mode::Time, ridge);
    }

    let mut out = values.clone();
    for node in 0..n {
        for f in 0..d {
            for t in 0..t_len {
                if mask[(node, f, t)] == 0.0 {
                    let mut acc = 0.0;
                    for k in 0..rank {
                        acc += a[(node, k)] * b[(f, k)] * c[(t, k)];
                    }
                    out[(node, f, t)] = acc;
                }
            }
        }
    }
    out
}

#[derive(Clone, Copy)]
enum Mode {
    Node,
    Feature,
    Time,
}

fn cp_mode_update(
    target: &mut Matrix,
    other1: &Matrix,
    other2: &Matrix,
    values: &Tensor3,
    mask: &Tensor3,
    mode: Mode,
    ridge: f64,
) {
    let rank = target.cols();
    let (n, d, t_len) = values.shape();
    for row in 0..target.rows() {
        let mut design: Vec<[usize; 2]> = Vec::new();
        match mode {
            Mode::Node => {
                for f in 0..d {
                    for t in 0..t_len {
                        if mask[(row, f, t)] != 0.0 {
                            design.push([f, t]);
                        }
                    }
                }
            }
            Mode::Feature => {
                for node in 0..n {
                    for t in 0..t_len {
                        if mask[(node, row, t)] != 0.0 {
                            design.push([node, t]);
                        }
                    }
                }
            }
            Mode::Time => {
                for node in 0..n {
                    for f in 0..d {
                        if mask[(node, f, row)] != 0.0 {
                            design.push([node, f]);
                        }
                    }
                }
            }
        }
        if design.is_empty() {
            continue;
        }
        let x = Matrix::from_fn(design.len(), rank, |r, k| {
            other1[(design[r][0], k)] * other2[(design[r][1], k)]
        });
        let y = Matrix::from_fn(design.len(), 1, |r, _| {
            let [i, j] = design[r];
            match mode {
                Mode::Node => values[(row, i, j)],
                Mode::Feature => values[(i, row, j)],
                Mode::Time => values[(i, j, row)],
            }
        });
        if let Ok(sol) = linalg::least_squares(&x, &y, ridge) {
            for k in 0..rank {
                target[(row, k)] = sol[(k, 0)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::{drop_observed, missing_rate};
    use st_tensor::rng as seeded;

    /// Low-rank synthetic cube: value = node_factor · sin(time) pattern.
    fn low_rank_cube() -> Tensor3 {
        Tensor3::from_fn(6, 2, 60, |n, f, t| {
            let base = (t as f64 * 0.2).sin() + 1.5;
            (n as f64 + 1.0) * base * (f as f64 + 1.0)
        })
    }

    fn hidden_error(original: &Tensor3, filled: &Tensor3, mask: &Tensor3) -> f64 {
        let mut acc = 0.0;
        let mut count = 0usize;
        for i in 0..original.len() {
            if mask.as_slice()[i] == 0.0 {
                acc += (original.as_slice()[i] - filled.as_slice()[i]).abs();
                count += 1;
            }
        }
        acc / count.max(1) as f64
    }

    #[test]
    fn all_methods_preserve_observed_entries() {
        let x = low_rank_cube();
        let mask = drop_observed(&Tensor3::ones(6, 2, 60), 0.4, &mut seeded(1));
        for filled in [
            last_observed_fill(&x, &mask),
            knn_impute(&x, &mask, 3),
            matrix_factorization_impute(&x, &mask, 3, 10, 2),
            cp_impute(&x, &mask, 3, 8, 3),
        ] {
            for i in 0..x.len() {
                if mask.as_slice()[i] != 0.0 {
                    assert_eq!(filled.as_slice()[i], x.as_slice()[i]);
                }
            }
            assert!(filled.is_finite());
        }
    }

    #[test]
    fn last_observed_carries_forward() {
        let mut x = Tensor3::zeros(1, 1, 5);
        x[(0, 0, 1)] = 7.0;
        let mut mask = Tensor3::zeros(1, 1, 5);
        mask[(0, 0, 1)] = 1.0;
        let filled = last_observed_fill(&x, &mask);
        assert_eq!(filled[(0, 0, 0)], 7.0); // backward fill of leading gap
        assert_eq!(filled[(0, 0, 2)], 7.0);
        assert_eq!(filled[(0, 0, 4)], 7.0);
    }

    #[test]
    fn knn_uses_similar_nodes() {
        // Nodes 0 and 1 are identical; node 2 is far away.
        let x = Tensor3::from_fn(
            3,
            1,
            30,
            |n, _, t| {
                if n < 2 {
                    (t as f64 * 0.3).sin()
                } else {
                    100.0
                }
            },
        );
        let mut mask = Tensor3::ones(3, 1, 30);
        mask[(0, 0, 10)] = 0.0;
        let filled = knn_impute(&x, &mask, 1);
        // Must copy node 1's value, not node 2's.
        assert!((filled[(0, 0, 10)] - x[(1, 0, 10)]).abs() < 1e-9);
    }

    #[test]
    fn mf_recovers_low_rank_structure() {
        let x = low_rank_cube();
        let mask = drop_observed(&Tensor3::ones(6, 2, 60), 0.3, &mut seeded(4));
        let filled = matrix_factorization_impute(&x, &mask, 1, 15, 5);
        let mae = hidden_error(&x, &filled, &mask);
        // The cube is rank-1 per feature; rank-matched MF reconstructs it.
        assert!(mae < 0.05, "MF hidden MAE {mae}");
    }

    #[test]
    fn cp_recovers_low_rank_structure() {
        let x = low_rank_cube();
        let mask = drop_observed(&Tensor3::ones(6, 2, 60), 0.3, &mut seeded(6));
        // The cube is exactly rank-1: value = (n+1)·(f+1)·base(t).
        let filled = cp_impute(&x, &mask, 1, 12, 7);
        let mae = hidden_error(&x, &filled, &mask);
        assert!(mae < 0.1, "CP hidden MAE {mae}");
    }

    #[test]
    fn mf_beats_last_observed_on_smooth_data() {
        let x = low_rank_cube();
        let mask = drop_observed(&Tensor3::ones(6, 2, 60), 0.5, &mut seeded(8));
        assert!((missing_rate(&mask) - 0.5).abs() < 0.1);
        let last = hidden_error(&x, &last_observed_fill(&x, &mask), &mask);
        let mf = hidden_error(&x, &matrix_factorization_impute(&x, &mask, 2, 15, 9), &mask);
        assert!(mf < last, "MF {mf} should beat Last {last}");
    }

    #[test]
    fn fully_missing_series_handled() {
        let x = low_rank_cube();
        let mut mask = Tensor3::ones(6, 2, 60);
        for t in 0..60 {
            mask[(0, 0, t)] = 0.0;
        }
        for filled in [
            last_observed_fill(&x, &mask),
            knn_impute(&x, &mask, 2),
            matrix_factorization_impute(&x, &mask, 2, 5, 10),
            cp_impute(&x, &mask, 2, 5, 11),
        ] {
            assert!(filled.is_finite());
        }
    }
}
