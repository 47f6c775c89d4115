//! Descriptive statistics over slices and matrices.
//!
//! Small, allocation-light helpers used by the dataset quality reports,
//! the synthetic-generator tests and the experiment harness: moments,
//! Pearson correlation, autocorrelation and correlation matrices.

use crate::Matrix;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Pearson correlation of two equal-length samples; `0.0` when either side
/// is constant.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson needs equal-length samples");
    if a.len() < 2 {
        return 0.0;
    }
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    let denom = (va * vb).sqrt();
    if denom < 1e-12 {
        0.0
    } else {
        cov / denom
    }
}

/// Autocorrelation of a series at the given lag; `0.0` when undefined.
pub fn autocorrelation(xs: &[f64], lag: usize) -> f64 {
    if lag == 0 {
        return 1.0;
    }
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    pearson(&xs[..xs.len() - lag], &xs[lag..])
}

/// Autocorrelation at the given lag restricted to co-observed pairs: the
/// Pearson correlation of `(xs[t], xs[t + lag])` over every `t` where
/// `mask` is nonzero at both positions; `0.0` when undefined.
///
/// Unlike filling the gaps and calling [`autocorrelation`], this measures
/// the seasonality of the *signal* rather than of the fill, so it stays
/// meaningful on heavily missing (e.g. roving-sensor) series.
///
/// # Panics
///
/// Panics if `xs` and `mask` have different lengths.
pub fn masked_autocorrelation(xs: &[f64], mask: &[f64], lag: usize) -> f64 {
    assert_eq!(xs.len(), mask.len(), "mask must match the series length");
    if lag == 0 {
        return 1.0;
    }
    if xs.len() <= lag + 1 {
        return 0.0;
    }
    let mut head = Vec::new();
    let mut tail = Vec::new();
    for t in 0..xs.len() - lag {
        if mask[t] != 0.0 && mask[t + lag] != 0.0 {
            head.push(xs[t]);
            tail.push(xs[t + lag]);
        }
    }
    pearson(&head, &tail)
}

/// Pearson correlation matrix of a set of equal-length series.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn correlation_matrix(series: &[Vec<f64>]) -> Matrix {
    let n = series.len();
    if n == 0 {
        return Matrix::zeros(0, 0);
    }
    let len = series[0].len();
    for s in series {
        assert_eq!(s.len(), len, "correlation matrix needs equal-length series");
    }
    let mut out = Matrix::identity(n);
    for i in 0..n {
        for j in i + 1..n {
            let r = pearson(&series[i], &series[j]);
            out[(i, j)] = r;
            out[(j, i)] = r;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_known_value() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
    }

    #[test]
    fn empty_and_short_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn pearson_extremes() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &down) + 1.0).abs() < 1e-12);
        let constant = [5.0; 4];
        assert_eq!(pearson(&a, &constant), 0.0);
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        let xs: Vec<f64> = (0..200)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 20.0).sin())
            .collect();
        assert_eq!(autocorrelation(&xs, 0), 1.0);
        assert!(autocorrelation(&xs, 20) > 0.95, "period-20 signal");
        assert!(autocorrelation(&xs, 10) < -0.95, "half-period anti-phase");
    }

    #[test]
    fn masked_autocorrelation_ignores_hidden_entries() {
        let xs: Vec<f64> = (0..200)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 20.0).sin())
            .collect();
        // Corrupt every third entry and hide it; the statistic must still
        // see a clean period-20 signal.
        let mut noisy = xs.clone();
        let mut mask = vec![1.0; xs.len()];
        for i in (0..xs.len()).step_by(3) {
            noisy[i] = 1e6;
            mask[i] = 0.0;
        }
        assert_eq!(masked_autocorrelation(&noisy, &mask, 0), 1.0);
        assert!(masked_autocorrelation(&noisy, &mask, 20) > 0.95);
        // Fully observed it matches the plain statistic.
        let full = vec![1.0; xs.len()];
        let a = masked_autocorrelation(&xs, &full, 20);
        let b = autocorrelation(&xs, 20);
        assert!((a - b).abs() < 1e-12);
        // All-hidden is undefined.
        assert_eq!(masked_autocorrelation(&xs, &vec![0.0; xs.len()], 20), 0.0);
    }

    #[test]
    fn correlation_matrix_properties() {
        let series = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 4.0, 6.0, 8.0],
            vec![4.0, 3.0, 2.0, 1.0],
        ];
        let m = correlation_matrix(&series);
        assert_eq!(m.shape(), (3, 3));
        for i in 0..3 {
            assert_eq!(m[(i, i)], 1.0);
        }
        assert!((m[(0, 1)] - 1.0).abs() < 1e-12);
        assert!((m[(0, 2)] + 1.0).abs() < 1e-12);
        assert_eq!(m[(1, 2)], m[(2, 1)]);
        assert_eq!(correlation_matrix(&[]).shape(), (0, 0));
    }
}
