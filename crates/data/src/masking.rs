//! Missing-data mask generation and manipulation.
//!
//! The paper's Table I protocol randomly drops {20, 40, 60, 80}% of the
//! historical values (missing completely at random); the imputation study
//! additionally holds out 30% of the *observed* entries as scoring targets.
//! Both operations live here.

use st_tensor::{StRng, Tensor3};

/// Fraction of zero entries in a `{0,1}` mask.
///
/// Returns `0.0` for an empty mask.
pub fn missing_rate(mask: &Tensor3) -> f64 {
    if mask.is_empty() {
        return 0.0;
    }
    let zeros = mask.as_slice().iter().filter(|&&m| m == 0.0).count();
    zeros as f64 / mask.len() as f64
}

/// Drops a fraction `rate` of the currently-observed entries of `mask`
/// uniformly at random (missing completely at random), returning the new
/// mask. Entries already missing stay missing.
///
/// # Panics
///
/// Panics if `rate` is not in `[0, 1]`.
pub fn drop_observed(mask: &Tensor3, rate: f64, rng: &mut StRng) -> Tensor3 {
    assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
    mask.map(|m| {
        if m != 0.0 && rng.gen_f64() < rate {
            0.0
        } else {
            m
        }
    })
}

/// Splits the observed entries of `mask` into a training mask and a
/// held-out evaluation mask: each observed entry lands in the hold-out with
/// probability `holdout_rate`.
///
/// Returns `(train_mask, holdout_mask)`; the two are disjoint and their
/// union equals the input mask.
///
/// # Panics
///
/// Panics if `holdout_rate` is not in `[0, 1]`.
pub fn holdout_split(mask: &Tensor3, holdout_rate: f64, rng: &mut StRng) -> (Tensor3, Tensor3) {
    assert!(
        (0.0..=1.0).contains(&holdout_rate),
        "holdout_rate must be in [0, 1]"
    );
    let (n, d, t) = mask.shape();
    let mut train = Tensor3::zeros(n, d, t);
    let mut hold = Tensor3::zeros(n, d, t);
    for node in 0..n {
        for f in 0..d {
            for time in 0..t {
                if mask[(node, f, time)] != 0.0 {
                    if rng.gen_f64() < holdout_rate {
                        hold[(node, f, time)] = 1.0;
                    } else {
                        train[(node, f, time)] = 1.0;
                    }
                }
            }
        }
    }
    (train, hold)
}

/// Replaces hidden entries with the per-(node, feature) mean of observed
/// values — the "mean fill" preprocessing used for all non-imputing
/// baselines in the paper. Falls back to `0.0` for series with no
/// observations at all.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mean_fill(values: &Tensor3, mask: &Tensor3) -> Tensor3 {
    assert_eq!(values.shape(), mask.shape(), "values/mask shape mismatch");
    let (n, d, t) = values.shape();
    let mut out = values.clone();
    for node in 0..n {
        for f in 0..d {
            let mut sum = 0.0;
            let mut count = 0usize;
            for time in 0..t {
                if mask[(node, f, time)] != 0.0 {
                    sum += values[(node, f, time)];
                    count += 1;
                }
            }
            let fill = if count > 0 { sum / count as f64 } else { 0.0 };
            for time in 0..t {
                if mask[(node, f, time)] == 0.0 {
                    out[(node, f, time)] = fill;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::rng;

    #[test]
    fn missing_rate_counts_zeros() {
        let mut mask = Tensor3::ones(1, 1, 4);
        mask[(0, 0, 1)] = 0.0;
        assert_eq!(missing_rate(&mask), 0.25);
        assert_eq!(missing_rate(&Tensor3::default()), 0.0);
    }

    #[test]
    fn drop_observed_hits_target_rate() {
        let mask = Tensor3::ones(10, 2, 500);
        let dropped = drop_observed(&mask, 0.4, &mut rng(1));
        let rate = missing_rate(&dropped);
        assert!((rate - 0.4).abs() < 0.02, "rate was {rate}");
    }

    #[test]
    fn drop_observed_never_resurrects() {
        let mut mask = Tensor3::ones(2, 1, 100);
        for t in 0..50 {
            mask[(0, 0, t)] = 0.0;
        }
        let dropped = drop_observed(&mask, 0.5, &mut rng(2));
        for t in 0..50 {
            assert_eq!(dropped[(0, 0, t)], 0.0);
        }
    }

    #[test]
    fn drop_zero_rate_is_identity() {
        let mask = Tensor3::ones(3, 1, 20);
        assert_eq!(drop_observed(&mask, 0.0, &mut rng(3)), mask);
    }

    #[test]
    fn holdout_partitions_observed() {
        let mask = Tensor3::ones(5, 1, 200);
        let (train, hold) = holdout_split(&mask, 0.3, &mut rng(4));
        // Disjoint and covering.
        let overlap = train.zip_map(&hold, |a, b| a * b);
        assert_eq!(overlap.as_slice().iter().sum::<f64>(), 0.0);
        let union = train.zip_map(&hold, |a, b| a + b);
        assert_eq!(union, mask);
        let hold_frac = hold.as_slice().iter().sum::<f64>() / mask.len() as f64;
        assert!(
            (hold_frac - 0.3).abs() < 0.05,
            "holdout fraction {hold_frac}"
        );
    }

    #[test]
    fn holdout_ignores_already_missing() {
        let mut mask = Tensor3::ones(1, 1, 100);
        for t in 0..40 {
            mask[(0, 0, t)] = 0.0;
        }
        let (train, hold) = holdout_split(&mask, 0.5, &mut rng(5));
        for t in 0..40 {
            assert_eq!(train[(0, 0, t)], 0.0);
            assert_eq!(hold[(0, 0, t)], 0.0);
        }
    }

    #[test]
    fn mean_fill_uses_per_series_mean() {
        let mut x = Tensor3::zeros(2, 1, 4);
        // Node 0 observes 2 and 4; node 1 observes 10.
        x[(0, 0, 0)] = 2.0;
        x[(0, 0, 2)] = 4.0;
        x[(1, 0, 1)] = 10.0;
        let mut mask = Tensor3::zeros(2, 1, 4);
        mask[(0, 0, 0)] = 1.0;
        mask[(0, 0, 2)] = 1.0;
        mask[(1, 0, 1)] = 1.0;
        let filled = mean_fill(&x, &mask);
        assert_eq!(filled[(0, 0, 1)], 3.0);
        assert_eq!(filled[(0, 0, 3)], 3.0);
        assert_eq!(filled[(1, 0, 0)], 10.0);
        // Observed entries untouched.
        assert_eq!(filled[(0, 0, 0)], 2.0);
    }

    #[test]
    fn mean_fill_empty_series_is_zero() {
        let x = Tensor3::filled(1, 1, 3, 9.0);
        let mask = Tensor3::zeros(1, 1, 3);
        let filled = mean_fill(&x, &mask);
        assert_eq!(filled.as_slice(), &[0.0, 0.0, 0.0]);
    }
}
