//! Seeded random matrix initialisation.
//!
//! Every stochastic component in the workspace (parameter init, synthetic
//! data, masking) flows through a seeded in-tree [`StRng`] so that all
//! experiments are exactly reproducible without any external RNG crate.

use crate::{Matrix, StRng};

/// Creates a deterministic RNG from a seed.
///
/// # Examples
///
/// ```
/// let mut rng = st_tensor::rng(42);
/// let m = st_tensor::uniform_matrix(&mut rng, 2, 2, -1.0, 1.0);
/// assert!(m.as_slice().iter().all(|x| (-1.0..1.0).contains(x)));
/// ```
pub fn rng(seed: u64) -> StRng {
    StRng::seed_from_u64(seed)
}

/// Matrix with entries drawn uniformly from `[low, high)`.
///
/// # Panics
///
/// Panics if `low >= high`.
pub fn uniform_matrix(rng: &mut StRng, rows: usize, cols: usize, low: f64, high: f64) -> Matrix {
    assert!(low < high, "uniform range must satisfy low < high");
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(low..high))
}

/// Xavier/Glorot uniform initialisation for a `fan_in × fan_out` weight
/// matrix: `U(−√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
pub fn xavier_matrix(rng: &mut StRng, fan_in: usize, fan_out: usize) -> Matrix {
    let bound = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
    uniform_matrix(rng, fan_in, fan_out, -bound, bound)
}

/// Draws one standard-normal sample using the Box–Muller transform.
pub fn standard_normal(rng: &mut StRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(7);
        let mut b = rng(7);
        let ma = uniform_matrix(&mut a, 3, 3, 0.0, 1.0);
        let mb = uniform_matrix(&mut b, 3, 3, 0.0, 1.0);
        assert_eq!(ma, mb);
    }

    #[test]
    fn different_seeds_differ() {
        let ma = uniform_matrix(&mut rng(1), 4, 4, 0.0, 1.0);
        let mb = uniform_matrix(&mut rng(2), 4, 4, 0.0, 1.0);
        assert_ne!(ma, mb);
    }

    #[test]
    fn uniform_respects_bounds() {
        let m = uniform_matrix(&mut rng(3), 10, 10, -0.5, 0.5);
        assert!(m.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn standard_normal_moments_are_plausible() {
        let mut r = rng(4);
        let m = Matrix::from_fn(100, 100, |_, _| standard_normal(&mut r));
        let mean = m.mean();
        let var = m.map(|x| (x - mean) * (x - mean)).mean();
        assert!(mean.abs() < 0.05, "mean was {mean}");
        assert!((var.sqrt() - 1.0).abs() < 0.05, "std was {}", var.sqrt());
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let small = xavier_matrix(&mut rng(5), 2, 2);
        let big = xavier_matrix(&mut rng(5), 512, 512);
        assert!(small.max_abs() > big.max_abs());
        let bound = (6.0 / 1024.0_f64).sqrt();
        assert!(big.max_abs() <= bound);
    }
}
