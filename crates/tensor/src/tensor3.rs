//! Three-dimensional tensor used for spatio-temporal data cubes.
//!
//! Traffic data in the paper is a cube `X ∈ R^{N×D×T}` (nodes × features ×
//! timestamps) together with a same-shaped mask `M`. [`Tensor3`] stores such
//! cubes contiguously with axis order `(node, feature, time)` and offers the
//! slicing patterns the models need: per-timestamp `N×D` matrices and
//! per-node `T×D` series.

use crate::Matrix;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `N × D × T` tensor of `f64` with axes (node, feature, time).
///
/// # Examples
///
/// ```
/// use st_tensor::Tensor3;
///
/// let mut cube = Tensor3::zeros(2, 1, 3);
/// cube[(0, 0, 2)] = 5.0;
/// assert_eq!(cube.time_slice(2)[(0, 0)], 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor3 {
    nodes: usize,
    features: usize,
    times: usize,
    data: Vec<f64>,
}

impl Tensor3 {
    /// Creates a tensor of the given shape filled with `value`.
    pub fn filled(nodes: usize, features: usize, times: usize, value: f64) -> Self {
        Self {
            nodes,
            features,
            times,
            data: vec![value; nodes * features * times],
        }
    }

    /// Creates a zero tensor of the given shape.
    pub fn zeros(nodes: usize, features: usize, times: usize) -> Self {
        Self::filled(nodes, features, times, 0.0)
    }

    /// Creates a tensor of ones of the given shape.
    pub fn ones(nodes: usize, features: usize, times: usize) -> Self {
        Self::filled(nodes, features, times, 1.0)
    }

    /// Creates a tensor by evaluating `f(node, feature, time)` everywhere.
    pub fn from_fn(
        nodes: usize,
        features: usize,
        times: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(nodes * features * times);
        for n in 0..nodes {
            for d in 0..features {
                for t in 0..times {
                    data.push(f(n, d, t));
                }
            }
        }
        Self {
            nodes,
            features,
            times,
            data,
        }
    }

    /// Number of nodes (first axis).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of features (second axis).
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of timestamps (third axis).
    pub fn times(&self) -> usize {
        self.times
    }

    /// `(nodes, features, times)` triple.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nodes, self.features, self.times)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage (node-major, then feature,
    /// then time).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    #[inline]
    fn offset(&self, n: usize, d: usize, t: usize) -> usize {
        debug_assert!(n < self.nodes && d < self.features && t < self.times);
        (n * self.features + d) * self.times + t
    }

    /// Element access returning `None` when out of bounds.
    pub fn get(&self, n: usize, d: usize, t: usize) -> Option<f64> {
        if n < self.nodes && d < self.features && t < self.times {
            Some(self.data[(n * self.features + d) * self.times + t])
        } else {
            None
        }
    }

    /// Extracts the `N × D` matrix of all node features at timestamp `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.times()`.
    pub fn time_slice(&self, t: usize) -> Matrix {
        assert!(
            t < self.times,
            "time {} out of bounds for {} times",
            t,
            self.times
        );
        Matrix::from_fn(self.nodes, self.features, |n, d| {
            self.data[self.offset(n, d, t)]
        })
    }

    /// Extracts the scalar series of feature `d` for node `n`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn series(&self, n: usize, d: usize) -> Vec<f64> {
        assert!(
            n < self.nodes && d < self.features,
            "series index out of bounds"
        );
        (0..self.times)
            .map(|t| self.data[self.offset(n, d, t)])
            .collect()
    }

    /// Returns the sub-tensor covering timestamps `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.times()`.
    pub fn slice_times(&self, start: usize, end: usize) -> Tensor3 {
        assert!(
            start <= end && end <= self.times,
            "slice_times range out of bounds"
        );
        Tensor3::from_fn(self.nodes, self.features, end - start, |n, d, t| {
            self.data[self.offset(n, d, start + t)]
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Tensor3 {
        Tensor3 {
            nodes: self.nodes,
            features: self.features,
            times: self.times,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two equal-shaped tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, rhs: &Tensor3, mut f: impl FnMut(f64, f64) -> f64) -> Tensor3 {
        assert_eq!(self.shape(), rhs.shape(), "zip_map shape mismatch");
        Tensor3 {
            nodes: self.nodes,
            features: self.features,
            times: self.times,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Mean of all elements; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// Whether all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize, usize)> for Tensor3 {
    type Output = f64;

    fn index(&self, (n, d, t): (usize, usize, usize)) -> &f64 {
        assert!(
            n < self.nodes && d < self.features && t < self.times,
            "index ({n},{d},{t}) out of bounds for {}x{}x{}",
            self.nodes,
            self.features,
            self.times
        );
        &self.data[(n * self.features + d) * self.times + t]
    }
}

impl IndexMut<(usize, usize, usize)> for Tensor3 {
    fn index_mut(&mut self, (n, d, t): (usize, usize, usize)) -> &mut f64 {
        assert!(
            n < self.nodes && d < self.features && t < self.times,
            "index ({n},{d},{t}) out of bounds for {}x{}x{}",
            self.nodes,
            self.features,
            self.times
        );
        &mut self.data[(n * self.features + d) * self.times + t]
    }
}

impl fmt::Debug for Tensor3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor3 {}x{}x{} (mean {:.4})",
            self.nodes,
            self.features,
            self.times,
            self.mean()
        )
    }
}

impl Default for Tensor3 {
    fn default() -> Self {
        Tensor3::zeros(0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_indexing() {
        let mut t = Tensor3::zeros(2, 3, 4);
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.len(), 24);
        t[(1, 2, 3)] = 7.0;
        assert_eq!(t[(1, 2, 3)], 7.0);
        assert_eq!(t.get(1, 2, 3), Some(7.0));
        assert_eq!(t.get(2, 0, 0), None);
    }

    #[test]
    fn from_fn_layout() {
        let t = Tensor3::from_fn(2, 2, 2, |n, d, tt| (n * 100 + d * 10 + tt) as f64);
        assert_eq!(t[(0, 0, 0)], 0.0);
        assert_eq!(t[(0, 1, 1)], 11.0);
        assert_eq!(t[(1, 0, 1)], 101.0);
    }

    #[test]
    fn time_slice_reads_one_timestamp() {
        let mut t = Tensor3::zeros(2, 2, 3);
        t[(1, 0, 1)] = 3.0;
        assert_eq!(
            t.time_slice(1),
            Matrix::from_rows(&[&[0.0, 0.0], &[3.0, 0.0]])
        );
        assert_eq!(t.time_slice(0), Matrix::zeros(2, 2));
    }

    #[test]
    fn series_reads_one_node_feature() {
        let t = Tensor3::from_fn(2, 2, 3, |n, d, tt| (n * 100 + d * 10 + tt) as f64);
        assert_eq!(t.series(0, 1), vec![10.0, 11.0, 12.0]);
        assert_eq!(t.series(1, 1), vec![110.0, 111.0, 112.0]);
    }

    #[test]
    fn slice_times_subrange() {
        let t = Tensor3::from_fn(1, 1, 5, |_, _, tt| tt as f64);
        let s = t.slice_times(1, 4);
        assert_eq!(s.shape(), (1, 1, 3));
        assert_eq!(s.series(0, 0), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor3::ones(1, 2, 2);
        let b = a.map(|x| x * 3.0);
        assert_eq!(b[(0, 1, 1)], 3.0);
        let c = a.zip_map(&b, |x, y| x + y);
        assert_eq!(c[(0, 0, 0)], 4.0);
    }

    #[test]
    fn empty_tensor() {
        let t = Tensor3::default();
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert!(!format!("{t:?}").is_empty());
    }
}
