//! The spatio-temporal traffic dataset container.
//!
//! A [`TrafficDataset`] bundles everything an experiment needs: the ground
//! truth cube, the observation mask, the road network, and timing metadata.
//! Synthetic generators ([`crate::pems`], [`crate::stampede`]) produce
//! complete ground truth with a structural mask; the Table-I protocol then
//! applies additional random missingness with [`crate::drop_observed`].

use crate::masking;
use st_graph::RoadNetwork;
use st_tensor::Tensor3;

/// A complete traffic dataset: ground-truth values, observation mask, road
/// network and timing metadata.
///
/// # Examples
///
/// ```
/// use st_data::{generate_pems, PemsConfig};
/// use st_tensor::rng;
///
/// let ds = generate_pems(&PemsConfig { num_nodes: 4, num_days: 2, ..Default::default() });
/// let degraded = ds.with_extra_missing(0.4, &mut rng(1));
/// assert!(degraded.missing_rate() > 0.3);
/// let split = degraded.split_chronological();
/// assert!(split.train.num_times() > split.test.num_times());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficDataset {
    /// Dataset name (for reports).
    pub name: String,
    /// Ground-truth values, `N × D × T`. For synthetic data this is fully
    /// populated even where the mask hides it, which is what allows exact
    /// imputation scoring.
    pub values: Tensor3,
    /// `{0,1}` observation mask, `N × D × T`.
    pub mask: Tensor3,
    /// The road network the sensors live on.
    pub network: RoadNetwork,
    /// Sampling interval in minutes (5 in both paper datasets).
    pub interval_minutes: usize,
}

/// A chronological train/validation/test split of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSplit {
    /// Training portion.
    pub train: TrafficDataset,
    /// Validation portion.
    pub val: TrafficDataset,
    /// Test portion.
    pub test: TrafficDataset,
}

impl TrafficDataset {
    /// Creates a dataset after validating shapes.
    ///
    /// # Panics
    ///
    /// Panics if `values` and `mask` shapes differ, the node count does not
    /// match the network, or `interval_minutes` is zero or does not divide
    /// a day.
    pub fn new(
        name: impl Into<String>,
        values: Tensor3,
        mask: Tensor3,
        network: RoadNetwork,
        interval_minutes: usize,
    ) -> Self {
        assert_eq!(values.shape(), mask.shape(), "values/mask shape mismatch");
        assert_eq!(
            values.nodes(),
            network.len(),
            "node count must match network"
        );
        assert!(interval_minutes > 0, "interval must be positive");
        assert_eq!(24 * 60 % interval_minutes, 0, "interval must divide a day");
        Self {
            name: name.into(),
            values,
            mask,
            network,
            interval_minutes,
        }
    }

    /// Number of sensor nodes.
    pub fn num_nodes(&self) -> usize {
        self.values.nodes()
    }

    /// Number of measured features per node.
    pub fn num_features(&self) -> usize {
        self.values.features()
    }

    /// Number of timestamps.
    pub fn num_times(&self) -> usize {
        self.values.times()
    }

    /// Timestamps per day at this sampling interval.
    pub fn slots_per_day(&self) -> usize {
        24 * 60 / self.interval_minutes
    }

    /// Time-of-day slot of timestamp `t` (assumes the series starts at
    /// midnight).
    pub fn slot_of(&self, t: usize) -> usize {
        t % self.slots_per_day()
    }

    /// Fraction of entries hidden by the mask.
    pub fn missing_rate(&self) -> f64 {
        masking::missing_rate(&self.mask)
    }

    /// Returns a copy with an additional fraction `rate` of the observed
    /// entries dropped at random (Table-I protocol).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn with_extra_missing(&self, rate: f64, rng: &mut st_tensor::StRng) -> Self {
        let mask = masking::drop_observed(&self.mask, rate, rng);
        Self {
            mask,
            ..self.clone()
        }
    }

    /// Chronological 7:2:1 split (the paper's protocol).
    pub fn split_chronological(&self) -> DatasetSplit {
        self.split_with_ratios(0.7, 0.2)
    }

    /// Chronological split with explicit train/val fractions; the remainder
    /// is the test set.
    ///
    /// # Panics
    ///
    /// Panics if the fractions are not positive or sum to ≥ 1.
    pub fn split_with_ratios(&self, train_frac: f64, val_frac: f64) -> DatasetSplit {
        assert!(
            train_frac > 0.0 && val_frac > 0.0,
            "fractions must be positive"
        );
        assert!(
            train_frac + val_frac < 1.0,
            "train+val must leave room for test"
        );
        let t = self.num_times();
        let t_train = ((t as f64) * train_frac).round() as usize;
        let t_val = ((t as f64) * val_frac).round() as usize;
        let make = |name: &str, start: usize, end: usize| TrafficDataset {
            name: format!("{}-{}", self.name, name),
            values: self.values.slice_times(start, end),
            mask: self.mask.slice_times(start, end),
            network: self.network.clone(),
            interval_minutes: self.interval_minutes,
        };
        DatasetSplit {
            train: make("train", 0, t_train),
            val: make("val", t_train, t_train + t_val),
            test: make("test", t_train + t_val, t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_tensor::rng;

    fn toy_dataset(t: usize) -> TrafficDataset {
        let network = RoadNetwork::corridor(3, 1.0);
        let values = Tensor3::from_fn(3, 2, t, |n, d, tt| (n + d + tt) as f64);
        let mask = Tensor3::ones(3, 2, t);
        TrafficDataset::new("toy", values, mask, network, 5)
    }

    #[test]
    fn metadata_accessors() {
        let ds = toy_dataset(100);
        assert_eq!(ds.num_nodes(), 3);
        assert_eq!(ds.num_features(), 2);
        assert_eq!(ds.num_times(), 100);
        assert_eq!(ds.slots_per_day(), 288);
        assert_eq!(ds.slot_of(290), 2);
        assert_eq!(ds.missing_rate(), 0.0);
    }

    #[test]
    fn extra_missing_changes_only_mask() {
        let ds = toy_dataset(200);
        let degraded = ds.with_extra_missing(0.5, &mut rng(1));
        assert_eq!(degraded.values, ds.values);
        assert!((degraded.missing_rate() - 0.5).abs() < 0.05);
    }

    #[test]
    fn chronological_split_covers_everything_in_order() {
        let ds = toy_dataset(100);
        let split = ds.split_chronological();
        assert_eq!(split.train.num_times(), 70);
        assert_eq!(split.val.num_times(), 20);
        assert_eq!(split.test.num_times(), 10);
        // Boundary continuity: first test value continues the sequence.
        assert_eq!(split.test.values[(0, 0, 0)], ds.values[(0, 0, 90)]);
        assert_eq!(split.val.values[(1, 1, 0)], ds.values[(1, 1, 70)]);
    }

    #[test]
    fn split_names_inherit_dataset_name() {
        let split = toy_dataset(50).split_chronological();
        assert_eq!(split.train.name, "toy-train");
        assert_eq!(split.test.name, "toy-test");
    }

    #[test]
    #[should_panic(expected = "leave room")]
    fn split_rejects_overfull_ratios() {
        let _ = toy_dataset(10).split_with_ratios(0.8, 0.2);
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn new_rejects_network_mismatch() {
        let network = RoadNetwork::corridor(2, 1.0);
        let values = Tensor3::zeros(3, 1, 5);
        let mask = Tensor3::ones(3, 1, 5);
        let _ = TrafficDataset::new("bad", values, mask, network, 5);
    }
}
