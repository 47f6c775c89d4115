//! Historical time-of-day profiles and temporal-graph construction.
//!
//! The HGCN's temporal graphs are built from "historical averages of traffic
//! features at the same time period over the past days" (paper §III-D).
//! This module computes those per-node, per-slot averages from observed
//! entries only, and turns them into per-interval DTW distance matrices /
//! adjacency matrices.

use crate::TrafficDataset;
use st_graph::{gaussian_adjacency, Interval, SeriesDistance};
use st_tensor::Matrix;

/// Per-node historical averages over the daily cycle.
///
/// `profiles[n]` is a `slots_per_day × D` matrix whose row `s` is the mean
/// of node `n`'s observed values at time-of-day slot `s` across all days.
#[derive(Debug, Clone, PartialEq)]
pub struct DayProfiles {
    profiles: Vec<Matrix>,
    slots_per_day: usize,
}

impl DayProfiles {
    /// Computes historical profiles from a dataset's observed entries.
    ///
    /// Slots that were never observed for a node fall back to the node's
    /// overall observed mean (or 0 when the node has no observations).
    pub fn from_dataset(ds: &TrafficDataset) -> Self {
        let slots = ds.slots_per_day();
        let (n, d, t) = ds.values.shape();
        let mut profiles = Vec::with_capacity(n);
        for node in 0..n {
            let mut sums = Matrix::zeros(slots, d);
            let mut counts = Matrix::zeros(slots, d);
            let mut node_sum = vec![0.0; d];
            let mut node_count = vec![0usize; d];
            for time in 0..t {
                let slot = time % slots;
                for f in 0..d {
                    if ds.mask[(node, f, time)] != 0.0 {
                        sums[(slot, f)] += ds.values[(node, f, time)];
                        counts[(slot, f)] += 1.0;
                        node_sum[f] += ds.values[(node, f, time)];
                        node_count[f] += 1;
                    }
                }
            }
            let profile = Matrix::from_fn(slots, d, |s, f| {
                if counts[(s, f)] > 0.0 {
                    sums[(s, f)] / counts[(s, f)]
                } else if node_count[f] > 0 {
                    node_sum[f] / node_count[f] as f64
                } else {
                    0.0
                }
            });
            profiles.push(profile);
        }
        Self {
            profiles,
            slots_per_day: slots,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.profiles.len()
    }

    /// Timestamps per day.
    pub fn slots_per_day(&self) -> usize {
        self.slots_per_day
    }

    /// The per-node profile matrices (`slots_per_day × D` each).
    pub fn profiles(&self) -> &[Matrix] {
        &self.profiles
    }

    /// Pairwise node distance matrix over one time interval: the mean DTW
    /// distance between the nodes' interval sub-profiles across features
    /// (the paper's choice; see [`DayProfiles::interval_distances_with`]
    /// for ERP/LCSS).
    ///
    /// # Panics
    ///
    /// Panics if the interval exceeds the daily cycle.
    pub fn interval_distances(&self, interval: Interval) -> Matrix {
        self.interval_distances_with(interval, SeriesDistance::Dtw)
    }

    /// Pairwise node distances over one interval under any
    /// [`SeriesDistance`] (DTW / ERP / LCSS — the paper's §III-D options).
    ///
    /// # Panics
    ///
    /// Panics if the interval exceeds the daily cycle.
    pub fn interval_distances_with(&self, interval: Interval, measure: SeriesDistance) -> Matrix {
        assert!(
            interval.end <= self.slots_per_day,
            "interval {:?} exceeds the daily cycle",
            interval
        );
        let series: Vec<Vec<Vec<f64>>> = self
            .profiles
            .iter()
            .map(|p| {
                (0..p.cols())
                    .map(|f| (interval.start..interval.end).map(|s| p[(s, f)]).collect())
                    .collect()
            })
            .collect();
        // The O(N²) pair sweep parallelises across st-par workers (with
        // bit-identical results at any thread count) inside st-graph.
        st_graph::pairwise_distances(&series, measure)
    }

    /// Temporal-graph adjacency for one interval (paper Eq. 8 applied to
    /// interval DTW distances).
    pub fn interval_adjacency(&self, interval: Interval, epsilon: f64) -> Matrix {
        gaussian_adjacency(&self.interval_distances(interval), None, epsilon)
    }

    /// Temporal-graph adjacency under an alternative distance measure.
    pub fn interval_adjacency_with(
        &self,
        interval: Interval,
        epsilon: f64,
        measure: SeriesDistance,
    ) -> Matrix {
        gaussian_adjacency(
            &self.interval_distances_with(interval, measure),
            None,
            epsilon,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_pems, PemsConfig, TrafficDataset};
    use st_graph::RoadNetwork;
    use st_tensor::Tensor3;

    fn periodic_dataset() -> TrafficDataset {
        // Three nodes: 0 and 1 share a daily pattern, 2 is phase-inverted.
        let slots = 288;
        let days = 4;
        let values = Tensor3::from_fn(3, 1, slots * days, |n, _, t| {
            let phase = 2.0 * std::f64::consts::PI * (t % slots) as f64 / slots as f64;
            match n {
                0 => phase.sin() * 10.0 + 50.0,
                1 => phase.sin() * 10.0 + 52.0,
                _ => -phase.sin() * 10.0 + 51.0,
            }
        });
        let mask = Tensor3::ones(3, 1, slots * days);
        TrafficDataset::new("periodic", values, mask, RoadNetwork::corridor(3, 1.0), 5)
    }

    #[test]
    fn profile_averages_across_days() {
        let ds = periodic_dataset();
        let profiles = DayProfiles::from_dataset(&ds);
        assert_eq!(profiles.num_nodes(), 3);
        assert_eq!(profiles.profiles()[0].shape(), (288, 1));
        // The signal repeats daily, so the profile equals one cycle.
        let expected = ds.values[(0, 0, 10)];
        assert!((profiles.profiles()[0][(10, 0)] - expected).abs() < 1e-9);
    }

    #[test]
    fn masked_entries_excluded_from_profile() {
        let mut ds = periodic_dataset();
        // Hide day 0's slot 10 for node 0 and distort its value wildly.
        ds.values[(0, 0, 10)] = 1e6;
        ds.mask[(0, 0, 10)] = 0.0;
        let profiles = DayProfiles::from_dataset(&ds);
        // Average over the remaining 3 days = the clean value.
        let clean = ds.values[(0, 0, 288 + 10)];
        assert!((profiles.profiles()[0][(10, 0)] - clean).abs() < 1e-9);
    }

    #[test]
    fn similar_patterns_are_closer() {
        let ds = periodic_dataset();
        let profiles = DayProfiles::from_dataset(&ds);
        let interval = Interval::new(0, 288);
        let dist = profiles.interval_distances(interval);
        // Nodes 0 and 1 share the pattern; node 2 is inverted.
        assert!(dist[(0, 1)] < dist[(0, 2)]);
        assert!(dist[(1, 2)] > dist[(0, 1)]);
        // Symmetric with zero diagonal.
        assert_eq!(dist[(0, 2)], dist[(2, 0)]);
        assert_eq!(dist[(1, 1)], 0.0);
    }

    #[test]
    fn adjacency_links_similar_nodes_strongest() {
        let ds = periodic_dataset();
        let profiles = DayProfiles::from_dataset(&ds);
        let adj = profiles.interval_adjacency(Interval::new(0, 144), 0.0);
        assert!(adj[(0, 1)] > adj[(0, 2)]);
    }

    #[test]
    fn works_on_generated_pems() {
        let ds = generate_pems(&PemsConfig {
            num_nodes: 5,
            num_days: 5,
            ..Default::default()
        });
        let profiles = DayProfiles::from_dataset(&ds);
        let adj = profiles.interval_adjacency(Interval::new(84, 132), 0.1);
        assert_eq!(adj.shape(), (5, 5));
        assert!(adj.is_finite());
    }

    #[test]
    fn unobserved_node_gets_zero_profile() {
        let mut ds = periodic_dataset();
        for t in 0..ds.num_times() {
            ds.mask[(2, 0, t)] = 0.0;
        }
        let profiles = DayProfiles::from_dataset(&ds);
        assert_eq!(profiles.profiles()[2].sum(), 0.0);
    }

    #[test]
    fn alternative_measures_produce_valid_adjacencies() {
        let ds = periodic_dataset();
        let profiles = DayProfiles::from_dataset(&ds);
        let iv = Interval::new(0, 144);
        for measure in [
            SeriesDistance::Dtw,
            SeriesDistance::Erp { gap: 0.0 },
            SeriesDistance::Lcss { epsilon: 1.0 },
        ] {
            let adj = profiles.interval_adjacency_with(iv, 0.0, measure);
            assert_eq!(adj.shape(), (3, 3), "{measure:?}");
            assert!(adj.is_finite(), "{measure:?}");
            // Similar nodes (0, 1) at least as connected as dissimilar (0, 2).
            assert!(adj[(0, 1)] >= adj[(0, 2)], "{measure:?}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the daily cycle")]
    fn interval_out_of_range_panics() {
        let ds = periodic_dataset();
        let profiles = DayProfiles::from_dataset(&ds);
        let _ = profiles.interval_distances(Interval::new(0, 300));
    }
}
