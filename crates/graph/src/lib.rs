//! Graph substrate for the RIHGCN reproduction.
//!
//! Everything graph-shaped that the model needs, independent of any neural
//! network code:
//!
//! * [`RoadNetwork`] — sensor/segment topology with geographic metadata;
//! * [`gaussian_adjacency`] — the paper's Eq. (8) thresholded Gaussian
//!   kernel, used for both the geographic graph and every temporal graph;
//! * [`normalized_laplacian`] / [`scaled_laplacian`] — spectral utilities
//!   behind the Chebyshev GCN (paper Eq. 1);
//! * [`dtw`] (plus ERP and LCSS through [`SeriesDistance`]) — time-series
//!   distances for temporal-graph construction;
//! * [`partition_day`] — the constrained interval-partitioning solver of
//!   paper Eq. (2), and [`interval_weights`] for per-sample soft interval
//!   membership used when aggregating HGCN branches.
//!
//! # Examples
//!
//! ```
//! use st_graph::{gaussian_adjacency, scaled_laplacian_from_adjacency, RoadNetwork};
//!
//! let net = RoadNetwork::corridor(10, 1.0);
//! let adj = gaussian_adjacency(&net.distance_matrix(), None, 0.1);
//! let laplacian = scaled_laplacian_from_adjacency(&adj);
//! assert_eq!(laplacian.shape(), (10, 10));
//! ```

#![warn(missing_docs)]

mod adjacency;
mod distance;
mod intervals;
mod laplacian;
mod road;

pub use adjacency::{gaussian_adjacency, off_diagonal_std, sparsity};
pub use distance::{
    dtw, dtw_lanes, dtw_windowed, pairwise_distances, DistanceScratch, SeriesDistance,
};
pub use intervals::{
    interval_weights, partition_day, partition_day_circular, CircularPartition, Interval,
    IntervalConfig, Partition,
};
pub use laplacian::{normalized_laplacian, scaled_laplacian, scaled_laplacian_from_adjacency};
pub use road::{RoadNetwork, RoadSegment};
