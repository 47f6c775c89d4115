//! Road-network topology: node positions and geographic distances.
//!
//! The geographic graph in the paper is built from road-network distances
//! between sensor locations (plus metadata such as lane counts and speed
//! limits for the Stampede dataset). [`RoadNetwork`] carries exactly that
//! information and produces the pairwise distance matrix consumed by
//! [`crate::gaussian_adjacency`].

use st_tensor::Matrix;

/// Static description of one road segment / sensor location.
#[derive(Debug, Clone, PartialEq)]
pub struct RoadSegment {
    /// Segment identifier (index into the network).
    pub id: usize,
    /// Planar x coordinate in kilometres.
    pub x: f64,
    /// Planar y coordinate in kilometres.
    pub y: f64,
    /// Number of lanes per direction.
    pub lanes: usize,
    /// Speed limit in km/h.
    pub speed_limit: f64,
    /// Number of traffic lights on the segment.
    pub traffic_lights: usize,
}

/// A road network: an ordered collection of [`RoadSegment`]s.
///
/// # Examples
///
/// ```
/// use st_graph::RoadNetwork;
///
/// let net = RoadNetwork::corridor(5, 1.2);
/// assert_eq!(net.len(), 5);
/// let d = net.distance_matrix();
/// assert!(d[(0, 4)] > d[(0, 1)]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoadNetwork {
    segments: Vec<RoadSegment>,
}

impl RoadNetwork {
    /// Creates a network from explicit segments.
    pub fn new(segments: Vec<RoadSegment>) -> Self {
        Self { segments }
    }

    /// Builds a highway **corridor**: `n` sensors in a line, `spacing_km`
    /// apart, with gentle curvature so the layout is not degenerate.
    ///
    /// Models the PeMS district setting (mainline loop detectors along a
    /// freeway). All segments get 4 lanes and a 105 km/h (~65 mph) limit.
    pub fn corridor(n: usize, spacing_km: f64) -> Self {
        let segments = (0..n)
            .map(|i| {
                let s = i as f64 * spacing_km;
                RoadSegment {
                    id: i,
                    x: s,
                    y: (s * 0.15).sin() * 2.0,
                    lanes: 4,
                    speed_limit: 105.0,
                    traffic_lights: 0,
                }
            })
            .collect();
        Self { segments }
    }

    /// Builds an urban **loop**: `n` segments evenly spaced on a circle of
    /// the given radius, with varying lane counts and traffic lights.
    ///
    /// Models the Stampede shuttle route (12 urban road segments).
    pub fn loop_route(n: usize, radius_km: f64) -> Self {
        let segments = (0..n)
            .map(|i| {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
                RoadSegment {
                    id: i,
                    x: radius_km * angle.cos(),
                    y: radius_km * angle.sin(),
                    lanes: 1 + i % 3,
                    speed_limit: 40.0 + 10.0 * (i % 3) as f64,
                    traffic_lights: 1 + (i * 7) % 4,
                }
            })
            .collect();
        Self { segments }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the network has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segments, in id order.
    pub fn segments(&self) -> &[RoadSegment] {
        &self.segments
    }

    /// Segment by index, or `None` when out of range.
    pub fn get(&self, id: usize) -> Option<&RoadSegment> {
        self.segments.get(id)
    }

    /// Pairwise Euclidean distance matrix in kilometres.
    pub fn distance_matrix(&self) -> Matrix {
        let n = self.segments.len();
        Matrix::from_fn(n, n, |i, j| {
            let (a, b) = (&self.segments[i], &self.segments[j]);
            ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt()
        })
    }

    /// Road-distance matrix: Euclidean distance inflated by a detour factor
    /// that grows with the number of traffic lights between the endpoints —
    /// a simple stand-in for true over-the-network driving distance.
    pub fn road_distance_matrix(&self) -> Matrix {
        let n = self.segments.len();
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                return 0.0;
            }
            let (a, b) = (&self.segments[i], &self.segments[j]);
            let euclid = ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt();
            let lights = (a.traffic_lights + b.traffic_lights) as f64;
            euclid * (1.0 + 0.05 * lights)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corridor_layout_monotone_distance() {
        let net = RoadNetwork::corridor(6, 2.0);
        let d = net.distance_matrix();
        assert!(d[(0, 1)] < d[(0, 3)]);
        assert!(d[(0, 3)] < d[(0, 5)]);
        for i in 0..6 {
            assert_eq!(d[(i, i)], 0.0);
        }
    }

    #[test]
    fn distance_matrix_symmetric() {
        let net = RoadNetwork::loop_route(8, 1.5);
        let d = net.distance_matrix();
        for i in 0..8 {
            for j in 0..8 {
                assert!((d[(i, j)] - d[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn loop_route_wraps() {
        let net = RoadNetwork::loop_route(12, 2.0);
        let d = net.distance_matrix();
        // Adjacent around the circle, including the wrap 11–0.
        assert!((d[(11, 0)] - d[(0, 1)]).abs() < 1e-9);
        // Opposite points are the farthest.
        assert!(d[(0, 6)] > d[(0, 3)]);
    }

    #[test]
    fn road_distance_at_least_euclidean() {
        let net = RoadNetwork::loop_route(6, 1.0);
        let euclid = net.distance_matrix();
        let road = net.road_distance_matrix();
        for i in 0..6 {
            for j in 0..6 {
                assert!(road[(i, j)] >= euclid[(i, j)] - 1e-12);
            }
        }
    }

    #[test]
    fn metadata_populated() {
        let net = RoadNetwork::loop_route(12, 2.0);
        assert!(net.segments().iter().all(|s| s.lanes >= 1));
        assert!(net.segments().iter().all(|s| s.traffic_lights >= 1));
        assert!(net.get(11).is_some());
        assert!(net.get(12).is_none());
    }

    #[test]
    fn empty_network() {
        let net = RoadNetwork::default();
        assert!(net.is_empty());
        assert_eq!(net.distance_matrix().shape(), (0, 0));
    }
}
