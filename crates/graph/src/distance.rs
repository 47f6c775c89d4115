//! Time-series distance measures: DTW, ERP and LCSS.
//!
//! The paper measures similarity between road segments' historical profiles
//! with Dynamic Time Warping (Section III-D), mentioning Edit distance with
//! Real Penalty and Longest Common Subsequence as alternatives; all three are
//! implemented here so the temporal-graph construction can be ablated.
//!
//! Every DTW goes through one kernel, [`dtw_lanes`], which runs `L`
//! independent alignments of equal-length series in lock-step `[f64; L]`
//! lanes. The DP scan is latency-bound on one `min`/`add` chain per row, so
//! four lanes fill the time one chain leaves idle; [`pairwise_distances`]
//! and the interval search feed it four features of a node at a time, and
//! `L = 1` serves single series. Each lane evaluates exactly the textbook
//! recurrence — the same operands in the same order — so every distance
//! keeps its bits whatever its lane or neighbours.
//!
//! ERP and LCSS split each row into a branch-free **cost precompute**
//! (`|aᵢ−bⱼ|` or `≤ ε` tests the compiler autovectorises) and a serial
//! **scan** that carries the diagonal and left cells in registers. All DP
//! rows live in a reusable [`DistanceScratch`] so the O(N²) pair loop of
//! [`pairwise_distances`] performs no per-pair allocations.

use std::ops::Range;

/// A pluggable time-series distance measure.
///
/// The paper uses DTW for temporal-graph construction and names ERP and
/// LCSS as alternatives (§III-D); this enum lets the graph builders and the
/// ablation benches switch between all three.
///
/// # Examples
///
/// ```
/// use st_graph::SeriesDistance;
///
/// let a = [1.0, 2.0, 3.0];
/// assert_eq!(SeriesDistance::Dtw.compute(&a, &a), 0.0);
/// assert_eq!(SeriesDistance::Erp { gap: 0.0 }.compute(&a, &a), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeriesDistance {
    /// Dynamic Time Warping (the paper's choice).
    Dtw,
    /// Edit distance with Real Penalty, with the given gap value.
    Erp {
        /// Gap (reference) value `g`.
        gap: f64,
    },
    /// LCSS-based distance with the given matching threshold.
    Lcss {
        /// Pointwise matching threshold `ε`.
        epsilon: f64,
    },
}

impl Default for SeriesDistance {
    fn default() -> Self {
        SeriesDistance::Dtw
    }
}

impl SeriesDistance {
    /// Computes the distance between two scalar series.
    pub fn compute(&self, a: &[f64], b: &[f64]) -> f64 {
        self.compute_with(a, b, &mut DistanceScratch::default())
    }

    /// [`SeriesDistance::compute`] reusing caller-owned DP buffers.
    ///
    /// Hot loops (the O(N²) pair sweep in [`pairwise_distances`]) call this
    /// so every pair after the first is allocation-free.
    pub fn compute_with(&self, a: &[f64], b: &[f64], scratch: &mut DistanceScratch) -> f64 {
        match *self {
            SeriesDistance::Dtw => {
                dtw_lanes::<1>(a.as_chunks().0, b.as_chunks().0, usize::MAX, scratch)[0]
            }
            SeriesDistance::Erp { gap } => erp_impl(a, b, gap, scratch),
            SeriesDistance::Lcss { epsilon } => lcss_impl(a, b, epsilon, scratch),
        }
    }
}

/// Reusable DP row buffers for the distance kernels.
///
/// Each buffer is resized (never shrunk) on use, so a scratch that has seen
/// the longest series in a workload never allocates again.
///
/// # Examples
///
/// ```
/// use st_graph::{DistanceScratch, SeriesDistance};
///
/// let mut scratch = DistanceScratch::default();
/// let a = [1.0, 2.0, 3.0];
/// let d = SeriesDistance::Dtw.compute_with(&a, &a, &mut scratch);
/// assert_eq!(d, 0.0);
/// ```
#[derive(Debug, Default)]
pub struct DistanceScratch {
    /// Previous DP row; lane-major for DTW (`L` values per column).
    prev: Vec<f64>,
    /// Current DP row, laid out like `prev`.
    curr: Vec<f64>,
    /// Per-row pointwise match costs (ERP only).
    cost: Vec<f64>,
    /// Per-element gap costs `|bⱼ − g|` (ERP only, computed once per call).
    gap: Vec<f64>,
    /// Previous DP row for the integer LCSS recurrence.
    prev_len: Vec<usize>,
    /// Current DP row for the integer LCSS recurrence.
    curr_len: Vec<usize>,
    /// Pointwise `|aᵢ − bⱼ| ≤ ε` matches (LCSS only).
    hit: Vec<bool>,
}

impl DistanceScratch {
    /// A scratch with empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Resizes `buf` to `len`, filling *all* elements with `value`.
fn reset_row<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

/// Dynamic Time Warping distance between two scalar series.
///
/// Handles series of different lengths; uses squared pointwise cost summed
/// along the optimal warping path, returned as the square root (a common
/// DTW convention that keeps units comparable to Euclidean distance).
///
/// Returns `f64::INFINITY` if either series is empty (nothing to align).
///
/// # Examples
///
/// ```
/// let d = st_graph::dtw(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
/// assert_eq!(d, 0.0);
/// ```
pub fn dtw(a: &[f64], b: &[f64]) -> f64 {
    dtw_windowed(a, b, usize::MAX)
}

/// DTW with a Sakoe–Chiba band of half-width `window` (in indices).
///
/// `window = usize::MAX` disables the band. A tighter band speeds up the
/// computation and regularises pathological alignments.
///
/// Returns `f64::INFINITY` if either series is empty or the band makes the
/// end state unreachable.
pub fn dtw_windowed(a: &[f64], b: &[f64], window: usize) -> f64 {
    let mut scratch = DistanceScratch::default();
    dtw_lanes::<1>(a.as_chunks().0, b.as_chunks().0, window, &mut scratch)[0]
}

/// DTW of `L` series pairs in one DP scan: lane `l` of the result is
/// [`dtw_windowed`] of lane `l` of `a` against lane `l` of `b`, bit for bit.
///
/// `a[i][l]` is element `i` of lane `l`'s first series, so all lanes share
/// the lengths `a.len()` and `b.len()` and the band. Per cell and lane the
/// kernel computes `d = aᵢ − bⱼ; d·d + diag.min(up).min(left)`, the
/// textbook recurrence's operands in its order; lanes never mix, so a NaN
/// or ∞ in one lane leaves the other lanes' bits untouched. The scan is one
/// dependent `min`/`add` chain per lane, which is why a few independent
/// lanes run almost as fast as one.
///
/// # Examples
///
/// ```
/// use st_graph::{dtw, dtw_lanes, DistanceScratch};
///
/// let (a, b) = ([1.0, 2.0, 3.0], [2.0, 0.5]);
/// let lanes_a: Vec<[f64; 2]> = a.iter().map(|&x| [x, -x]).collect();
/// let lanes_b: Vec<[f64; 2]> = b.iter().map(|&x| [x, -x]).collect();
/// let d = dtw_lanes(&lanes_a, &lanes_b, usize::MAX, &mut DistanceScratch::new());
/// assert_eq!(d, [dtw(&a, &b), dtw(&a, &b)]);
/// ```
pub fn dtw_lanes<const L: usize>(
    a: &[[f64; L]],
    b: &[[f64; L]],
    window: usize,
    s: &mut DistanceScratch,
) -> [f64; L] {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return [f64::INFINITY; L];
    }
    // The band must be at least |n−m| wide to reach the corner.
    let w = window.max(n.abs_diff(m));
    reset_row(&mut s.prev, (m + 1) * L, f64::INFINITY);
    reset_row(&mut s.curr, (m + 1) * L, f64::INFINITY);
    let mut prev = s.prev.as_chunks_mut::<L>().0;
    let mut curr = s.curr.as_chunks_mut::<L>().0;
    prev[0] = [0.0; L];
    for (i, ai) in (1usize..).zip(a) {
        let lo = i.saturating_sub(w).max(1);
        let hi = i.saturating_add(w).min(m);
        // Cells outside the band are +∞. The next row reads this row from
        // column lo−1 on, and `curr` still holds row i−2 (or row 0's
        // `prev[0] = 0`) below this band, so that one cell is reset. Past
        // `hi` it has never been written: bands only move right.
        curr[lo - 1] = [f64::INFINITY; L];
        // `diag` carries prev[j-1] and `left` carries curr[j-1].
        let mut diag = prev[lo - 1];
        let mut left = [f64::INFINITY; L];
        let band = curr[lo..=hi].iter_mut().zip(&prev[lo..=hi]);
        for ((cell, &up), bj) in band.zip(&b[lo - 1..hi]) {
            for l in 0..L {
                let d = ai[l] - bj[l];
                left[l] = d * d + diag[l].min(up[l]).min(left[l]);
            }
            *cell = left;
            diag = up;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m].map(f64::sqrt)
}

/// Features per lane group in the DTW sweeps ([`pairwise_distances`] and
/// the interval search). Wider groups gain little: four lanes already
/// cover the latency of the scan's dependent chain.
pub(crate) const LANES: usize = 4;

/// Mean of the finite values pushed, summed in push order; 0 when none.
#[derive(Default)]
pub(crate) struct FiniteMean {
    total: f64,
    count: usize,
}

impl FiniteMean {
    pub(crate) fn push(&mut self, d: f64) {
        if d.is_finite() {
            self.total += d;
            self.count += 1;
        }
    }

    pub(crate) fn value(&self) -> f64 {
        if self.count > 0 {
            self.total / self.count as f64
        } else {
            0.0
        }
    }
}

/// One node's per-feature series, with each run of [`LANES`] consecutive
/// equal-length features also interleaved lane-major for [`dtw_lanes`].
pub(crate) struct LaneNode<'a> {
    features: &'a [Vec<f64>],
    /// `groups[g]` interleaves features `LANES·g ..`; `None` when their
    /// series differ in length.
    groups: Vec<Option<Vec<[f64; LANES]>>>,
}

impl<'a> LaneNode<'a> {
    pub(crate) fn new(features: &'a [Vec<f64>]) -> Self {
        let groups = features
            .chunks_exact(LANES)
            .map(|group| {
                let len = group[0].len();
                group.iter().all(|f| f.len() == len).then(|| {
                    (0..len)
                        .map(|t| std::array::from_fn(|l| group[l][t]))
                        .collect()
                })
            })
            .collect();
        Self { features, groups }
    }

    /// Pushes the DTW distance of every feature both nodes have into
    /// `mean`, in feature order. `span` restricts the alignment to samples
    /// `ra` of `self` against `rb` of `other` (`None`: whole series).
    ///
    /// Groups interleaved in both nodes run [`LANES`] features per DP scan;
    /// the remaining features (a short last group, ragged lengths) run one
    /// lane each. Either way every distance has the bits of [`dtw`].
    pub(crate) fn push_dtws(
        &self,
        other: &LaneNode<'_>,
        span: Option<(&Range<usize>, &Range<usize>)>,
        s: &mut DistanceScratch,
        mean: &mut FiniteMean,
    ) {
        fn cut<'x, T>(x: &'x [T], r: Option<&Range<usize>>) -> &'x [T] {
            r.map_or(x, |r| &x[r.clone()])
        }
        let (ra, rb) = span.unzip();
        let common = self.features.len().min(other.features.len());
        for start in (0..common).step_by(LANES) {
            let end = (start + LANES).min(common);
            let g = start / LANES;
            let groups = (self.groups.get(g), other.groups.get(g));
            if let (Some(Some(a)), Some(Some(b))) = groups {
                let d = dtw_lanes(cut(a, ra), cut(b, rb), usize::MAX, s);
                d.into_iter().for_each(|d| mean.push(d));
                continue;
            }
            for f in start..end {
                let a = cut(&self.features[f], ra).as_chunks().0;
                let b = cut(&other.features[f], rb).as_chunks().0;
                mean.push(dtw_lanes::<1>(a, b, usize::MAX, s)[0]);
            }
        }
    }
}

/// Sets `values[k] = value(k, scratch)` for every `k`, across `st-par`
/// workers once `work` (estimated DP cells) clears
/// [`st_tensor::parallel_threshold`].
///
/// Values are claimed in fixed runs so each task reuses one scratch across
/// its run. Each value is still produced wholly by one task, so the result
/// is bit-identical for any thread count.
pub(crate) fn fill_with_scratch(
    values: &mut [f64],
    work: usize,
    value: impl Fn(usize, &mut DistanceScratch) -> f64 + Sync,
) {
    const RUN: usize = 8;
    if st_par::num_threads() <= 1 || work < st_tensor::parallel_threshold() {
        let mut scratch = DistanceScratch::default();
        for (k, v) in values.iter_mut().enumerate() {
            *v = value(k, &mut scratch);
        }
    } else {
        st_par::par_chunks_mut(values, RUN, |idx, run| {
            let mut scratch = DistanceScratch::default();
            for (off, v) in run.iter_mut().enumerate() {
                *v = value(idx * RUN + off, &mut scratch);
            }
        });
    }
}

/// Symmetric pairwise distance matrix between nodes' multivariate series.
///
/// `series[n]` holds node `n`'s per-feature scalar series; the distance
/// between two nodes is the mean finite `measure` distance over their
/// common features (0 when no feature is comparable). The diagonal is zero.
///
/// The O(N²) pair loop is the hottest step of temporal-graph construction.
/// Under DTW each node's features are interleaved into lane groups once, so
/// one [`dtw_lanes`] scan serves four features of a pair; ERP and LCSS run
/// one feature at a time. Pairs are evaluated across `st-par` workers once
/// the estimated work clears [`st_tensor::parallel_threshold`]. Each pair's
/// distance is computed wholly by one worker and written to a dedicated
/// slot, so the result is bit-identical for any thread count.
pub fn pairwise_distances(series: &[Vec<Vec<f64>>], measure: SeriesDistance) -> st_tensor::Matrix {
    let n = series.len();
    let mut dist = st_tensor::Matrix::zeros(n, n);
    if n < 2 {
        return dist;
    }
    let _span = st_obs::span!("graph.pairwise_distances", n);
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();
    let lanes: Vec<LaneNode<'_>> = match measure {
        SeriesDistance::Dtw => series.iter().map(|node| LaneNode::new(node)).collect(),
        _ => Vec::new(),
    };
    let pair_distance = |k: usize, scratch: &mut DistanceScratch| -> f64 {
        let (i, j) = pairs[k];
        let mut mean = FiniteMean::default();
        if lanes.is_empty() {
            for (a, b) in series[i].iter().zip(&series[j]) {
                mean.push(measure.compute_with(a, b, scratch));
            }
        } else {
            lanes[i].push_dtws(&lanes[j], None, scratch, &mut mean);
        }
        mean.value()
    };

    // Work estimate: each DTW/ERP/LCSS pair costs O(len²) per feature.
    let len = series
        .iter()
        .flat_map(|node| node.iter().map(Vec::len))
        .max()
        .unwrap_or(0);
    let features = series.iter().map(Vec::len).max().unwrap_or(0);
    let work = pairs
        .len()
        .saturating_mul(len * len)
        .saturating_mul(features);

    let mut values = vec![0.0; pairs.len()];
    fill_with_scratch(&mut values, work, pair_distance);
    for (&(i, j), &d) in pairs.iter().zip(&values) {
        dist[(i, j)] = d;
        dist[(j, i)] = d;
    }
    dist
}

/// Edit distance with Real Penalty (ERP) with gap value `g`: a metric
/// (it satisfies the triangle inequality), unlike raw DTW. Empty series
/// cost pure gaps.
fn erp_impl(a: &[f64], b: &[f64], g: f64, s: &mut DistanceScratch) -> f64 {
    let (n, m) = (a.len(), b.len());
    // Gap costs |bⱼ − g| are row-invariant: computed once, vectorisable.
    reset_row(&mut s.gap, m, 0.0);
    for (gb, &bv) in s.gap.iter_mut().zip(b) {
        *gb = (bv - g).abs();
    }
    // First DP row: prefix sums of the gap costs (same left-to-right
    // association as summing b[..j] directly).
    reset_row(&mut s.prev, m + 1, 0.0);
    for j in 1..=m {
        s.prev[j] = s.prev[j - 1] + s.gap[j - 1];
    }
    reset_row(&mut s.curr, m + 1, 0.0);
    reset_row(&mut s.cost, m, 0.0);
    for i in 1..=n {
        let ai = a[i - 1];
        let ga = (ai - g).abs();
        // Phase 1 — pointwise match costs |aᵢ − bⱼ|, branch-free.
        for (c, &bv) in s.cost.iter_mut().zip(b) {
            *c = (ai - bv).abs();
        }
        // Phase 2 — serial scan with register-carried diagonal and left.
        let mut diag = s.prev[0];
        let mut left = s.prev[0] + ga;
        s.curr[0] = left;
        for j in 1..=m {
            let up = s.prev[j];
            let match_cost = diag + s.cost[j - 1];
            let gap_a = up + ga;
            let gap_b = left + s.gap[j - 1];
            let v = match_cost.min(gap_a).min(gap_b);
            s.curr[j] = v;
            left = v;
            diag = up;
        }
        std::mem::swap(&mut s.prev, &mut s.curr);
    }
    s.prev[m]
}

/// Longest-Common-SubSequence similarity as a distance,
/// `1 − |LCSS| / min(n, m)` with matching threshold `epsilon`; `1.0`
/// (maximally distant) when either series is empty.
fn lcss_impl(a: &[f64], b: &[f64], epsilon: f64, s: &mut DistanceScratch) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return 1.0;
    }
    reset_row(&mut s.prev_len, m + 1, 0);
    reset_row(&mut s.curr_len, m + 1, 0);
    reset_row(&mut s.hit, m, false);
    for i in 1..=n {
        let ai = a[i - 1];
        // Phase 1 — pointwise ε-matches, a branch-free compare sweep.
        for (h, &bv) in s.hit.iter_mut().zip(b) {
            *h = (ai - bv).abs() <= epsilon;
        }
        // Phase 2 — serial scan; `curr_len[0]` stays 0 so `left` starts 0.
        let mut diag = s.prev_len[0];
        let mut left = 0usize;
        for j in 1..=m {
            let up = s.prev_len[j];
            let v = if s.hit[j - 1] { diag + 1 } else { up.max(left) };
            s.curr_len[j] = v;
            left = v;
            diag = up;
        }
        std::mem::swap(&mut s.prev_len, &mut s.curr_len);
    }
    1.0 - s.prev_len[m] as f64 / n.min(m) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn erp(a: &[f64], b: &[f64], gap: f64) -> f64 {
        SeriesDistance::Erp { gap }.compute(a, b)
    }

    fn lcss(a: &[f64], b: &[f64], epsilon: f64) -> f64 {
        SeriesDistance::Lcss { epsilon }.compute(a, b)
    }

    #[test]
    fn dtw_identity_is_zero() {
        let s = [1.0, 3.0, 2.0, 5.0];
        assert_eq!(dtw(&s, &s), 0.0);
    }

    #[test]
    fn dtw_is_symmetric() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [1.5, 2.5, 2.0];
        assert!((dtw(&a, &b) - dtw(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn dtw_aligns_shifted_series() {
        // A time-shifted copy should be much closer under DTW than
        // pointwise Euclidean distance.
        let a: Vec<f64> = (0..20).map(|i| ((i as f64) * 0.5).sin()).collect();
        let b: Vec<f64> = (0..20).map(|i| (((i + 2) as f64) * 0.5).sin()).collect();
        let euclid: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let d = dtw(&a, &b);
        assert!(d < euclid, "dtw {d} should beat euclidean {euclid}");
    }

    #[test]
    fn dtw_brute_force_agreement() {
        // Compare against a straightforward full-matrix implementation.
        fn brute(a: &[f64], b: &[f64]) -> f64 {
            let (n, m) = (a.len(), b.len());
            let mut dp = vec![vec![f64::INFINITY; m + 1]; n + 1];
            dp[0][0] = 0.0;
            for i in 1..=n {
                for j in 1..=m {
                    let c = (a[i - 1] - b[j - 1]).powi(2);
                    dp[i][j] = c + dp[i - 1][j - 1].min(dp[i - 1][j]).min(dp[i][j - 1]);
                }
            }
            dp[n][m].sqrt()
        }
        let a = [0.3, 1.2, -0.5, 2.0, 0.0, 1.1];
        let b = [0.1, 1.0, 0.0, 1.8];
        assert!((dtw(&a, &b) - brute(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn dtw_empty_is_infinite() {
        assert!(dtw(&[], &[1.0]).is_infinite());
        assert!(dtw(&[1.0], &[]).is_infinite());
    }

    #[test]
    fn dtw_window_matches_full_when_wide() {
        let a = [1.0, 2.0, 1.5, 0.5];
        let b = [1.1, 1.9, 1.4, 0.6];
        assert_eq!(dtw_windowed(&a, &b, 100), dtw(&a, &b));
    }

    #[test]
    fn dtw_window_never_below_full() {
        // Constraining alignments can only increase the optimal cost.
        let a: Vec<f64> = (0..15).map(|i| (i as f64 * 0.7).cos()).collect();
        let b: Vec<f64> = (0..15).map(|i| (i as f64 * 0.7 + 1.0).cos()).collect();
        assert!(dtw_windowed(&a, &b, 1) >= dtw(&a, &b) - 1e-12);
    }

    #[test]
    fn erp_identity_and_symmetry() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(erp(&a, &a, 0.0), 0.0);
        let b = [2.0, 2.5];
        assert!((erp(&a, &b, 0.0) - erp(&b, &a, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn erp_triangle_inequality_spot_check() {
        let a = [1.0, 2.0];
        let b = [1.5, 2.5, 0.0];
        let c = [0.5];
        let (ab, bc, ac) = (erp(&a, &b, 0.0), erp(&b, &c, 0.0), erp(&a, &c, 0.0));
        assert!(ac <= ab + bc + 1e-12);
    }

    #[test]
    fn lcss_bounds() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(lcss(&a, &a, 0.01), 0.0);
        let far = [100.0, 200.0, 300.0];
        assert_eq!(lcss(&a, &far, 0.01), 1.0);
        assert_eq!(lcss(&[], &a, 0.1), 1.0);
    }

    #[test]
    fn series_distance_dispatch_matches_functions() {
        let a = [1.0, 2.0, 3.0, 2.0];
        let b = [1.5, 2.5, 2.0];
        assert_eq!(SeriesDistance::Dtw.compute(&a, &b), dtw(&a, &b));
        assert_eq!(SeriesDistance::default(), SeriesDistance::Dtw);
    }

    #[test]
    fn pairwise_matches_the_scalar_functions() {
        // Three nodes, two features each.
        let mk = |phase: f64| -> Vec<Vec<f64>> {
            (0..2)
                .map(|f| {
                    (0..30)
                        .map(|t| ((t as f64) * 0.3 + phase + f as f64).sin())
                        .collect()
                })
                .collect()
        };
        let series = vec![mk(0.0), mk(0.4), mk(2.0)];
        let dist = pairwise_distances(&series, SeriesDistance::Dtw);
        assert_eq!(dist.shape(), (3, 3));
        for i in 0..3 {
            assert_eq!(dist[(i, i)], 0.0);
        }
        let expected01 =
            (dtw(&series[0][0], &series[1][0]) + dtw(&series[0][1], &series[1][1])) / 2.0;
        assert_eq!(dist[(0, 1)], expected01);
        assert_eq!(dist[(0, 1)], dist[(1, 0)]);
        // Closer phases are closer in DTW.
        assert!(dist[(0, 1)] < dist[(0, 2)]);
    }

    #[test]
    fn pairwise_handles_degenerate_inputs() {
        assert_eq!(pairwise_distances(&[], SeriesDistance::Dtw).shape(), (0, 0));
        let one = vec![vec![vec![1.0, 2.0]]];
        assert_eq!(
            pairwise_distances(&one, SeriesDistance::Dtw).shape(),
            (1, 1)
        );
        // Nodes with no comparable features get distance 0.
        let mixed = vec![vec![vec![1.0, 2.0]], vec![]];
        let d = pairwise_distances(&mixed, SeriesDistance::Dtw);
        assert_eq!(d[(0, 1)], 0.0);
    }

    /// Nine nodes with `features` features each; node 4's third feature
    /// is shorter than the rest, so its first lane group is ragged.
    fn lane_series(features: usize) -> Vec<Vec<Vec<f64>>> {
        (0..9)
            .map(|n| {
                (0..features)
                    .map(|f| {
                        let len = if n == 4 && f == 2 { 33 } else { 40 };
                        (0..len)
                            .map(|t| {
                                ((t + n) as f64 * 0.17 + f as f64 * 0.9).sin() * (n + 1) as f64
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pairwise_is_bitwise_thread_invariant() {
        // 2 features never reach the lane path; 4 is one lane group, 5 a
        // group plus a single-lane remainder.
        let saved = st_tensor::parallel_threshold();
        for features in [2, 4, 5] {
            let series = lane_series(features);
            st_tensor::set_parallel_threshold(usize::MAX);
            let serial = pairwise_distances(&series, SeriesDistance::Dtw);
            // Every entry is the feature-order mean of scalar DTWs.
            for i in 0..9 {
                for j in 0..9 {
                    if i == j {
                        continue;
                    }
                    let mut mean = FiniteMean::default();
                    for (a, b) in series[i].iter().zip(&series[j]) {
                        mean.push(dtw(a, b));
                    }
                    assert_eq!(serial[(i, j)].to_bits(), mean.value().to_bits());
                }
            }
            st_tensor::set_parallel_threshold(1);
            for threads in [1, 2, 4] {
                st_par::set_num_threads(threads);
                let parallel = pairwise_distances(&series, SeriesDistance::Dtw);
                for (a, b) in serial.as_slice().iter().zip(parallel.as_slice()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{features} features, {threads} threads"
                    );
                }
            }
        }
        st_par::set_num_threads(0);
        st_tensor::set_parallel_threshold(saved);
    }

    #[test]
    fn scratch_reuse_is_bit_exact_across_measures_and_lengths() {
        // One scratch serving interleaved measures and series lengths must
        // give the same bits as a fresh scratch per call — stale buffer
        // contents or sizing must never leak into results.
        let series: Vec<Vec<f64>> = (0..6)
            .map(|k| {
                (0..10 + 7 * k)
                    .map(|t| ((t * (k + 1)) as f64 * 0.31).sin() * (k as f64 + 0.5))
                    .collect()
            })
            .collect();
        let measures = [
            SeriesDistance::Dtw,
            SeriesDistance::Erp { gap: 0.25 },
            SeriesDistance::Lcss { epsilon: 0.4 },
        ];
        let mut reused = DistanceScratch::new();
        for x in &series {
            for y in &series {
                for measure in &measures {
                    let with_reuse = measure.compute_with(x, y, &mut reused);
                    let fresh = measure.compute(x, y);
                    assert_eq!(
                        with_reuse.to_bits(),
                        fresh.to_bits(),
                        "{measure:?} diverged under scratch reuse"
                    );
                }
            }
        }
    }

    #[test]
    fn lcss_partial_overlap() {
        let a = [1.0, 5.0, 2.0, 8.0];
        let b = [1.0, 2.0];
        // Subsequence [1, 2] matches fully against the shorter series.
        assert_eq!(lcss(&a, &b, 0.01), 0.0);
    }
}
