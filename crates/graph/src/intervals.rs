//! Daily-timeline interval partitioning (paper Eq. 2).
//!
//! The HGCN builds one temporal graph per time-of-day interval. The paper
//! chooses the `M` interval boundaries by maximising the total pairwise DTW
//! distance between the historical profiles of the intervals, subject to
//! four constraints:
//!
//! 1. every interval is at least `min_len` long (1 hour in the paper),
//! 2. every interval is at most `max_len` long (`Q·T/M`, i.e. ≤ 12 h),
//! 3. the minimum pairwise distance divided by the sum of all pairwise
//!    distances is at most `η` (10%),
//! 4. the longest interval covers less than `γ` (50%) of the day.
//!
//! Boundaries live on a coarse candidate grid (hourly in the paper); on that
//! grid the search space is small enough for exact enumeration with
//! length-constraint pruning. Interval profiles are compressed to
//! grid-resolution means before DTW, which preserves the shape of the
//! objective while keeping the solver fast.
//!
//! The search runs in three passes: enumerate the partitions once, noting
//! the distinct interval pairs they use; compute each pair's distance once,
//! across `st-par` workers, four features per DTW scan; then score the
//! partitions in enumeration order. Every sum keeps its order, so the
//! result is bit-identical for any thread count.

use crate::distance::{fill_with_scratch, DistanceScratch, FiniteMean, LaneNode};
use st_tensor::Matrix;
use std::collections::HashMap;

/// A half-open time-of-day interval `[start, end)` in slot units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First slot covered by the interval.
    pub start: usize,
    /// One past the last slot covered.
    pub end: usize,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "interval must be non-empty: [{start}, {end})");
        Self { start, end }
    }

    /// Interval length in slots.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the interval is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Whether the interval contains the slot.
    pub fn contains(&self, slot: usize) -> bool {
        (self.start..self.end).contains(&slot)
    }

    /// Circular distance (in slots) from a slot to this interval: `0` when
    /// inside, otherwise the shortest wrap-around distance to either
    /// boundary on a day of length `day_len`.
    pub fn circular_distance(&self, slot: usize, day_len: usize) -> usize {
        if self.contains(slot) {
            return 0;
        }
        let to_start = circular_gap(slot, self.start, day_len);
        let to_end = circular_gap(slot, self.end - 1, day_len);
        to_start.min(to_end)
    }
}

fn circular_gap(a: usize, b: usize, day_len: usize) -> usize {
    let d = a.abs_diff(b) % day_len;
    d.min(day_len - d)
}

/// Configuration for [`partition_day`].
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalConfig {
    /// Number of intervals `M`.
    pub num_intervals: usize,
    /// Slots in one day (288 for 5-minute data).
    pub slots_per_day: usize,
    /// Candidate-boundary granularity in slots (12 = hourly at 5-minute
    /// resolution).
    pub candidate_step: usize,
    /// Minimum interval length in slots (paper: 1 hour).
    pub min_len: usize,
    /// Maximum interval length in slots (paper: `Q·T/M`, capped at 12 h).
    pub max_len: usize,
    /// Maximum ratio of the minimum pairwise distance to the distance sum.
    pub eta: f64,
    /// Maximum fraction of the day covered by the longest interval.
    pub gamma: f64,
}

impl IntervalConfig {
    /// Paper defaults for `m` intervals on 5-minute data: hourly candidate
    /// boundaries, 1-hour minimum, `min(2·24/M, 12)`-hour maximum, η = 0.1,
    /// γ = 0.5.
    pub fn paper_defaults(m: usize) -> Self {
        let slots_per_day = 288;
        let hour = 12;
        let max_hours = (2.0 * 24.0 / m.max(1) as f64).ceil() as usize;
        Self {
            num_intervals: m,
            slots_per_day,
            candidate_step: hour,
            min_len: hour,
            max_len: hour * max_hours.clamp(1, 12),
            eta: 0.1,
            gamma: 0.5,
        }
    }
}

impl Default for IntervalConfig {
    fn default() -> Self {
        Self::paper_defaults(4)
    }
}

/// Result of [`partition_day`].
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// The chosen intervals, covering `[0, slots_per_day)` in order.
    pub intervals: Vec<Interval>,
    /// Total pairwise distance of the chosen partition.
    pub score: f64,
    /// Whether all four paper constraints were satisfiable; when `false`
    /// the result is the best partition under the length constraints only
    /// (or a uniform split as the last resort).
    pub constraints_satisfied: bool,
}

/// Partitions the day into `cfg.num_intervals` intervals maximising the sum
/// of pairwise DTW distances between interval profiles (paper Eq. 2).
///
/// `node_profiles` holds one `slots_per_day × D` historical-average profile
/// per node (see `st-data`'s profile builder). Interval distance is the mean
/// over nodes and features of the DTW distance between the interval's
/// grid-compressed sub-profiles.
///
/// With `num_intervals == 1` the whole day is returned directly (used by the
/// Figure-4 ablation); the γ constraint cannot hold in that case and
/// `constraints_satisfied` is reported accordingly.
///
/// # Examples
///
/// ```
/// use st_graph::{partition_day, IntervalConfig};
/// use st_tensor::Matrix;
///
/// // A day that is quiet before noon and busy after.
/// let profile = Matrix::from_fn(288, 1, |r, _| if r < 144 { 0.0 } else { 10.0 });
/// let mut cfg = IntervalConfig::paper_defaults(2);
/// cfg.gamma = 0.55;
/// let partition = partition_day(&[profile], &cfg);
/// assert_eq!(partition.intervals[0].end, 144); // split found at noon
/// ```
///
/// # Panics
///
/// Panics if `node_profiles` is empty, a profile has the wrong number of
/// rows, `num_intervals == 0`, or the candidate grid cannot host the
/// requested number of intervals.
pub fn partition_day(node_profiles: &[Matrix], cfg: &IntervalConfig) -> Partition {
    assert!(!node_profiles.is_empty(), "need at least one node profile");
    assert!(cfg.num_intervals >= 1, "need at least one interval");
    assert!(cfg.candidate_step >= 1, "candidate step must be positive");
    assert_eq!(
        cfg.slots_per_day % cfg.candidate_step,
        0,
        "slots_per_day must be a multiple of candidate_step"
    );
    for p in node_profiles {
        assert_eq!(
            p.rows(),
            cfg.slots_per_day,
            "profile must have slots_per_day rows"
        );
    }

    if cfg.num_intervals == 1 {
        let whole = Interval::new(0, cfg.slots_per_day);
        return Partition {
            intervals: vec![whole],
            score: 0.0,
            // γ < 1 can never hold for a single interval spanning the day.
            constraints_satisfied: cfg.gamma >= 1.0,
        };
    }

    let grid = cfg.slots_per_day / cfg.candidate_step;
    assert!(
        cfg.num_intervals <= grid,
        "cannot split {} grid cells into {} intervals",
        grid,
        cfg.num_intervals
    );

    // Compress profiles to the candidate grid once (one mean per grid cell
    // and feature), interleaving each node's features into lane groups.
    let columns: Vec<Vec<Vec<f64>>> = node_profiles
        .iter()
        .map(|p| compress_profile(p, cfg.candidate_step))
        .collect();
    let nodes: Vec<LaneNode<'_>> = columns.iter().map(|c| LaneNode::new(c)).collect();

    let min_cells = cfg.min_len.div_ceil(cfg.candidate_step);
    let max_cells = (cfg.max_len / cfg.candidate_step).max(min_cells);

    // Pass 1: depth-first enumeration of grid partitions with length
    // pruning, recording each partition's interval pairs as indices into
    // the distinct pairs, which are kept in first-seen order.
    let m = cfg.num_intervals;
    let mut partitions: Vec<Interval> = Vec::new();
    let mut pair_ids: Vec<usize> = Vec::new();
    let mut pairs: Vec<(Interval, Interval)> = Vec::new();
    let mut index: HashMap<(Interval, Interval), usize> = HashMap::new();
    let mut stack: Vec<Interval> = Vec::with_capacity(m);
    enumerate(
        0,
        grid,
        m,
        min_cells.max(1),
        max_cells,
        &mut stack,
        &mut |intervals| {
            partitions.extend_from_slice(intervals);
            for i in 0..intervals.len() {
                for j in i + 1..intervals.len() {
                    let key = (intervals[i], intervals[j]);
                    let id = *index.entry(key).or_insert_with(|| {
                        pairs.push(key);
                        pairs.len() - 1
                    });
                    pair_ids.push(id);
                }
            }
        },
    );

    // Pass 2: every distinct pair's distance, across st-par workers.
    let features: usize = columns.iter().map(Vec::len).sum();
    let work = pairs
        .len()
        .saturating_mul(features)
        .saturating_mul(max_cells * max_cells);
    let mut distances = vec![0.0; pairs.len()];
    fill_with_scratch(&mut distances, work, |k, scratch| {
        interval_distance(pairs[k], &nodes, scratch)
    });

    // Pass 3: score the partitions in enumeration order.
    let mut best_any: Option<(&[Interval], f64)> = None;
    let mut best_ok: Option<(&[Interval], f64)> = None;
    for (intervals, ids) in partitions.chunks(m).zip(pair_ids.chunks(m * (m - 1) / 2)) {
        let (score, min_pair) = partition_score(ids, &distances);
        let longest = intervals.iter().map(Interval::len).max().unwrap_or(0);
        // Grid units here; γ compares against the whole day in grid cells.
        let gamma_ok = (longest as f64) < cfg.gamma * grid as f64;
        let eta_ok = score <= 0.0 || min_pair / score <= cfg.eta + 1e-12;
        if best_any.is_none_or(|(_, s)| score > s) {
            best_any = Some((intervals, score));
        }
        if gamma_ok && eta_ok && best_ok.is_none_or(|(_, s)| score > s) {
            best_ok = Some((intervals, score));
        }
    }

    let (chosen, score, ok) = match (best_ok, best_any) {
        (Some((iv, s)), _) => (iv.to_vec(), s, true),
        (None, Some((iv, s))) => (iv.to_vec(), s, false),
        (None, None) => {
            // No partition satisfied even the length constraints: uniform split.
            let cells = grid / cfg.num_intervals;
            let iv: Vec<Interval> = (0..cfg.num_intervals)
                .map(|i| {
                    let start = i * cells;
                    let end = if i + 1 == cfg.num_intervals {
                        grid
                    } else {
                        (i + 1) * cells
                    };
                    Interval::new(start, end)
                })
                .collect();
            (iv, 0.0, false)
        }
    };

    // Scale grid cells back to slots.
    let intervals = chosen
        .iter()
        .map(|iv| Interval::new(iv.start * cfg.candidate_step, iv.end * cfg.candidate_step))
        .collect();
    Partition {
        intervals,
        score,
        constraints_satisfied: ok,
    }
}

fn enumerate(
    start: usize,
    grid: usize,
    remaining: usize,
    min_cells: usize,
    max_cells: usize,
    stack: &mut Vec<Interval>,
    visit: &mut impl FnMut(&[Interval]),
) {
    if remaining == 1 {
        let len = grid - start;
        if len >= min_cells && len <= max_cells {
            stack.push(Interval::new(start, grid));
            visit(stack);
            stack.pop();
        }
        return;
    }
    // Remaining intervals bound the feasible lengths for this one.
    let others_min = (remaining - 1) * min_cells;
    let hi = max_cells.min(grid.saturating_sub(start + others_min));
    for len in min_cells..=hi {
        stack.push(Interval::new(start, start + len));
        enumerate(
            start + len,
            grid,
            remaining - 1,
            min_cells,
            max_cells,
            stack,
            visit,
        );
        stack.pop();
    }
}

/// A partition's total and minimum pairwise distance, summed in the order
/// its pairs were enumerated.
fn partition_score(pair_ids: &[usize], distances: &[f64]) -> (f64, f64) {
    let mut total = 0.0;
    let mut min_pair = f64::INFINITY;
    for &id in pair_ids {
        let d = distances[id];
        total += d;
        min_pair = min_pair.min(d);
    }
    if !min_pair.is_finite() {
        min_pair = 0.0;
    }
    (total, min_pair)
}

/// Mean finite DTW distance over nodes and features between two intervals
/// of the grid-compressed profiles.
fn interval_distance(
    (a, b): (Interval, Interval),
    nodes: &[LaneNode<'_>],
    scratch: &mut DistanceScratch,
) -> f64 {
    let (ra, rb) = (a.start..a.end, b.start..b.end);
    let mut mean = FiniteMean::default();
    for node in nodes {
        node.push_dtws(node, Some((&ra, &rb)), scratch, &mut mean);
    }
    mean.value()
}

/// Compresses a `slots × D` profile to one mean per `step`-slot cell,
/// returned per feature.
fn compress_profile(profile: &Matrix, step: usize) -> Vec<Vec<f64>> {
    let cells = profile.rows() / step;
    (0..profile.cols())
        .map(|d| {
            (0..cells)
                .map(|cell| {
                    let mut acc = 0.0;
                    for r in cell * step..(cell + 1) * step {
                        acc += profile[(r, d)];
                    }
                    acc / step as f64
                })
                .collect()
        })
        .collect()
}

/// Result of [`partition_day_circular`]: the best rotation of the daily
/// cycle plus the partition found at that rotation.
///
/// The paper notes that a better division "could be possible if we form the
/// timeline into a circle so that the first interval does not necessarily
/// start from 00:00" and leaves it as future work — this implements it.
/// Interval coordinates are *rotated*: slot `s` of the original day maps to
/// `(s + day_len − offset) % day_len` in the partition's coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CircularPartition {
    /// Rotation offset in slots: the partition's slot 0 corresponds to the
    /// original day's slot `offset`.
    pub offset: usize,
    /// The partition in rotated coordinates.
    pub partition: Partition,
}

/// Circular variant of [`partition_day`]: additionally searches over the
/// rotation of the daily cycle, so the first interval need not start at
/// midnight (the paper's future-work extension).
///
/// Rotations are searched on the candidate grid. Returns the rotation with
/// the highest-scoring constraint-satisfying partition (falling back to the
/// best overall if no rotation satisfies the constraints).
///
/// # Panics
///
/// As [`partition_day`].
pub fn partition_day_circular(node_profiles: &[Matrix], cfg: &IntervalConfig) -> CircularPartition {
    assert!(!node_profiles.is_empty(), "need at least one node profile");
    let slots = cfg.slots_per_day;
    let mut best: Option<CircularPartition> = None;
    for grid_offset in 0..(slots / cfg.candidate_step) {
        let offset = grid_offset * cfg.candidate_step;
        // Rotate every profile so the candidate origin becomes slot 0.
        let rotated: Vec<Matrix> = node_profiles
            .iter()
            .map(|p| Matrix::from_fn(p.rows(), p.cols(), |r, c| p[((r + offset) % slots, c)]))
            .collect();
        let partition = partition_day(&rotated, cfg);
        let candidate = CircularPartition { offset, partition };
        let better = match &best {
            None => true,
            Some(b) => {
                let cand = &candidate.partition;
                let curr = &b.partition;
                (cand.constraints_satisfied, cand.score) > (curr.constraints_satisfied, curr.score)
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best.expect("at least one rotation is evaluated")
}

/// Soft membership weights of a time-of-day slot over a set of intervals:
/// `softmax(−dist_i / tau)` with circular slot distance.
///
/// Used by the HGCN to weight each temporal graph's output for a sample at
/// a given time of day: the graph whose interval contains the slot dominates
/// while neighbouring intervals receive smoothly decaying weight.
///
/// # Panics
///
/// Panics if `intervals` is empty or `tau <= 0`.
pub fn interval_weights(slot: usize, intervals: &[Interval], day_len: usize, tau: f64) -> Vec<f64> {
    assert!(!intervals.is_empty(), "need at least one interval");
    assert!(tau > 0.0, "tau must be positive");
    let logits: Vec<f64> = intervals
        .iter()
        .map(|iv| -(iv.circular_distance(slot % day_len, day_len) as f64) / tau)
        .collect();
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase_profile(slots: usize) -> Matrix {
        // Low values in the first half of the day, high in the second: the
        // optimal 2-way split is at noon.
        Matrix::from_fn(slots, 1, |r, _| if r < slots / 2 { 0.0 } else { 10.0 })
    }

    #[test]
    fn interval_basics() {
        let iv = Interval::new(10, 20);
        assert_eq!(iv.len(), 10);
        assert!(iv.contains(10));
        assert!(!iv.contains(20));
        assert!(!iv.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn interval_rejects_empty() {
        let _ = Interval::new(5, 5);
    }

    #[test]
    fn circular_distance_wraps() {
        let iv = Interval::new(0, 12);
        // Slot 280 on a 288-slot day is 8 slots before midnight.
        assert_eq!(iv.circular_distance(280, 288), 8);
        assert_eq!(iv.circular_distance(5, 288), 0);
        // Nearest member slot of [0, 12) to slot 20 is slot 11 → 9 steps.
        assert_eq!(iv.circular_distance(20, 288), 9);
    }

    #[test]
    fn single_interval_shortcut() {
        let profiles = [two_phase_profile(288)];
        let cfg = IntervalConfig {
            num_intervals: 1,
            ..IntervalConfig::paper_defaults(1)
        };
        let p = partition_day(&profiles, &cfg);
        assert_eq!(p.intervals, vec![Interval::new(0, 288)]);
        assert!(!p.constraints_satisfied); // γ = 0.5 cannot hold.
    }

    #[test]
    fn two_way_split_finds_the_phase_change() {
        let profiles = [two_phase_profile(288)];
        let mut cfg = IntervalConfig::paper_defaults(2);
        cfg.gamma = 0.55; // Each half is exactly 50%; relax slightly.
        let p = partition_day(&profiles, &cfg);
        assert_eq!(p.intervals.len(), 2);
        // The split should land exactly at noon (slot 144).
        assert_eq!(p.intervals[0].end, 144);
        assert!(p.score > 0.0);
    }

    #[test]
    fn partition_covers_day_without_gaps() {
        let profiles = [two_phase_profile(288)];
        for m in [2usize, 3, 4, 6] {
            let p = partition_day(&profiles, &IntervalConfig::paper_defaults(m));
            assert_eq!(p.intervals.len(), m, "m={m}");
            assert_eq!(p.intervals[0].start, 0);
            assert_eq!(p.intervals.last().unwrap().end, 288);
            for w in p.intervals.windows(2) {
                assert_eq!(w[0].end, w[1].start, "gap at m={m}");
            }
        }
    }

    #[test]
    fn length_constraints_hold() {
        let profiles = [two_phase_profile(288)];
        let cfg = IntervalConfig::paper_defaults(4);
        let p = partition_day(&profiles, &cfg);
        for iv in &p.intervals {
            assert!(iv.len() >= cfg.min_len, "interval too short: {iv:?}");
            assert!(iv.len() <= cfg.max_len, "interval too long: {iv:?}");
        }
    }

    #[test]
    fn gamma_constraint_limits_longest_interval() {
        let profiles = [two_phase_profile(288)];
        let mut cfg = IntervalConfig::paper_defaults(3);
        cfg.gamma = 0.4;
        let p = partition_day(&profiles, &cfg);
        if p.constraints_satisfied {
            let longest = p.intervals.iter().map(Interval::len).max().unwrap();
            assert!((longest as f64) < 0.4 * 288.0);
        }
    }

    #[test]
    fn boundaries_are_grid_aligned() {
        let profiles = [two_phase_profile(288)];
        let cfg = IntervalConfig::paper_defaults(4);
        let p = partition_day(&profiles, &cfg);
        for iv in &p.intervals {
            assert_eq!(iv.start % cfg.candidate_step, 0);
            assert_eq!(iv.end % cfg.candidate_step, 0);
        }
    }

    #[test]
    fn flat_profile_yields_zero_score() {
        let profiles = [Matrix::zeros(288, 1)];
        let p = partition_day(&profiles, &IntervalConfig::paper_defaults(3));
        assert_eq!(p.score, 0.0);
    }

    #[test]
    fn circular_partition_at_least_as_good_as_fixed() {
        // A pattern whose natural boundary is NOT midnight: phases switch at
        // 6:00 and 18:00.
        let profile = Matrix::from_fn(
            288,
            1,
            |r, _| {
                if (72..216).contains(&r) {
                    10.0
                } else {
                    0.0
                }
            },
        );
        let mut cfg = IntervalConfig::paper_defaults(2);
        cfg.gamma = 0.55;
        let fixed = partition_day(&[profile.clone()], &cfg);
        let circular = partition_day_circular(&[profile], &cfg);
        assert!(
            circular.partition.score >= fixed.score - 1e-9,
            "circular {} must not lose to fixed {}",
            circular.partition.score,
            fixed.score
        );
        // The best rotation should align a boundary with the 6:00 edge.
        assert_eq!(circular.offset % 72, 0, "offset was {}", circular.offset);
    }

    #[test]
    fn interval_weights_sum_to_one_and_prefer_containing_interval() {
        let intervals = vec![Interval::new(0, 100), Interval::new(100, 288)];
        let w = interval_weights(50, &intervals, 288, 4.0);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1]);
        let w2 = interval_weights(200, &intervals, 288, 4.0);
        assert!(w2[1] > w2[0]);
    }

    #[test]
    fn interval_weights_wrap_midnight() {
        let intervals = vec![Interval::new(0, 24), Interval::new(24, 288)];
        // Slot 287 is circularly adjacent to interval 0's start but inside
        // interval 1, so interval 1 must still dominate.
        let w = interval_weights(287, &intervals, 288, 2.0);
        assert!(w[1] > w[0]);
    }
}
