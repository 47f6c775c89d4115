//! Property-based tests for the interval-partitioning solver.

use st_check::{prop_assert, prop_assert_eq, prop_assume, Check, Gen};
use st_graph::{partition_day, partition_day_circular, Interval, IntervalConfig};
use st_tensor::Matrix;

/// Expands 24 generated hourly levels to a smooth 288-slot day profile.
fn profile_from_hourly(hourly: &[f64]) -> Matrix {
    Matrix::from_fn(288, 1, |r, _| {
        let h = r / 12;
        let next = (h + 1) % 24;
        let frac = (r % 12) as f64 / 12.0;
        hourly[h] * (1.0 - frac) + hourly[next] * frac
    })
}

fn hourly_and_m(g: &mut Gen, m_hi: usize) -> (Vec<f64>, usize) {
    (g.vec_f64(24, 0.0, 100.0), g.usize_in(2, m_hi))
}

#[test]
fn partition_always_covers_day() {
    Check::new("partition_always_covers_day").cases(24).run(
        |g| hourly_and_m(g, 6),
        |(hourly, m)| {
            prop_assume!(hourly.len() == 24 && (2..6).contains(m));
            let profile = profile_from_hourly(hourly);
            let cfg = IntervalConfig::paper_defaults(*m);
            let p = partition_day(&[profile], &cfg);
            prop_assert_eq!(p.intervals.len(), *m);
            prop_assert_eq!(p.intervals[0].start, 0);
            prop_assert_eq!(p.intervals.last().unwrap().end, 288);
            for w in p.intervals.windows(2) {
                prop_assert_eq!(w[0].end, w[1].start);
            }
            Ok(())
        },
    );
}

#[test]
fn partition_respects_length_bounds() {
    Check::new("partition_respects_length_bounds")
        .cases(24)
        .run(
            |g| hourly_and_m(g, 6),
            |(hourly, m)| {
                prop_assume!(hourly.len() == 24 && (2..6).contains(m));
                let profile = profile_from_hourly(hourly);
                let cfg = IntervalConfig::paper_defaults(*m);
                let p = partition_day(&[profile], &cfg);
                for iv in &p.intervals {
                    prop_assert!(iv.len() >= cfg.min_len);
                    prop_assert!(iv.len() <= cfg.max_len);
                    prop_assert_eq!(iv.start % cfg.candidate_step, 0);
                }
                Ok(())
            },
        );
}

#[test]
fn score_is_nonnegative_and_finite() {
    Check::new("score_is_nonnegative_and_finite").cases(24).run(
        |g| hourly_and_m(g, 5),
        |(hourly, m)| {
            prop_assume!(hourly.len() == 24 && (2..5).contains(m));
            let profile = profile_from_hourly(hourly);
            let cfg = IntervalConfig::paper_defaults(*m);
            let p = partition_day(&[profile], &cfg);
            prop_assert!(p.score.is_finite());
            prop_assert!(p.score >= 0.0);
            Ok(())
        },
    );
}

#[test]
fn circular_never_worse_than_fixed() {
    Check::new("circular_never_worse_than_fixed").cases(24).run(
        |g| hourly_and_m(g, 4),
        |(hourly, m)| {
            prop_assume!(hourly.len() == 24 && (2..4).contains(m));
            let profile = profile_from_hourly(hourly);
            let cfg = IntervalConfig::paper_defaults(*m);
            let fixed = partition_day(&[profile.clone()], &cfg);
            let circ = partition_day_circular(&[profile], &cfg);
            // Offset 0 is in the search space, so a constraint-satisfying fixed
            // solution can never beat the circular optimum.
            if fixed.constraints_satisfied {
                prop_assert!(circ.partition.score >= fixed.score - 1e-9);
            }
            prop_assert!(circ.offset < 288);
            Ok(())
        },
    );
}

#[test]
fn interval_weights_cover_every_slot() {
    Check::new("interval_weights_cover_every_slot")
        .cases(24)
        .run(
            |g| g.usize_in(0, 288),
            |&slot| {
                prop_assume!(slot < 288);
                let intervals = vec![
                    Interval::new(0, 120),
                    Interval::new(120, 204),
                    Interval::new(204, 288),
                ];
                let w = st_graph::interval_weights(slot, &intervals, 288, 6.0);
                prop_assert_eq!(w.len(), 3);
                prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                Ok(())
            },
        );
}

/// Three nodes with five features each, so the interval search runs one
/// lane group plus a single-lane remainder per node.
fn multi_feature_profiles(g: &mut Gen) -> Vec<Matrix> {
    (0..3)
        .map(|_| {
            let hourly = g.vec_f64(24 * 5, 0.0, 100.0);
            Matrix::from_fn(288, 5, |r, c| {
                let h = r / 12;
                let frac = (r % 12) as f64 / 12.0;
                hourly[c * 24 + h] * (1.0 - frac) + hourly[c * 24 + (h + 1) % 24] * frac
            })
        })
        .collect()
}

#[test]
fn partition_is_bitwise_thread_and_threshold_invariant() {
    let saved = st_tensor::parallel_threshold();
    let mut g = Gen::new(17);
    for m in [2, 3, 4] {
        let profiles = multi_feature_profiles(&mut g);
        let cfg = IntervalConfig::paper_defaults(m);
        let mut runs = Vec::new();
        for threshold in [usize::MAX, 1] {
            for threads in [1, 4] {
                st_tensor::set_parallel_threshold(threshold);
                st_par::set_num_threads(threads);
                let fixed = partition_day(&profiles, &cfg);
                // The circular search repeats the fixed one per rotation;
                // run it only where that stays cheap.
                let circular = (m < 4).then(|| partition_day_circular(&profiles, &cfg));
                runs.push((
                    fixed.intervals,
                    fixed.score.to_bits(),
                    fixed.constraints_satisfied,
                    circular.map(|c| {
                        let p = c.partition;
                        (
                            c.offset,
                            p.intervals,
                            p.score.to_bits(),
                            p.constraints_satisfied,
                        )
                    }),
                ));
            }
        }
        for run in &runs[1..] {
            assert_eq!(run, &runs[0], "m = {m}");
        }
    }
    st_par::set_num_threads(0);
    st_tensor::set_parallel_threshold(saved);
}
