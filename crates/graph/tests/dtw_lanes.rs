//! Bit-identity of the lane-interleaved DTW kernel.
//!
//! `dtw_lanes::<L>` must return, lane for lane and bit for bit, what the
//! textbook full-matrix recurrence returns for each lane's series alone —
//! at any length, with non-finite values in a neighbouring lane, under any
//! lane order and under a Sakoe–Chiba band.

use st_check::{prop_assert, prop_assert_eq, prop_assume, Check, Gen};
use st_graph::{dtw, dtw_lanes, dtw_windowed, DistanceScratch};

/// Series lengths the kernel must handle: degenerate, unequal, and the
/// interval lengths temporal-graph construction feeds it.
const LENGTHS: [(usize, usize); 10] = [
    (1, 1),
    (1, 9),
    (7, 1),
    (5, 8),
    (12, 12),
    (36, 36),
    (60, 60),
    (96, 96),
    (120, 120),
    (144, 144),
];

/// Textbook full-matrix DTW (square-rooted), with cells farther than
/// `window` from the diagonal held at +∞; `usize::MAX` means no band.
fn brute(a: &[f64], b: &[f64], window: usize) -> f64 {
    let (n, m) = (a.len(), b.len());
    let w = window.max(n.abs_diff(m));
    let mut dp = vec![vec![f64::INFINITY; m + 1]; n + 1];
    dp[0][0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            if i.abs_diff(j) > w {
                continue;
            }
            let c = (a[i - 1] - b[j - 1]).powi(2);
            dp[i][j] = c + dp[i - 1][j - 1].min(dp[i - 1][j]).min(dp[i][j - 1]);
        }
    }
    dp[n][m].sqrt()
}

/// Four series per side: `(a lanes, b lanes)`.
type Lanes = (Vec<Vec<f64>>, Vec<Vec<f64>>);

fn lanes(g: &mut Gen, n: usize, m: usize) -> Lanes {
    let a = (0..4).map(|_| g.vec_f64(n, -10.0, 10.0)).collect();
    let b = (0..4).map(|_| g.vec_f64(m, -10.0, 10.0)).collect();
    (a, b)
}

fn random_lengths(g: &mut Gen) -> (usize, usize) {
    if g.bool(0.5) {
        *g.choose(&LENGTHS)
    } else {
        (g.usize_in(1, 40), g.usize_in(1, 40))
    }
}

/// Whether the input still has four lanes of one length per side (shrink
/// candidates may break that shape).
fn well_formed((a, b): &Lanes) -> bool {
    a.len() == 4
        && b.len() == 4
        && !a[0].is_empty()
        && !b[0].is_empty()
        && a.iter().all(|s| s.len() == a[0].len())
        && b.iter().all(|s| s.len() == b[0].len())
}

fn interleave(lanes: &[Vec<f64>]) -> Vec<[f64; 4]> {
    (0..lanes[0].len())
        .map(|t| std::array::from_fn(|l| lanes[l][t]))
        .collect()
}

/// Runs the four-lane kernel, reusing a scratch dirtied by a differently
/// sized single-lane call so stale buffer contents would show.
fn run4((a, b): &Lanes, window: usize) -> [f64; 4] {
    let mut scratch = DistanceScratch::new();
    let junk = [[f64::NAN]; 150];
    let _ = dtw_lanes::<1>(&junk[..150], &junk[..3], usize::MAX, &mut scratch);
    dtw_lanes(&interleave(a), &interleave(b), window, &mut scratch)
}

fn check_bits((a, b): &Lanes, got: [f64; 4], window: usize) -> Result<(), String> {
    for l in 0..4 {
        let want = brute(&a[l], &b[l], window);
        prop_assert_eq!(got[l].to_bits(), want.to_bits());
        prop_assert_eq!(dtw_windowed(&a[l], &b[l], window).to_bits(), want.to_bits());
    }
    Ok(())
}

#[test]
fn four_lanes_equal_four_textbook_calls() {
    Check::new("four_lanes_equal_four_textbook_calls")
        .cases(40)
        .run(
            |g| {
                let (n, m) = random_lengths(g);
                lanes(g, n, m)
            },
            |input| {
                prop_assume!(well_formed(input));
                check_bits(input, run4(input, usize::MAX), usize::MAX)?;
                let (a, b) = input;
                prop_assert_eq!(
                    dtw(&a[0], &b[0]).to_bits(),
                    run4(input, usize::MAX)[0].to_bits()
                );
                Ok(())
            },
        );
}

#[test]
fn non_finite_lane_leaves_the_others_untouched() {
    Check::new("non_finite_lane_leaves_the_others_untouched")
        .cases(40)
        .run(
            |g| {
                let (n, m) = random_lengths(g);
                let (mut a, mut b) = lanes(g, n, m);
                let lane = g.index(4);
                let poison = *g.choose(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
                if g.bool(0.5) {
                    let t = g.index(n);
                    a[lane][t] = poison;
                } else {
                    let t = g.index(m);
                    b[lane][t] = poison;
                }
                (a, b)
            },
            |input| {
                prop_assume!(well_formed(input));
                let (a, b) = input;
                let got = run4(input, usize::MAX);
                // Clean lanes must match a kernel call with no poisoned
                // neighbour at all, and the textbook recurrence.
                let mut clean = input.clone();
                for l in 0..4 {
                    if a[l].iter().chain(&b[l]).any(|v| !v.is_finite()) {
                        clean.0[l].fill(0.5);
                        clean.1[l].fill(-0.5);
                    }
                }
                let reference = run4(&clean, usize::MAX);
                for l in 0..4 {
                    let want = brute(&a[l], &b[l], usize::MAX);
                    prop_assert_eq!(got[l].to_bits(), want.to_bits());
                    if clean.0[l] == a[l] {
                        prop_assert_eq!(got[l].to_bits(), reference[l].to_bits());
                    }
                }
                prop_assert!(got.iter().any(|d| !d.is_finite()));
                Ok(())
            },
        );
}

#[test]
fn permuting_lanes_permutes_outputs() {
    const PERMS: [[usize; 4]; 4] = [[1, 0, 3, 2], [3, 2, 1, 0], [2, 3, 0, 1], [1, 2, 3, 0]];
    Check::new("permuting_lanes_permutes_outputs")
        .cases(30)
        .run(
            |g| {
                let (n, m) = random_lengths(g);
                (lanes(g, n, m), g.index(PERMS.len()))
            },
            |(input, p)| {
                prop_assume!(well_formed(input) && *p < PERMS.len());
                let perm = PERMS[*p];
                let (a, b) = input;
                let permuted: Lanes = (
                    perm.iter().map(|&l| a[l].clone()).collect(),
                    perm.iter().map(|&l| b[l].clone()).collect(),
                );
                let got = run4(input, usize::MAX);
                let got_permuted = run4(&permuted, usize::MAX);
                for (slot, &l) in perm.iter().enumerate() {
                    prop_assert_eq!(got_permuted[slot].to_bits(), got[l].to_bits());
                }
                Ok(())
            },
        );
}

#[test]
fn banded_lanes_equal_banded_textbook_calls() {
    Check::new("banded_lanes_equal_banded_textbook_calls")
        .cases(40)
        .run(
            |g| {
                let (n, m) = random_lengths(g);
                // Band widths 0, 1, |n−m| and wider than both series.
                let window = *g.choose(&[0, 1, n.abs_diff(m), n.max(m) + 3]);
                (lanes(g, n, m), window)
            },
            |(input, window)| {
                prop_assume!(well_formed(input));
                check_bits(input, run4(input, *window), *window)
            },
        );
}

#[test]
fn empty_series_give_infinity_in_every_lane() {
    let mut scratch = DistanceScratch::new();
    let one = [[1.0; 4]];
    assert_eq!(
        dtw_lanes(&[], &one, usize::MAX, &mut scratch),
        [f64::INFINITY; 4]
    );
    assert_eq!(dtw_lanes(&one, &[], 0, &mut scratch), [f64::INFINITY; 4]);
}
