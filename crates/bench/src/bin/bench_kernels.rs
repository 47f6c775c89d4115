//! Scoreboard for the compute kernels: GFLOP/s of the blocked matmul
//! microkernels and ns per DP cell of the lane-interleaved DTW kernel.
//!
//! Times the cache-blocked packed-panel kernels (`matmul`, `matmul_tn`,
//! `matmul_nt`) against the retained naive triple-loop references at
//! model-relevant shapes, reports GFLOP/s per kernel per shape next to a
//! measured roofline estimate, times `dtw_lanes` at one and four lanes at
//! the interval lengths temporal-graph construction feeds it, and writes
//! the results to a JSON report (default `BENCH_kernels.json`).
//!
//! ```text
//! cargo run --release -p rihgcn-bench --bin bench_kernels -- [--smoke] [--out FILE]
//! ```
//!
//! Before timing anything the binary proves correctness: every kernel ×
//! shape is checked bit-identical to its naive reference at 1, 2 and 4
//! worker threads (with the parallel threshold forced low so the banded
//! path actually runs), and at every DTW length the four-lane kernel and
//! the pairwise sweep built on it are checked bit-identical to one-lane
//! scans at 1, 2 and 4 threads. Exits non-zero on any bit divergence, any
//! non-finite metric, or — outside `--smoke` — a blocked-vs-naive matmul
//! speedup below 4× at a model shape or a four-lane DTW under 2× the
//! one-lane throughput per DP cell.
//!
//! Roofline methodology (see DESIGN.md §10): the compute roof is measured,
//! not assumed — a register-resident multiply-add sweep in the same
//! mul-then-add (no FMA) style as the microkernels; the memory roof comes
//! from a streaming sum over a cache-busting array. Each shape's roofline
//! is `min(compute roof, bandwidth × arithmetic intensity)` with intensity
//! computed from compulsory traffic `8·(m·k + k·n + 2·m·n)` bytes.

use rihgcn_bench::timing::{percentile, Runner};
use st_graph::{dtw, dtw_lanes, pairwise_distances, DistanceScratch, SeriesDistance};
use st_tensor::Matrix;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Speedup floor enforced at model shapes outside `--smoke`.
const MIN_MODEL_SPEEDUP: f64 = 4.0;

/// Floor on the four-lane DTW's per-cell throughput over one lane, enforced
/// outside `--smoke`.
const MIN_DTW_LANE_SPEEDUP: f64 = 2.0;

/// DTW series lengths: the N=207 workloads' interval lengths in slots.
const DTW_LENGTHS: [usize; 3] = [12, 60, 120];

/// One benchmarked problem size: `out (m×n) = lhs (m×k) · rhs (k×n)`.
struct Shape {
    /// Report label; encodes which model matmul the shape stands in for.
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    /// Whether this is a "model size" the ≥4× gate applies to.
    model: bool,
}

/// Shapes taken from the RIHGCN forward/backward pass: the bench_step
/// smoke model (8 nodes), the hidden-dim GCN products, PeMS-scale
/// (207 nodes) Chebyshev propagation and imputation blocks, and the
/// widened `(N, B·F)` right operands the batched forecast path feeds the
/// same kernels (`batch_*`, B ∈ {1, 4, 16}).
const SHAPES: &[Shape] = &[
    Shape {
        name: "step_8x8x16",
        m: 8,
        k: 8,
        n: 16,
        model: false,
    },
    Shape {
        name: "gcn_64x64x64",
        m: 64,
        k: 64,
        n: 64,
        model: true,
    },
    Shape {
        name: "cheb_207x207x64",
        m: 207,
        k: 207,
        n: 64,
        model: true,
    },
    Shape {
        name: "imputation_207x76x64",
        m: 207,
        k: 76,
        n: 64,
        model: true,
    },
    Shape {
        name: "batch1_207x76x64",
        m: 207,
        k: 76,
        n: 64,
        model: false,
    },
    Shape {
        name: "batch4_207x76x256",
        m: 207,
        k: 76,
        n: 256,
        model: false,
    },
    Shape {
        name: "batch16_207x76x1024",
        m: 207,
        k: 76,
        n: 1024,
        model: false,
    },
];

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_kernels.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_kernels [--smoke] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Deterministic operand with entries spanning magnitudes and exact zeros,
/// so bit comparisons are sensitive to reassociation and zero-skipping.
fn operand(seed: u64, r: usize, c: usize) -> Matrix {
    let mut rng = st_tensor::rng(seed);
    Matrix::from_fn(r, c, |i, j| {
        if (i + 2 * j) % 11 == 0 {
            0.0
        } else {
            (rng.gen_f64() - 0.5) * 10f64.powi((rng.next_u64() % 7) as i32 - 3)
        }
    })
}

/// The three product kernels under test.
#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    Nn,
    Tn,
    Nt,
}

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Nn => "matmul",
            Kernel::Tn => "matmul_tn",
            Kernel::Nt => "matmul_nt",
        }
    }

    /// Operands shaped so the output is `m×n` with reduction depth `k`.
    fn operands(self, s: &Shape) -> (Matrix, Matrix) {
        match self {
            Kernel::Nn => (operand(1, s.m, s.k), operand(2, s.k, s.n)),
            Kernel::Tn => (operand(3, s.k, s.m), operand(4, s.k, s.n)),
            Kernel::Nt => (operand(5, s.m, s.k), operand(6, s.n, s.k)),
        }
    }

    fn blocked(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Kernel::Nn => a.matmul(b),
            Kernel::Tn => a.matmul_tn(b),
            Kernel::Nt => a.matmul_nt(b),
        }
    }

    fn naive(self, a: &Matrix, b: &Matrix) -> Matrix {
        match self {
            Kernel::Nn => a.matmul_naive(b),
            Kernel::Tn => a.matmul_tn_naive(b),
            Kernel::Nt => a.matmul_nt_naive(b),
        }
    }
}

const KERNELS: [Kernel; 3] = [Kernel::Nn, Kernel::Tn, Kernel::Nt];

/// Checks every kernel × shape bit-identical to naive at 1, 2 and 4 worker
/// threads; exits non-zero on divergence.
fn verify_bit_identity() {
    let saved = st_tensor::parallel_threshold();
    st_tensor::set_parallel_threshold(1); // force the banded parallel path
    for shape in SHAPES {
        for kernel in KERNELS {
            let (a, b) = kernel.operands(shape);
            let reference = kernel.naive(&a, &b);
            for threads in [1usize, 2, 4] {
                st_par::set_num_threads(threads);
                let got = kernel.blocked(&a, &b);
                for (idx, (x, y)) in got.as_slice().iter().zip(reference.as_slice()).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        eprintln!(
                            "FAIL: {} {} diverged from naive at {threads} threads \
                             (element {idx}: {x} vs {y})",
                            kernel.name(),
                            shape.name
                        );
                        std::process::exit(1);
                    }
                }
            }
        }
    }
    st_par::set_num_threads(0);
    st_tensor::set_parallel_threshold(saved);
}

/// Four deterministic feature series of one node for the DTW rows, with
/// distinct shapes and scales per lane.
fn dtw_node(node: usize, len: usize) -> Vec<Vec<f64>> {
    (0..4)
        .map(|f| {
            (0..len)
                .map(|t| {
                    ((t + 3 * node) as f64 * (0.07 + 0.03 * f as f64)).sin() * (1 + f + node) as f64
                })
                .collect()
        })
        .collect()
}

/// Lane-major interleaving of four series of one length.
fn interleave(lanes: &[Vec<f64>]) -> Vec<[f64; 4]> {
    (0..lanes[0].len())
        .map(|t| std::array::from_fn(|l| lanes[l][t]))
        .collect()
}

/// Checks at every DTW length that the four-lane kernel equals four
/// one-lane scans, and that the pairwise sweep (which runs the lanes) equals
/// the feature-mean of one-lane scans at 1, 2 and 4 worker threads; exits
/// non-zero on divergence.
fn verify_dtw_bit_identity() {
    let saved = st_tensor::parallel_threshold();
    st_tensor::set_parallel_threshold(1); // force the parallel pair sweep
    for len in DTW_LENGTHS {
        let series: Vec<Vec<Vec<f64>>> = (0..6).map(|node| dtw_node(node, len)).collect();
        let mut scratch = DistanceScratch::new();
        let lanes = dtw_lanes(
            &interleave(&series[0]),
            &interleave(&series[1]),
            usize::MAX,
            &mut scratch,
        );
        for (l, d) in lanes.iter().enumerate() {
            if d.to_bits() != dtw(&series[0][l], &series[1][l]).to_bits() {
                eprintln!("FAIL: dtw_lanes::<4> lane {l} diverged from one lane at length {len}");
                std::process::exit(1);
            }
        }
        for threads in [1usize, 2, 4] {
            st_par::set_num_threads(threads);
            let dist = pairwise_distances(&series, SeriesDistance::Dtw);
            for i in 0..series.len() {
                for j in (0..series.len()).filter(|&j| j != i) {
                    let scalar = (0..4).map(|f| dtw(&series[i][f], &series[j][f]));
                    let want = scalar.sum::<f64>() / 4.0;
                    if dist[(i, j)].to_bits() != want.to_bits() {
                        eprintln!(
                            "FAIL: pairwise DTW ({i}, {j}) at length {len} diverged from one-lane \
                             scans at {threads} threads"
                        );
                        std::process::exit(1);
                    }
                }
            }
        }
    }
    st_par::set_num_threads(0);
    st_tensor::set_parallel_threshold(saved);
}

struct DtwRow {
    length: usize,
    ns_per_lane_cell_l1: f64,
    ns_per_lane_cell_l4: f64,
    lane_speedup: f64,
}

/// Times one DTW of two nodes' four features as four one-lane scans and as
/// one four-lane scan, per DP cell of one lane. The two sides alternate
/// sample by sample and the speedup is the median of the per-sample
/// ratios, so load from other processes on the host hits both sides alike.
fn bench_dtw(samples: usize, sample_ms: u64, len: usize) -> DtwRow {
    let (a, b) = (dtw_node(0, len), dtw_node(1, len));
    let (a4, b4) = (interleave(&a), interleave(&b));
    let (mut s1, mut s4) = (DistanceScratch::new(), DistanceScratch::new());
    let mut one = || {
        let mut out = [0.0; 4];
        for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(&b)) {
            let (x, y) = (black_box(x.as_chunks().0), black_box(y.as_chunks().0));
            *o = dtw_lanes::<1>(x, y, usize::MAX, &mut s1)[0];
        }
        out
    };
    let mut four = || dtw_lanes(black_box(&a4), black_box(&b4), usize::MAX, &mut s4);
    // Seconds per call over `iters` calls.
    fn time<T>(f: &mut impl FnMut() -> T, iters: u32) -> f64 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed().as_secs_f64() / f64::from(iters)
    }
    let once = time(&mut one, 1).max(1e-9);
    let iters = ((sample_ms as f64 * 1e-3 / once) as u32).clamp(1, 1_000_000);
    time(&mut one, iters);
    time(&mut four, iters);
    let (mut t1, mut t4, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        let (x, y) = (time(&mut one, iters), time(&mut four, iters));
        t1.push(x);
        t4.push(y);
        ratios.push(x / y);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.5)
    };
    let lane_cells = (4 * len * len) as f64;
    let row = DtwRow {
        length: len,
        ns_per_lane_cell_l1: median(t1) * 1e9 / lane_cells,
        ns_per_lane_cell_l4: median(t4) * 1e9 / lane_cells,
        lane_speedup: median(ratios),
    };
    println!(
        "dtw/{len}: L1 {:.3} ns/lane-cell, L4 {:.3} ns/lane-cell, {:.2}x ({samples} paired samples)",
        row.ns_per_lane_cell_l1, row.ns_per_lane_cell_l4, row.lane_speedup
    );
    row
}

/// Measured compute roof: a register-resident multiply-add sweep in the
/// same scalar-`mul`-then-`add` (no FMA) style the microkernels compile to.
fn measure_peak_gflops(runner: &mut Runner) -> f64 {
    const LANES: usize = 16;
    const INNER: usize = 2048;
    let r = runner.bench("roof/muladd_peak", || {
        let mut acc = [0.0f64; LANES];
        for (i, slot) in acc.iter_mut().enumerate() {
            *slot = 1.0 + i as f64 * 1e-3;
        }
        let c = black_box(0.999_999_9f64);
        let d = black_box(1e-9f64);
        for _ in 0..INNER {
            for slot in acc.iter_mut() {
                *slot = *slot * c + d;
            }
        }
        acc
    });
    let flops = (2 * LANES * INNER) as f64;
    flops / r.median.as_secs_f64() / 1e9
}

/// Measured memory roof: a streaming sum over an array far larger than L2.
fn measure_mem_bw_gbps(runner: &mut Runner) -> f64 {
    const LEN: usize = 1 << 22; // 32 MiB of f64
    let data: Vec<f64> = (0..LEN).map(|i| (i % 97) as f64 * 0.125).collect();
    let r = runner.bench("roof/stream_sum", || {
        let mut partial = [0.0f64; 8];
        for chunk in data.chunks_exact(8) {
            for (p, &x) in partial.iter_mut().zip(chunk) {
                *p += x;
            }
        }
        partial
    });
    (LEN * 8) as f64 / r.median.as_secs_f64() / 1e9
}

struct Row {
    kernel: &'static str,
    shape: &'static str,
    m: usize,
    k: usize,
    n: usize,
    model: bool,
    gflops_blocked: f64,
    gflops_naive: f64,
    speedup: f64,
    roofline_gflops: f64,
    roof_fraction: f64,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = parse_args();

    println!("verifying bit-identity to the naive references at 1/2/4 threads…");
    verify_bit_identity();
    verify_dtw_bit_identity();
    println!("bit-identity ok\n");

    let (samples, sample_ms) = if args.smoke { (5, 2) } else { (15, 10) };
    let mut runner = Runner::with_settings(samples, sample_ms);

    let peak_gflops = measure_peak_gflops(&mut runner);
    let mem_bw_gbps = measure_mem_bw_gbps(&mut runner);

    let mut rows: Vec<Row> = Vec::new();
    for shape in SHAPES {
        let flops = (2 * shape.m * shape.k * shape.n) as f64;
        // Compulsory traffic: read both operands, read+write the output.
        let bytes = (8 * (shape.m * shape.k + shape.k * shape.n + 2 * shape.m * shape.n)) as f64;
        let intensity = flops / bytes;
        let roofline_gflops = peak_gflops.min(mem_bw_gbps * intensity);
        for kernel in KERNELS {
            let (a, b) = kernel.operands(shape);
            let blocked = runner
                .bench(&format!("{}/{}/blocked", kernel.name(), shape.name), || {
                    kernel.blocked(&a, &b)
                });
            let naive = runner.bench(&format!("{}/{}/naive", kernel.name(), shape.name), || {
                kernel.naive(&a, &b)
            });
            let gflops_blocked = flops / blocked.median.as_secs_f64() / 1e9;
            let gflops_naive = flops / naive.median.as_secs_f64() / 1e9;
            rows.push(Row {
                kernel: kernel.name(),
                shape: shape.name,
                m: shape.m,
                k: shape.k,
                n: shape.n,
                model: shape.model,
                gflops_blocked,
                gflops_naive,
                speedup: gflops_blocked / gflops_naive,
                roofline_gflops,
                roof_fraction: gflops_blocked / roofline_gflops,
            });
        }
    }

    let dtw_rows: Vec<DtwRow> = DTW_LENGTHS
        .iter()
        .map(|&len| bench_dtw(samples, sample_ms, len))
        .collect();
    let min_dtw_lane_speedup = dtw_rows
        .iter()
        .map(|r| r.lane_speedup)
        .fold(f64::INFINITY, f64::min);

    let min_model_speedup = rows
        .iter()
        .filter(|r| r.model && r.kernel == "matmul")
        .map(|r| r.speedup)
        .fold(f64::INFINITY, f64::min);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"rihgcn_kernel_scoreboard\",");
    let _ = writeln!(json, "  \"smoke\": {},", args.smoke);
    let _ = writeln!(json, "  \"threads\": {},", st_par::num_threads());
    let _ = writeln!(json, "  \"peak_gflops\": {},", json_f64(peak_gflops));
    let _ = writeln!(json, "  \"mem_bw_gbps\": {},", json_f64(mem_bw_gbps));
    let _ = writeln!(
        json,
        "  \"min_model_speedup\": {},",
        json_f64(min_model_speedup)
    );
    let _ = writeln!(
        json,
        "  \"min_dtw_lane_speedup\": {},",
        json_f64(min_dtw_lane_speedup)
    );
    let _ = writeln!(json, "  \"dtw\": [");
    for (i, r) in dtw_rows.iter().enumerate() {
        let comma = if i + 1 < dtw_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"length\": {}, \"ns_per_lane_cell_l1\": {}, \"ns_per_lane_cell_l4\": {}, \
             \"lane_speedup\": {}}}{comma}",
            r.length,
            json_f64(r.ns_per_lane_cell_l1),
            json_f64(r.ns_per_lane_cell_l4),
            json_f64(r.lane_speedup),
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"kernels\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"shape\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"model\": {}, \"gflops_blocked\": {}, \"gflops_naive\": {}, \"speedup\": {}, \
             \"roofline_gflops\": {}, \"roof_fraction\": {}}}{comma}",
            r.kernel,
            r.shape,
            r.m,
            r.k,
            r.n,
            r.model,
            json_f64(r.gflops_blocked),
            json_f64(r.gflops_naive),
            json_f64(r.speedup),
            json_f64(r.roofline_gflops),
            json_f64(r.roof_fraction),
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write(&args.out, &json).expect("write report");
    print!("\n{json}");

    // Validation: every metric finite, and the model-shape speedup floor.
    let mut all_metrics: Vec<(String, f64)> = vec![
        ("peak_gflops".into(), peak_gflops),
        ("mem_bw_gbps".into(), mem_bw_gbps),
        ("min_model_speedup".into(), min_model_speedup),
        ("min_dtw_lane_speedup".into(), min_dtw_lane_speedup),
    ];
    for r in &dtw_rows {
        for (metric, value) in [
            ("ns_per_lane_cell_l1", r.ns_per_lane_cell_l1),
            ("ns_per_lane_cell_l4", r.ns_per_lane_cell_l4),
            ("lane_speedup", r.lane_speedup),
        ] {
            all_metrics.push((format!("dtw/{}/{}", r.length, metric), value));
        }
    }
    for r in &rows {
        for (metric, value) in [
            ("gflops_blocked", r.gflops_blocked),
            ("gflops_naive", r.gflops_naive),
            ("speedup", r.speedup),
            ("roofline_gflops", r.roofline_gflops),
            ("roof_fraction", r.roof_fraction),
        ] {
            all_metrics.push((format!("{}/{}/{}", r.kernel, r.shape, metric), value));
        }
    }
    for (name, value) in &all_metrics {
        if !value.is_finite() {
            eprintln!("FAIL: metric {name} is not finite");
            std::process::exit(1);
        }
    }
    if !args.smoke && min_model_speedup < MIN_MODEL_SPEEDUP {
        eprintln!(
            "FAIL: blocked matmul is only {min_model_speedup:.2}x the scalar baseline at \
             model shapes (floor {MIN_MODEL_SPEEDUP:.0}x)"
        );
        std::process::exit(1);
    }
    if !args.smoke && min_dtw_lane_speedup < MIN_DTW_LANE_SPEEDUP {
        eprintln!(
            "FAIL: four-lane DTW is only {min_dtw_lane_speedup:.2}x one lane per DP cell \
             (floor {MIN_DTW_LANE_SPEEDUP:.0}x)"
        );
        std::process::exit(1);
    }
    eprintln!(
        "scoreboard ok: peak {peak_gflops:.2} GFLOP/s, stream {mem_bw_gbps:.2} GB/s, \
         min model matmul speedup {min_model_speedup:.2}x, \
         min DTW lane speedup {min_dtw_lane_speedup:.2}x"
    );
}
