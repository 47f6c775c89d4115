#!/usr/bin/env bash
# Hermetic CI: the workspace must build, test and stay formatted with no
# network access and no registry dependencies. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== test (offline) =="
cargo test -q --offline --workspace

# The parallel kernels promise bit-identical results for any worker count;
# exercise the ST_NUM_THREADS environment path at both extremes. These
# passes also run the HTTP service end to end at both thread counts: the
# CLI tests train a checkpoint, serve it in-process (single and multi-tenant),
# walk every route and check forecasts bit-equal to an in-process
# forecaster, and the stbench smoke tests drive the serve-city and
# serve-fleet load workloads.
echo "== test (1 worker thread) =="
ST_NUM_THREADS=1 cargo test -q --offline --workspace

echo "== test (4 worker threads) =="
ST_NUM_THREADS=4 cargo test -q --offline --workspace

echo "== determinism under tracing (ST_OBS=1) =="
# Spans must never change a bit: the determinism suites have to pass with
# span collection forced on.
ST_OBS=1 cargo test -q --offline -p rihgcn --test determinism
ST_OBS=1 ST_NUM_THREADS=4 cargo test -q --offline \
    -p rihgcn --test thread_determinism

echo "== traced training run (Chrome trace export) =="
# A short training run with --trace must emit well-formed Chrome
# trace_event JSON containing spans from every instrumented layer; the
# in-tree checker validates JSON shape, timestamp monotonicity and the
# required span-name prefixes. At this model size the par.* spans come
# from the model-construction fan-outs (steady-state matmuls stay below
# the parallel threshold), so the ring must be large enough that a full
# epoch doesn't overwrite them: the run emits ~26k spans, ST_OBS_RING
# keeps 64k.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cargo run -q --release --offline -p rihgcn-cli --bin rihgcn -- \
    generate --dataset pems --out "$TRACE_DIR/data.csv" \
    --nodes 4 --days 1 --missing-rate 0.2
ST_NUM_THREADS=1 ST_OBS_RING=65536 \
    cargo run -q --release --offline -p rihgcn-cli --bin rihgcn -- \
    train --data "$TRACE_DIR/data.csv" --out "$TRACE_DIR/traced.ckpt" \
    --epochs 1 --gcn-dim 4 --lstm-dim 6 --graphs 2 --history 4 --horizon 2 \
    --trace "$TRACE_DIR/trace.json" --log-format json
cargo run -q --release --offline -p rihgcn-bench --bin trace_check -- \
    "$TRACE_DIR/trace.json" \
    --require tensor. --require autodiff. --require par. \
    --require core. --require nn.

echo "== bench smoke (serial vs parallel) =="
# One tiny sample per benchmark: checks the harness runs, records the
# serial-vs-parallel comparison, and asserts nothing about speedup (that
# depends on the host's core count).
RIHGCN_BENCH_SAMPLES=1 RIHGCN_BENCH_SAMPLE_MS=20 \
    cargo bench -q --offline -p rihgcn-bench --bench micro >/dev/null

echo "== allocation bench (training-step memory profile) =="
# Writes BENCH_step.json; the binary itself fails the build on non-finite
# or missing metrics, or a steady-state allocation reduction below 90%.
scripts/bench_step.sh --smoke
test -s BENCH_step.json || { echo "BENCH_step.json missing"; exit 1; }

echo "== observability overhead bench (tracing off < 2%, on = bit-identical) =="
# bench_obs reruns the bench_step workload twice per thread count: with
# tracing disabled (step time must stay within 2% of a freshly-recorded
# matching baseline) and enabled (per-step losses must be bit-identical,
# and the captured trace must validate with spans from every layer). The
# binary exits non-zero on any violation.
for threads in 1 4; do
    STEP_JSON="$(mktemp)"
    OBS_JSON="$(mktemp)"
    ST_NUM_THREADS=$threads cargo run -q --release --offline \
        -p rihgcn-bench --bin bench_step -- \
        --smoke --out "$STEP_JSON" >/dev/null
    ST_NUM_THREADS=$threads cargo run -q --release --offline \
        -p rihgcn-bench --bin bench_obs -- \
        --smoke --baseline "$STEP_JSON" --out "$OBS_JSON" >/dev/null
    grep -q '"bit_identical": true' "$OBS_JSON" || {
        echo "bench_obs report missing bit_identical=true"; exit 1;
    }
    rm -f "$STEP_JSON" "$OBS_JSON"
done

echo "== kernel scoreboard smoke (GFLOP/s, bit-identity, 1 and 4 threads) =="
# bench_kernels proves the blocked matmul kernels bit-identical to the
# naive references, and the four-lane DTW kernel and pairwise sweep to
# one-lane scans, at 1/2/4 worker threads before timing anything, and
# exits non-zero on any non-finite metric. Run it under both thread-count
# extremes and check the JSON report has the expected schema.
for threads in 1 4; do
    KERNELS_JSON="$(mktemp)"
    ST_NUM_THREADS=$threads cargo run -q --release --offline \
        -p rihgcn-bench --bin bench_kernels -- \
        --smoke --out "$KERNELS_JSON" >/dev/null
    test -s "$KERNELS_JSON" || { echo "BENCH_kernels.json missing"; exit 1; }
    for key in rihgcn_kernel_scoreboard peak_gflops mem_bw_gbps \
        min_model_speedup gflops_blocked gflops_naive roofline_gflops \
        min_dtw_lane_speedup ns_per_lane_cell_l1 ns_per_lane_cell_l4; do
        grep -q "$key" "$KERNELS_JSON" || {
            echo "kernel scoreboard missing $key"; exit 1;
        }
    done
    grep -q '"gflops_blocked": null' "$KERNELS_JSON" && {
        echo "kernel scoreboard has non-finite GFLOP/s"; exit 1;
    }
    rm -f "$KERNELS_JSON"
done

echo "== batched-forecast bench (>=2x RPS on a saturated queue) =="
# bench_batch saturates a single-shard in-process engine with 640
# observe -> forecast pairs at max_batch 1 and 16 (best of three runs
# each), checks the per-shard metrics consistency gate, and exits
# non-zero unless batching delivers at least 2x the unbatched forecast
# throughput. The last run's report is kept as BENCH_batch.json.
for threads in 1 4; do
    echo "-- bench_batch (ST_NUM_THREADS=$threads) --"
    ST_NUM_THREADS=$threads cargo run -q --release --offline \
        -p rihgcn-bench --bin bench_batch -- --out BENCH_batch.json
done
test -s BENCH_batch.json || { echo "BENCH_batch.json missing"; exit 1; }
grep -q '"speedup"' BENCH_batch.json || {
    echo "BENCH_batch.json missing speedup"; exit 1;
}

echo "== formatting =="
cargo fmt --check

echo "CI checks passed."
