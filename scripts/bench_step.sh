#!/usr/bin/env bash
# Allocation-tracking training-step benchmark: builds the workspace and runs
# the bench_step binary, which writes BENCH_step.json (time per step, heap
# allocations and bytes per step, steady-state allocation reduction, buffer
# pool hit rate, tape footprint of a training step and of predict) and
# fails if any metric is non-finite, a steady-state step or predict makes
# more heap allocations than its absolute limit, or predict's tape
# footprint is not below a training step's. Extra flags (e.g. --smoke,
# --steps N) are passed straight through. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q --release --offline -p rihgcn-bench --bin bench_step -- \
    --out BENCH_step.json "$@"
