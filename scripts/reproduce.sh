#!/usr/bin/env bash
# One-shot reproduction: build, run the full test suite, regenerate every
# paper table/figure that has a bench binary, and record the outputs at the
# repository root. Table 4 (the §6.2 optimizations on/off) has none: the
# engine keeps only the optimized merge path, and the last on/off numbers
# are frozen in EXPERIMENTS.md.
#
# Environment knobs (see bench/bench_util.h):
#   REPRO_SCALE=<f>    multiply dataset sizes (default 1)
#   REPRO_WORKERS=<n>  worker threads for benches (default 4)
#   REPRO_RUNS=<n>     repetitions per measured cell (default 3)
#   REPRO_FULL=1       also run cells marked over-budget
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build --output-on-failure 2>&1 | tee test_output.txt

for b in build/bench/*; do
  echo "=== $(basename "$b") ==="
  "$b"
  echo
done 2>&1 | tee bench_output.txt
