#!/usr/bin/env bash
# Runs the perf benches and writes machine-readable results at the repo
# root, so the perf trajectory (BENCH_*.json) is tracked over time:
#
#   BENCH_hotpath.json  - wall-clock TM hot-path throughput (normalized by
#                         a host calibration loop; see hotpath.cpp)
#   BENCH_figs.json     - per-figure wall-clock of the six figure sweeps +
#                         the ablation tables, each run through the
#                         host-parallel driver with --jobs $JOBS
#
# The figure CSVs (fig1..fig6_*.csv) are regenerated in place; the driver
# guarantees they are byte-identical for any JOBS value, so a non-empty
# `git diff *.csv` after this script means simulated timing really changed.
#
# Usage: [JOBS=n] bench/run_bench.sh [build-dir]   (default: build, JOBS=nproc)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="${JOBS:-$(nproc)}"

if [[ ! -x "$BUILD_DIR/bench/hotpath" ]]; then
  echo "run_bench.sh: $BUILD_DIR/bench/hotpath not built" >&2
  exit 1
fi

# hotpath records its trace-on twins itself ("<name>_traced" scenarios with
# an in-memory tracer attached), so the JSON carries the tracing overhead and
# the sim-cycle transparency witness; tools/check_hotpath.py gates both.
"$BUILD_DIR/bench/hotpath" BENCH_hotpath.json

# --- figure sweeps + ablations through the parallel driver ---
FIG_RESULTS=()
run_fig() {
  local name="$1"; shift
  local t0 t1 dt
  t0=$(date +%s.%N)
  "$@" --jobs "$JOBS"
  t1=$(date +%s.%N)
  dt=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')
  FIG_RESULTS+=("{\"name\": \"$name\", \"jobs\": $JOBS, \"wall_seconds\": $dt}")
  echo "run_bench.sh: $name done in ${dt}s (jobs=$JOBS)"
}

run_fig fig1_testmap      "$BUILD_DIR/bench/fig1_testmap"
run_fig fig2_testsortedmap "$BUILD_DIR/bench/fig2_testsortedmap"
run_fig fig3_testcompound "$BUILD_DIR/bench/fig3_testcompound"
run_fig fig4_specjbb      "$BUILD_DIR/bench/fig4_specjbb"
run_fig fig5_srv          "$BUILD_DIR/bench/fig5_srv"
run_fig fig6_chop         "$BUILD_DIR/bench/fig6_chop"
run_fig ablations         "$BUILD_DIR/bench/ablations"

{
  echo "{"
  echo "  \"bench\": \"figs\","
  echo "  \"jobs\": $JOBS,"
  echo "  \"results\": ["
  for i in "${!FIG_RESULTS[@]}"; do
    sep=","
    [[ $i -eq $((${#FIG_RESULTS[@]} - 1)) ]] && sep=""
    echo "    ${FIG_RESULTS[$i]}$sep"
  done
  echo "  ]"
  echo "}"
} > BENCH_figs.json

echo "run_bench.sh: wrote BENCH_hotpath.json BENCH_figs.json"
