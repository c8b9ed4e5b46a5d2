#!/usr/bin/env bash
# CI perf-regression gate (docs/EXPERIMENTS.md): run the Fig 6 smoke bench,
# diff its metrics sidecar against the committed baseline with
# `desis-inspect diff --stable-only`, and append the run to
# <build-dir>/BENCH_history.jsonl (not the tracked file at the repository
# root, so local runs leave the tree clean). Exit status is desis-inspect's:
# 0 clean, 1 a stable counter drifted beyond the band, 2 on tooling errors.
#
# Usage: scripts/regression_gate.sh <build-dir> [threshold]
#
# The comparison is restricted to deterministic counters (events, operator
# evaluations, bytes on the wire, slice/result counts) so it is meaningful
# on noisy shared CI machines; wall-clock throughput is recorded in the
# history file but never gated on. The optimizer suites (bench_correlated,
# bench_query_churn) run after: both self-check their acceptance contracts
# (byte-identical optimized results, >= 2x operator-eval reduction, full
# churn histograms) and exit non-zero on violation, then their stable
# series (group events/evals, results, group counts) are diffed like the
# rest — the opt.group_churn_ns timings are `_ns` series and auto-skipped.
# Regenerate the baselines after an intentional behaviour change with:
#   DESIS_BENCH_SCALE=0.01 \
#   DESIS_METRICS_OUT=bench/baselines/fig6_smoke_baseline.json \
#     <build-dir>/bench/bench_fig6
#   DESIS_BENCH_SCALE=0.01 \
#   DESIS_METRICS_OUT=bench/baselines/correlated_baseline.json \
#     <build-dir>/bench/bench_correlated
#   DESIS_BENCH_SCALE=0.01 \
#   DESIS_METRICS_OUT=bench/baselines/query_churn_baseline.json \
#     <build-dir>/bench/bench_query_churn
#   DESIS_BENCH_SCALE=0.01 \
#   DESIS_METRICS_OUT=bench/baselines/memory_cap_baseline.json \
#     <build-dir>/bench/bench_memory_cap
set -euo pipefail

BUILD_DIR=${1:?usage: regression_gate.sh <build-dir> [threshold]}
THRESHOLD=${2:-0.15}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BASELINE="$REPO_ROOT/bench/baselines/fig6_smoke_baseline.json"
HISTORY="$BUILD_DIR/BENCH_history.jsonl"
OUT=$(mktemp -t fig6_smoke_XXXXXX.json)
trap 'rm -f "$OUT"' EXIT

# Same pinned scale the baseline was generated with.
DESIS_BENCH_SCALE=0.01 DESIS_METRICS_OUT="$OUT" \
  "$BUILD_DIR/bench/bench_fig6" >/dev/null

"$BUILD_DIR/tools/desis_inspect" summary "$OUT"
"$BUILD_DIR/tools/desis_inspect" history "$OUT" \
  --append="$HISTORY"
"$BUILD_DIR/tools/desis_inspect" diff "$BASELINE" "$OUT" \
  --threshold="$THRESHOLD" --stable-only

# Optimizer and bounded-memory suites: the binaries fail on any
# acceptance-contract violation (set -e propagates) — bench_memory_cap
# checks governed runs stay byte-identical with peak residency at or under
# budget — then the deterministic series are diffed as usual.
for suite in correlated query_churn memory_cap; do
  SUITE_BASELINE="$REPO_ROOT/bench/baselines/${suite}_baseline.json"
  SUITE_OUT=$(mktemp -t "${suite}_XXXXXX.json")
  trap 'rm -f "$OUT" "$SUITE_OUT"' EXIT
  DESIS_BENCH_SCALE=0.01 DESIS_METRICS_OUT="$SUITE_OUT" \
    "$BUILD_DIR/bench/bench_${suite}" >/dev/null

  "$BUILD_DIR/tools/desis_inspect" summary "$SUITE_OUT"
  "$BUILD_DIR/tools/desis_inspect" history "$SUITE_OUT" \
    --append="$HISTORY"
  "$BUILD_DIR/tools/desis_inspect" diff "$SUITE_BASELINE" "$SUITE_OUT" \
    --threshold="$THRESHOLD" --stable-only
  rm -f "$SUITE_OUT"
done
