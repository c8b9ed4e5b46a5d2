#!/usr/bin/env bash
# Runs the microbenchmark suite and records the results as JSON.
#
# Usage: bench/run_micro.sh [build-dir] [output-json] [before-build-dir]
#
# Defaults to ./build and ./BENCH_micro.json (repo root). The JSON is the
# native google-benchmark format; the batched-ingest acceptance numbers
# live in the BM_IngestPerEvent / BM_IngestBatch/* entries
# (items_per_second), the predicated-lane numbers in
# BM_IngestPredicated/{0,1,2}. Given a before-build-dir (an earlier
# commit built with this bench_micro.cc), its BM_IngestPredicated run lands
# in the same JSON under "before", so a before/after pair comes from one
# machine and one session. The metrics sidecar carries the flight-recorder
# overhead probe; its numbers are appended to BENCH_history.jsonl when
# desis_inspect is built.
#
# The optimizer suites ride along: bench_correlated (10k-query factor
# rewriting, sidecar BENCH_correlated.json) and bench_query_churn (runtime
# add/remove latency, sidecar BENCH_query_churn.json). Both self-check
# their acceptance contracts (byte-identical results, >= 2x operator-eval
# reduction, full churn histograms) and fail this script on violation;
# their sidecars are appended to BENCH_history.jsonl too. DESIS_BENCH_SCALE
# scales every suite.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_json="${2:-$repo_root/BENCH_micro.json}"
before_dir="${3:-}"
bin="$build_dir/bench/bench_micro"

if [[ ! -x "$bin" ]]; then
  echo "bench_micro not found at $bin — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

sidecar_json="$(mktemp)"
trap 'rm -f "$sidecar_json"' EXIT
DESIS_METRICS_OUT="$sidecar_json" "$bin" \
  --benchmark_format=json \
  --benchmark_out="$out_json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2

echo "Wrote $out_json"

if [[ -n "$before_dir" ]]; then
  before_json="$(mktemp)"
  trap 'rm -f "$sidecar_json" "$before_json"' EXIT
  "$before_dir/bench/bench_micro" \
    --benchmark_filter='BM_IngestPredicated' \
    --benchmark_out="$before_json" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.2 >/dev/null
  python3 - "$out_json" "$before_json" <<'EOF'
import json
import sys

out_path, before_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    doc = json.load(f)
with open(before_path) as f:
    doc["before"] = json.load(f)
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
EOF
  echo "Recorded the before-build's BM_IngestPredicated in $out_json"
fi

inspect="$build_dir/tools/desis_inspect"
if [[ -x "$inspect" && -s "$sidecar_json" ]]; then
  "$inspect" summary "$sidecar_json"
  "$inspect" history "$sidecar_json" --append="$repo_root/BENCH_history.jsonl"
fi

# Optimizer and bounded-memory suites: each exits non-zero when its
# acceptance contract fails (set -e propagates that), then lands in the
# shared history file. memory_sweep is the cluster-level budget x
# cardinality grid (BENCH_memory_sweep.json).
for suite in correlated query_churn memory_cap memory_sweep; do
  suite_bin="$build_dir/bench/bench_${suite}"
  suite_json="$repo_root/BENCH_${suite}.json"
  if [[ -x "$suite_bin" ]]; then
    DESIS_METRICS_OUT="$suite_json" "$suite_bin"
    echo "Wrote $suite_json"
    if [[ -x "$inspect" && -s "$suite_json" ]]; then
      "$inspect" summary "$suite_json"
      "$inspect" history "$suite_json" --append="$repo_root/BENCH_history.jsonl"
    fi
  fi
done
