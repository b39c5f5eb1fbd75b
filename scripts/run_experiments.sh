#!/usr/bin/env bash
# Regenerates every experiment table in EXPERIMENTS.md (release mode).
# Usage: scripts/run_experiments.sh [output-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-experiment-results}"
mkdir -p "$OUT"

BINS=(
  exp_update_example
  exp_query_cost
  exp_box_size_sweep
  exp_complexity_product
  exp_fig16_storage
  exp_disk_io
  exp_batch_updates
  exp_skew_sensitivity
  exp_dimensionality
  exp_query_many
  exp_mixed_readwrite
)

cargo build --release -p rps-bench --bins

for bin in "${BINS[@]}"; do
  echo "== $bin =="
  args=()
  # Its JSON section goes next to the text output, not into the
  # committed BENCH_THROUGHPUT.json at the repo root.
  if [[ $bin == exp_mixed_readwrite ]]; then
    args=(--out "$OUT/BENCH_THROUGHPUT.json")
  fi
  cargo run -q --release -p rps-bench --bin "$bin" -- "${args[@]}" | tee "$OUT/$bin.txt"
  echo
done

echo "all experiment outputs written to $OUT/"
