#!/usr/bin/env bash
# Produces one result set for `compare`: every workload on RUNS seeds,
# appended to OUT as one JSON line per run.
#   benchmark/sweep.sh out.jsonl [runs] [first-seed] [seconds]
set -euo pipefail
out=${1:?usage: sweep.sh <out.jsonl> [runs] [first-seed] [seconds]}
runs=${2:-10}
first=${3:-1}
seconds=${4:-22}
cd "$(dirname "$0")"
cargo build --release --offline
for workload in build-bulk serve-insert serve-churn serve-mixed; do
  for ((seed = first; seed < first + runs; seed++)); do
    cargo run --release --offline --quiet -- run --workload "$workload" \
      --seed "$seed" --seconds "$seconds" --out "$out" | tail -n 1
  done
done
