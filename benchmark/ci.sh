#!/usr/bin/env bash
# Build the benchmark and run its unit tests and the quick-mode smoke test
# of all four workloads. Tier-1 at the repo root does not build this
# package; run this after touching anything under benchmark/.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
