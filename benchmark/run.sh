#!/usr/bin/env bash
# The one command of the repo's benchmark (see README.md, ../BENCHMARK.json).
#
#   run.sh                      all four workloads, untraced then traced
#   run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1 | --traced]
#   run.sh --selfcheck          the set twice; fails past a regression bound
#   run.sh --spread N           N seeds per workload; run-to-run spread
#   run.sh --manifest           print the text of BENCHMARK.json
#
# Builds offline from this checkout's sources, then runs the binary. Results,
# spans and WAL segments go under benchmark/out/ and nowhere else.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/target}
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
KS_BENCH_DIR=$here exec "$CARGO_TARGET_DIR/release/ks-benchmark" "$@"
