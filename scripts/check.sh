#!/usr/bin/env bash
# Repo-wide verification: formatting, lints, tests.
#
# Usage: scripts/check.sh
# This is the gate referenced by ROADMAP.md's tier-1 line; CI and local
# development run the same three steps.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo test -q"
cargo test -q

echo "== cargo test -p ks-obs --test wire_roundtrip"
cargo test -q -p ks-obs --test wire_roundtrip

echo "== exp_server_load --smoke (serving layer + tracing overhead)"
cargo run --release -q -p ks-bench --bin exp_server_load -- --smoke

echo "== ks-net integration tests (loopback + retry/backoff + wire fuzz)"
cargo test -q -p ks-net

echo "== exp_net_load --smoke (loopback TCP vs in-process, pipeline×batch sweep)"
cargo run --release -q -p ks-bench --bin exp_net_load -- --smoke

echo "== ks-wal + ks-server durability (log format, recovery, crash/restart through the flusher)"
cargo test -q -p ks-wal
cargo test -q -p ks-server --test durability

echo "== exp_wal --smoke (2 ms sync: a lone committer pays 1 fsync and no wait, 8 share ≤ 0.5×)"
cargo run --release -q -p ks-bench --bin exp_wal -- --smoke

echo "== exp_obs --smoke (tracing overhead at 1% sampling within budget)"
cargo run --release -q -p ks-bench --bin exp_obs -- --smoke

echo "== exp_obs teeth (full sampling vs an impossible budget must fail the gate)"
cargo run --release -q -p ks-bench --bin exp_obs -- \
    --smoke --gate-sample 1.0 --max-overhead -1.0 --expect-fail

echo "== exp_certifier --smoke (CPC vs SSI vs 2PL long-txn abort-rate shootout)"
cargo run --release -q -p ks-bench --bin exp_certifier -- --smoke

echo "== exp_certifier teeth (broken SSI detector must be caught by the offline checker)"
cargo run --release -q -p ks-bench --bin exp_certifier -- --teeth

echo "== exp_conn_scale --smoke (idle-horde latency + per-connection memory gates)"
cargo run --release -q -p ks-bench --bin exp_conn_scale -- --smoke

echo "== exp_conn_scale teeth (naive per-connection buffers must blow the memory budget)"
cargo run --release -q -p ks-bench --bin exp_conn_scale -- \
    --smoke --pinned-buffers 262144 --expect-violation

echo "== validate_bench (BENCH_*.json schema + zero violations)"
cargo run --release -q -p ks-bench --bin validate_bench -- \
    BENCH_net.json BENCH_server.json BENCH_wal.json BENCH_obs.json BENCH_certifier.json \
    BENCH_conn.json

echo "== ks-dst (determinism + teeth + proto fuzz)"
cargo test -q -p ks-dst

echo "== dst_smoke --seeds 25 (seeded fault-injection gate)"
cargo run --release -q -p ks-bench --bin dst_smoke -- --seeds 25

echo "== dst_smoke teeth (a disabled protection must be caught)"
cargo run --release -q -p ks-bench --bin dst_smoke -- \
    --seeds 25 --disable timeout-carveout --expect-violation

echo "== dst_smoke durability teeth (no commit-record flush ⇒ oracles must catch lost commits)"
cargo run --release -q -p ks-bench --bin dst_smoke -- \
    --seeds 25 --disable commit-flush --expect-violation

echo "OK: fmt, clippy, tests, obs wire round-trip, server smoke, net smoke, wal gate, obs gate, certifier gate, conn-scale gate, bench gate, dst gate all green"
