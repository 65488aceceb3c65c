#!/usr/bin/env bash
# Repo-wide verification: formatting, lints, every test in the workspace,
# the five bench gates with their teeth runs, the DST seed gate.
#
# Usage: scripts/check.sh
# This is the gate referenced by ROADMAP.md's tier-1 line; CI and local
# development run the same steps. It leaves the tree as it found it:
# `--smoke` runs write their reports under target/bench/, never over the
# tracked full-size BENCH_*.json, and the last step fails if the run
# changed what `git status` or `git diff` report (on a clean checkout:
# if `git status --porcelain` is no longer empty).

set -euo pipefail
cd "$(dirname "$0")/.."

exp() { cargo run --release -q -p ks-bench --bin "$@"; }
tree_state() { git status --porcelain; git diff | cksum; }
tree_before=$(tree_state)

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every test of every crate. Two known intermittents are skipped by name
# until their ROADMAP owners run them to ground; nothing else is:
# * item 2c / 5 — ks-server --test interleaving,
#   `extracted_executions_always_check`: fails 7–13 % of runs at the
#   certifier layer (`parent_based: false`, shard 0, proptest case seed
#   1941057883214780011, `inputs_ok` all true);
# * item 2b — ks-server lib, `sampled_sessions_emit_stitchable_traces`:
#   fails 3–10 % of runs on `is_well_formed` because the shard worker
#   ends its Exec span after sending the reply (Exec outlives Request).
echo "== cargo test --workspace (all crates, two named intermittents skipped)"
cargo test -q --workspace -- \
    --skip extracted_executions_always_check \
    --skip sampled_sessions_emit_stitchable_traces

echo "== exp_net_load --smoke (loopback TCP vs in-process, pipeline×batch sweep)"
exp exp_net_load -- --smoke

echo "== exp_wal --smoke (2 ms sync: a lone committer pays 1 fsync and no wait, 8 share ≤ 0.5×)"
exp exp_wal -- --smoke

echo "== exp_obs --smoke (tracing overhead at 1% sampling within budget)"
exp exp_obs -- --smoke

echo "== exp_obs teeth (full sampling vs an impossible budget must fail the gate)"
exp exp_obs -- --smoke --gate-sample 1.0 --max-overhead -1.0 --expect-fail

echo "== exp_certifier --smoke (CPC vs SSI vs 2PL long-txn abort-rate shootout)"
exp exp_certifier -- --smoke

echo "== exp_certifier teeth (broken SSI detector must be caught by the offline checker)"
exp exp_certifier -- --teeth

echo "== exp_conn_scale --smoke (idle-horde latency + per-connection memory gates)"
exp exp_conn_scale -- --smoke

echo "== exp_conn_scale teeth (naive per-connection buffers must blow the memory budget)"
exp exp_conn_scale -- --smoke --pinned-buffers 262144 --expect-violation

echo "== validate_bench (fresh smoke reports + tracked full-size artifacts: schema, gates, zero violations)"
reports="BENCH_net.json BENCH_wal.json BENCH_obs.json BENCH_certifier.json BENCH_conn.json"
# shellcheck disable=SC2086
exp validate_bench -- $(printf 'target/bench/%s ' $reports) $reports

echo "== dst_smoke --seeds 25 (seeded fault-injection gate)"
exp dst_smoke -- --seeds 25

echo "== dst_smoke teeth (a disabled protection must be caught)"
exp dst_smoke -- --seeds 25 --disable timeout-carveout --expect-violation

echo "== dst_smoke durability teeth (no commit-record flush ⇒ oracles must catch lost commits)"
exp dst_smoke -- --seeds 25 --disable commit-flush --expect-violation

echo "== tracked files untouched"
if [ "$(tree_state)" != "$tree_before" ]; then
    echo "FAIL: the gate run changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "OK: fmt, clippy, workspace tests, net/wal/obs/certifier/conn-scale gates with teeth, bench artifacts, dst gate, clean tree"
