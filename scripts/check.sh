#!/usr/bin/env bash
# Repo-wide verification: formatting, dead dependency edges, lints, doc
# links, every test in the workspace (which carries the DST seed gate and
# its teeth, and the guard on the tracked BENCH_*.json artifacts), the
# benchmark/ crate's own tests, and the five bench gates with their teeth
# runs. Each gate's verdict is decided once, by the program that measures
# it: an exp_* binary exits 1 on a failed verdict or a model violation,
# and ks-dst's tests fail on a dirty seed.
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

echo "== dependency edges (every declared dependency is named in its crate's sources)"
# A manifest entry whose `-`→`_` name no .rs file of its crate mentions is
# a dead edge. The root [workspace.dependencies] table only declares
# versions, so it is not checked.
dead_edges=$(for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    if [ "$dir" = . ]; then srcs="src tests examples"; else srcs=$dir; fi
    for dep in $(awk '/^\[/ { on = ($0 ~ /^\[(dev-|build-)?dependencies\]$/) }
                      on && /^[A-Za-z0-9_-]+/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        # shellcheck disable=SC2086
        grep -rqw --include='*.rs' "${dep//-/_}" $srcs || echo "  $manifest: $dep"
    done
done)
if [ -n "$dead_edges" ]; then
    echo "FAIL: dependencies no source file of their crate names:" >&2
    echo "$dead_edges" >&2
    exit 1
fi

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every intra-doc link resolves, and no public doc links a private item:
# a link left pointing at a deleted item fails here.
echo "== cargo doc --no-deps --workspace (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

# Every test of every crate, none skipped.
echo "== cargo test --workspace (all crates incl. the DST seed gate 0..25 and its teeth)"
cargo test -q --workspace

# The benchmark's own tests: its generator, its arithmetic and the
# BENCHMARK.json manifest. benchmark/ is its own workspace, and its
# committed Cargo.lock still names dependencies the crates have dropped,
# so cargo rewrites it on every build; the copy taken here is put back.
echo "== benchmark/ tests (generator, arithmetic, manifest)"
cp benchmark/Cargo.lock target/benchmark-Cargo.lock
(cd benchmark && cargo test --release --offline -q)
cp target/benchmark-Cargo.lock benchmark/Cargo.lock

# Four ks-server lib tests that race real threads, repeated under 4x
# thread oversubscription (4 x nproc concurrent processes): shutdown
# while calls hold and wait for a shard lock, on SSI and on CPC, trace
# well-formedness across the committers' group-commit flushes, and
# telemetry pulls racing four sessions' stripes across window boundaries.
soak_runs=100
soak_jobs=$((4 * $(nproc)))
echo "== soak: shard shutdown under load (SSI, CPC), stitchable traces and concurrent telemetry pulls, ${soak_runs}x each, ${soak_jobs} processes"
soak_bin=$(cargo test -p ks-server --lib --no-run 2>&1 |
    sed -n 's/.*Executable unittests src\/lib.rs (\(.*\))/\1/p')
soak_log=target/soak.log
if ! seq "$soak_runs" | xargs -P "$soak_jobs" -I{} "$soak_bin" -q --exact \
    tests::shutdown_under_load_answers_every_call \
    tests::shutdown_under_load_answers_every_call_cpc \
    tests::sampled_sessions_emit_stitchable_traces \
    metrics::tests::telemetry_pulls_under_concurrent_recording_export_each_window_once \
    >"$soak_log" 2>&1; then
    cat "$soak_log" >&2
    echo "FAIL: a soak run failed (test binary: '$soak_bin')" >&2
    exit 1
fi

# The ks-net server's pool threads race on one poller: the two loopback
# tests that park every pool thread in durable commits and flood one
# connection without reading, repeated under the same oversubscription.
echo "== soak: ks-net pool with parked durable commits and a flooding peer, ${soak_runs}x each, ${soak_jobs} processes"
net_soak_bin=$(cargo test -p ks-net --test loopback --no-run 2>&1 |
    sed -n 's/.*Executable tests\/loopback.rs (\(.*\))/\1/p')
if ! seq "$soak_runs" | xargs -P "$soak_jobs" -I{} "$net_soak_bin" -q --exact \
    durable_commits_with_every_pool_thread_parked \
    a_flooding_peer_that_never_reads_is_held_to_one_reply >"$soak_log" 2>&1; then
    cat "$soak_log" >&2
    echo "FAIL: a soak run failed (test binary: '$net_soak_bin')" >&2
    exit 1
fi

echo "== exp_net_load --smoke (loopback TCP vs in-process, batch off/on)"
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

echo "== tracked files untouched"
if [ "$(tree_state)" != "$tree_before" ]; then
    echo "FAIL: the gate run changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "OK: fmt, dependency edges, clippy, rustdoc, workspace tests (incl. dst gate and teeth), benchmark tests, net/wal/obs/certifier/conn-scale gates with teeth, clean tree"
