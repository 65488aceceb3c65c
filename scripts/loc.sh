#!/usr/bin/env bash
# Non-test Rust lines per crate, by the rule ROADMAP.md's line tables use:
# every `.rs` file under a crate's `src/` counts up to its first
# `#[cfg(test)]` line, `tests.rs` files are left out, and the root
# facade's `src/` counts as the crate `korth-speegle`. Integration tests
# (`tests/`), examples and `vendor/` are not counted.
#
# Usage: scripts/loc.sh
# A report, not a gate: it prints the table and exits 0.

set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of the non-test part of every file under the given directory.
lines() {
    find "$1" -name '*.rs' ! -name tests.rs -print0 |
        xargs -0 awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
}

total=0
for src in src crates/*/src; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$(dirname "$src")/Cargo.toml" | head -1)
    n=$(lines "$src")
    total=$((total + n))
    printf '%-14s %6d\n' "$name" "$n"
done
printf '%-14s %6d\n' total "$total"
