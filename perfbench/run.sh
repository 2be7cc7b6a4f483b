#!/usr/bin/env bash
# Builds the benchmark against the repository's crates and runs one
# workload: `perfbench` for `--trace 0`, the allocation-counting
# `perfbench-traced` for `--trace 1`. Build output goes to stderr, so the
# last line on stdout is the result.
#
#   bash perfbench/run.sh --workload home-hh102 --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
target="${CARGO_TARGET_DIR:-$here/target}"
bin=perfbench
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=perfbench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
