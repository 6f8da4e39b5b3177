#!/usr/bin/env bash
# Build lxbench from source, then run it. With no arguments: every
# workload, untraced and traced, one JSON report (`lxbench run --seed 42`).
# With arguments: passed through, e.g. the driver's
#   --workload W --seed N --seconds S --trace 0|1
# Run from the repo root. The build is offline and locked; its output goes
# to $CARGO_TARGET_DIR when set, else to benchmark/target (git-ignored).
set -euo pipefail

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's own progress goes to stderr; standard output carries results only.
CARGO_TARGET_DIR="$target" cargo build --release --offline --locked \
    --manifest-path benchmark/Cargo.toml >&2

if [ "$#" -eq 0 ]; then
    set -- run --seed 42
fi
exec "$target/release/lxbench" "$@"
