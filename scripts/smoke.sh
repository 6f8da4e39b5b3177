#!/usr/bin/env bash
# scripts/smoke.sh — the CI smoke matrix.
#
# Usage: scripts/smoke.sh all
#
# 1. `experiments smoke`: every systems scenario of the `SYSTEMS` table
#    in crates/exp/src/lib.rs, at its table smoke scale. The scenarios
#    gate themselves (shard/dispatcher invariance, per-class QoE
#    ordering, kill/resume bit-equivalence, LSQ-beats-static-hash), so a
#    red run is a real property violation, not a flaky threshold.
# 2. The population kill/resume recipe, end to end through the CLI
#    flags: run population straight, run it again killed at the barrier
#    after epoch 1 (leaving a checkpoint manifest + binary-log state),
#    resume to completion, and diff the two output directories: a
#    series missing from or extra in either side fails like a differing
#    one. headline.csv is excluded — it carries wall-clock throughput;
#    every simulated series must match byte for byte.
# 3. The two examples CI runs, not only compiles, both through the
#    facade crate: `ab_experiment` (the §5.3 A/B on the fleet engine) and
#    `quickstart` (the one session driver, `play`, with LingXi present
#    and absent on the same videos and traces).

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" != all ]; then
    echo "usage: scripts/smoke.sh all" >&2
    exit 2
fi

cargo build --release --locked -p lingxi-exp --bin experiments
bin=target/release/experiments
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$bin" smoke --out "$tmp/smoke"

population=("$bin" population --seed 7 --scale 0.01 --days 2)
"${population[@]}" --out "$tmp/straight"
"${population[@]}" --out "$tmp/killed" \
    --state-dir "$tmp/state" --checkpoint-every 1 --stop-after-epochs 1
"${population[@]}" --out "$tmp/resumed" --state-dir "$tmp/state" --resume
diff -r --exclude=headline.csv "$tmp/straight/population" "$tmp/resumed/population"

cargo run --release --locked --example ab_experiment
cargo run --release --locked --example quickstart
echo ">>> smoke: all green"
