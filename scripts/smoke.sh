#!/usr/bin/env bash
# scripts/smoke.sh — the CI smoke matrix.
#
# Usage: scripts/smoke.sh all
#
# 1. `experiments smoke`: every systems scenario of the `SYSTEMS` table
#    in crates/exp/src/lib.rs, at its table smoke scale, run twice into
#    two directories. `fairness` and `dispatch` gate themselves
#    (per-class QoE ordering and the dual solver's sweep budget;
#    LSQ-beats-static-hash), so a red run is a real property violation,
#    not a flaky threshold. Every output is a pure function of the seed,
#    so any `diff -r` between the two runs fails the script. The
#    1/4/8-shard and kill/resume contract is crates/fleet/tests/contract.rs.
# 2. The three examples CI runs, not only compiles, all through the
#    facade crate: `ab_experiment` (the §5.3 A/B on the fleet engine),
#    `quickstart` (the one session driver, `play`, with LingXi present
#    and absent on the same videos and traces) and
#    `personalized_streaming` (three users' long-term state saved to the
#    binary state log, then restored by a fresh handle on the same
#    directory; fails unless it prints `restored 3/3 users`).

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
"$bin" smoke --out "$tmp/smoke_again"
diff -r "$tmp/smoke" "$tmp/smoke_again" || {
    echo "smoke: two runs of experiments smoke differ" >&2
    exit 1
}

cargo run --release --locked --example ab_experiment
cargo run --release --locked --example quickstart
cargo run --release --locked --example personalized_streaming | tee "$tmp/personalized.txt"
grep -qx 'restored 3/3 users' "$tmp/personalized.txt" || {
    echo "smoke: personalized_streaming did not restore every user" >&2
    exit 1
}
echo ">>> smoke: all green"
