#!/usr/bin/env bash
# scripts/dead_pub.sh — fail on a `pub fn` that no other file names.
#
# Usage: scripts/dead_pub.sh
#
# Lists each `pub fn` in crates/*/src whose name appears in no other
# tracked .rs file outside vendor/ (the root tests/, examples/ and
# benchmark/src count), and exits 1 if one is not on the allowlist. It is
# a name scan: it cannot see a dead function whose name recurs in another
# file, in a comment or for another item (a private `cholesky_solve` in
# crates/net/src/fairness.rs once hid `lingxi_bayes::cholesky_solve`, and
# `Cholesky::dim` hid behind every other `dim`).

set -euo pipefail
cd "$(dirname "$0")/.."

# Kept with no caller yet, each for the ROADMAP item that will call it.
allow=(
    predict_batch    # 15(a)/20: batched exit prediction inside every run
    hop_delay_jitter # 4(b): per-hop queueing jitter in the route model
)

mapfile -t files < <(git ls-files '*.rs' | grep -v '^vendor/')
# Words that occur in exactly one file.
single=$(grep -owH '[A-Za-z_][A-Za-z0-9_]*' "${files[@]}" | sort -u |
    cut -d: -f2 | sort | uniq -u)
dead=$(git ls-files 'crates/*/src/*.rs' |
    xargs grep -ohP '^\s*pub fn \K[A-Za-z_][A-Za-z0-9_]*' | sort -u |
    comm -12 - <(echo "$single"))
bad=$(comm -23 <(echo "$dead" | grep . || true) <(printf '%s\n' "${allow[@]}" | sort))
echo "$dead" | grep . || true
if [ -n "$bad" ]; then
    echo "dead_pub: pub fn named in no other file (delete it or drop pub):" $bad >&2
    exit 1
fi
