#!/usr/bin/env bash
# The workspace tests, with the wall time of each test binary.
#
#   scripts/test_times.sh [cargo test flags...]
#
# Runs `cargo test --locked [flags] -- --quiet` once, as CI's test step
# did with `cargo test --locked -q`, and stamps the time at which cargo
# starts each test binary (its `Running` and `Doc-tests` lines). After the
# run it prints one line per binary, slowest first: the seconds until the
# next binary started (the last one: until cargo exited) and the binary,
# marked `over budget` above 10 s. A binary over budget is a finding to
# record, not a failure: the script exits with cargo's status.
set -euo pipefail

budget=10
cd "$(dirname "$0")/.."
stamps="$(mktemp)"
trap 'rm -f "$stamps"' EXIT

set +e
cargo test --locked "$@" -- --quiet 2>&1 | while IFS= read -r line; do
    printf '%s\n' "$line"
    plain="$(printf '%s' "$line" | sed 's/\x1b\[[0-9;]*m//g')"
    case "$plain" in
        *" Running "* | *" Doc-tests "*)
            printf '%s\t%s\n' "$(date +%s.%N)" "$plain" >>"$stamps"
            ;;
    esac
done
status="${PIPESTATUS[0]}"
set -e
printf '%s\tEND\n' "$(date +%s.%N)" >>"$stamps"

echo
echo "test binaries by wall time (budget ${budget} s):"
# `Running tests/x.rs (target/debug/deps/x-0123abcd)` -> `x tests/x.rs`.
sed -e 's/^\([^\t]*\)\t *Running \([^ ]* \)\{0,1\}\([^ ]*\) (.*\/\([^/]*\)-[0-9a-f]*)$/\1\t\4 \3/' \
    -e 's/^\([^\t]*\)\t *Doc-tests \(.*\)$/\1\t\2 doctests/' "$stamps" |
    awk -F'\t' -v budget="$budget" '
        NR > 1 { printf "%8.1f s  %s%s\n", $1 - t, name, ($1 - t > budget ? "  over budget" : "") }
        { t = $1; name = $2 }
    ' | sort -rn
exit "$status"
