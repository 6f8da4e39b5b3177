#!/usr/bin/env bash
# Alternating parent/change pairs of one lxbench workload.
#
#   scripts/ab_pairs.sh <parent-lxbench> <change-lxbench> <workload> [pairs] [seed] [lxbench flags...]
#
# Runs `lxbench --workload W --seed S --trace 0` `pairs` times (default 10)
# on each side: the parent first on odd pairs, the change first on even
# ones, so a drift in the host's load hits both sides alike. Extra flags go
# to every run (default `--seconds 8`; e.g. `--smoke` for a quick check).
#
# Prints, per end-to-end metric, each side's median [q1, q3] (the quartile
# rule of lxbench's own summaries), the change/parent ratio of the medians
# and how many pairs the change won, by the metric's direction in
# BENCHMARK.json. Exits non-zero when the two sides' sim_fingerprints
# differ, when any run reports failed operations, or when a run fails.
#
# Runs from the repo root whatever the caller's directory; each run's
# output is kept under benchmark/out/ab_pairs/, and lxbench itself writes
# only under benchmark/out.
set -euo pipefail

if [ "$#" -lt 3 ]; then
    sed -n '4p' "$0" | sed 's/^# *//' >&2
    exit 2
fi
parent="$(realpath "$1")"
change="$(realpath "$2")"
workload="$3"
pairs="${4:-10}"
seed="${5:-42}"
shift $(($# < 5 ? $# : 5))
flags=("$@")
[ "${#flags[@]}" -gt 0 ] || flags=(--seconds 8)

cd "$(dirname "$0")/.."
out="benchmark/out/ab_pairs"
mkdir -p "$out"

# One run: its output file, or exit 1 when it fails to complete.
run() {
    local side="$1" bin="$2" pair="$3"
    local file="$out/${workload}_${pair}_${side}.txt"
    if ! "$bin" --workload "$workload" --seed "$seed" --trace 0 "${flags[@]}" >"$file"; then
        echo "ab_pairs: $side run of pair $pair exited non-zero (output: $file)" >&2
        exit 1
    fi
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
done

# Every run's fingerprint and its contract line's metrics and failure
# count, one `side pair key value` record per line.
records() {
    for pair in $(seq 1 "$pairs"); do
        for side in parent change; do
            local file="$out/${workload}_${pair}_${side}.txt"
            local contract
            contract="$(tail -n 1 "$file")"
            echo "$side $pair fingerprint $(sed -n 's/.*sim_fingerprint \([0-9a-f]*\).*/\1/p' "$file" | head -n 1)"
            echo "$side $pair failed $(echo "$contract" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')"
            echo "$side $pair correct $(echo "$contract" | sed -n 's/.*"correct":\([a-z]*\).*/\1/p')"
            echo "$contract" | grep -o '"[a-z_0-9.]*":{"value":[^,}]*' |
                sed 's/^"\([^"]*\)":{"value":\(.*\)$/\1 \2/' |
                while read -r name value; do echo "$side $pair metric:$name $value"; done
        done
    done
}

# Direction of every metric BENCHMARK.json declares.
directions() {
    awk -F'"' '/"name"/ { n = $4 } /"better"/ { print n, $4 }' BENCHMARK.json
}

records | awk -v workload="$workload" -v seed="$seed" -v pairs="$pairs" '
    FNR == NR { better[$1] = $2; next }
    $3 == "fingerprint" { fp[$1] = fp[$1] == "" || fp[$1] == $4 ? $4 : "mixed"; next }
    $3 == "failed" { if ($4 == "" || $4 + 0 > 0) bad = bad "\n  " $1 " pair " $2 ": " ($4 == "" ? "no contract line" : $4 " failed operations"); next }
    $3 == "correct" { if ($4 != "true") bad = bad "\n  " $1 " pair " $2 ": correct = " $4; next }
    {
        name = substr($3, 8)
        if (!(name in seen)) { seen[name] = 1; order[++n_metrics] = name }
        v[$1, name, $2] = $4
    }
    # Quantile k/4 by the exclusive rule lxbench uses (Python statistics.quantiles).
    function quartile(a, n, k,    pos, j, delta) {
        if (n == 1) return a[1]
        pos = k * (n + 1); j = int(pos / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        delta = pos / 4 - j
        return a[j] + (a[j + 1] - a[j]) * delta
    }
    function summarise(side, name,    a, i, j, t, n) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, name, i) in v) a[++n] = v[side, name, i] + 0
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        q1[side] = quartile(a, n, 1); med[side] = quartile(a, n, 2); q3[side] = quartile(a, n, 3)
    }
    END {
        printf "%s seed %s, %d alternating pairs; sim_fingerprint parent %s, change %s\n", workload, seed, pairs, fp["parent"], fp["change"]
        printf "%-18s %-36s %-36s %8s %6s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
        for (m = 1; m <= n_metrics; m++) {
            name = order[m]
            summarise("parent", name); summarise("change", name)
            wins = 0
            for (i = 1; i <= pairs; i++) {
                p = v["parent", name, i] + 0; c = v["change", name, i] + 0
                if ((better[name] == "lower" && c < p) || (better[name] != "lower" && c > p)) wins++
            }
            printf "%-18s %-36s %-36s %8.3f %3d/%-2d\n", name,
                sprintf("%.6g [%.6g, %.6g]", med["parent"], q1["parent"], q3["parent"]),
                sprintf("%.6g [%.6g, %.6g]", med["change"], q1["change"], q3["change"]),
                med["parent"] == 0 ? 0 : med["change"] / med["parent"], wins, pairs
        }
        status = 0
        if (fp["parent"] == "" || fp["parent"] == "mixed" || fp["parent"] != fp["change"]) {
            print "ab_pairs: sim_fingerprints differ between or within the sides" > "/dev/stderr"; status = 1
        }
        if (bad != "") { print "ab_pairs: failed runs:" bad > "/dev/stderr"; status = 1 }
        exit status
    }
' <(directions) -
