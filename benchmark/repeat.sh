#!/usr/bin/env bash
# Runs the whole suite twice on the same build with the same seed and
# compares the two sets:
#
#   * an end-to-end metric whose two values differ by more than its bound
#     FAILS;
#   * an exact metric that differs FAILS: a count at all, a virtual time
#     by more than the 0.01 % printed as its bound;
#   * any failed operation FAILS;
#   * an end-to-end metric that agrees but whose spread inside a run
#     (quartile distance over median, where the metric is a sample) is
#     wider than its bound is UNRESOLVED, not passed.
#
# With --smoke a run lasts milliseconds and its timings mean nothing:
# they are printed, and only exact metrics and failed operations decide.
#
#   benchmark/repeat.sh [--smoke] [--seed N] [--seconds S]
set -uo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$here/out"
status=0
smoke=0
for arg in "$@"; do
    [ "$arg" = "--smoke" ] && smoke=1
done
for n in 1 2; do
    "$here/run.sh" "$@" > "$here/out/repeat_$n.txt" || status=1
done

awk -v smoke="$smoke" '
    FNR == 1 { file++ }
    $2 == "METRIC" {
        key = $1 " " $5
        value[file, key] = $6
        if (file == 1) {
            order[++count] = key
            class[key] = $3 " " $4
            unit[key] = $7
            for (i = 8; i <= NF; i++) {
                split($i, kv, "=")
                if (kv[1] == "bound") bound[key] = kv[2]
                if (kv[1] == "q1") q1[key] = kv[2]
                if (kv[1] == "q3") q3[key] = kv[2]
            }
        }
    }
    $2 == "#" && $3 == "ops" {
        split($5, kv, "=")
        if (kv[2] != 0) { printf "FAIL        %s: %s failed operations\n", $1, kv[2]; bad = 1 }
    }
    END {
        for (n = 1; n <= count; n++) {
            key = order[n]
            a = value[1, key]; b = value[2, key]
            if (class[key] == "e2e wall") {
                base = (a < b) ? a : b
                diff = (base > 0) ? (a > b ? a - b : b - a) / base : 0
                within = (key in q1 && a > 0) ? (q3[key] - q1[key]) / a : 0
                verdict = "pass"
                if (smoke) verdict = "smoke"
                else if (diff > bound[key]) { verdict = "FAIL"; bad = 1 }
                else if (within > bound[key]) { verdict = "UNRESOLVED"; unresolved = 1 }
                printf "%-11s %-40s %14.6f %14.6f %s  differ %.2f%%  in-run spread %.2f%%  bound %.0f%%\n", \
                    verdict, key, a, b, unit[key], diff * 100, within * 100, bound[key] * 100
            } else if (class[key] == "layer exact" && a != b) {
                base = (a < b) ? a : b
                diff = (a > b ? a - b : b - a) / (base > 0 ? base : 1)
                if (!(key in bound) || diff > bound[key]) {
                    printf "FAIL        %-40s %s != %s %s (exact)\n", key, a, b, unit[key]
                    bad = 1
                }
            }
        }
        if (count == 0) { print "FAIL        no metrics were printed"; bad = 1 }
        if (unresolved) print "some metrics are UNRESOLVED: spread inside a run is wider than the bound"
        exit bad
    }
' "$here/out/repeat_1.txt" "$here/out/repeat_2.txt" || status=1

if [ "$status" -eq 0 ]; then
    echo "repeat: the two sets agree"
else
    echo "repeat: the two sets DISAGREE (or a run failed)"
fi
exit "$status"
