#!/usr/bin/env bash
# Runs every workload, untraced (end-to-end metrics) then traced
# (per-layer metrics and self time), and prints every metric by name
# with its unit, each line prefixed with its workload.
#
#   benchmark/run.sh [--smoke] [--seed N] [--seconds S]
#
# Exits non-zero if any run fails to produce a correct result.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
seed=1
seconds=10
smoke=()
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) smoke=(--smoke) ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        *) echo "usage: run.sh [--smoke] [--seed N] [--seconds S]" >&2; exit 2 ;;
    esac
    shift
done

bench() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
}

status=0
for workload in steady_dp2 faults_transparent faults_userlevel faults_periodic coordinator_objstore; do
    untraced="$(bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 ${smoke[@]+"${smoke[@]}"})"
    traced="$(bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 ${smoke[@]+"${smoke[@]}"})"
    for out in "$untraced" "$traced"; do
        # Everything but the driver's JSON line.
        printf '%s\n' "$out" | sed '$d' | sed "s/^/$workload /"
        case "$(printf '%s\n' "$out" | tail -n 1)" in
            '{"correct": true,'*) ;;
            *) status=1 ;;
        esac
    done
    # End-to-end numbers come from the untraced run; the ratio of the two
    # runs' run_wall_s is the tracing overhead as two processes see it.
    printf '%s\n%s\n' "$untraced" "$traced" | awk -v w="$workload" '
        $1 == "METRIC" && $4 == "run_wall_s" { untraced = $5 }
        $1 == "#" && $2 == "traced" && $3 == "run_wall_s" { traced = $4 }
        END { if (untraced > 0) printf "%s # trace_overhead_frac (two runs) %.6f ratio\n", w, traced / untraced - 1 }'
done
exit $status
