#!/usr/bin/env sh
# Public-surface and size ledger (the ROADMAP's "Finish the plane
# collapse" acceptance: "the public item count per crate is recorded
# before and after, and it goes down").
#
# Prints one line per workspace crate: the number of `pub` items under
# its `src/` (fn, struct, enum, trait, const, type — at any depth, test
# modules included, so the number is a plain grep anyone can repeat) and
# the number of non-test source lines (every line outside a column-0
# `#[cfg(test)]` block, which rustfmt closes with a column-0 `}`, so the
# count does not depend on where in a file a test module sits).
#
#   scripts/surface.sh            print the ledger (commit it as SURFACE.txt)
#   scripts/surface.sh --check    fail if any crate's pub count exceeds SURFACE.txt
set -eu
cd "$(dirname "$0")/.."

ledger() {
    for dir in crates/*/; do
        crate="$(basename "$dir")"
        files="$(find "$dir/src" -name '*.rs' | sort)"
        # shellcheck disable=SC2086
        pubs="$(cat $files | grep -cE '^[[:space:]]*pub (fn|struct|enum|trait|const|type) ' || true)"
        # shellcheck disable=SC2086
        lines="$(awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } test && /^}/ { test = 0 } END { print n + 0 }' $files)"
        printf '%-12s pub_items %4d  non_test_lines %6d\n' "$crate" "$pubs" "$lines"
    done
}

if [ "${1:-}" = "--check" ]; then
    ledger | awk '
        NR == FNR { committed[$1] = $3; next }
        !($1 in committed) { printf "surface.sh: crate %s is not in SURFACE.txt\n", $1; bad = 1; next }
        $3 > committed[$1] {
            printf "surface.sh: %s has %d pub items, SURFACE.txt allows %d\n", $1, $3, committed[$1]
            bad = 1
        }
        END { exit bad }
    ' SURFACE.txt -
else
    ledger
fi
