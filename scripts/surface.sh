#!/usr/bin/env sh
# Public-surface and size ledger (the ROADMAP's "Finish the plane
# collapse" acceptance: "the public item count per crate is recorded
# before and after, and it goes down").
#
# Prints one line per workspace crate: the number of `pub` items under
# its `src/` (fn, struct, enum, trait, const, type — at any depth, test
# modules included, so the number is a plain grep anyone can repeat),
# the number of non-test source lines (every line outside a column-0
# `#[cfg(test)]` block, which rustfmt closes with a column-0 `}`, so the
# count does not depend on where in a file a test module sits), and the
# number of those `pub` item names that no file outside the crate's own
# `src/` names as a word (searched: `crates/*/src`, `crates/*/tests`,
# `tests/`, `examples/`, `src/` and `benchmark/src`). A common name
# matches somewhere, so the last count is a floor, not the whole truth.
#
#   scripts/surface.sh            print the ledger (commit it as SURFACE.txt)
#   scripts/surface.sh --check    fail if any crate's pub count, or its
#                                 unnamed count, exceeds SURFACE.txt
set -eu
cd "$(dirname "$0")/.."

pub_re='^[[:space:]]*pub (fn|struct|enum|trait|const|type) '

# The `pub` item names of crate $1 that no file outside its `src/` names.
unnamed() {
    names="$(find "crates/$1/src" -name '*.rs' -exec grep -hE "$pub_re" {} + \
        | sed -nE 's/^[[:space:]]*pub (fn|struct|enum|trait|const|type) ([A-Za-z_][A-Za-z0-9_]*).*/\2/p' \
        | sort -u)"
    [ -n "$names" ] || return 0
    named="$(find crates/*/src crates/*/tests tests examples src benchmark/src -name '*.rs' 2>/dev/null \
        | grep -v "^crates/$1/src/" \
        | xargs grep -ohwF -e "$(printf '%s\n' "$names")" \
        | sort -u)" || true
    printf '%s\n' "$names" | grep -vxF -e "${named:-(none)}" || true
}

ledger() {
    for dir in crates/*/; do
        crate="$(basename "$dir")"
        files="$(find "$dir/src" -name '*.rs' | sort)"
        # shellcheck disable=SC2086
        pubs="$(cat $files | grep -cE "$pub_re" || true)"
        # shellcheck disable=SC2086
        lines="$(awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } test && /^}/ { test = 0 } END { print n + 0 }' $files)"
        lone="$(unnamed "$crate" | grep -c . || true)"
        printf '%-12s pub_items %4d  non_test_lines %6d  unnamed %3d\n' "$crate" "$pubs" "$lines" "$lone"
    done
}

if [ "${1:-}" = "--check" ]; then
    status=0
    # Messages go to stderr; the crates whose unnamed count rose, to stdout.
    grew="$(ledger | awk '
        NR == FNR { pubs[$1] = $3; lone[$1] = $7; next }
        !($1 in pubs) { printf "surface.sh: crate %s is not in SURFACE.txt\n", $1 > "/dev/stderr"; bad = 1; next }
        $3 > pubs[$1] {
            printf "surface.sh: %s has %d pub items, SURFACE.txt allows %d\n", $1, $3, pubs[$1] > "/dev/stderr"
            bad = 1
        }
        $7 > lone[$1] {
            printf "surface.sh: %s has %d pub items no other file names, SURFACE.txt allows %d\n", $1, $7, lone[$1] > "/dev/stderr"
            print $1
            bad = 1
        }
        END { exit bad }
    ' SURFACE.txt -)" || status=1
    for crate in $grew; do
        printf 'surface.sh: %s, named nowhere else: %s\n' "$crate" "$(unnamed "$crate" | tr '\n' ' ')" >&2
    done
    exit $status
else
    ledger
fi
