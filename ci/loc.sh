#!/usr/bin/env bash
# Lines of Rust per crate under crates/, split three ways:
#   non-test  src/ up to a file's `#[cfg(test)] mod … {` tail
#   twin      src/**/twin.rs — the parent's loops, kept as the proof the bytes did not move
#   test      the `#[cfg(test)]` tails and everything under tests/
# All lines count (blank and comment too), so the total column sums to
# `find crates -name '*.rs' | xargs cat | wc -l`. Quote the table in CHANGES.md.
#
# `--check` then holds the table to the ceilings in ci/loc_budget (each
# crate's non-test and twin lines, and DESIGN.md's line count) and exits 1
# naming everything over its ceiling.
set -euo pipefail
cd "$(dirname "$0")/.."

table=$(for crate in crates/*/; do
    find "$crate" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$crate")" '
        FNR == 1 { tail = 0; prev = "" }
        {
            if (FILENAME ~ /\/tests\//) kind = "test"
            else if (FILENAME ~ /\/twin\.rs$/) kind = "twin"
            else {
                if (!tail && prev == "#[cfg(test)]" && $0 ~ /^(pub(\([a-z]+\))? )?mod [a-z0-9_]+ \{/) {
                    tail = 1; n["non-test"]--; n["test"]++
                }
                kind = tail ? "test" : "non-test"
            }
            n[kind]++; prev = $0
        }
        END {
            printf "%-20s %9d %6d %6d %7d\n", crate, n["non-test"], n["twin"], n["test"],
                n["non-test"] + n["twin"] + n["test"]
        }'
done | awk '{ print; a += $2; b += $3; c += $4; d += $5 }
    END { printf "%-20s %9d %6d %6d %7d\n", "total", a, b, c, d }')
printf '%-20s %9s %6s %6s %7s\n' crate non-test twin test total
echo "$table"
[ "${1:-}" = --check ] || exit 0

# ceilings first, then the measured rows (DESIGN.md's as `name lines`)
printf '%s\nDESIGN.md %s\n' "$table" "$(wc -l < DESIGN.md)" |
    awk 'NR == FNR { if ($1 !~ /^#/ && NF) { cap[$1] = $2; twin[$1] = $3 } next }
        $1 in cap {
            seen[$1] = 1
            what = $1 ~ /\.md$/ ? "lines" : "non-test lines"
            if ($2 > cap[$1]) { printf "over budget: %s has %d %s, ceiling %d\n", $1, $2, what, cap[$1]; bad = 1 }
            if (twin[$1] != "" && $3 > twin[$1]) { printf "over budget: %s has %d twin lines, ceiling %d\n", $1, $3, twin[$1]; bad = 1 }
            next
        }
        $1 != "total" { printf "no ceiling: %s is not in ci/loc_budget\n", $1; bad = 1 }
        END {
            for (n in cap) if (!(n in seen)) { printf "no such crate: %s is in ci/loc_budget\n", n; bad = 1 }
            if (bad) exit 1
            print "within ci/loc_budget"
        }' ci/loc_budget -
