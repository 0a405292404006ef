#!/usr/bin/env bash
# Lines of Rust per crate under crates/, split three ways:
#   non-test  src/ up to a file's `#[cfg(test)] mod … {` tail
#   twin      src/**/twin.rs — the parent's loops, kept as the proof the bytes did not move
#   test      the `#[cfg(test)]` tails and everything under tests/
# All lines count (blank and comment too), so the total column sums to
# `find crates -name '*.rs' | xargs cat | wc -l`. Quote the table in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

printf '%-20s %9s %6s %6s %7s\n' crate non-test twin test total
for crate in crates/*/; do
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
    END { printf "%-20s %9d %6d %6d %7d\n", "total", a, b, c, d }'
