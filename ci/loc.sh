#!/usr/bin/env bash
# Non-test lines per crate — the counting rule behind the before/after
# numbers in CHANGES.md: for each `src/**/*.rs` of a workspace crate, the
# lines before the first `#[cfg(test)]` (the whole file when it has
# none). Files named `tests.rs` and the benchmark package
# (`crates/bench/src/bin/cycle_budget/`, its own workspace) are excluded.
#
#   ci/loc.sh            per-crate totals and the grand total
#   ci/loc.sh <crate>    per-file counts of crates/<crate>, then its total
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # non-test lines of one file
    awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

files() { # counted files of one crate directory
    find "$1/src" -name '*.rs' ! -name tests.rs ! -path '*/cycle_budget/*' | sort
}

if [[ $# -eq 1 ]]; then
    total=0
    while read -r f; do
        n=$(count "$f")
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done < <(files "crates/$1")
    printf '%6d  crates/%s\n' "$total" "$1"
    exit
fi

grand=0
for dir in crates/*/ .; do
    dir=${dir%/}
    [[ -d $dir/src ]] || continue
    total=0
    while read -r f; do
        total=$((total + $(count "$f")))
    done < <(files "$dir")
    printf '%6d  %s\n' "$total" "$dir"
    grand=$((grand + total))
done
printf '%6d  total\n' "$grand"
