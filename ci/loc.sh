#!/usr/bin/env bash
# Non-test lines per crate — the counting rule behind the before/after
# numbers in CHANGES.md: for each `src/**/*.rs` of a workspace crate, the
# lines before the first `#[cfg(test)]` (the whole file when it has
# none). Files named `tests.rs` and the benchmark package
# (`crates/bench/src/bin/cycle_budget/`, its own workspace) are excluded.
#
# Self-check: the rule is only right when nothing but tests follows that
# first `#[cfg(test)]`, so a counted file whose marker is not (further
# attributes, comments and blank lines aside) the start of its trailing
# `mod name { … }` block or `mod name;` declaration fails the script —
# production code below a test marker would silently drop out of the count.
#
# Under the grand total one more line, `aux`: every line of the Rust the
# rule above never sees (each counted file's lines from its first
# `#[cfg(test)]` on, `src/**/tests.rs`, `vendor/`, `crates/*/benches`,
# `crates/*/tests`, `tests/`, `examples/`), so a deletion there shows in
# CHANGES.md too.
#
# Last, the benchmark package on a line of its own, in neither the total
# nor `aux`: every line of its `src/**/*.rs`, tests included (its files
# keep test-only helpers inside `impl` blocks, which the rule above would
# reject).
#
#   ci/loc.sh            per-crate totals, the grand total, `aux`, and the
#                        benchmark package
#   ci/loc.sh <crate>    per-file counts of crates/<crate>, then its total
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # "<non-test lines> <all lines>" of one file; fails when code follows its tests
    awk -v file="$1" '
        !marked && /#\[cfg\(test\)\]/ { marked = 1; next }
        !marked { n++; next }
        # past the marker: 0 = before the module, 1 = inside it, 2 = after
        at == 0 && /^[[:space:]]*(#!?\[|\/\/|$)/ { next }
        at == 0 && /^(pub(\([a-z]+\))? )?mod [a-z0-9_]+;$/ { at = 2; next }
        at == 0 && /^(pub(\([a-z]+\))? )?mod [a-z0-9_]+ \{$/ { at = 1; next }
        at == 1 { if (/^\}/) at = 2; next }
        at == 2 && /^[[:space:]]*$/ { next }
        { stray = 1; exit }
        END {
            if (stray || (marked && at != 2)) {
                print "ci/loc.sh: " file ": #[cfg(test)] is not the start of a trailing test module" > "/dev/stderr"
                exit 1
            }
            print n + 0, NR
        }' "$1"
}

files() { # counted files of one crate directory
    find "$1/src" -name '*.rs' ! -name tests.rs ! -path '*/cycle_budget/*' | sort
}

if [[ $# -eq 1 ]]; then
    total=0
    while read -r f; do
        n=$(count "$f")
        n=${n% *}
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done < <(files "crates/$1")
    printf '%6d  crates/%s\n' "$total" "$1"
    exit
fi

grand=0
aux=0
for dir in crates/*/ .; do
    dir=${dir%/}
    [[ -d $dir/src ]] || continue
    total=0
    while read -r f; do
        n=$(count "$f") # on its own line: a failed self-check stops the script
        total=$((total + ${n% *}))
        aux=$((aux + ${n#* } - ${n% *}))
    done < <(files "$dir")
    printf '%6d  %s\n' "$total" "$dir"
    grand=$((grand + total))
    aux=$((aux + $(find "$dir/src" -name tests.rs ! -path '*/cycle_budget/*' -exec cat {} + | wc -l)))
done
printf '%6d  total\n' "$grand"
for dir in vendor crates/*/benches crates/*/tests tests examples; do
    [[ -d $dir ]] || continue # an unmatched glob, or a directory since deleted
    aux=$((aux + $(find "$dir" -name '*.rs' -exec cat {} + | wc -l)))
done
printf '%6d  aux\n' "$aux"
bench=crates/bench/src/bin/cycle_budget
printf '%6d  %s (benchmark package, not in the total)\n' \
    "$(find "$bench/src" -name '*.rs' -exec cat {} + | wc -l)" "$bench"
