#!/usr/bin/env bash
# A name filter that matches nothing is a green `cargo test`. Run
# `cargo test "$@"`, sum libtest's `running N tests` lines, and fail when
# the whole invocation selected no test at all — a renamed test or module
# must not silently empty a CI lane.
#
#   ci/filtered.sh -q -p skt-ftsim -- service:: admission:: storm::
set -euo pipefail

[[ $# -ge 1 ]] || { sed -n '2,7p' "$0" >&2; exit 2; }

out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo test "$@" 2>&1 | tee "$out"
total=$(awk '/^running [0-9]+ tests?$/ { n += $2 } END { print n + 0 }' "$out")
if ((total == 0)); then
    echo "ci/filtered.sh: 'cargo test $*' ran 0 tests: the filter matches nothing" >&2
    exit 1
fi
echo "ci/filtered.sh: $total tests ran"
