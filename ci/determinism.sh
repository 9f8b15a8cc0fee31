#!/usr/bin/env bash
# Cross-process determinism check: run the same `cargo test` twice, each
# run exporting its report through $ENV_VAR to a fresh temp path, and
# require every compared report to be non-empty and byte-identical.
#
#   ci/determinism.sh <ENV_VAR> [report-suffix...] -- <cargo test args>
#
# With no suffix the report at the exported path itself is compared;
# otherwise one report per suffix at path+suffix ("" names the path
# itself). DETERMINISM_ENV_1 / DETERMINISM_ENV_2 may hold NAME=value
# words applied to the first / second run only — the kernel-dispatch job
# flips SKT_KERNEL_SIMD between the runs this way.
set -euo pipefail

usage() {
    sed -n '2,11p' "$0" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
var=$1
shift
suffixes=()
while [[ ${1-} != -- ]]; do
    [[ $# -gt 0 ]] || usage
    suffixes+=("$1")
    shift
done
shift
((${#suffixes[@]})) || suffixes=("")

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for run in 1 2; do
    extra=DETERMINISM_ENV_$run
    # shellcheck disable=SC2086 # NAME=value words are split on purpose
    env ${!extra-} "$var=$dir/report-$run" cargo test -q "$@"
done
for s in "${suffixes[@]}"; do
    test -s "$dir/report-1$s"
    diff "$dir/report-1$s" "$dir/report-2$s"
done
