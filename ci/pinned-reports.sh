#!/bin/sh
# exp soundness and exp attack split their trials over the CPUs they may
# run on; pinned to one CPU by taskset, each runs them all in one process,
# and the report must be the same bytes.
#
#   ci/pinned-reports.sh seqproof
#   ci/pinned-reports.sh python -m seqproof.cli
set -eu
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
taskset -c 0 "$@" exp soundness --n 2 --m 2 --prime 1009 --trials 1000 --json > "$dir/one-cpu.json"
"$@" exp soundness --n 2 --m 2 --prime 1009 --trials 1000 --json > "$dir/all-cpus.json"
cmp "$dir/one-cpu.json" "$dir/all-cpus.json"
taskset -c 0 "$@" exp attack --log2t 12 --json > "$dir/attack-one-cpu.json"
"$@" exp attack --log2t 12 --json > "$dir/attack-all-cpus.json"
cmp "$dir/attack-one-cpu.json" "$dir/attack-all-cpus.json"
