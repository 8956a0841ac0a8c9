#!/bin/sh
# A proof file is a Fiat-Shamir proof: it round-trips through the seqproof
# command given as the arguments, and --out without --fs is refused with
# exit 1 and writes nothing.
#
#   ci/proof-file.sh seqproof
#   ci/proof-file.sh python -m seqproof.cli
set -eu
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
printf 'p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n' > "$dir/f.qdimacs"
"$@" prove-tqbf --in "$dir/f.qdimacs" --fs --out "$dir/f.proof"
"$@" verify-tqbf --in "$dir/f.qdimacs" --transcript "$dir/f.proof"
status=0
"$@" prove-tqbf --in "$dir/f.qdimacs" --out "$dir/interactive.proof" || status=$?
test "$status" -eq 1
test ! -e "$dir/interactive.proof"
