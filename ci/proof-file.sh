#!/bin/sh
# A proof file is a Fiat-Shamir proof: it round-trips through the seqproof
# command given as the arguments, with the round count the formula's chain
# sets, and --out without --fs is refused with exit 1 and writes nothing.
#
# In the first formula x2 is existential, so block 1's linearization is
# skipped and the proof has 4 rounds; in the second x2 is universal, so
# block 1 is kept and the proof has 5.
#
#   ci/proof-file.sh seqproof
#   ci/proof-file.sh python -m seqproof.cli
set -eu
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

round_trip() {  # name, expected round count, then the command
    name=$1 rounds=$2
    shift 2
    "$@" prove-tqbf --in "$dir/$name.qdimacs" --fs --out "$dir/$name.proof" > "$dir/$name.out"
    cat "$dir/$name.out"
    grep -qx "rounds $rounds" "$dir/$name.out" || { echo "$name: expected rounds $rounds"; exit 1; }
    "$@" verify-tqbf --in "$dir/$name.qdimacs" --transcript "$dir/$name.proof"
}

printf 'p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n' > "$dir/skipped.qdimacs"
printf 'p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n' > "$dir/kept.qdimacs"
round_trip skipped 4 "$@"
round_trip kept 5 "$@"
status=0
"$@" prove-tqbf --in "$dir/skipped.qdimacs" --out "$dir/interactive.proof" || status=$?
test "$status" -eq 1
test ! -e "$dir/interactive.proof"
