#!/usr/bin/env python3
"""
Interactive proof round by round
================================

Takes a small quantified Boolean formula, shows its arithmetization
values, then walks the full prover/verifier conversation: one univariate
polynomial and one field challenge per operator in the chain.
"""

import random

from seqproof.fiatshamir import InteractiveChallenges
from seqproof.qbf import eval_qbf_bruteforce, parse_qbf
from seqproof.sumcheck import (
    build_operator_chain,
    chain_value,
    default_prime,
    sumcheck_prove,
    sumcheck_verify,
)

TEXT = """\
p cnf 3 3
a 1 0
e 2 0
a 3 0
1 2 0
-1 -2 0
-3 1 2 0
"""


def main():
    formula = parse_qbf(TEXT)
    n, m = formula.num_vars, len(formula.clauses)
    p = default_prime(formula)
    print(f"formula: {n} variables, {m} clauses, field size p = {p}")
    print(f"brute-force truth value: {eval_qbf_bruteforce(formula)}")

    ops = build_operator_chain(formula)
    print(f"operator chain: {len(ops)} rounds (n(n+3)/2 = {n * (n + 3) // 2})")
    claim = chain_value(formula, p)
    print(f"chain value mod p: {claim}  (nonzero = membership proof exists)\n")

    transcript = sumcheck_prove(formula, p, InteractiveChallenges(random.Random(7)))
    print(f"claimed value sent first: {transcript.claimed_value}")
    # round k belongs to the chain's k-th operator; the last challenge bound
    # to each variable gives the point where the verifier evaluates the matrix
    point = [None] * n
    for k, (op, s, r) in enumerate(zip(ops, transcript.polys, transcript.challenges)):
        point[op.var - 1] = r
        print(
            f"  round {k:2d}: {op.kind.value:4s} over x{op.var}"
            f"  degree {len(s) - 1}"
            f"  coeffs {list(s)}  challenge {r}"
        )
    print(f"final evaluation point: {tuple(point)}\n")

    # the verifier checks every round of the transcript printed above
    verdict = sumcheck_verify(formula, p, transcript)
    print(f"verifier accepts: {verdict.accepted}")


if __name__ == "__main__":
    main()
