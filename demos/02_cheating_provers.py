#!/usr/bin/env python3
"""
How often can a cheating prover win?
====================================

Picks a false formula and lets three dishonest strategies try to sell a
bogus nonzero claim over many independent verifier coin tosses.  The
accept rate stays below (3mn + n^2)/p, the polynomial-identity collision
budget of the whole conversation.
"""

import random

from seqproof.fiatshamir import InteractiveChallenges
from seqproof.harness import soundness_bound
from seqproof.qbf import eval_qbf_bruteforce, parse_qbf
from seqproof.sumcheck import cheat_prover, default_prime, sumcheck_verify

FALSE_TEXT = """\
p cnf 2 2
a 1 0
a 2 0
1 2 0
-1 -2 0
"""

TRIALS = 4000


def main():
    formula = parse_qbf(FALSE_TEXT)
    assert not eval_qbf_bruteforce(formula)
    n, m = formula.num_vars, len(formula.clauses)
    print(f"false formula: {n} variables, {m} clauses")
    print(f"{TRIALS} trials per strategy\n")

    for p in (default_prime(formula), 1009):
        print(f"field size p = {p}, bound (3mn + n^2)/p = {soundness_bound(n, m, p):.4f}")
        for strategy in ("wrong-claim", "constant-poly", "random-round"):
            wins = 0
            for i in range(TRIALS):
                coins = InteractiveChallenges(random.Random(f"demo2:{p}:{strategy}:{i}:v"))
                # the prover's seed: only random-round draws from an rng
                transcript = cheat_prover(strategy, formula, p, coins, prover_rng=f"demo2:{p}:{strategy}:{i}:p")
                wins += sumcheck_verify(formula, p, transcript).accepted
            print(f"  {strategy:13s}  accepted {wins:4d}/{TRIALS}  rate {wins / TRIALS:.4f}")
        print()

    print("every win is a lucky root of a low-degree difference polynomial;")
    print("raising p shrinks the rate, raising trials never lifts it past the bound.")


if __name__ == "__main__":
    main()
