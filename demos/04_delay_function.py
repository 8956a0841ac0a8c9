#!/usr/bin/env python3
"""
A delay function from bounded-space machine runs
================================================

Evaluation runs a hash-seeded machine for T steps; nothing in the
construction lets anyone shortcut the chain, so T is a wall-clock dial.
Every count below is of transitions the machine actually took: the
default state width, log2 T + lambda bits, makes a run that halts before
T rare.  Verification replays only the last few steps from a spot-check
opening.  Doubling T doubles evaluation while the verifier's work stays
pinned at the security parameter.
"""

import random
import time

from seqproof.shvdf import sample_challenge, vdf_eval, vdf_open, vdf_setup, vdf_verify


def main():
    lam, space = 16, 32
    pp = vdf_setup(lam, 12, space, seed="delay-demo")
    print(
        f"parameters: lambda={pp.lam} T={pp.num_steps} space={pp.space} "
        f"state bits={pp.state_bits}"
    )

    x = "1011001110001111"
    out = vdf_eval(pp, x)
    print(f"eval('{x}') = {out.value} after {out.steps} transitions (T = {pp.num_steps})")

    rng = random.Random(99)
    t = sample_challenge(pp, rng)
    proof = vdf_open(pp, x, t)
    verdict = vdf_verify(pp, x, out.value, t, proof)
    print(
        f"challenge t={t}: opening reveals {len(proof.scanned)} scanned symbols, "
        f"verifier replays {verdict.steps} steps, accepted={verdict.accepted}\n"
    )

    print("   T        eval steps   eval seconds   verify steps")
    for log2t in (12, 13, 14, 15, 16):
        pp = vdf_setup(lam, log2t, space, seed="delay-demo")
        start = time.perf_counter()
        out = vdf_eval(pp, x)
        elapsed = time.perf_counter() - start
        t = sample_challenge(pp, random.Random(log2t))
        verdict = vdf_verify(pp, x, out.value, t, vdf_open(pp, x, t))
        print(
            f"  2^{log2t}   {out.steps:10d}   {elapsed:11.4f}   {verdict.steps:10d}"
        )
    print("\nevaluation scales linearly with T; verification never leaves O(lambda).")


if __name__ == "__main__":
    main()
