#!/usr/bin/env python3
"""
Forging openings without doing the work
=======================================

The delay function's verifier replays transitions from the scanned
symbols inside the proof and never consults the claimed input.  An
adversary can therefore start the machine at a fresh random state, run
just lambda steps, and answer any challenge in the window, claiming
whatever output that short run produced.
"""

import random

from seqproof.fiatshamir import VDF_ORACLE, FiatShamirChallenges
from seqproof.noninteractive import fs_vdf_verify, open_bundle
from seqproof.shvdf import vdf_attack, vdf_eval, vdf_setup


def main():
    pp = vdf_setup(32, 16, 32, seed="forgery-demo")
    x = "11110000101000011111"
    print(f"parameters: lambda={pp.lam} T={pp.num_steps}")

    honest = vdf_eval(pp, x)
    print(f"honest evaluation: y={honest.value} after {honest.steps} transitions")

    forgery = vdf_attack(pp, x, random.Random(5))
    forged_y = forgery.value
    print(f"forger precomputation: {forgery.steps} transitions (budget lambda+1={pp.lam + 1})")
    print(f"forged output: y={forged_y} (differs: {forged_y != honest.value})\n")

    # the forger's recorded window opens through the same bundle builder as
    # an honest run, against the binding hash-derived challenge
    bundle = open_bundle(forgery, x, FiatShamirChallenges(VDF_ORACLE))
    verdict = fs_vdf_verify(bundle)
    print(f"hash-derived challenge t={bundle.challenge}")
    print(f"verifier accepts the forgery: {verdict.accepted}")

    print("\nacceptance is no evidence that anyone spent T steps: the replay is")
    print("input-blind, so sequential work and soundness part ways here.")


if __name__ == "__main__":
    main()
